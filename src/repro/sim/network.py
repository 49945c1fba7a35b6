"""Simulated packet network: hosts and links.

This is the bottom layer of the paper's stack ("packet network" in
Gifford's layering).  It moves bytes: a :class:`Host` encodes each
message into its :mod:`repro.rpc.codec` body — the bytes the live
transport puts on a socket — and decodes what arrives.  Delivery is
datagram-like:

* each directed link has a latency distribution and a per-byte
  transfer time, charged on the body's length;
* messages to or from a crashed host are silently dropped — the RPC
  layer above turns silence into timeouts.

Message faults — loss, duplicates, extra delay and partitions — are
not the network's: an attached :class:`~repro.chaos.policy.ChaosPolicy`
(:attr:`Network.chaos`) decides them, the same policy object the live
transport consults.

Hosts expose crash/restart with listener hooks so higher layers (storage
servers) can reset volatile state at the right instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..rpc.codec import FrameError, decode_wire_body, encode_binary_body
from .distributions import Distribution, as_distribution
from .queues import Resource
from .rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator


# No caller in src/: bench/simtwin.py imports it until the bench-only change.
def estimate_size(payload: Any, depth: int = 0) -> int:
    """Rough wire size of a message payload, in bytes.

    Bulk content (``bytes``/``str``) is counted at full length; scalars
    at 8 bytes; containers and dataclass-like objects are walked
    shallowly.  Precision does not matter — the model only needs file
    data to weigh orders of magnitude more than version numbers.
    """
    if depth > 6:
        return 8
    if payload is None:
        return 1
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, dict):
        return 8 + sum(estimate_size(k, depth + 1)
                       + estimate_size(v, depth + 1)
                       for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(item, depth + 1) for item in payload)
    inner = getattr(payload, "__dict__", None)
    if inner is not None:
        return 16 + estimate_size(inner, depth + 1)
    fields = getattr(payload, "__dataclass_fields__", None)
    if fields is not None:  # frozen dataclass with __slots__
        return 16 + sum(
            estimate_size(getattr(payload, name), depth + 1)
            for name in fields)
    return 16


def _discard(message: Any) -> None:
    """Where a host's messages go until something listens."""


class Host:
    """A network endpoint with up/down state: the sim's transport node.

    :meth:`send` puts a message's wire body on the network and
    :meth:`receive` decodes each delivered body and hands its message
    to ``dispatch``, which whatever serves the host (an RPC endpoint)
    installs; until then messages are dropped on arrival.  Decoding
    from bytes is what isolates a receiver from its sender.
    """

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.dispatch: Callable[[Any], None] = _discard
        self._up = True
        self._crash_listeners: List[Callable[[], None]] = []
        self._restart_listeners: List[Callable[[], None]] = []

    @property
    def sim(self) -> "Simulator":
        return self.network.sim

    @property
    def up(self) -> bool:
        return self._up

    # -- messaging ---------------------------------------------------------

    def send(self, destination: str, message: Any) -> None:
        """Fire-and-forget datagram to ``destination``.

        A message no frame can carry (:class:`FrameError`) is counted
        as sent and dropped, as the live transport drops it: the caller
        sees the same timeout in both runtimes.
        """
        try:
            body = encode_binary_body(message)
        except FrameError:
            self.network.messages_sent += 1
            self.network.messages_dropped += 1
            return
        self.network.send(self.name, destination, body)

    def receive(self, body: bytes) -> None:
        """The network's delivery: decode ``body`` and dispatch it."""
        for message in decode_wire_body(body):
            self.dispatch(message)

    # -- failure injection ---------------------------------------------------

    def crash(self) -> None:
        """Take the host down: inbound messages drop, listeners fire.

        Idempotent; crashing a crashed host is a no-op.
        """
        if not self._up:
            return
        self._up = False
        for listener in list(self._crash_listeners):
            listener()

    def restart(self) -> None:
        """Bring the host back up."""
        if self._up:
            return
        self._up = True
        for listener in list(self._restart_listeners):
            listener()

    def on_crash(self, listener: Callable[[], None]) -> None:
        self._crash_listeners.append(listener)

    def on_restart(self, listener: Callable[[], None]) -> None:
        self._restart_listeners.append(listener)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "DOWN"
        return f"<Host {self.name} {state}>"


class SharedMedium:
    """A broadcast medium: one frame on the wire at a time.

    Gifford's testbed was an experimental ~3 Mb/s Ethernet — a *shared*
    medium where concurrent transfers queue behind each other instead
    of proceeding in parallel.  Attach one to a :class:`Network` to
    model that: every message then holds the medium for
    ``size × byte_time`` before its propagation latency starts.

    FIFO acquisition (no collisions/backoff — the simulation abstracts
    CSMA/CD to its steady-state effect, serialization).
    """

    def __init__(self, sim: "Simulator", byte_time: float,
                 name: str = "ether") -> None:
        if byte_time <= 0:
            raise ValueError("byte_time must be positive")
        self.sim = sim
        self.byte_time = byte_time
        self.name = name
        self._wire = Resource(sim, capacity=1, name=name)
        self.transmissions = 0
        self.busy_time = 0.0

    @property
    def queue_length(self) -> int:
        return self._wire.queue_length

    def transmit(self, size: int):
        """Process generator: hold the wire for the frame's duration."""
        yield self._wire.acquire()
        try:
            duration = size * self.byte_time
            self.transmissions += 1
            self.busy_time += duration
            yield self.sim.timeout(duration)
        finally:
            self._wire.release()


class Network:
    """The collection of hosts plus link behaviour.

    ``default_latency`` applies to every directed link unless overridden
    with :meth:`set_latency`.  Latency of a host to itself is zero by
    default (loopback), which matters for clients co-located with a
    representative — the situation Example 2 of the paper exploits.
    """

    def __init__(self, sim: "Simulator",
                 streams: Optional[RandomStreams] = None,
                 default_latency: "Distribution | float" = 1.0,
                 loopback_latency: "Distribution | float" = 0.0,
                 ) -> None:
        self.sim = sim
        self.streams = streams or RandomStreams(seed=0)
        self._rng = self.streams.stream("network")
        self.default_latency = as_distribution(default_latency)
        self.loopback_latency = as_distribution(loopback_latency)
        self.messages_duplicated = 0
        #: Optional shared broadcast medium (see :class:`SharedMedium`):
        #: when set, every non-loopback message serializes through it
        #: before its point-to-point latency applies.
        self.medium: Optional[SharedMedium] = None
        self._hosts: Dict[str, Host] = {}
        self._latencies: Dict[Tuple[str, str], Distribution] = {}
        self._byte_times: Dict[Tuple[str, str], float] = {}
        self.default_byte_time = 0.0
        #: Optional :class:`~repro.chaos.policy.ChaosPolicy` (duck
        #: typed: anything with ``filter(source, destination)``): the
        #: one source of message faults and partitions.  Its verdict
        #: applies *after* the crashed-host check — same interposition
        #: point as the live transport's, so one policy drives both
        #: runtimes.
        self.chaos: Optional[Any] = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # -- topology ------------------------------------------------------------

    def add_host(self, name: str) -> Host:
        if name in self._hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self, name)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    def set_latency(self, source: str, destination: str,
                    latency: "Distribution | float",
                    symmetric: bool = True) -> None:
        """Override latency on the ``source -> destination`` link."""
        dist = as_distribution(latency)
        self._latencies[(source, destination)] = dist
        if symmetric:
            self._latencies[(destination, source)] = dist

    def set_byte_time(self, source: str, destination: str,
                      time_per_byte: float, symmetric: bool = True) -> None:
        """Set the per-byte transfer time on a link (bandwidth model).

        Message delay = link latency + body length × byte time, so a
        version-number inquiry (tens of bytes) is cheap while a file
        transfer pays for its size — the asymmetry Gifford's weak
        representatives and version inquiries exploit.
        """
        if time_per_byte < 0:
            raise ValueError("byte time must be non-negative")
        self._byte_times[(source, destination)] = time_per_byte
        if symmetric:
            self._byte_times[(destination, source)] = time_per_byte

    def byte_time_between(self, source: str, destination: str) -> float:
        if source == destination:
            return 0.0
        return self._byte_times.get((source, destination),
                                    self.default_byte_time)

    def latency_between(self, source: str, destination: str) -> Distribution:
        if source == destination:
            return self._latencies.get((source, destination),
                                       self.loopback_latency)
        return self._latencies.get((source, destination),
                                   self.default_latency)

    # -- delivery --------------------------------------------------------------

    def send(self, source: str, destination: str, body: bytes) -> None:
        """Datagram send of one wire body; drops silently on failure
        conditions."""
        self.messages_sent += 1
        if destination not in self._hosts:
            raise KeyError(f"unknown destination host {destination!r}")
        if not (self._hosts[source].up and self._hosts[destination].up):
            self.messages_dropped += 1
            return
        verdict = (self.chaos.filter(source, destination)
                   if self.chaos is not None else None)
        if verdict is not None and verdict.drop:
            self.messages_dropped += 1
            return
        latency = self.latency_between(source, destination).sample(self._rng)
        byte_time = self.byte_time_between(source, destination)
        if byte_time > 0.0:
            latency += byte_time * len(body)
        if verdict is not None:
            latency += verdict.delay
            if verdict.duplicate:
                self.messages_duplicated += 1
                self.sim.schedule(
                    self.latency_between(source,
                                         destination).sample(self._rng)
                    + verdict.duplicate_delay,
                    self._deliver, destination, body)
        if self.medium is not None and source != destination:
            self.sim.spawn(
                self._transmit_shared(destination, body, latency),
                name=f"xmit:{source}->{destination}")
        else:
            self.sim.schedule(latency, self._deliver, destination, body)

    def _transmit_shared(self, destination: str, body: bytes,
                         latency: float):
        yield from self.medium.transmit(len(body))
        yield self.sim.timeout(latency)
        self._deliver(destination, body)

    def _deliver(self, destination: str, body: bytes) -> None:
        host = self._hosts[destination]
        if not host.up:
            # Crashed while the message was in flight.
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        host.receive(body)
