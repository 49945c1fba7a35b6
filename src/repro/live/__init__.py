"""Real-time asyncio runtime serving the weighted-voting protocol.

The sim tree holds one implementation of Gifford's protocol, written as
generator processes against a tiny kernel interface.  This package
re-hosts that implementation on asyncio and real TCP sockets:

* :mod:`~repro.live.transport` — the sim's wire bodies
  (:mod:`repro.rpc.codec`) in length-prefixed TCP frames, with datagram
  (fire-and-forget) delivery semantics;
* :mod:`~repro.live.runtime` — :class:`LiveKernel` (sim scheduler →
  event loop), :class:`LiveHost` (sim host → transport) and
  :class:`LiveRuntime` (the client-side bundle);
* :mod:`~repro.live.server` — the storage daemon with file-backed
  stable storage;
* :mod:`~repro.live.harness` — an in-process loopback cluster for
  tests, benchmarks and the demo.
"""

from .harness import LoopbackCluster
from .runtime import LiveHost, LiveKernel, LiveRuntime
from .server import FilePageStore, LiveStorageServer, make_stable_store
from .transport import TransportNode

__all__ = [
    "FilePageStore",
    "LiveHost",
    "LiveKernel",
    "LiveRuntime",
    "LiveStorageServer",
    "LoopbackCluster",
    "TransportNode",
    "make_stable_store",
]
