"""Per-representative profiles, folded from the registries.

The autopilot never probes the cluster itself — it reads evidence that
foreground traffic already recorded, over the *window* since its last
observation (``seen`` holds each cumulative reading at that point):

* **latency** from the quorum critical path: the
  ``quorum.blocking.wait_ms[...]`` milliseconds a representative kept
  its quorum waiting, per ``quorum.blocking.gathers[...]`` gather (a
  gather closed at its deadline, or on a timeout, charges its whole
  wait to the representative it waited on, as
  :meth:`~repro.obs.critical_path.QuorumPath.attribution` does);
* **availability** from breaker history: a representative whose
  breaker opened in the window, or is not closed now, was *down*.  If
  ``d`` of the suite's ``n`` representatives were, each is taken to
  change state by the next window with probability ``d / n`` — so a
  window without breaker trouble prices no blocking at all.  A down
  representative does not answer: its latency is the ``timeout`` a
  caller waits out;
* the **read fraction** from the window's ``suite.reads`` and
  ``suite.writes``, add-one smoothed (a quiet window reads 0.5).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from ..chaos.health import CLOSED
from ..core.tuning import ServerProfile
from ..core.votes import SuiteConfiguration
from ..sim.metrics import MetricsRegistry


def collect_profiles(config: SuiteConfiguration, metrics: MetricsRegistry,
                     breakers: Mapping[str, Mapping[str, Any]],
                     seen: Dict[str, float], timeout: float,
                     ) -> Tuple[List[ServerProfile], float]:
    """One :class:`ServerProfile` per representative, in the
    configuration's order, and the window's read fraction.

    ``breakers`` is :meth:`HealthTracker.snapshot` output (keyed by
    server); ``seen`` is updated in place, so successive calls see
    successive windows.
    """
    suite = config.suite_name

    def window(name: str, value: float) -> float:
        delta = value - seen.get(name, 0.0)
        seen[name] = value
        return max(0.0, delta)

    def counted(name: str) -> float:
        return window(name, metrics.counter_value(name))

    gathers = sum(counted(f"quorum.blocking.gathers[suite={suite},"
                          f"mode={mode}]") for mode in ("read", "write"))
    reads, writes = counted("suite.reads"), counted("suite.writes")
    waits: Dict[str, float] = {}
    down = set()
    for rep in config.representatives:
        name = f"quorum.blocking.wait_ms[suite={suite},rep={rep.rep_id}]"
        waits[rep.rep_id] = window(name, metrics.gauge_value(name))
        breaker = breakers.get(rep.server, {})
        opened = window(f"health.opens[server={rep.server}]",
                        float(breaker.get("opens", 0)))
        if opened or breaker.get("state", CLOSED) != CLOSED:
            down.add(rep.rep_id)
    flip = len(down) / len(config.representatives)
    profiles = [
        ServerProfile(rep.server, latency=timeout, availability=flip)
        if rep.rep_id in down else
        ServerProfile(rep.server,
                      latency=waits[rep.rep_id] / max(1.0, gathers),
                      availability=1.0 - flip)
        for rep in config.representatives]
    return profiles, (reads + 1.0) / (reads + writes + 2.0)
