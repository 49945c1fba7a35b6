"""Per-representative health signals, folded from the registries.

The autopilot never probes the cluster itself — it reads evidence that
foreground traffic already produced:

* **breaker history** from :meth:`HealthTracker.snapshot` — live state
  plus the open/close transition counters that distinguish a flapping
  representative from a solidly dead one;
* **staleness** from the obs gauges ``suite.version_lag[...]`` and
  ``suite.weak_staleness[...]`` — versions behind the quorum head;
* **blocking** from the quorum critical path
  (``quorum.blocking.wait_ms[...]``) — the marginal milliseconds each
  representative personally kept quorum assembly waiting.

The blocking gauge is cumulative, so :func:`collect_signals` takes the
previous reading per representative and reports the *windowed* share:
the fraction of new blocking milliseconds this representative caused
since the last observation.  A representative that was slow an hour
ago but healthy now scores clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..chaos.health import CLOSED
from ..core.votes import SuiteConfiguration
from ..sim.metrics import MetricsRegistry


@dataclass
class RepSignals:
    """Everything the policy layer knows about one representative."""

    rep_id: str
    server: str
    votes: int
    breaker_state: str = CLOSED
    opens: int = 0
    closes: int = 0
    last_transition: Optional[float] = None
    version_lag: float = 0.0
    weak_staleness: float = 0.0
    #: Cumulative blocking milliseconds (the raw gauge reading).
    blocking_wait_ms: float = 0.0
    #: Fraction of the observation window's *new* blocking milliseconds
    #: attributed to this representative (0 when the window was quiet).
    blocking_share: float = 0.0
    #: Total new blocking milliseconds across the whole suite this
    #: window — the *mass* of evidence behind ``blocking_share``.  In a
    #: near-idle window some representative always arrives last and
    #: holds ~100% of the share; the policy discounts shares backed by
    #: little mass (``blocking_floor_ms``).
    blocking_window_ms: float = 0.0

    @property
    def lag(self) -> float:
        """Versions behind the quorum head, whichever gauge is worse.

        ``suite.version_lag`` freezes for a representative that no
        longer takes write traffic (e.g. one the autopilot demoted to
        weak), but the weak-staleness gauge keeps moving for it — the
        max tracks recovery either way.
        """
        return max(self.version_lag, self.weak_staleness)


def collect_signals(config: SuiteConfiguration,
                    metrics: MetricsRegistry,
                    health_snapshot: Mapping[str, Mapping[str, Any]],
                    previous_wait: Optional[Dict[str, float]] = None,
                    ) -> Dict[str, RepSignals]:
    """One :class:`RepSignals` per representative, keyed by ``rep_id``.

    ``health_snapshot`` is :meth:`HealthTracker.snapshot` output (keyed
    by server); ``previous_wait`` holds each representative's
    cumulative blocking gauge at the last observation and is updated in
    place, so successive calls see windowed deltas.
    """
    suite = config.suite_name
    signals: Dict[str, RepSignals] = {}
    deltas: Dict[str, float] = {}
    for rep in config.representatives:
        breaker = health_snapshot.get(rep.server, {})
        wait = metrics.gauge_value(
            f"quorum.blocking.wait_ms[suite={suite},rep={rep.rep_id}]")
        signals[rep.rep_id] = RepSignals(
            rep_id=rep.rep_id,
            server=rep.server,
            votes=rep.votes,
            breaker_state=str(breaker.get("state", CLOSED)),
            opens=int(breaker.get("opens", 0)),
            closes=int(breaker.get("closes", 0)),
            last_transition=breaker.get("last_transition"),
            version_lag=metrics.gauge_value(
                f"suite.version_lag[suite={suite},rep={rep.rep_id}]"),
            weak_staleness=metrics.gauge_value(
                f"suite.weak_staleness[suite={suite},rep={rep.rep_id}]"),
            blocking_wait_ms=wait,
        )
        if previous_wait is not None:
            deltas[rep.rep_id] = max(0.0, wait - previous_wait.get(
                rep.rep_id, 0.0))
            previous_wait[rep.rep_id] = wait
        else:
            deltas[rep.rep_id] = wait
    window_total = sum(deltas.values())
    for sig in signals.values():
        sig.blocking_window_ms = window_total
    if window_total > 0:
        for rep_id, sig in signals.items():
            sig.blocking_share = deltas[rep_id] / window_total
    return signals
