"""Prometheus text exposition for a :class:`MetricsRegistry`.

The metrics layer keys everything by a flat string name; this module
maps those names onto the Prometheus data model:

* dots and other illegal characters become underscores and every family
  is prefixed (default ``repro_``);
* a ``[key=value,...]`` suffix on a metric name becomes Prometheus
  labels, so ``suite.version_lag[rep=rep-3]`` renders as
  ``repro_suite_version_lag{rep="rep-3"}`` — one family, one series per
  representative;
* counters gain the conventional ``_total`` suffix;
* gauges also render their running maximum as ``<family>_max``;
* histograms render cumulative ``_bucket`` lines with ``le`` labels
  over :data:`~repro.sim.metrics.BUCKETS` plus ``+Inf``, then ``_sum``
  and ``_count`` — what :mod:`repro.obs.aggregate` sums across daemons
  and reads quantiles from with the histogram's own rule.

Output follows the Prometheus text format 0.0.4 — scrapeable by an
actual Prometheus, parseable by :func:`parse_exposition` (used by
``repro metrics``).
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from ..sim.metrics import BUCKETS, Histogram, MetricsRegistry

#: Content type a /metrics HTTP response should declare.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``le`` label values corresponding to :data:`BUCKETS` plus ``+Inf``.
BUCKET_LABELS = tuple(
    [str(int(b)) if float(b).is_integer() else repr(float(b))
     for b in BUCKETS] + ["+Inf"])


def bucket_counts(histogram: Histogram) -> List[int]:
    """Cumulative observation counts at each bound, ending with +Inf."""
    return list(accumulate(histogram.counts))


_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")
_LABELLED = re.compile(r"^(?P<family>[^\[\]]+)\[(?P<labels>[^\[\]]*)\]$")


def split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """Split ``family[k=v,...]`` into the family and its label map."""
    match = _LABELLED.match(name)
    if match is None:
        return name, {}
    labels: Dict[str, str] = {}
    for part in match.group("labels").split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        labels[key.strip()] = value.strip()
    return match.group("family"), labels


def metric_name(family: str, prefix: str = "repro_") -> str:
    """A legal Prometheus metric name for ``family``."""
    return prefix + _ILLEGAL.sub("_", family)


def _escape(value: str) -> str:
    # Backslash first (it introduces the other escapes), then quote and
    # newline — a raw newline would split the sample line in two.
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _unescape(value: str) -> str:
    """Decode an escaped label value in one left-to-right pass.

    Chained ``str.replace`` calls are position-sensitive and decode
    mixed sequences wrongly: in ``\\\\\\"`` (an escaped backslash
    followed by an escaped quote on the wire) a quote-first replace
    pairs the *second* backslash with the quote, yielding ``\\"``'s
    decode out of ``\\\\``'s bytes.  Scanning the escapes in order is
    the only correct inverse of :func:`_escape`.
    """
    if "\\" not in value:
        return value
    out: List[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            successor = value[index + 1]
            if successor in ('"', "\\"):
                out.append(successor)
                index += 2
                continue
            if successor == "n":
                out.append("\n")
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_ILLEGAL.sub("_", key)}="{_escape(value)}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Family:
    __slots__ = ("name", "kind", "lines")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.lines: List[str] = []


def render_registry(registry: MetricsRegistry, prefix: str = "repro_",
                    extra: Optional[Mapping[str, float]] = None) -> str:
    """Render a whole registry (plus ad-hoc ``extra`` gauges) as text.

    ``extra`` carries values that live outside the registry — transport
    frame counts, ring-buffer drops — without forcing their owners to
    adopt the metrics layer.
    """
    families: Dict[str, _Family] = {}

    def family(raw_name: str, kind: str, suffix: str = "") -> _Family:
        base, labels = split_labels(raw_name)
        name = metric_name(base, prefix) + suffix
        entry = families.get(name)
        if entry is None:
            entry = families[name] = _Family(name, kind)
        return entry

    def emit(raw_name: str, kind: str, value: float,
             suffix: str = "") -> None:
        _base, labels = split_labels(raw_name)
        entry = family(raw_name, kind, suffix)
        entry.lines.append(
            f"{entry.name}{_labels_text(labels)} {_format(value)}")

    for name, counter in sorted(registry._counters.items()):
        emit(name, "counter", counter.value, suffix="_total")
    for name, gauge in sorted(registry._gauges.items()):
        emit(name, "gauge", gauge.value)
        if gauge.maximum is not None:
            emit(name, "gauge", gauge.maximum, suffix="_max")
    for name, histogram in sorted(registry._histograms.items()):
        _base, labels = split_labels(name)
        entry = family(name, "histogram")
        for le, count in zip(BUCKET_LABELS, bucket_counts(histogram)):
            entry.lines.append(
                f"{entry.name}_bucket"
                f"{_labels_text({**labels, 'le': le})} {count}")
        entry.lines.append(
            f"{entry.name}_sum{_labels_text(labels)} "
            f"{_format(histogram.sum)}")
        entry.lines.append(
            f"{entry.name}_count{_labels_text(labels)} "
            f"{_format(histogram.count)}")
    for name, value in sorted((extra or {}).items()):
        emit(name, "gauge", float(value))

    chunks: List[str] = []
    for name in sorted(families):
        entry = families[name]
        chunks.append(f"# TYPE {entry.name} {entry.kind}")
        chunks.extend(entry.lines)
    return "\n".join(chunks) + ("\n" if chunks else "")


def parse_exposition(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse Prometheus text into ``(name, labels, value)`` samples.

    Tolerant subset parser for ``repro metrics`` pretty-printing and the
    tests; comment/TYPE lines are skipped.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        labels: Dict[str, str] = {}
        name = name_part
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            label_part = label_part.rstrip("}")
            for piece in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"',
                                    label_part):
                key, value = piece
                labels[key] = _unescape(value)
        try:
            samples.append((name, labels, float(value_part)))
        except ValueError:
            continue
    return samples
