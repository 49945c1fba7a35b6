"""One pass per suite operation: frames, verdicts and pinned outputs.

A suite ``read()``/``write()`` is one operation generator over the
manager's attempt loop, and each gather asks the quorum rule once per
wake and never again after it — while the spans, counters and results
an operation leaves behind stay what they were.
"""

import sys

import pytest

from tests.helpers import triple_config
from repro.core import gather as gather_module
from repro.core import suite as suite_module
from repro.core.quorum import QuorumRule
from repro.core.reconfig import change_configuration
from repro.errors import QuorumUnavailableError
from repro.testbed import Testbed

CO_GENERATOR = 0x20


@pytest.fixture
def spied(monkeypatch):
    """Spy on the suite's gathers: the generator frames above each one,
    its predicate calls (one per wake) and every rule verdict, with
    whether a gather was running when the verdict was asked."""
    record = {"chains": [], "wakes": [], "verdicts": 0, "late": 0,
              "gathering": False}
    gather_until = gather_module.gather_until
    verdict = QuorumRule.verdict

    def spy_gather(sim, calls, enough):
        chain, frame = ["gather_until"], sys._getframe(1)
        while frame is not None and frame.f_code.co_flags & CO_GENERATOR:
            chain.append(frame.f_code.co_name)
            frame = frame.f_back
        record["chains"].append(chain)
        record["wakes"].append(0)

        def wake(gathered):
            record["wakes"][-1] += 1
            return enough(gathered)

        record["gathering"] = True
        try:
            return (yield from gather_until(sim, calls, wake))
        finally:
            record["gathering"] = False

    def spy_verdict(rule, *args):
        record["verdicts"] += 1
        record["late"] += not record["gathering"]
        return verdict(rule, *args)

    monkeypatch.setattr(suite_module, "gather_until", spy_gather)
    monkeypatch.setattr(QuorumRule, "verdict", spy_verdict)
    return record


def fresh(record):
    record.update(chains=[], wakes=[], verdicts=0, late=0)


class TestOnePass:
    def test_parked_read_and_write_sit_five_frames_deep(self, spied):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=7)
        suite = bed.install(triple_config(), b"v1")
        for operation in (suite.read(), suite.write(b"v2")):
            fresh(spied)
            bed.run(operation)
            (chain,) = spied["chains"]
            assert len(chain) <= 5, chain
            assert chain[-1] == "_operation"

    def test_verdict_runs_once_per_wake_never_after(self, spied):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=7)
        suite = bed.install(triple_config(), b"v1")
        fresh(spied)
        bed.run(suite.read())
        # One ask before any reply, one per reply; five before.
        assert spied["wakes"] == [4] and spied["verdicts"] == 4
        assert spied["late"] == 0
        fresh(spied)
        bed.run(suite.write(b"v2"))
        assert spied["wakes"] == [3] and spied["verdicts"] == 3
        assert spied["late"] == 0

    def test_hedged_read_reuses_its_deadline_verdict(self, spied):
        """The piggyback target is down: the gather closes at the grace
        deadline and hedges — from the verdict that wake returned."""
        bed = Testbed(servers=["s1", "s2", "s3"], seed=7)
        suite = bed.install(triple_config(), b"v1")
        bed.crash("s1")
        fresh(spied)
        result = bed.run(suite.read())
        assert result.data == b"v1" and result.served_by != "rep-1"
        assert bed.metrics.counter("suite.read_fallback").value == 1
        # The inquiry, then the hedged fetch's race (no rule of its own).
        inquiry, _race = spied["wakes"]
        assert spied["verdicts"] == inquiry == 4
        assert spied["late"] == 0

    def test_no_reply_at_all_is_quorum_unavailable(self):
        """A gather with no successes has no current version: the read
        still fails as an unavailable quorum, not on an empty max."""
        bed = Testbed(servers=["s1", "s2", "s3"], seed=7)
        suite = bed.install(triple_config(), b"v1")
        suite.max_attempts = 1
        suite.inquiry_timeout = 50.0
        for server in ("s1", "s2", "s3"):
            bed.crash(server)
        with pytest.raises(QuorumUnavailableError):
            bed.run(suite.read())
        with pytest.raises(QuorumUnavailableError):
            bed.run(suite.current_version())


class TestLastWakeSeesTheEnd:
    """The verdict ``_inquire`` keeps is the last predicate call's: that
    call must see the gather's final replies and time, however the
    gather ends."""

    def run(self, sim, calls, enough):
        seen = []

        def asking(gathered):
            seen.append((len(gathered.order), len(gathered.successes),
                         sim.now))
            return enough(gathered)

        def flow():
            return (yield from gather_module.gather_until(sim, calls,
                                                          asking))

        gathered = sim.run_process(flow())
        assert seen[-1] == (len(gathered.order), len(gathered.successes),
                            sim.now)
        return gathered

    def test_ran_out_of_replies(self, sim):
        calls = {"a": sim.timeout(1.0, "a"), "b": sim.event()}
        calls["b"].fail(ValueError("down"))
        gathered = self.run(sim, calls, lambda gathered: False)
        assert not gathered.satisfied and len(gathered.order) == 2

    def test_closed_by_a_deadline(self, sim):
        calls = {"fast": sim.timeout(1.0, "f"),
                 "slow": sim.timeout(100.0, "s")}
        gathered = self.run(
            sim, calls,
            lambda gathered: sim.now >= 5.0 or (5.0 if gathered.order
                                               else False))
        assert gathered.satisfied and gathered.closed_by is None
        assert sim.now == 5.0

    def test_no_calls(self, sim):
        gathered = self.run(sim, {}, lambda gathered: False)
        assert not gathered.satisfied and not gathered.order


class TestOutputsPinned:
    """Root spans, their events and ``suite.*`` counters, as measured
    before the operation became one generator."""

    @staticmethod
    def root(bed, name):
        (span,) = [span for span in bed.collector.spans()
                   if span.parent_id is None and span.name == name]
        return span

    @staticmethod
    def assembly_events(bed, root):
        return [[event.name for event in span.events]
                for span in bed.collector.spans()
                if span.trace_id == root.trace_id
                and span.name == "quorum.assemble"]

    @staticmethod
    def suite_counters(bed):
        return {name: value
                for name, value in sorted(bed.metrics.counters().items())
                if name.startswith("suite.")}

    def test_traced_read_and_write(self):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=7, obs=True)
        suite = bed.install(triple_config(), b"v1")
        bed.run(suite.read())
        bed.run(suite.write(b"v2"))
        read = self.root(bed, "suite.read")
        assert list(read.attrs.items()) == [
            ("suite", "db"), ("version", 1), ("served_by", "rep-1"),
            ("attempts", 1)]
        assert read.events == [] and read.status == "ok"
        assert self.assembly_events(bed, read) == [
            ["version.collect"] * 3 + ["quorum.satisfied"]]
        write = self.root(bed, "suite.write")
        assert list(write.attrs.items()) == [
            ("suite", "db"), ("size", 2), ("version", 2), ("attempts", 1)]
        assert write.events == [] and write.status == "ok"
        assert self.assembly_events(bed, write) == [
            ["version.collect"] * 2 + ["quorum.satisfied"]]
        assert self.suite_counters(bed) == {
            "suite.read_fastpath": 1, "suite.reads": 1, "suite.writes": 1}

    def test_write_that_adopts_a_newer_configuration(self):
        bed = Testbed(servers=["s1", "s2", "s3"], seed=7, obs=True)
        suite = bed.install(triple_config(), b"data")
        bed.run(change_configuration(suite, triple_config(r=1, w=3)))
        bed.settle()
        before = self.suite_counters(bed)
        stale = bed.suite(triple_config())
        bed.collector.ring.clear()
        bed.run(stale.write(b"adopted"))
        write = self.root(bed, "suite.write")
        assert list(write.attrs.items()) == [
            ("suite", "db"), ("size", 7), ("version", 3), ("attempts", 2),
            ("config_refreshes", 1)]
        assert [(event.name, event.attrs) for event in write.events] == [
            ("config.adopted", {"version": 2})]
        assert self.assembly_events(bed, write) == [
            ["version.collect"] * 2,
            ["version.collect"] * 3 + ["quorum.satisfied"]]
        after = self.suite_counters(bed)
        assert {name: value - before.get(name, 0)
                for name, value in after.items()} == {
            "suite.config_refreshes": 1, "suite.read_fastpath": 0,
            "suite.writes": 1}
