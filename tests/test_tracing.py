"""Protocol tracing: the audit trail of suite operations, read from spans."""

import pytest

from tests.helpers import triple_config, write_in_quorum
from repro.obs import group_traces, render_trace
from repro.testbed import Testbed


@pytest.fixture
def traced_bed():
    return Testbed(servers=["s1", "s2", "s3"], seed=7, obs=True)


def roots(bed, name):
    """Finished root spans called ``name``, in start order."""
    return [span for span in bed.collector.spans()
            if span.parent_id is None and span.name == name]


class TestSuiteTracing:
    def test_reads_and_writes_traced(self, traced_bed):
        bed = traced_bed
        suite = bed.install(triple_config(), b"v1")
        read = bed.run(suite.read())
        write = bed.run(suite.write(b"v2"))
        (read_span,) = roots(bed, "suite.read")
        (write_span,) = roots(bed, "suite.write")
        assert read_span.attrs["suite"] == write_span.attrs["suite"] == "db"
        assert read_span.attrs["version"] == read.version == 1
        assert read_span.attrs["served_by"] == read.served_by
        assert write_span.attrs["version"] == write.version == 2

    def test_refresh_touches_exactly_the_stale_reps(self, traced_bed):
        """The background refresher touches precisely the
        representatives the write left behind."""
        bed = traced_bed
        suite = bed.install(triple_config(), b"v1")
        write = bed.run(write_in_quorum(suite, b"v2"))
        bed.settle()
        (refresh,) = roots(bed, "suite.refresh")
        assert refresh.status == "ok"
        assert refresh.attrs["targets"] == ",".join(write.stale)
        assert refresh.attrs["version"] == 2

    def test_aborted_write_not_traced(self, traced_bed):
        """An aborted write leaves no version in the trace: its span
        ends in error."""
        bed = traced_bed
        suite = bed.install(triple_config(), b"v1")
        suite.max_attempts = 1
        suite.inquiry_timeout = 50.0
        bed.crash("s1")
        bed.crash("s2")
        with pytest.raises(Exception):
            bed.run(suite.write(b"nope"))
        (write_span,) = roots(bed, "suite.write")
        assert write_span.status == "error"
        assert "version" not in write_span.attrs

    def test_tracing_off_by_default(self, bed):
        suite = bed.install(triple_config(), b"v1")
        bed.run(suite.read())
        assert bed.collector.spans() == []

    def test_trace_dump_readable(self, traced_bed):
        bed = traced_bed
        suite = bed.install(triple_config(), b"v1")
        bed.run(suite.read())
        (read_span,) = roots(bed, "suite.read")
        dump = render_trace(
            group_traces(bed.collector.spans())[read_span.trace_id])
        assert "suite.read" in dump
        assert "quorum.assemble" in dump
        assert "rpc.txn.stat" in dump
