"""Tests for the analysis tools over protocol spans."""
import json

import numpy as np
import pytest

from repro import SimConfig, run_app
from repro.apps.registry import make_app
from repro.obs import SpanRecorder
from repro.obs.export import read_spans_jsonl
from repro.tools import (lock_report, message_matrix, render_matrix,
                         render_timeline)

#: the lock-taking protocols that emit lock.wait / lock.hold spans
LOCK_PROTOCOLS = ("aec", "tmk", "munin")


@pytest.fixture(scope="module")
def spanned():
    """is/test under each lock protocol with spans on, keyed by protocol."""
    return {p: run_app(make_app("is", "test"), p,
                       config=SimConfig(obs_spans=True))
            for p in LOCK_PROTOCOLS}


class TestTracedRuns:
    def test_run_produces_events(self, spanned):
        r = spanned["aec"]
        counts = r.extra["spans"].counts()
        assert counts["lock.wait"] == r.total_lock_acquires
        assert counts["lock.hold"] == r.total_lock_acquires
        assert counts["barrier"] == 16 * r.barrier_events
        assert counts["diff.create"] == r.diff_stats.diffs_created
        for p in ("tmk", "munin"):
            r = spanned[p]
            counts = r.extra["spans"].counts()
            assert counts["lock.wait"] == r.total_lock_acquires, p
            assert counts["lock.hold"] == r.total_lock_acquires, p

    def test_lock_chain_is_serialized(self, spanned):
        """A mutex's hold spans, sorted by start, never overlap."""
        for p, r in spanned.items():
            holds = {}
            for s in r.extra["spans"].of_kind("lock.hold"):
                holds.setdefault(s.args["lock"], []).append(s)
            assert holds, p
            for lock, hs in holds.items():
                hs.sort(key=lambda s: s.start)
                for a, b in zip(hs, hs[1:]):
                    assert a.end <= b.start, (p, lock, a, b)

    def test_tracing_off_by_default(self):
        r = run_app(make_app("fft", "test"), "aec")
        assert r.extra["spans"] is None

    def test_tracing_does_not_change_timing(self, spanned):
        for p, r in spanned.items():
            plain = run_app(make_app("is", "test"), p)
            assert plain.execution_time == r.execution_time, p
            assert plain.messages_total == r.messages_total, p


class TestTools:
    @pytest.fixture(scope="class")
    def traced(self, spanned):
        return spanned["aec"]

    def test_message_matrix_consistent(self, traced):
        m = message_matrix(traced)
        assert m.shape == (16, 16)
        assert m.sum() == traced.messages_total
        assert (np.diag(m) == 0).all()  # loopback is not network traffic

    def test_render_matrix(self, traced):
        text = render_matrix(message_matrix(traced))
        assert "rows=sender" in text
        assert "top:" in text

    def test_render_timeline(self, traced):
        spans = traced.extra["spans"]
        text = render_timeline(spans, kinds=["diff.create", "lock.hold"])
        assert "timeline" in text
        assert "diff.create" in text and "lock.hold" in text
        assert "barrier" not in text
        # node filter: only node 3's spans are counted
        n3 = sum(1 for s in spans.spans if s.track == 3)
        assert f"timeline: {n3} spans" in render_timeline(spans, node=3)
        assert render_timeline(spans, node=99) == "(no events)"
        assert render_timeline(SpanRecorder()) == "(no events)"

    def test_lock_report(self, traced):
        text = lock_report(traced.extra["spans"])
        assert "acquires" in text
        # IS has one lock acquired 32 times at test scale (2 reps)
        lock, acquires = text.splitlines()[1].split()[:2]
        assert (lock, acquires) == ("0", "32")

    def test_lock_report_empty(self):
        assert "(no lock activity" in lock_report(SpanRecorder())
        assert "(no lock activity" in lock_report([])

    def test_lock_report_totals_match_acquires(self, spanned):
        for p, r in spanned.items():
            rows = lock_report(r.extra["spans"]).splitlines()[1:]
            total = sum(int(row.split()[1]) for row in rows)
            assert total == r.total_lock_acquires == 32, p

    def test_tools_accept_span_iterables(self, traced):
        spans = traced.extra["spans"]
        assert lock_report(list(spans.spans)) == lock_report(spans)
        assert (render_timeline(iter(spans.spans), node=2)
                == render_timeline(spans, node=2))


class TestAnalyzeCLI:
    def test_analyze_command(self, capsys, tmp_path):
        from repro.harness.cli import main
        out_file = tmp_path / "spans.jsonl"
        assert main(["analyze", "--app", "fft", "--scale", "test",
                     "--trace-out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out and "rows=sender" in out
        first = json.loads(out_file.read_text().splitlines()[0])
        assert {"track", "kind", "start", "end"} <= set(first)

    def test_trace_out_is_span_jsonl(self, capsys, tmp_path, spanned):
        from repro.harness.cli import main
        out_file = tmp_path / "spans.jsonl"
        assert main(["analyze", "--app", "is", "--scale", "test",
                     "--trace-out", str(out_file)]) == 0
        capsys.readouterr()
        spans = read_spans_jsonl(str(out_file))
        assert len(spans) == len(spanned["aec"].extra["spans"])
        assert lock_report(spans) == lock_report(spanned["aec"].extra["spans"])

    @pytest.mark.parametrize("protocol", LOCK_PROTOCOLS)
    def test_analyze_lock_report(self, capsys, protocol):
        from repro.harness.cli import main
        assert main(["analyze", "--app", "is", "--scale", "test",
                     "--protocol", protocol]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        rows = [line.split() for line in out.splitlines()]
        assert ["0", "32"] in [row[:2] for row in rows if len(row) == 5]
