"""Unit tests for TreadMarks bookkeeping: intervals, logs, vector clocks,
and the receiver-side diff apply path."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import make_app
from repro.config import SimConfig
from repro.harness.runner import run_app
from repro.machine.node import NodeHardware
from repro.protocols.treadmarks.interval import IntervalLog, IntervalRecord
from repro.protocols.treadmarks.protocol import (TreadMarksNode, _put_word,
                                                 _put_words)


class TestIntervalRecord:
    def test_fields_and_size(self):
        rec = IntervalRecord(writer=2, index=5, stamp=40, pages=(1, 2, 3))
        assert rec.element_count == 6

    def test_hashable(self):
        a = IntervalRecord(1, 2, 3, (4,))
        b = IntervalRecord(1, 2, 3, (4,))
        assert a == b and len({a, b}) == 1


class TestIntervalLog:
    def test_add_and_dedupe(self):
        log = IntervalLog(4)
        rec = IntervalRecord(0, 0, 1, (5,))
        assert log.add(rec)
        assert not log.add(rec)
        assert log.count() == 1

    def test_newer_than_filters_by_vector_clock(self):
        log = IntervalLog(4)
        log.add(IntervalRecord(0, 0, 1, (1,)))
        log.add(IntervalRecord(0, 1, 3, (2,)))
        log.add(IntervalRecord(1, 0, 2, (3,)))
        # vc says: seen writer 0 up to index 0, nothing of writer 1
        got = log.newer_than([1, 0, 0, 0])
        assert {(r.writer, r.index) for r in got} == {(0, 1), (1, 0)}

    def test_newer_than_sorted_by_stamp(self):
        log = IntervalLog(4)
        log.add(IntervalRecord(1, 0, 9, ()))
        log.add(IntervalRecord(0, 0, 2, ()))
        log.add(IntervalRecord(2, 0, 5, ()))
        got = log.newer_than([0, 0, 0, 0])
        assert [r.stamp for r in got] == [2, 5, 9]

    def test_out_of_order_insert(self):
        log = IntervalLog(2)
        log.add(IntervalRecord(0, 2, 7, ()))
        assert log.add(IntervalRecord(0, 0, 1, ()))
        got = log.newer_than([0, 0])
        assert [r.index for r in got if r.writer == 0] == [0, 2]

    def test_empty_log(self):
        assert IntervalLog(2).newer_than([0, 0]) == []


P = 3

#: (writer, index) pairs, drawn with duplicates, gaps and in any order
_records = st.lists(st.tuples(st.integers(0, P - 1), st.integers(0, 12)),
                    max_size=40)


class TestIntervalLogProperties:
    """``since``/``newer_than`` against a brute-force filter-and-sort."""

    @staticmethod
    def _fill(pairs):
        log, known = IntervalLog(P), {}
        for writer, index in pairs:
            # a stamp that is unique per record and not monotone in index
            rec = IntervalRecord(writer, index, (index * 7 + writer * 5) % 11,
                                 (index,))
            assert log.add(rec) == ((writer, index) not in known)
            known.setdefault((writer, index), rec)
        return log, list(known.values())

    @given(_records, st.lists(st.integers(0, 14), min_size=P, max_size=P))
    @settings(max_examples=200)
    def test_newer_than_matches_brute_force(self, pairs, vc):
        log, known = self._fill(pairs)
        want = sorted((r for r in known if r.index >= vc[r.writer]),
                      key=lambda r: (r.stamp, r.writer, r.index))
        assert log.newer_than(vc) == want
        assert log.count() == len(known)

    @given(_records, st.integers(0, P - 1), st.integers(0, 14))
    @settings(max_examples=200)
    def test_since_matches_brute_force(self, pairs, writer, index):
        log, known = self._fill(pairs)
        want = sorted((r for r in known
                       if r.writer == writer and r.index >= index),
                      key=lambda r: r.index)
        assert log.since(writer, index) == want


@pytest.fixture
def tmk_nodes(monkeypatch):
    """Every TreadMarks node built by the runs inside the test."""
    nodes = []
    init = TreadMarksNode.__init__

    def recording_init(self, world, node_id):
        init(self, world, node_id)
        nodes.append(self)

    monkeypatch.setattr(TreadMarksNode, "__init__", recording_init)
    return nodes


@pytest.mark.parametrize("protocol", ["tmk", "tmk-lh"])
@pytest.mark.parametrize("app", ["water-ns", "raytrace"])
class TestFrozenDiffInvariants:
    def test_frozen_stamps_strictly_increase(self, tmk_nodes, app, protocol):
        run_app(make_app(app, "test"), protocol, SimConfig())
        frozen = [meta.frozen for node in tmk_nodes
                  for meta in node.pages.values()]
        assert sum(len(f) > 1 for f in frozen) > 0
        for diffs in frozen:
            stamps = [d.acquire_counter for d in diffs]
            assert all(a < b for a, b in zip(stamps, stamps[1:])), stamps

    def test_served_diffs_are_read_only(self, tmk_nodes, monkeypatch, app,
                                        protocol):
        received = []
        apply = TreadMarksNode._apply_diffs_stamped

        def recording_apply(self, pn, diffs):
            received.extend(diffs)
            return apply(self, pn, diffs)

        monkeypatch.setattr(TreadMarksNode, "_apply_diffs_stamped",
                            recording_apply)
        run_app(make_app(app, "test"), protocol, SimConfig())
        assert received
        for diff in received:
            with pytest.raises(ValueError):
                diff.offsets[0] = 0
            with pytest.raises(ValueError):
                diff.values[0] = 0.0
        # served uncopied: each applied diff is one its writer still holds
        held = {id(d) for node in tmk_nodes
                for meta in node.pages.values() for d in meta.frozen}
        assert all(id(d) in held for d in received)


W = 12


@st.composite
def _merge_case(draw, max_words=W):
    """A page, its word stamps and twin (None, clean or dirty) and one diff."""
    page = np.array(draw(st.lists(st.integers(0, 3), min_size=W,
                                  max_size=W)), dtype=np.float64)
    stamps = np.array(draw(st.lists(st.integers(-1, 6), min_size=W,
                                    max_size=W)), dtype=np.int64)
    twin_kind = draw(st.sampled_from(["none", "clean", "dirty"]))
    twin = None if twin_kind == "none" else page.copy()
    if twin_kind == "dirty":
        for off in draw(st.lists(st.integers(0, W - 1), max_size=W)):
            twin[off] += 1.0  # words written locally since the twin
    offs = np.array(draw(st.lists(st.integers(0, W - 1), min_size=1,
                                  max_size=max_words, unique=True)),
                    dtype=np.int32)
    values = np.array(draw(st.lists(st.integers(0, 9), min_size=len(offs),
                                    max_size=len(offs))), dtype=np.float64)
    stamp = draw(st.integers(0, 7))
    return page, stamps, twin, twin_kind == "dirty", offs, values, stamp


def _merge_reference(page, stamps, twin, guarded, offs, values, stamp):
    """Brute-force per-word max-stamp-wins merge."""
    changed = False
    for off, value in zip(offs.tolist(), values.tolist()):
        if stamps[off] < stamp and (not guarded or page[off] == twin[off]):
            page[off] = value
            stamps[off] = stamp
            if twin is not None:
                twin[off] = value
            changed = True
    return changed


def _merged(merge, case, scalar=False):
    page, stamps, twin, guarded, offs, values, stamp = case
    page, stamps = page.copy(), stamps.copy()
    twin = None if twin is None else twin.copy()
    if scalar:
        changed = merge(page, stamps, twin, guarded, offs[0], values[0],
                        stamp)
    else:
        changed = merge(page, stamps, twin, guarded, offs, values, stamp)
    return changed, page.tolist(), stamps.tolist(), (
        None if twin is None else twin.tolist())


class TestWordMerge:
    """The single-word and mask paths of the TreadMarks diff apply."""

    @given(_merge_case(max_words=1))
    @settings(max_examples=300)
    def test_single_word_paths_match_reference(self, case):
        want = _merged(_merge_reference, case)
        assert _merged(_put_word, case, scalar=True) == want
        assert _merged(_put_words, case) == want

    @given(_merge_case())
    @settings(max_examples=300)
    def test_mask_path_matches_reference(self, case):
        assert _merged(_put_words, case) == _merged(_merge_reference, case)


@pytest.mark.parametrize("protocol", ["tmk", "tmk-lh"])
@pytest.mark.parametrize("app", ["water-ns", "raytrace"])
def test_one_invalidation_per_batch_leaves_caches_identical(
        tmk_nodes, monkeypatch, app, protocol):
    """Dropping a faulted page's cache lines once per apply batch leaves
    every cache exactly as dropping them after every applied diff does."""
    calls = []
    page_updated = NodeHardware.page_updated

    def counting(self, page_addr, nwords):
        calls.append(page_addr)
        page_updated(self, page_addr, nwords)

    monkeypatch.setattr(NodeHardware, "page_updated", counting)

    def run():
        del tmk_nodes[:], calls[:]
        result = run_app(make_app(app, "test"), protocol, SimConfig())
        caches = [(n.hw.cache._tags.tolist(), n.hw.cache.hits,
                   n.hw.cache.misses) for n in tmk_nodes]
        return result.execution_time, caches, len(calls)

    built = run()
    apply = TreadMarksNode._apply_diffs_stamped

    def per_diff(self, pn, diffs):
        for diff in diffs:
            yield from apply(self, pn, [diff])

    monkeypatch.setattr(TreadMarksNode, "_apply_diffs_stamped", per_diff)
    reference = run()
    assert built[:2] == reference[:2]
    assert built[2] < reference[2]
