"""Interval records and the per-node interval log (TreadMarks bookkeeping)."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Tuple

_INDEX = attrgetter("index")
#: global delivery order of records: Lamport stamp, ties by writer, index
_ORDER = attrgetter("stamp", "writer", "index")


@dataclass(frozen=True, slots=True)
class IntervalRecord:
    """A closed interval of one writer: its write notices travel as a unit."""

    writer: int
    index: int          # per-writer interval index (vector-clock component)
    stamp: int          # Lamport stamp at close (global partial-order proxy)
    pages: Tuple[int, ...]

    @property
    def element_count(self) -> int:
        return 3 + len(self.pages)


class IntervalLog:
    """All interval records a node knows, indexed by writer.

    Per-writer lists stay sorted by interval index with no duplicates, so
    queries bisect to the unseen suffix: their cost follows their output,
    not the history kept (DESIGN.md §11.7).
    """

    def __init__(self, num_procs: int) -> None:
        self._by_writer: Dict[int, List[IntervalRecord]] = {
            w: [] for w in range(num_procs)
        }

    def add(self, rec: IntervalRecord) -> bool:
        """Insert a record; returns False if already known."""
        lst = self._by_writer[rec.writer]
        if not lst or lst[-1].index < rec.index:
            lst.append(rec)
            return True
        i = bisect_left(lst, rec.index, key=_INDEX)
        if i < len(lst) and lst[i].index == rec.index:
            return False
        lst.insert(i, rec)
        return True

    def since(self, writer: int, index: int) -> List[IntervalRecord]:
        """``writer``'s records with interval index >= ``index``, in order."""
        lst = self._by_writer[writer]
        if not lst or lst[-1].index < index:
            return []
        return lst[bisect_left(lst, index, key=_INDEX):]

    def newer_than(self, vc: List[int]) -> List[IntervalRecord]:
        """Records the holder of ``vc`` has not seen, in ``_ORDER``."""
        out: List[IntervalRecord] = []
        for writer in self._by_writer:
            out += self.since(writer, vc[writer])
        out.sort(key=_ORDER)
        return out

    def count(self) -> int:
        return sum(len(v) for v in self._by_writer.values())
