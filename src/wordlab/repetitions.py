"""Repetition detection: squares, overlaps, bounded-period squares, exact exponents.

A repetition is a factor r with w[i] == w[i+p] throughout, p its period and
len(r)/p its exponent (an exact rational).

Squares, overlaps and exponent caps all ask for the maximal runs of
w[i] == w[i+p] that are at least some m(p) long. ``long_runs`` finds them
for all periods in one pass: it tests only the (n - p) / m(p) positions
that are multiples of m(p), not all n - p, and extends each match with
exact longest-common-extension queries. ``period_runs`` (one period) and
``longest_period_run`` (which ``max_exponent`` needs for m = 1, where
sampling saves nothing) stay passes over the word per period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError

# Below this length plain loops beat array setup.
_NUMPY_MIN = 96
# Samples per vectorised pass of ``long_runs``; bounds its temporaries.
_BLOCK = 8192


@dataclass(frozen=True)
class Repetition:
    start: int
    period: int
    length: int

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)

    def factor_of(self, w: str) -> str:
        return w[self.start : self.start + self.length]


def format_exponent(e: Fraction) -> str:
    return f"{e.numerator}/{e.denominator}"


def _as_array(w: str) -> np.ndarray:
    return np.frombuffer(w.encode("ascii"), dtype=np.uint8)


def _run_bounds(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = mask.view(np.int8)
    d = np.diff(m)
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1) + 1
    if m[0]:
        starts = np.concatenate(([0], starts))
    if m[-1]:
        ends = np.concatenate((ends, [m.size]))
    return starts, ends


def _true_runs(mask: np.ndarray, min_len: int = 1) -> list[tuple[int, int]]:
    """Maximal runs of True of length >= min_len, as (start, length)."""
    if mask.size == 0 or not mask.any():
        return []
    starts, ends = _run_bounds(mask)
    lengths = ends - starts
    if min_len > 1:
        keep = lengths >= min_len
        starts, lengths = starts[keep], lengths[keep]
    return list(zip(starts.tolist(), lengths.tolist()))


def period_runs(
    w: str, p: int, arr: np.ndarray | None = None, min_len: int = 1
) -> list[tuple[int, int]]:
    """Maximal runs (start, length >= min_len) of positions i with w[i] == w[i+p].

    A run of length r starting at s means w[s : s+p+r] has period p.
    """
    n = len(w)
    min_len = max(min_len, 1)
    if p < 1 or p >= n:
        return []
    if n < _NUMPY_MIN and arr is None:
        runs = []
        start = None
        for i in range(n - p):
            if w[i] == w[i + p]:
                if start is None:
                    start = i
            elif start is not None:
                if i - start >= min_len:
                    runs.append((start, i - start))
                start = None
        if start is not None and n - p - start >= min_len:
            runs.append((start, n - p - start))
        return runs
    if arr is None:
        arr = _as_array(w)
    return _true_runs(arr[p:] == arr[: n - p], min_len)


def longest_period_run(
    w: str, p: int, arr: np.ndarray | None = None
) -> tuple[int, int] | None:
    """Earliest longest run for one period, or None if w[i] != w[i+p] throughout."""
    n = len(w)
    if p < 1 or p >= n:
        return None
    if n < _NUMPY_MIN and arr is None:
        best_s = -1
        best_run = 0
        start = -1
        for i in range(n - p):
            if w[i] == w[i + p]:
                if start < 0:
                    start = i
            elif start >= 0:
                if i - start > best_run:
                    best_s, best_run = start, i - start
                start = -1
        if start >= 0 and n - p - start > best_run:
            best_s, best_run = start, n - p - start
        return (best_s, best_run) if best_run else None
    if arr is None:
        arr = _as_array(w)
    mask = arr[p:] == arr[: n - p]
    if not mask.any():
        return None
    starts, ends = _run_bounds(mask)
    lengths = ends - starts
    i = int(np.argmax(lengths))
    return int(starts[i]), int(lengths[i])


def _rank_table(w: str) -> np.ndarray:
    """Karp-Miller-Rosenberg doubling ranks of w, one row per level k >= 0.

    Row k, column i ranks the factor w[i : i + 2**k], cut at the end of w;
    column n is rank 0, which no position of w has. For i != j equal ranks
    therefore mean w[i : i + 2**k] == w[j : j + 2**k] with both factors
    inside w. Rows stop before the first level whose factors are pairwise
    distinct, so every common extension is shorter than 2**len(rows).
    """
    n = len(w)
    dtype = np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32
    # factors longer than n are cut at n + 1 different places, so at most
    # n.bit_length() levels are kept
    table = np.zeros((n.bit_length(), n + 1), dtype=dtype)
    table[0, :n] = _as_array(w)  # '0'..'9' are all > 0
    for k in range(len(table) - 1):
        row = table[k]
        keys = row.astype(np.int64)
        keys *= int(row.max()) + 1
        keys[: n + 1 - 2**k] += row[2**k :]
        order = np.argsort(keys)
        keys = keys[order]
        dense = table[k + 1]  # dense ranks of the sorted keys, scattered back below
        dense[0] = 0
        np.not_equal(keys[1:], keys[:-1], out=dense[1:])
        np.cumsum(dense, out=dense)
        if dense[-1] == n:  # all distinct: level k + 1 never matches
            return table[: k + 1]
        dense[order] = dense.copy()
    return table


def _forward_lce(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest common prefix of w[a:] and w[b:], elementwise, for a != b."""
    ext = np.zeros_like(a)
    for k in range(len(table) - 1, -1, -1):
        row = table[k]
        ext += (row[a + ext] == row[b + ext]).astype(ext.dtype) << k
    return ext


def _backward_lce(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest common suffix of w[:a] and w[:b], elementwise, for a < b."""
    ext = np.zeros_like(a)
    for k in range(len(table) - 1, -1, -1):
        row = table[k]
        i = a - ext - (1 << k)
        fits = i >= 0
        np.maximum(i, 0, out=i)
        ext += (fits & (row[i] == row[b - a + i])).astype(ext.dtype) << k
    return ext


def _long_runs_by_letters(
    w: str, periods: range, min_len: Callable[[int], int]
) -> Iterator[tuple[int, int, int]]:
    """``long_runs`` for short words: the same samples, extended letter by letter.

    After a sample's run is extended, the scan resumes at the first sample
    past that run, so the sample it next extends is the first one of its run.
    """
    n = len(w)
    for p in periods:
        m = max(min_len(p), 1)
        stop = n - p
        if p < 1 or m > stop:
            continue
        j = 0
        while j < stop:
            if w[j] != w[j + p]:
                j += m
                continue
            s = j
            while s and w[s - 1] == w[s - 1 + p]:
                s -= 1
            e = j + 1
            while e < stop and w[e] == w[e + p]:
                e += 1
            if e - s >= m:
                yield p, s, e - s
            j = (e // m + 1) * m


def long_runs(
    w: str, periods: range, min_len: Callable[[int], int]
) -> Iterator[tuple[int, int, int]]:
    """Each maximal run (p, start, length) of w[i] == w[i+p] with length >= min_len(p).

    For each p in ``periods`` the runs are exactly ``period_runs(w, p,
    min_len=min_len(p))``, in (p, start) order. A run at least m long holds
    a position that is a multiple of m, so only those positions are tested.
    Each one whose letters agree is extended both ways, and each run is
    reported once, from the first such sample in it. Words shorter than
    ``_NUMPY_MIN`` extend the samples letter by letter, longer ones by
    common-extension queries on a rank table.
    """
    if len(w) < _NUMPY_MIN:
        return _long_runs_by_letters(w, periods, min_len)
    return _long_runs_by_ranks(w, periods, min_len)


def _long_runs_by_ranks(
    w: str, periods: range, min_len: Callable[[int], int]
) -> Iterator[tuple[int, int, int]]:
    """``long_runs`` with all samples of a block of periods extended at once.

    The first sample in a run is the one whose backward extension is
    shorter than m.
    """
    n = len(w)
    ps_a = np.fromiter(periods, dtype=np.int64, count=len(periods))
    # a minimum above n - p admits no run; capping it at n keeps it in int64
    ms_a = np.fromiter((min(max(min_len(p), 1), n) for p in periods), np.int64, len(periods))
    fits = (ps_a >= 1) & (ms_a <= n - ps_a)
    ps_a, ms_a = ps_a[fits], ms_a[fits]
    if not ps_a.size:
        return
    counts = (n - ps_a + ms_a - 1) // ms_a  # samples 0, m, 2m, ... < n - p
    ends = np.cumsum(counts)
    total = int(ends[-1])
    table = _rank_table(w)
    letters = table[0]
    for lo in range(0, total, _BLOCK):
        idx = np.arange(lo, min(lo + _BLOCK, total), dtype=np.int64)
        which = np.searchsorted(ends, idx, side="right")
        p, m = ps_a[which], ms_a[which]
        j = (idx - ends[which] + counts[which]) * m
        agree = letters[j] == letters[j + p]
        p, m, j = p[agree], m[agree], j[agree]
        back = _backward_lce(table, j, j + p)
        first = back < m
        p, m, j, back = p[first], m[first], j[first], back[first]
        length = back + _forward_lce(table, j, j + p)
        keep = length >= m
        yield from zip(p[keep].tolist(), (j - back)[keep].tolist(), length[keep].tolist())


def distinct_squares(w: str) -> set[str]:
    """All distinct factors of the form uu, u non-empty."""
    out: set[str] = set()
    for p, s, run in long_runs(w, range(1, len(w) // 2 + 1), lambda p: p):
        # windows repeat with stride p inside a periodic run
        for i in range(s, s + min(p, run - p + 1)):
            out.add(w[i : i + 2 * p])
    return out


def distinct_min_overlaps(w: str) -> set[str]:
    """Distinct minimal overlap witnesses: factors of length 2p+1 with period p."""
    out: set[str] = set()
    for p, s, run in long_runs(w, range(1, (len(w) - 1) // 2 + 1), lambda p: p + 1):
        for i in range(s, s + min(p, run - p)):
            out.add(w[i : i + 2 * p + 1])
    return out


def find_sq_t(w: str, t: int) -> Repetition | None:
    """Leftmost (then shortest-period) square uu with |u| >= t, if any."""
    if t < 1:
        raise DomainError("square period threshold must be >= 1")
    runs = long_runs(w, range(t, len(w) // 2 + 1), lambda p: p)
    best = min(((s, p) for p, s, _ in runs), default=None)
    if best is None:
        return None
    return Repetition(best[0], best[1], 2 * best[1])


def max_exponent(w: str) -> tuple[Fraction, Repetition]:
    """Maximum exponent over all repetition factors, with a witness.

    Ties pick the smallest start, then the smallest period.
    """
    n = len(w)
    if n < 2:
        raise DomainError("max_exponent needs a word of length >= 2")
    arr = _as_array(w) if n >= _NUMPY_MIN else None
    num, den = 1, 1  # best exponent as a raw ratio, compared by cross-multiplication
    witness = Repetition(0, 1, 1)
    for p in range(1, n):
        if n * den < num * p:  # no factor of period >= p reaches the best exponent
            break
        top = longest_period_run(w, p, arr)
        if top is None:
            continue
        at, run = top
        lhs = (p + run) * den
        rhs = num * p
        if lhs > rhs or (lhs == rhs and (at, p) < (witness.start, witness.period)):
            num, den = p + run, p
            witness = Repetition(at, p, p + run)
    return Fraction(num, den), witness


def _violation_length(e: Fraction, p: int, strict: bool) -> int:
    """Smallest factor length of period p whose exponent beats the cap."""
    if strict:
        return (e.numerator * p) // e.denominator + 1  # length/p > e
    return -((-e.numerator * p) // e.denominator)  # length/p >= e


def is_exponent_free(w: str, e: Fraction, strict: bool) -> Repetition | None:
    """None iff no repetition has exponent > e (strict) or >= e (not strict).

    Otherwise a violating witness: among the factors whose length is the
    shortest violating one for their period, the one with the smallest
    start, then the smallest period.
    """
    e = Fraction(e)
    if e <= 1:
        raise DomainError("exponent threshold must exceed 1")
    runs = long_runs(w, range(1, len(w)), lambda p: _violation_length(e, p, strict) - p)
    best = min(((s, p) for p, s, _ in runs), default=None)
    if best is None:
        return None
    s, p = best
    return Repetition(s, p, _violation_length(e, p, strict))
