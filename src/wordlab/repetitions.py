"""Repetition detection: squares, overlaps, bounded-period squares, exact exponents.

A repetition is a factor r with w[i] == w[i+p] throughout, p its period and
len(r)/p its exponent (an exact rational).

Every question about a whole word's repetitions asks for the maximal runs of
w[i] == w[i+p] that are at least some m(p) long: m(p) = p for squares,
p + 1 for overlaps, need(p) - p for exponent caps, (k - 1) p for the
k-powers the formula engine reads. ``long_runs`` finds them for all periods
in one pass: it tests only the (n - p) / m(p) positions that are multiples
of m(p), not all n - p, and extends each match with exact
longest-common-extension queries.

A square and a minimal overlap of period p are the windows of length 2p
and 2p + 1 that a run covers; ``first_windows`` gives each distinct one with
the end of its first occurrence, for the inventories and for ``check``.
A run at least p + 1 long is also at least p long, so one pass with
m(p) = p, ``square_runs``, holds every run either family reads, and every
run at least p + b long that the formula engine's square index reads
(``formulas.WordPowers.runs`` with m(p) = p + b). It keeps the runs of the
last word it was asked about, so ``check``, the two inventories and the
formula searches on one word share a single pass.

A run at least p long has exponent at least 2 and beats every shorter run,
so a word with a square has its highest exponent, ties included, among its
``square_runs``. ``max_exponent`` reads those first on a word shorter than
``_NUMPY_MIN`` letters, usually from the memo. On a square-free word, and
on every longer word, it makes two ``long_runs`` passes: the first over a
few small periods for a lower bound e on the exponent, the second for every
run that reaches e.

``SuffixRuns`` answers the same questions for the suffixes of a word that
grows and shrinks at its end, as the search needs them: per-period counters
packed into one int, updated by a push in a fixed number of big-int
operations.

Every threshold m(p), of ``long_runs`` and of ``SuffixRuns``, is a numpy
array expression that ``_thresholds`` evaluates on an int64 array of
periods, falling back to Python ints where int64 overflows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

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

    ``min_len`` is an array expression, as ``_thresholds`` evaluates it on
    the periods, a range. The runs come in (p, start) order. A run at least m long holds a
    position that is a multiple of m, so only those positions are tested.
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
    if not periods:
        return
    ps_a = np.arange(periods.start, periods.stop, periods.step, dtype=np.int64)
    # a minimum above n - p admits no run; capping it at n keeps it in int64
    ms_a = _thresholds(min_len, ps_a, 1, n)
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


def _thresholds(m: Callable, periods: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """m(p) for each of the increasing int64 periods, clipped to lo .. hi, as int64.

    ``m`` is written as an array expression and called on the periods at
    once (an int result holds for all of them). The products in every m here
    grow with p, so an int64 overflow shows at the last period, where m is
    also evaluated on a Python int; if they differ, m is evaluated again on
    Python ints.
    """
    try:
        need = np.broadcast_to(m(periods), periods.shape)
        exact = int(need[-1]) == m(int(periods[-1]))
    except OverflowError:
        exact = False
    if not exact:
        need = np.broadcast_to(m(periods.astype(object)), periods.shape)
    return np.clip(need, lo, hi).astype(np.int64)


@functools.lru_cache(maxsize=1)
def square_runs(w: str) -> tuple[tuple[int, int, int], ...]:
    """The maximal runs (p, start, length) of w[i] == w[i+p] at least p long, in (p, start) order.

    They hold every square and every minimal overlap of w, and the formula
    engine's square index. The last word's runs are kept, so ``check``, the
    two inventories and the formula searches on one word make one
    ``long_runs`` pass between them.
    """
    return tuple(long_runs(w, range(1, len(w) // 2 + 1), lambda p: p))


def first_windows(w: str, extra: int) -> dict[str, int]:
    """Each distinct factor of period p and length 2p + extra, with the end of its first occurrence.

    extra = 0 gives the squares, extra = 1 the minimal overlaps, both read
    off ``square_runs(w)``: a run shorter than p + extra holds no window.
    """
    out: dict[str, int] = {}
    for p, s, run in square_runs(w):
        length = 2 * p + extra
        # windows repeat with stride p inside a periodic run
        for e in range(s + length, s + length + min(p, run - p - extra + 1)):
            out.setdefault(w[e - length : e], e)
    return out


def distinct_squares(w: str) -> set[str]:
    """All distinct factors of the form uu, u non-empty."""
    return set(first_windows(w, 0))


def distinct_min_overlaps(w: str) -> set[str]:
    """Distinct minimal overlap witnesses: factors of length 2p+1 with period p."""
    return set(first_windows(w, 1))


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

    Ties pick the smallest start, then the smallest period. A short word
    with a square is read off ``square_runs``, any other word in two passes.
    """
    n = len(w)
    if n < 2:
        raise DomainError("max_exponent needs a word of length >= 2")
    runs = square_runs(w) if n < _NUMPY_MIN else ()
    if not runs:
        # any 11 letters over at most 10 hold a run of period <= 10, so the
        # bound is at least 11/10 and the second pass samples about 10 n ln n
        # positions; a run of period p reaches lo_num / lo_den when it is at
        # least (lo_num - lo_den) p / lo_den long
        lo_num, lo_den, _ = _best_run(long_runs(w, range(1, 11), lambda p: 1))
        runs = long_runs(w, range(1, n), lambda p: -((lo_den - lo_num) * p // lo_den))
    num, p, at = _best_run(runs)
    return Fraction(num, p), Repetition(at, p, num)


def _best_run(runs: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(p + length, p, start) of the run of highest exponent (p + length) / p.

    Exponents are compared by cross-multiplication. Ties pick the smallest
    start, then the smallest period; with no run it is the exponent 1/1 of
    the first letter.
    """
    num, den, at = 1, 1, 0
    for p, s, run in runs:
        lhs = (p + run) * den
        rhs = num * p
        if lhs > rhs or (lhs == rhs and (s, p) < (at, den)):
            num, den, at = p + run, p, s
    return num, den, at


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


# Levels below the top whose counters a ``SuffixRuns`` keeps, and the spacing
# of the snapshots it keeps further down.
_WINDOW = 256


class SuffixRuns:
    """Per-period suffix-run counters of a word that grows and shrinks at its end.

    For every period p, r_p counts the trailing positions i of the word with
    w[i] == w[i-p], so the word ends in a factor of period p and length L
    exactly when L - p <= r_p. A consumer asks which periods have
    r_p >= m(p) for a fixed threshold m: m(p) = p finds the square suffixes,
    p + 1 the overlaps, (k - 1) p the k-powers and need(p) - p the
    violations of an exponent cap.

    The counters are b-bit fields of one int R (b = 16 up to 32 767 letters,
    32 above; field p - 1 holds r_p), kept by bit-parallel shift-and
    (Baeza-Yates & Gonnet, CACM 1992). With MATCH[a] all ones in field p - 1
    where w[n-p] == a, pushing the letter a is

        R = (R + ONE) & MATCH[a]

    and the periods with r_p >= m(p) are the high bits of R + BIAS_m, field
    p - 1 of BIAS_m being 2^(b-1) - m(p). Each constant is also kept cut to
    its first 2^j fields for every j, so an operation costs O(depth), not
    O(max_length), and a push or pop is a fixed number of them. MATCH[a] is
    stored as it was just after the last push of a, and shifted up to the
    current length when a is pushed again, so a push or pop shifts one mask,
    not one per letter.

    A pop shifts the popped letter's mask back and restores R from a
    snapshot. One is kept for each of the last 256 levels and for every
    256th level below them; a pop below the window replays the pushes from
    the nearest snapshot and refills the window. At depth n the window holds
    about 32 n·b bytes (5 MB at 10 000 letters) and the sparse snapshots
    about n²·b / 4096 bytes.
    """

    def __init__(self, alphabet_size: int, max_length: int):
        self.n = 0
        self._fields = f = max(max_length, 1)
        self._bits = b = 16 if max_length <= 32767 else 32
        self._dtype = np.dtype("<u2" if b == 16 else "<u4")
        self._full = (1 << b) - 1
        self._high = int.from_bytes((1 << (b - 1)).to_bytes(b // 8, "little") * f, "little")
        self._one = self._cuts(int.from_bytes((1).to_bytes(b // 8, "little") * f, "little"))
        # MATCH[c] is _match[c] shifted up by n - _synced[c] fields; a pop of c
        # restores _synced[c] from _synced_before
        self._match = [0] * alphabet_size
        self._synced = [0] * alphabet_size
        self._synced_before: list[int] = []
        self._letters = bytearray(max_length)
        self._r = 0
        self._j = 0
        self._saved: list[int | None] = [0]  # R by level, None outside the snapshots

    def _cuts(self, const: int) -> tuple[int, ...]:
        """const cut to its first 2^j fields, for j = 0, 1, ... up to all of them."""
        b, f = self._bits, self._fields
        return tuple(const & ((1 << (min(1 << j, f) * b)) - 1) for j in range(f.bit_length() + 1))

    def threshold(self, m: Callable) -> tuple[int, ...]:
        """The biases testing r_p >= m(p), for ``hits`` and ``any``.

        ``m`` maps each period p to a threshold >= 1; one of at least
        max_length is never met. It is evaluated by ``_thresholds`` on
        ``_BLOCK`` consecutive periods at a time.
        """
        f = self._fields
        # a counter stays below 2^(b-1), so a larger threshold is never met
        half = 1 << (self._bits - 1)
        fields = np.empty(f, self._dtype)
        for lo in range(0, f, _BLOCK):
            periods = np.arange(lo + 1, min(lo + _BLOCK, f) + 1, dtype=np.int64)
            need = _thresholds(m, periods, 0, half)
            if need.min() < 1:
                raise DomainError("suffix-run thresholds must be >= 1")
            fields[lo : lo + len(periods)] = half - need
        return self._cuts(int.from_bytes(fields.tobytes(), "little"))

    def push(self, letter: int) -> None:
        n = self.n
        self._j = j = n.bit_length()  # 2^j fields cover every period up to n
        b = self._bits
        synced = self._synced
        t = synced[letter]
        match = self._match[letter] << ((n - t) * b)
        r = self._r = (self._r + self._one[j]) & match
        self._match[letter] = (match << b) | self._full
        synced[letter] = n + 1
        self._synced_before.append(t)
        self._letters[n] = letter
        saved = self._saved
        saved.append(r)
        self.n = n = n + 1
        if n > _WINDOW and n % _WINDOW:
            saved[n - _WINDOW] = None

    def pop(self) -> None:
        saved = self._saved
        saved.pop()
        self.n = n = self.n - 1
        b = self._bits
        letter = self._letters[n]
        t = self._synced_before.pop()
        self._match[letter] >>= (n + 1 - t) * b
        self._synced[letter] = t
        r = saved[n]
        if r is None:
            s = n - n % _WINDOW
            r = saved[s]
            letters, one = self._letters, self._one
            match = [m << ((n - t) * b) for m, t in zip(self._match, self._synced)]
            for i in range(s, n):
                r = (r + one[i.bit_length()]) & (match[letters[i]] >> ((n - i) * b))
                saved[i + 1] = r
        self._r = r

    def any(self, t: tuple[int, ...]) -> bool:
        """Whether some period p has r_p >= m(p), for t = threshold(m)."""
        return bool((self._r + t[self._j]) & self._high)

    def hits(self, t: tuple[int, ...]) -> Iterator[int]:
        """The periods p with r_p >= m(p), ascending, for t = threshold(m)."""
        x = (self._r + t[self._j]) & self._high
        b = self._bits
        while x:
            low = x & -x
            yield low.bit_length() // b
            x ^= low
