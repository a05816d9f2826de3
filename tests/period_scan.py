"""Second reference for the repetition scanners: the period-by-period scan.

This is the implementation ``repetitions.long_runs`` replaced: one equality
mask w[i] == w[i+p] per period, cut into maximal runs, with the squares,
overlaps, maximum exponents, exponent caps, the k-power roots of the
formula engine and the repetition sections of ``check`` read off each
period in turn. It shares no code with the library's scanners, so the
differential tests compare two independent computations of the same runs.

``PeriodScanChecker`` is likewise the search checker that
``repetitions.SuffixRuns`` replaced: every push compares the word's suffix
with itself once per period.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from wordlab.constraints import _KIND_PRIORITY, Violation, check
from wordlab.formulas import new_assignments, new_occurrence_exists


def scan_period_runs(w, p, min_len=1):
    """Maximal runs (start, length >= min_len) of w[i] == w[i+p]."""
    n = len(w)
    if p < 1 or p >= n:
        return []
    arr = np.frombuffer(w.encode("ascii"), dtype=np.uint8)
    mask = np.concatenate(([False], arr[p:] == arr[: n - p], [False])).view(np.int8)
    d = np.diff(mask)
    starts = np.flatnonzero(d == 1)
    lengths = np.flatnonzero(d == -1) - starts
    keep = lengths >= max(min_len, 1)
    return list(zip(starts[keep].tolist(), lengths[keep].tolist()))


def scan_runs(w, periods, min_len):
    """What ``long_runs`` must return: (p, start, length) per period, in order."""
    return [(p, s, run) for p in periods for s, run in scan_period_runs(w, p, min_len(p))]


def violation_length(e, p, strict):
    """Shortest length of a period-p factor whose exponent beats the cap e."""
    if strict:
        return (e.numerator * p) // e.denominator + 1
    return -((-e.numerator * p) // e.denominator)


def scan_distinct_squares(w):
    out = set()
    for p in range(1, len(w) // 2 + 1):
        for s, run in scan_period_runs(w, p, p):
            for i in range(s, s + min(p, run - p + 1)):
                out.add(w[i : i + 2 * p])
    return out


def scan_distinct_min_overlaps(w):
    out = set()
    for p in range(1, (len(w) - 1) // 2 + 1):
        for s, run in scan_period_runs(w, p, p + 1):
            for i in range(s, s + min(p, run - p)):
                out.add(w[i : i + 2 * p + 1])
    return out


def scan_find_sq_t(w, t):
    """(start, period) of the leftmost, then shortest-period, square of period >= t."""
    best = None
    for p in range(t, len(w) // 2 + 1):
        for s, _ in scan_period_runs(w, p, p)[:1]:
            if best is None or (s, p) < best:
                best = (s, p)
    return best


def scan_is_exponent_free(w, e, strict):
    """None, or (start, period, length) of the violation ``is_exponent_free`` reports."""
    n = len(w)
    best = None
    for p in range(1, n):
        need = violation_length(e, p, strict)
        if need > n:
            continue
        for s, _ in scan_period_runs(w, p, need - p)[:1]:
            if best is None or (s, p) < best[:2]:
                best = (s, p, need)
    return best


def scan_max_exponent(w):
    """(exponent, start, period) of ``max_exponent``: each period's earliest
    longest run, then the highest exponent, smallest start, smallest period."""
    best = (Fraction(1), 0, 1)
    for p in range(1, len(w)):
        runs = scan_period_runs(w, p)
        if runs:
            s, run = max(runs, key=lambda r: (r[1], -r[0]))
            e = Fraction(p + run, p)
            if (-e, s, p) < (-best[0], best[1], best[2]):
                best = (e, s, p)
    return best


def scan_power_roots(w, k, g):
    """Roots x of length g with x^k a factor of w, by run and position, as
    ``WordPowers.roots_of_period`` yields them."""
    return [
        w[i : i + g]
        for s, run in scan_period_runs(w, g, (k - 1) * g)
        for i in range(s, s + min(g, run - (k - 1) * g + 1))
    ]


def scan_power_ends(w, k, pos):
    """Periods g, ascending, with w[pos - k g : pos] a k-power, as
    ``WordPowers.ends`` gives them: each suffix of w[:pos] tried in turn."""
    return [g for g in range(1, pos // k + 1) if w[pos - k * g : pos] == w[pos - g : pos] * k]


def _repetition_violations(w, c):
    n = len(w)
    cands = []
    if c.sq_min_period is not None or c.allowed_squares is not None or c.max_square_count is not None:
        sq_first = {}
        best_period = best_not_allowed = None
        for p in range(1, n // 2 + 1):
            # every run of the period: its first run may hold only allowed
            # squares while a later one holds an earlier-ending forbidden one
            for s, run in scan_period_runs(w, p, p):
                if c.sq_min_period is not None and p >= c.sq_min_period:
                    best_period = min(best_period or (s + 2 * p, s), (s + 2 * p, s))
                for i in range(s, s + min(p, run - p + 1)):
                    fct = w[i : i + 2 * p]
                    if c.allowed_squares is not None and fct not in c.allowed_squares:
                        best_not_allowed = min(best_not_allowed or (i + 2 * p, i), (i + 2 * p, i))
                        break
                    sq_first.setdefault(fct, i + 2 * p)
        if best_period is not None:
            e, s = best_period
            cands.append(Violation("square-period", s, e, w[s:e]))
        if best_not_allowed is not None:
            e, s = best_not_allowed
            cands.append(Violation("square-not-allowed", s, e, w[s:e]))
        if c.max_square_count is not None and len(sq_first) > c.max_square_count:
            e, fct = sorted((e, fct) for fct, e in sq_first.items())[c.max_square_count]
            cands.append(Violation("square-count", e - len(fct), e, fct,
                                   f"more than {c.max_square_count} distinct squares"))
    if c.allowed_overlaps is not None or c.max_overlap_count is not None:
        ov_first = {}
        best_ov = None
        for p in range(1, (n - 1) // 2 + 1):
            for s, run in scan_period_runs(w, p, p + 1):
                for i in range(s, s + min(p, run - p)):
                    fct = w[i : i + 2 * p + 1]
                    if c.allowed_overlaps is not None and fct not in c.allowed_overlaps:
                        best_ov = min(best_ov or (i + 2 * p + 1, i), (i + 2 * p + 1, i))
                        break
                    ov_first.setdefault(fct, i + 2 * p + 1)
        if best_ov is not None:
            e, s = best_ov
            cands.append(Violation("overlap-not-allowed", s, e, w[s:e]))
        if c.max_overlap_count is not None and len(ov_first) > c.max_overlap_count:
            e, fct = sorted((e, fct) for fct, e in ov_first.items())[c.max_overlap_count]
            cands.append(Violation("overlap-count", e - len(fct), e, fct,
                                   f"more than {c.max_overlap_count} distinct overlaps"))
    if c.exponent_cap is not None:
        e_cap, strict = c.exponent_cap
        best = None
        for p in range(1, n):
            need = violation_length(e_cap, p, strict)
            if need <= n:
                for s, _ in scan_period_runs(w, p, need - p)[:1]:
                    best = min(best or (s + need, s), (s + need, s))
        if best is not None:
            e, s = best
            cands.append(Violation("exponent", s, e, w[s:e],
                                   f"exponent {'>' if strict else '>='} {e_cap}"))
    return cands


def scan_check(w, c):
    """``check`` with its square, overlap and exponent sections scanned per period.

    The other sections come from the library's ``check`` run on the
    constraints without those directives; the earliest-completing violation
    of the union is the same minimum ``check`` takes.
    """
    rest = replace(
        c, sq_min_period=None, allowed_squares=None, allowed_overlaps=None,
        max_square_count=None, max_overlap_count=None, exponent_cap=None,
    )
    cands = _repetition_violations(w, c)
    other = check(w, rest)
    if other is not None:
        cands.append(other)
    if not cands:
        return None
    return min(cands, key=lambda v: (v.end, _KIND_PRIORITY[v.kind], v.start))


def _is_power(f):
    """AA, AAA, ...: one fragment in one variable."""
    return len(f.fragments) == 1 and len(set(f.fragments[0])) == 1


class PeriodScanChecker:
    """``search.BranchChecker`` with a per-period loop for every repetition test.

    One-variable powers are scanned per period like the other repetitions.
    Every other formula, the periodic shapes ``ABAB``, ``ABABA``, ``ABCABC``,
    ... that the checker decides on its counters included, and the
    occurrence budget run the engine's generic anchored search on the whole
    word, with no power stack.
    """

    def __init__(self, c, max_length):
        self.c = c
        self.buf = bytearray(max_length + 1)
        self.n = 0
        self.adj = c.graph.adjacency() if c.graph is not None else None
        self.factors = {f.encode() for f in c.forbidden_factors}
        self.allowed_squares = {s.encode() for s in c.allowed_squares or ()}
        self.allowed_overlaps = {s.encode() for s in c.allowed_overlaps or ()}
        powers = [f for f in c.forbidden_formulas if _is_power(f)]
        self.power_exponents = sorted({len(f.fragments[0]) for f in powers})
        self.formulas = [f for f in c.forbidden_formulas if f not in powers]
        self.seen = []  # per depth: (squares, overlaps, assignments) this push added

    def word(self):
        return self.buf[: self.n].decode("ascii")

    def _seen(self, i):
        return {x for added in self.seen for x in added[i]}

    def push(self, letter):
        kind, added = self._scan(letter)
        if kind is None:
            self.seen.append(added)
        else:
            self.n -= 1
        return kind

    def pop(self):
        self.seen.pop()
        self.n -= 1

    def _scan(self, letter):
        c, buf = self.c, self.buf
        buf[self.n] = 48 + letter
        self.n = n = self.n + 1
        if any(bytes(buf[n - len(f) : n]) == f for f in self.factors if len(f) <= n):
            return "factor", None
        if self.adj is not None and n >= 2 and not self.adj[buf[n - 2] - 48][buf[n - 1] - 48]:
            return "graph", None

        # every window of a family is tested against its allow-list before the
        # fresh ones are counted against its budget, in check's kind order
        kinds = set()
        new_sq = []
        squares = (c.sq_min_period, c.allowed_squares, c.max_square_count)
        if any(x is not None for x in squares):
            seen = self._seen(0)
            for p in range(1, n // 2 + 1):
                if buf[n - 2 * p : n - p] == buf[n - p : n]:
                    if c.sq_min_period is not None and p >= c.sq_min_period:
                        kinds.add("square-period")
                    fct = bytes(buf[n - 2 * p : n])
                    if c.allowed_squares is not None and fct not in self.allowed_squares:
                        kinds.add("square-not-allowed")
                    if c.max_square_count is not None and fct not in seen and fct not in new_sq:
                        new_sq.append(fct)
            if c.max_square_count is not None and len(seen) + len(new_sq) > c.max_square_count:
                kinds.add("square-count")
        new_ov = []
        if c.allowed_overlaps is not None or c.max_overlap_count is not None:
            seen = self._seen(1)
            for p in range(1, (n - 1) // 2 + 1):
                if buf[n - 2 * p - 1 : n - p] == buf[n - p - 1 : n]:
                    fct = bytes(buf[n - 2 * p - 1 : n])
                    if c.allowed_overlaps is not None and fct not in self.allowed_overlaps:
                        kinds.add("overlap-not-allowed")
                    if c.max_overlap_count is not None and fct not in seen and fct not in new_ov:
                        new_ov.append(fct)
            if c.max_overlap_count is not None and len(seen) + len(new_ov) > c.max_overlap_count:
                kinds.add("overlap-count")
        if kinds:
            return min(kinds, key=_KIND_PRIORITY.__getitem__), None
        if c.exponent_cap is not None:
            e, strict = c.exponent_cap
            for p in range(1, n):
                need = violation_length(e, p, strict)
                if need <= n and buf[n - need : n - p] == buf[n - need + p : n]:
                    return "exponent", None
        for k in self.power_exponents:
            for g in range(1, n // k + 1):
                if buf[n - k * g : n - g] == buf[n - (k - 1) * g : n]:
                    return "formula", None

        wb = bytes(buf[:n])
        if any(new_occurrence_exists(wb, f) for f in self.formulas):
            return "formula", None
        new_occ = []
        if c.occurrence_budget is not None:
            f, budget = c.occurrence_budget
            seen = self._seen(2)
            new_occ = [a for a in new_assignments(wb, f) if a not in seen]
            if len(seen) + len(new_occ) > budget:
                return "occurrence-budget", None
        return None, (new_sq, new_ov, new_occ)
