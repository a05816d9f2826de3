"""Known answers for the benchmark's correctness gates.

Brute-force oracles written from the definitions (every start, every period,
plain slicing), an independent morphic-prefix generator, and search results
frozen from the commit that introduced the benchmark. Nothing here imports
wordlab, so a bug in a scanner cannot also hide in its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

DIGITS = "0123456789"

# Search results frozen from the commit that introduced the benchmark. They
# do not depend on the seed: the seed relabels letters, which maps every
# search tree onto an isomorphic one.
FROZEN_EXTENDABLE_SIZES = {
    "g4": 100,
    "g5": 96,
    "h12": 113,
    "k5": 64,
    "k3": 58,
    "c-sq3f": 96,
    "b3": 64,
    "b5": 81,
    "p": 41,
    "fib": 21,
    "pd-currie": 32,
    "pd-new": 20,
}
SQ11_EXHAUSTION_LENGTH = 213  # pinned by the extended acceptance test
FROZEN_SQ11_NODES = 50951  # longest_word_search(sq11-ov2, 200)
FROZEN_WALK_NODES = 3828  # longest_word_search(C4 5/3+-free, 1000)
FROZEN_THRIFTY_COUNTS = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1022, 2042, 4074)


# ---------------------------------------------------------------------------
# words and letters


def relabel_table(perm: str) -> dict:
    """Translation table sending letter i to perm[i]."""
    return str.maketrans(DIGITS[: len(perm)], perm)


def morphic_word(inner: tuple[str, ...], outer: tuple[str, ...] | None, n: int) -> str:
    """Length-n prefix of outer(fixed point of inner), by repeated substitution."""
    w = "0"
    while True:
        image = w if outer is None else "".join(outer[int(c)] for c in w)
        if len(image) >= n:
            return image[:n]
        grown = "".join(inner[int(c)] for c in w)
        if len(grown) <= len(w):
            raise ValueError("inner morphism does not grow its fixed point")
        w = grown


def factor_set(w: str, length: int) -> set[str]:
    return {w[i : i + length] for i in range(len(w) - length + 1)}


# ---------------------------------------------------------------------------
# repetitions


def squares_first_end(w: str) -> dict[str, int]:
    """Every distinct square uu of w, mapped to the end of its first occurrence."""
    n = len(w)
    first: dict[str, int] = {}
    for p in range(1, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if w[i : i + p] == w[i + p : i + 2 * p]:
                first.setdefault(w[i : i + 2 * p], i + 2 * p)
    return first


def min_overlaps_first_end(w: str) -> dict[str, int]:
    """Every distinct factor of length 2p+1 with period p, mapped to its first end."""
    n = len(w)
    first: dict[str, int] = {}
    for p in range(1, (n - 1) // 2 + 1):
        for i in range(n - 2 * p):
            if w[i : i + p + 1] == w[i + p : i + 2 * p + 1]:
                first.setdefault(w[i : i + 2 * p + 1], i + 2 * p + 1)
    return first


def max_exponent(w: str) -> tuple[Fraction, int, int]:
    """(exponent, start, period): longest periodic extension over every (start, period)."""
    n = len(w)
    best = (Fraction(1), 0, 1)
    for p in range(1, n):
        for i in range(n - p):
            if i > 0 and w[i - 1] == w[i - 1 + p]:
                continue  # not the left end of a run; its run start scores higher
            k = 0
            while i + p + k < n and w[i + k] == w[i + p + k]:
                k += 1
            if k == 0:
                continue
            e = Fraction(p + k, p)
            if e > best[0] or (e == best[0] and (i, p) < (best[1], best[2])):
                best = (e, i, p)
    return best


def violation_length(e: Fraction, p: int, strict: bool) -> int:
    """Shortest length whose ratio to p exceeds e (strict) or reaches it."""
    return math.floor(e * p) + 1 if strict else math.ceil(e * p)


def first_exponent_violation(w: str, e: Fraction, strict: bool) -> tuple[int, int, int] | None:
    """(start, period, length) minimising (start, period) over factors beating e."""
    n = len(w)
    best = None
    for p in range(1, n):
        need = violation_length(e, p, strict)
        for i in range(n - need + 1):
            if w[i : i + need - p] == w[i + p : i + need]:
                if best is None or (i, p) < best[:2]:
                    best = (i, p, need)
                break
    return best


def leftmost_square_from(w: str, t: int) -> tuple[int, int] | None:
    """(start, period) of the leftmost, then shortest, square with period >= t."""
    n = len(w)
    best = None
    for p in range(t, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if w[i : i + p] == w[i + p : i + 2 * p]:
                if best is None or (i, p) < best:
                    best = (i, p)
                break
    return best


def exponent_at_most(w: str, e: Fraction) -> bool:
    """True iff no factor of w has exponent > e (checked end by end)."""
    n = len(w)
    for p in range(1, n):
        run = 0
        for i in range(n - p):
            run = run + 1 if w[i] == w[i + p] else 0
            if (p + run) * e.denominator > e.numerator * p:
                return False
    return True


# ---------------------------------------------------------------------------
# formula occurrences (images of length <= cap)


def occurrences(w: str, formula: str, cap: int) -> set[tuple[str, ...]]:
    n = len(w)
    out: set[tuple[str, ...]] = set()
    if formula == "AA":
        for p in range(1, min(cap, n // 2) + 1):
            for i in range(n - 2 * p + 1):
                if w[i : i + p] == w[i + p : i + 2 * p]:
                    out.add((w[i : i + p],))
    elif formula == "AA.BB":
        roots = [x for (x,) in occurrences(w, "AA", cap)]
        out = {(x, y) for x in roots for y in roots}
    elif formula == "ABBA":
        for a in range(1, cap + 1):
            for b in range(1, cap + 1):
                for i in range(n - 2 * a - 2 * b + 1):
                    x, y = w[i : i + a], w[i + a : i + a + b]
                    if w[i + a + b : i + a + 2 * b] == y and w[i + a + 2 * b : i + 2 * a + 2 * b] == x:
                        out.add((x, y))
    elif formula == "ABAB":
        for a in range(1, cap + 1):
            for b in range(1, cap + 1):
                for i in range(n - 2 * a - 2 * b + 1):
                    if w[i : i + a + b] == w[i + a + b : i + 2 * a + 2 * b]:
                        out.add((w[i : i + a], w[i + a : i + a + b]))
    else:
        raise ValueError(f"no oracle for {formula}")
    return out


def has_occurrence(w: str, formula: str) -> bool:
    """Existence with unbounded images, smallest total image length first."""
    n = len(w)
    if formula in ("AA", "AA.BB"):  # A = B is a legal assignment of AA.BB
        return any(
            w[i : i + p] == w[i + p : i + 2 * p]
            for p in range(1, n // 2 + 1)
            for i in range(n - 2 * p + 1)
        )
    if formula == "ABAB":
        return any(
            w[i : i + p] == w[i + p : i + 2 * p]
            for p in range(2, n // 2 + 1)
            for i in range(n - 2 * p + 1)
        )
    if formula == "ABBA":
        for half in range(2, n // 2 + 1):  # half = |A| + |B|
            for a in range(1, half):
                b = half - a
                for i in range(n - 2 * half + 1):
                    if (
                        w[i + a : i + a + b] == w[i + a + b : i + a + 2 * b]
                        and w[i : i + a] == w[i + a + 2 * b : i + 2 * half]
                    ):
                        return True
        return False
    raise ValueError(f"no oracle for {formula}")


# ---------------------------------------------------------------------------
# whole-word check against a repetition constraint set


def first_violation(
    w: str, sq_min_period: int, max_squares: int, max_overlaps: int, cap: Fraction, strict: bool
) -> tuple[str, int, int, str] | None:
    """(kind, start, end, witness) of the earliest-completing violation.

    Ties on the end go to the kind listed first below, then to the smaller
    start, as the constraint file format documents.
    """
    n = len(w)
    cands = []  # (end, rank, start, kind, witness)
    period_hits = []
    for p in range(sq_min_period, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if w[i : i + p] == w[i + p : i + 2 * p]:
                period_hits.append((i + 2 * p, i))
    if period_hits:
        end, start = min(period_hits)
        cands.append((end, 0, start, "square-period", w[start:end]))
    squares = squares_first_end(w)
    if len(squares) > max_squares:
        end, u = sorted((e, u) for u, e in squares.items())[max_squares]
        cands.append((end, 1, end - len(u), "square-count", u))
    overlaps = min_overlaps_first_end(w)
    if len(overlaps) > max_overlaps:
        end, u = sorted((e, u) for u, e in overlaps.items())[max_overlaps]
        cands.append((end, 2, end - len(u), "overlap-count", u))
    hits = []
    for p in range(1, n):
        need = violation_length(cap, p, strict)
        for i in range(n - need + 1):
            if w[i : i + need - p] == w[i + p : i + need]:
                hits.append((i + need, i))
    if hits:
        end, start = min(hits)
        cands.append((end, 3, start, "exponent", w[start:end]))
    if not cands:
        return None
    end, _, start, kind, witness = min(cands)
    return kind, start, end, witness
