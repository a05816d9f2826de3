"""Independent brute-force oracles.

These deliberately enumerate from the definitions (start/period scans,
assignment products, piece concatenations) and share no code with the
production scanners.
"""

from fractions import Fraction
from itertools import product


def naive_distinct_squares(w):
    out = set()
    n = len(w)
    for p in range(1, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if w[i : i + p] == w[i + p : i + 2 * p]:
                out.add(w[i : i + 2 * p])
    return out


def naive_distinct_min_overlaps(w):
    out = set()
    n = len(w)
    for p in range(1, (n - 1) // 2 + 1):
        for i in range(n - 2 * p):
            if w[i : i + p + 1] == w[i + p : i + 2 * p + 1]:
                out.add(w[i : i + 2 * p + 1])
    return out


def naive_find_sq_t(w, t):
    """(start, period) of the leftmost-then-shortest square with period >= t."""
    n = len(w)
    best = None
    for p in range(t, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if w[i : i + p] == w[i + p : i + 2 * p]:
                if best is None or (i, p) < best:
                    best = (i, p)
                break
    return best


def naive_max_exponent(w):
    """(exponent, start, period) maximizing length/period by letter extension."""
    b = w.encode()
    n = len(b)
    num, den, start = 1, 1, 0  # best exponent num / den, compared by cross-multiplication
    for p in range(1, n):
        for i in range(n - p):
            if b[i] != b[i + p]:
                continue
            k = 1
            while i + p + k < n and b[i + k] == b[i + p + k]:
                k += 1
            lhs, rhs = (p + k) * den, num * p
            if lhs > rhs or (lhs == rhs and (i, p) < (start, den)):
                num, den, start = p + k, p, i
    return Fraction(num, den), start, den


def naive_has_exponent(w, e, strict):
    exp, _, _ = naive_max_exponent(w) if len(w) >= 2 else (Fraction(1), 0, 1)
    return exp > e if strict else exp >= e


def naive_occurrences(w, formula_fragments, nvars, cap):
    """All assignments (image tuples) by product over candidate factors.

    ``cap`` bounds the length of every image, or, as a sequence, of each
    variable's image in turn.
    """
    caps = [cap] * nvars if isinstance(cap, int) else cap
    factors = {}
    for c in set(caps):
        factors[c] = sorted({w[i : i + l] for l in range(1, c + 1) for i in range(len(w) - l + 1)})
    out = set()
    for images in product(*(factors[c] for c in caps)):
        ok = True
        for frag in formula_fragments:
            img = "".join(images[ord(ch) - ord("A")] for ch in frag)
            if img not in w:
                ok = False
                break
        if ok:
            out.add(images)
    return out


def naive_has_occurrence(w, formula_fragments, nvars):
    """Whether w holds an occurrence, by ``naive_occurrences`` with each image
    capped at the longest that keeps every fragment image within |w| letters."""
    caps = [len(w)] * nvars
    for frag in formula_fragments:
        for ch in set(frag):
            v, cnt = ord(ch) - ord("A"), frag.count(ch)
            caps[v] = min(caps[v], (len(w) - (len(frag) - cnt)) // cnt)
    return bool(naive_occurrences(w, formula_fragments, nvars, caps))


def naive_code_membership(v, pieces, slack=2):
    """Enumerate piece concatenations long enough to cover v plus a margin."""
    bound = len(v) + slack * max(len(p) for p in pieces)
    hits = [""]
    seen = set()
    while hits:
        s = hits.pop()
        if v in s:
            return True
        if len(s) >= bound or s in seen:
            continue
        seen.add(s)
        for p in pieces:
            hits.append(s + p)
    return False


def all_words(alphabet_size, length):
    digits = "0123456789"[:alphabet_size]
    return ("".join(t) for t in product(digits, repeat=length))


def permutation_group(k, gens):
    """Every permutation of range(k) that the generators generate, in one-line notation."""
    out = [tuple(range(k))]
    for s in out:
        for g in gens:
            t = tuple(g[a] for a in s)
            if t not in out:
                out.append(t)
    return out
