"""The repetition scanners and ``check`` on prefixes of every manifest target.

Each result is compared with the period-by-period scan in ``period_scan``
on a 3 000-letter prefix, and with the brute-force oracles on a 300-letter
prefix.
"""

import os
from fractions import Fraction

import pytest

from conftest import MANIFEST_DIR
from oracles import (
    naive_distinct_min_overlaps,
    naive_distinct_squares,
    naive_find_sq_t,
    naive_has_exponent,
)
from period_scan import (
    scan_check,
    scan_distinct_min_overlaps,
    scan_distinct_squares,
    scan_find_sq_t,
    scan_is_exponent_free,
    scan_max_exponent,
)
from wordlab.characterize import load_manifest
from wordlab.constraints import check
from wordlab.morphisms import fixed_point_prefix, morphic_prefix
from wordlab.repetitions import (
    distinct_min_overlaps,
    distinct_squares,
    find_sq_t,
    is_exponent_free,
    max_exponent,
)

MANIFESTS = sorted(
    name for name in os.listdir(MANIFEST_DIR) if "." not in name and not name.startswith("_")
)
CAPS = [(Fraction(5, 3), True), (Fraction(5, 3), False), (Fraction(5, 2), True), (Fraction(5, 2), False)]


def target_prefix(m, n):
    if m.outer is None:
        return fixed_point_prefix(m.inner, n)
    return morphic_prefix(m.outer, m.inner, n)


def as_tuple(rep):
    return None if rep is None else (rep.start, rep.period, rep.length)


@pytest.mark.parametrize("name", MANIFESTS)
def test_manifest_prefix_matches_period_scan(name):
    m = load_manifest(os.path.join(MANIFEST_DIR, name))
    w = target_prefix(m, 3000)
    assert distinct_squares(w) == scan_distinct_squares(w)
    assert distinct_min_overlaps(w) == scan_distinct_min_overlaps(w)
    for t in range(1, 5):
        got = find_sq_t(w, t)
        assert (None if got is None else (got.start, got.period)) == scan_find_sq_t(w, t)
    for e, strict in CAPS:
        assert as_tuple(is_exponent_free(w, e, strict)) == scan_is_exponent_free(w, e, strict)
    exp, wit = max_exponent(w)
    assert (exp, wit.start, wit.period) == scan_max_exponent(w)
    assert check(w, m.constraints) == scan_check(w, m.constraints)


@pytest.mark.parametrize("name", MANIFESTS)
def test_manifest_prefix_matches_oracles(name):
    m = load_manifest(os.path.join(MANIFEST_DIR, name))
    w = target_prefix(m, 300)
    assert distinct_squares(w) == naive_distinct_squares(w)
    assert distinct_min_overlaps(w) == naive_distinct_min_overlaps(w)
    for t in range(1, 5):
        got = find_sq_t(w, t)
        assert (None if got is None else (got.start, got.period)) == naive_find_sq_t(w, t)
    for e, strict in CAPS:
        assert (is_exponent_free(w, e, strict) is not None) == naive_has_exponent(w, e, strict)
