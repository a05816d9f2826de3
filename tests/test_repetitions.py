import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import mutated_periodic
from oracles import (
    naive_distinct_min_overlaps,
    naive_distinct_squares,
    naive_find_sq_t,
    naive_max_exponent,
)
from period_scan import scan_check, scan_max_exponent, scan_runs, violation_length
from wordlab.constraints import ConstraintSet, check, parse_constraints
from wordlab.errors import DomainError
from wordlab.morphisms import fixed_point_prefix, parse_morphism
from wordlab.repetitions import (
    Repetition,
    SuffixRuns,
    _rank_table,
    distinct_min_overlaps,
    distinct_squares,
    find_sq_t,
    format_exponent,
    is_exponent_free,
    long_runs,
    max_exponent,
)

binary = st.text(alphabet="01", min_size=2, max_size=120)
ternary = st.text(alphabet="012", min_size=2, max_size=80)


def test_distinct_squares_examples():
    assert distinct_squares("0100010101") == {"00", "0101", "1010"}
    assert distinct_squares("010") == set()
    assert distinct_squares("") == set()


def test_distinct_min_overlaps_examples():
    assert distinct_min_overlaps("0100010101") == {"000", "01010", "10101"}
    assert distinct_min_overlaps("0110") == set()


def test_find_sq_t_examples():
    r = find_sq_t("012012", 3)
    assert (r.start, r.period, r.length) == (0, 3, 6)
    assert find_sq_t("0100010101", 3) is None
    r = find_sq_t("0100010101", 1)
    assert (r.start, r.period) == (2, 1)
    with pytest.raises(DomainError):
        find_sq_t("01", 0)


def test_max_exponent_examples():
    e, wit = max_exponent("010")
    assert e == Fraction(3, 2) and (wit.start, wit.period, wit.length) == (0, 2, 3)
    e, _ = max_exponent("00")
    assert e == Fraction(2)
    e, wit = max_exponent("01010")
    assert e == Fraction(5, 2) and wit.factor_of("01010") == "01010"
    e, _ = max_exponent("01")
    assert e == Fraction(1)
    with pytest.raises(DomainError):
        max_exponent("0")


def test_is_exponent_free_examples():
    assert is_exponent_free("010", Fraction(7, 4), strict=True) is None
    wit = is_exponent_free("0101", Fraction(2), strict=False)
    assert wit.factor_of("0101") == "0101"
    assert is_exponent_free("0101", Fraction(2), strict=True) is None
    wit = is_exponent_free("01010", Fraction(2), strict=True)
    assert wit.exponent > 2
    with pytest.raises(DomainError):
        is_exponent_free("01", Fraction(1), strict=True)


def test_exponent_scaling_invariance():
    for w in ("0100010101", "0110100110010110"):
        assert is_exponent_free(w, Fraction(10, 6), True) == is_exponent_free(
            w, Fraction(5, 3), True
        )


def test_format_exponent():
    assert format_exponent(Fraction(5, 3)) == "5/3"
    assert format_exponent(Fraction(2)) == "2/1"


@given(binary)
def test_squares_match_oracle_binary(w):
    assert distinct_squares(w) == naive_distinct_squares(w)


@given(ternary)
def test_overlaps_match_oracle_ternary(w):
    assert distinct_min_overlaps(w) == naive_distinct_min_overlaps(w)


@given(binary, st.integers(1, 5))
def test_find_sq_t_matches_oracle(w, t):
    got = find_sq_t(w, t)
    want = naive_find_sq_t(w, t)
    if want is None:
        assert got is None
    else:
        assert (got.start, got.period) == want


@given(ternary)
def test_max_exponent_matches_oracle(w):
    exp, wit = max_exponent(w)
    n_exp, n_start, n_period = naive_max_exponent(w)
    assert exp == n_exp
    assert (wit.start, wit.period) == (n_start, n_period)
    # the witness really is a repetition with that period
    u = wit.factor_of(w)
    assert all(u[i] == u[i + wit.period] for i in range(len(u) - wit.period))


def test_letter_and_rank_paths_match_oracles_at_the_switch():
    # lengths 94..97 straddle the switch of long_runs from extending letter by
    # letter to rank-table queries, and of max_exponent from reading
    # square_runs first to its two passes
    rng = random.Random(96)
    words = [("0110" * 30)[:n] for n in range(94, 98)] + [("0120" * 30)[:n] for n in range(94, 98)]
    for alphabet in ("01", "012", "0123456789"):
        words += ["".join(rng.choice(alphabet) for _ in range(n)) for n in range(94, 98)]
    for w in words:
        assert distinct_squares(w) == naive_distinct_squares(w)
        assert distinct_min_overlaps(w) == naive_distinct_min_overlaps(w)
        exp, wit = max_exponent(w)
        assert (exp, wit.start, wit.period) == naive_max_exponent(w)
        assert wit.length == exp * wit.period


@given(binary)
def test_cross_operation_invariants(w):
    squares = distinct_squares(w)
    overlaps = distinct_min_overlaps(w)
    assert (find_sq_t(w, 1) is None) == (not squares)
    exp, _ = max_exponent(w)
    assert (exp >= 2) == bool(squares)
    assert (exp > 2) == bool(overlaps)
    # check's budgets count the same windows as the inventories
    for k, kind, budget in (
        (len(squares), "square-count", lambda k: ConstraintSet(2, max_square_count=k)),
        (len(overlaps), "overlap-count", lambda k: ConstraintSet(2, max_overlap_count=k)),
    ):
        if k:
            assert check(w, budget(k)) is None
            assert check(w, budget(k - 1)).kind == kind


@given(binary, st.fractions(min_value=Fraction(11, 10), max_value=Fraction(4)))
def test_is_exponent_free_matches_max_exponent(w, e):
    exp, _ = max_exponent(w)
    for strict in (True, False):
        wit = is_exponent_free(w, e, strict)
        violated = exp > e if strict else exp >= e
        assert (wit is not None) == violated
        if wit is not None:
            u = wit.factor_of(w)
            assert len(u) == wit.length
            assert all(u[i] == u[i + wit.period] for i in range(len(u) - wit.period))
            assert (wit.exponent > e) if strict else (wit.exponent >= e)


# 96-700 letters reaches the vectorised path; 90-101 straddles its threshold.
long_words = st.one_of(
    st.text(alphabet="01", min_size=2, max_size=95),
    st.text(alphabet="01", min_size=96, max_size=700),
    st.text(alphabet="012", min_size=96, max_size=700),
    mutated_periodic(),
    mutated_periodic(90, 101),
)

CAPS = [Fraction(7, 4), Fraction(5, 3), Fraction(2), Fraction(5, 2), Fraction(3)]
MIN_LENS = {
    "square": lambda p: p,
    "overlap": lambda p: p + 1,
    "every-position": lambda p: 1,  # many samples per period: blocks split periods
    **{
        f"cap-{e}-{'strict' if strict else 'weak'}": (
            lambda p, e=e, strict=strict: violation_length(e, p, strict) - p
        )
        for e in CAPS
        for strict in (True, False)
    },
}


@pytest.mark.parametrize("min_len", MIN_LENS.values(), ids=MIN_LENS.keys())
@settings(max_examples=25)
@given(long_words)
def test_long_runs_match_period_scan(min_len, w):
    periods = range(1, len(w))
    assert list(long_runs(w, periods, min_len)) == scan_runs(w, periods, min_len)


THUE = fixed_point_prefix(parse_morphism("012/02/1"), 120)


def test_max_exponent_on_square_free_words_matches_oracles():
    """Square-free words take max_exponent's two passes at every length; random
    words of 10 letters or more almost always hold a square."""
    thue = fixed_point_prefix(parse_morphism("012/02/1"), 260)
    words = [thue[:n] for n in range(2, 201)]
    words += [thue[:n].translate(str.maketrans("012", "201")) for n in range(2, 201, 7)]
    words += [thue[i : i + 90] for i in range(1, 170, 13)]
    for w in words:
        assert distinct_squares(w) == set()
        exp, wit = max_exponent(w)
        assert (exp, wit.start, wit.period) == naive_max_exponent(w) == scan_max_exponent(w)


def test_max_exponent_passes(monkeypatch):
    """A short word with a square reads the runs the inventories left behind;
    a long square-free word makes the bound and threshold passes only."""
    import wordlab.repetitions as repetitions

    calls = []
    real = repetitions.long_runs

    def counted(w, periods, min_len):
        calls.append(periods)
        return real(w, periods, min_len)

    monkeypatch.setattr(repetitions, "long_runs", counted)
    w = "0120" + THUE[:60]
    distinct_squares(w)
    calls.clear()
    assert max_exponent(w)[0] == naive_max_exponent(w)[0] == 2
    assert calls == []
    long = fixed_point_prefix(parse_morphism("012/02/1"), 1000)
    exp, wit = max_exponent(long)
    assert calls == [range(1, 11), range(1, 1000)]
    assert (exp, wit.start, wit.period) == scan_max_exponent(long)


@settings(max_examples=50)
@given(long_words)
# squares of period 3 at 2 and of period 1 at 4, both of the highest exponent 2
@example(THUE[:5] + THUE[2:60] + THUE[59:])
def test_max_exponent_matches_period_scan(w):
    exp, wit = max_exponent(w)
    assert (exp, wit.start, wit.period) == scan_max_exponent(w)
    assert wit.length == exp * wit.period


@pytest.mark.parametrize("n", [65535, 70000])
def test_long_runs_on_both_rank_widths(n):
    """Ranks of a word of n letters run up to n: 16 bits hold them up to 65535."""
    rng = random.Random(n)
    u = "".join(rng.choice("01") for _ in range(n - 40))
    w = u + u[:40]  # a few long factors repeat, so a rank row is stored with ranks near n
    table = _rank_table(w)
    assert table.dtype == (np.uint16 if n <= 65535 else np.uint32)
    assert int(table.max()) > 65535 - 20
    for k, row in enumerate(table):  # one rank per distinct factor w[i : i + 2**k]
        assert np.unique(row).size == len({w[i : i + 2**k] for i in range(n + 1)})
    for periods, min_len in ((range(1, 9), lambda p: 1), (range(1, 65), lambda p: p)):
        assert list(long_runs(w, periods, min_len)) == scan_runs(w, periods, min_len)


REPETITION_CONSTRAINTS = [
    "forbid-squares-min-period 3",
    "allow-squares 00 11 0101 1010",
    "allow-overlaps 000 111 01010",
    "max-distinct-squares 6\nmax-distinct-overlaps 2",
    "allow-squares 00 11 22\nmax-distinct-squares 2\nallow-overlaps 000",
    "max-distinct-squares 3\nmax-distinct-overlaps 1",
    "forbid-squares-min-period 3\nallow-squares 00 11 0101 1010",
    "exponent-cap 7/4 strict",
    "exponent-cap 5/2 weak",
    "exponent-cap 3 strict",
]


@pytest.mark.parametrize("text", REPETITION_CONSTRAINTS)
@settings(max_examples=25)
@given(long_words)
def test_check_matches_period_scan(text, w):
    c = parse_constraints(f"alphabet 3\n{text}\n")
    assert check(w, c) == scan_check(w, c)


def _suffix_run(w, p):
    """Trailing positions i of w with w[i] == w[i-p], counted from the end."""
    r = 0
    while r < len(w) - p and w[-1 - r] == w[-1 - r - p]:
        r += 1
    return r


@given(data=st.data())
def test_suffix_runs_match_direct_counts(data):
    """After any pushes and pops the hits are the periods whose run meets each threshold.

    The word starts as a random block repeated past its length, so long
    runs of large periods occur, then random pushes (-1: pop) follow.
    """
    block = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    word = block * 4
    word = word[: len(block) + data.draw(st.integers(0, len(word) - len(block)))]
    ops = word + data.draw(st.lists(st.integers(-1, 2), max_size=40))
    thresholds = {
        "square": lambda p: p,
        "overlap": lambda p: p + 1,
        "cube": lambda p: 2 * p,
        "7/4 strict": lambda p: violation_length(Fraction(7, 4), p, True) - p,
        "never": lambda p: len(ops) + 1,
    }
    runs = SuffixRuns(3, len(ops))
    tests = {name: runs.threshold(m) for name, m in thresholds.items()}
    w = []
    for op in ops:
        if op < 0:
            if w:
                runs.pop()
                w.pop()
        else:
            runs.push(op)
            w.append(op)
        assert runs.n == len(w)
        for name, m in thresholds.items():
            expected = [p for p in range(1, len(w)) if _suffix_run(w, p) >= m(p)]
            assert list(runs.hits(tests[name])) == expected, name
            assert runs.any(tests[name]) == bool(expected)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("num", [10**18 + 1, 2 * 10**18 + 1])
def test_long_runs_thresholds_stay_exact_past_int64(num, strict):
    """Caps just above 1 and 2 with an 18-digit denominator overflow int64 in
    m(p) from p = 10 and p = 5 on; the runs are those of exact arithmetic."""
    e = Fraction(num, 10**18)
    rng = random.Random(num)
    for w in (THUE, "".join(rng.choice("01") for _ in range(300))):
        periods = range(1, len(w))
        min_len = lambda p: violation_length(e, p, strict) - p  # noqa: E731
        assert list(long_runs(w, periods, min_len)) == scan_runs(w, periods, min_len)


def test_suffix_runs_reject_thresholds_below_one():
    with pytest.raises(DomainError):
        SuffixRuns(2, 10).threshold(lambda p: p - 1)


def test_suffix_run_thresholds_stay_exact_past_int64():
    """A cap just above 1 with an 18-digit denominator overflows int64 in
    m(p) from p = 10 on; the thresholds are those of exact arithmetic."""
    e = Fraction(10**18 + 1, 10**18)
    runs = SuffixRuns(10, 40)
    t = runs.threshold(lambda p: violation_length(e, p, True) - p)
    for a in list(range(10)) + [0]:
        runs.push(a)
    assert list(runs.hits(t)) == [10]
