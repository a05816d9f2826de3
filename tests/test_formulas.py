import re

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import mutated_periodic
from oracles import naive_has_occurrence, naive_occurrences
from period_scan import scan_power_ends, scan_power_roots
from wordlab import formulas, repetitions
from wordlab.constraints import check, parse_constraints
from wordlab.errors import DomainError, ParseError, ResourceBudgetError
from wordlab.formulas import (
    Formula,
    PowerStack,
    WordPowers,
    anchored_power_exponents,
    avoids,
    find_occurrences,
    first_occurrence,
    format_assignment,
    has_occurrence,
    is_doubled,
    new_assignments,
    new_occurrence_exists,
    parse_formula,
)
from wordlab.morphisms import fixed_point_prefix, parse_morphism
from wordlab.repetitions import SuffixRuns, distinct_squares, long_runs

binary = st.text(alphabet="01", max_size=40)

# in ABAB.BCBC, ABAB.CACA and ABAB.ACCACC a root block is joined with the
# roots once the other fragment fixes its first variable (BCBC; ABAB after
# the doubled block ACCACC) or its second (CACA); the last four split runs
# with a tail for q >= 2 (ABABA) and q = 1 (ABCAB), a doubled block
# (ABAABA) and a root block with no variable fixed (the BCBC of AA.BCBC)
FORMULAS = [
    parse_formula(t)
    for t in (
        "AA", "ABA", "ABBA", "AA.BB", "ABAB", "AA.ABAB.BB", "ABAB.BCBC", "ABAB.CACA", "ABAB.ACCACC",
        "ABABA", "ABCAB", "ABAABA", "AA.BCBC",
    )
]
# every fragment a power, a doubled block (ABAABA) or an r = 0 periodic block,
# except in AA.ABA, whose ABA is seeded from its images ending at the last letter
ROOT_FORMULAS = [parse_formula(t) for t in ("AA.BB", "AAA.ABAB", "ABAABA.BB", "ABCABC.AA", "AA.ABA")]
# a root block beside a tail block (ABA, ACA, BCB): the anchored search seeds
# the first from the new roots and the second from its images ending there
MIXED_FORMULAS = [parse_formula(t) for t in ("ABCABC.ABA", "ABAB.ACA", "AA.BCB")]
# generic fragments with doubled blocks; from AAABABAA on, the search meets
# one (BA.BA, BA.BA, CA.CA, CAB.CAB, BAA.BAA) with its other variables known
DOUBLED_BLOCK_FORMULAS = [
    parse_formula(t)
    for t in (
        "AABAB", "ABCBC", "ABACABAC", "AB.BABAC",
        "AAABABAA", "AABABA", "AA.BCACA", "AB.ACABCAB", "AA.BAABAAC",
    )
]

# a free head before an adjacent run: ABBCA, ABBBA, ABAAB and ABCCBA start at
# the run (the pivot); in ABCCA and ABCBBA a variable before the run does not
# recur after it, and AB.CDDC, ABBA.CDEDC and ABBAC.CDDC have other fragments,
# so they keep every start
PIVOT_FORMULAS = [
    parse_formula(t)
    for t in ("ABBCA", "ABBBA", "ABAAB", "ABCCBA", "ABCCA", "ABCBBA")
    + ("AB.CDDC", "ABBA.CDEDC", "ABBAC.CDDC")
]
# fragments in groups that share no variable, each group joined on its own
GROUPED_FORMULAS = [parse_formula(t) for t in ("AB.CC", "AA.BCB", "ABA.CC", "AA.BB.CDC")]


def test_parse_formula():
    f = parse_formula("AA.ABAB.BB")
    assert f.fragments == ("AA", "ABAB", "BB") and f.variable_count == 2
    assert parse_formula("ABBA").fragments == ("ABBA",)
    assert parse_formula("A").variable_count == 1
    # normalization renames by first occurrence
    assert parse_formula("ZAAZ") == parse_formula("ABBA")
    assert parse_formula("CC.DD") == parse_formula("AA.BB")
    for bad in ("", "AA..BB", "aa", "A1", ".AA", "AA."):
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_variable_limit():
    wide = parse_formula("ABCDEFGABCDEFG")
    with pytest.raises(DomainError):
        avoids("0101", wide)
    with pytest.raises(DomainError):
        find_occurrences("0101", wide, 2)


def test_is_doubled():
    assert is_doubled(parse_formula("ABBA"))
    assert is_doubled(parse_formula("AA.ABA.ABBA"))
    assert not is_doubled(parse_formula("A"))
    assert not is_doubled(parse_formula("AA.B"))


def test_find_occurrences_examples():
    assert find_occurrences("001001", parse_formula("AA"), 3) == {("0",), ("001",)}
    occ = find_occurrences("0100101000", parse_formula("AA.ABAB.BB"), 2)
    assert ("0", "10") in occ
    assert find_occurrences("01", parse_formula("AA"), 1) == set()
    assert find_occurrences("010", parse_formula("A"), 1) == {("0",), ("1",)}
    with pytest.raises(DomainError):
        find_occurrences("01", parse_formula("AA"), 0)
    # the last free image of a split gets at least one letter: this word avoids
    # ABAABA, though A=01 with an empty B would spell it
    f = parse_formula("ABAABA")
    assert find_occurrences("00101010110", f, 11) == set()
    assert first_occurrence("00101010110", f) is None
    assert first_occurrence("0101101011", f) == ("1", "0")


def test_avoids_examples():
    assert avoids("010", parse_formula("AA"))
    assert not avoids("0101", parse_formula("ABAB"))
    assert avoids("", parse_formula("AA"))
    assert not avoids("00", parse_formula("AA"))


def test_format_assignment():
    assert format_assignment(("0", "10")) == "A=0, B=10"


@given(st.text(alphabet="01", max_size=10), st.integers(1, 3))
def test_occurrences_match_oracle_exhaustive_formulas(w, cap):
    for f in FORMULAS:
        got = find_occurrences(w, f, cap)
        want = naive_occurrences(w, f.fragments, f.variable_count, cap)
        assert got == want, (w, str(f), cap)


@given(
    st.one_of(st.text(alphabet="01", max_size=10), st.text(alphabet="012", max_size=8)),
    st.integers(1, 3),
)
def test_doubled_block_occurrences_match_oracle(w, cap):
    for f in DOUBLED_BLOCK_FORMULAS:
        got = find_occurrences(w, f, cap)
        assert got == naive_occurrences(w, f.fragments, f.variable_count, cap), (w, str(f), cap)
        want = naive_has_occurrence(w, f.fragments, f.variable_count)
        assert has_occurrence(w, f) == want, (w, str(f))


@given(st.text(alphabet="01", max_size=60), st.integers(1, 60))
def test_doubled_block_search_without_the_square_index(w, cap):
    """With the position index refused, the matcher's sweeps give the same answers."""
    want = [(find_occurrences(w, f, cap), has_occurrence(w, f)) for f in DOUBLED_BLOCK_FORMULAS]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formulas, "_POWER_INDEX_MAX", 0)
        got = [(find_occurrences(w, f, cap), has_occurrence(w, f)) for f in DOUBLED_BLOCK_FORMULAS]
    assert got == want


def test_doubled_block_search_is_near_linear():
    """AAABABAA on the period-doubling word: B's lengths come from the squares
    at its position (about 94 000 steps); the budget sits far below the 6.2 M
    steps of trying B at every later occurrence of A. ABCBC on the square-free
    012/02/1 word: the squares at B's position are split over B and C while
    C is still unknown (about 0.25 M steps, against 110.8 M when B and C were
    each tried at every length)."""
    w = fixed_point_prefix(parse_morphism("01/00"), 5000)
    assert not has_occurrence(w, parse_formula("AAABABAA"), step_budget=500_000)
    w = fixed_point_prefix(parse_morphism("012/02/1"), 500)
    assert not has_occurrence(w, parse_formula("ABCBC"), step_budget=1_000_000)


@pytest.mark.parametrize("f", ["AB.BABAC", "AB.ACABCAB"])
def test_a_driven_fragment_is_joined_before_a_free_one(f):
    """The doubled block of BABAC or ACABCAB is matched before AB, whose
    variables would be tried at every length: on the square-free 012/02/1
    prefix that is about 200 and 21 000 steps, against 6.1 M and 5.1 M when
    every split of AB came first."""
    w = fixed_point_prefix(parse_morphism("012/02/1"), 200)
    assert first_occurrence(w, parse_formula(f), step_budget=100_000) is None


@settings(max_examples=30)
@given(
    st.one_of(st.text(alphabet="01", max_size=10), st.text(alphabet="012", max_size=8)),
    st.integers(1, 3),
)
def test_pivot_and_grouped_occurrences_match_oracle(w, cap):
    """The pivot and the group join, and with the power index refused the
    every-start path and the group join, give the oracles' answers."""
    for f in PIVOT_FORMULAS + GROUPED_FORMULAS:
        want = naive_occurrences(w, f.fragments, f.variable_count, cap)
        has = naive_has_occurrence(w, f.fragments, f.variable_count)
        for index_max in (formulas._POWER_INDEX_MAX, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(formulas, "_POWER_INDEX_MAX", index_max)
                assert find_occurrences(w, f, cap) == want, (w, str(f), cap, index_max)
                assert has_occurrence(w, f) == has, (w, str(f), index_max)


@given(st.one_of(st.text(alphabet="01", max_size=40), st.text(alphabet="012", max_size=30)))
@example("2200221")  # ABBA.CDEDC: A=2 at its run, A=22 from every start
@example("010110110100")  # ABBAC.CDDC: A=01 at its run, A=0 from every start
def test_pivot_keeps_the_check_witness(w):
    """``check`` reports the same formula witness whether a pivot fragment
    starts at its run or, with the power index refused, at every position."""
    for f in PIVOT_FORMULAS:
        c = parse_constraints(f"alphabet 3\nforbid-formula {f}\n")
        want = check(w, c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas, "_POWER_INDEX_MAX", 0)
            assert check(w, c) == want, (w, str(f))


@pytest.mark.parametrize("n", [200, 1000])
@pytest.mark.parametrize("f", ["AA.BCB", "ABA.CC"])
def test_an_empty_group_ends_the_search(f, n):
    """The square-free 012/02/1 prefix has no root for AA or CC, so the
    search ends before the other group is tried: 0 and 3 steps, where
    joining the groups as one took 771 045 steps at 200 letters."""
    w = fixed_point_prefix(parse_morphism("012/02/1"), n)
    assert has_occurrence(w, parse_formula(f), step_budget=1_000) is False


def test_step_budget_keeps_only_whole_grouped_occurrences():
    """A budget overrun attaches only complete occurrences: none when it
    falls inside a group's join (30 steps), some of the 36 when it falls
    inside the product of the groups (70 steps), one step each."""
    w = "0100110100101100" * 3
    f = parse_formula("AA.BB")
    want = naive_occurrences(w, f.fragments, f.variable_count, 6)
    assert len(want) == 36
    for budget, some in ((30, False), (70, True)):
        with pytest.raises(ResourceBudgetError) as info:
            find_occurrences(w, f, 6, step_budget=budget)
        partial = info.value.partial
        assert partial < want and bool(partial) is some
        assert all(len(t) == 2 and all(t) for t in partial)


@given(st.text(alphabet="012", min_size=0, max_size=60))
def test_occurrences_match_oracle_random_ternary(w):
    for f in (parse_formula("AA"), parse_formula("ABBA")):
        cap = 4
        assert find_occurrences(w, f, cap) == naive_occurrences(
            w, f.fragments, f.variable_count, cap
        )


@given(binary)
def test_aa_occurrences_are_squares(w):
    occ = find_occurrences(w, parse_formula("AA"), max(1, len(w)))
    assert {a + a for (a,) in occ} == distinct_squares(w)


@given(binary, st.integers(0, 10))
def test_avoids_is_antitone_under_factors(w, i):
    f = parse_formula("ABBA")
    if avoids(w, f):
        v = w[i : i + max(0, len(w) - i - 1)]
        assert avoids(v, f)


@given(binary)
def test_incremental_assignments_match_batch(w):
    for f in FORMULAS:
        seen = set()
        for n in range(1, len(w) + 1):
            prefix = w[:n]
            new = new_assignments(prefix, f)
            seen |= new
            assert seen == find_occurrences(prefix, f, cap=n), (prefix, str(f))
            assert new_occurrence_exists(prefix, f) == bool(new)


@given(st.lists(st.integers(-1, 1), max_size=40))
def test_power_stack_matches_whole_word_powers(ops):
    """Pushes and pops leave the stack answering exactly as a whole-word scan."""
    ks = (2, 3, 4)
    runs = SuffixRuns(2, len(ops))
    stack = PowerStack(ks, runs)
    buf = bytearray(len(ops))
    for op in ops:
        if op < 0:
            if not stack.n:
                continue
            stack.pop()
            runs.pop()
        else:
            buf[stack.n] = ord("0") + op
            runs.push(op)
            stack.push(buf, stack.n + 1)
        word = WordPowers(bytes(buf[: stack.n]))
        for k in ks:
            for pos in range(stack.n + 1):
                assert list(stack.ends(k, pos)) == list(word.ends(k, pos)), (k, pos)
        if op < 0:
            continue
        before = WordPowers(bytes(buf[: stack.n - 1]))
        for k in ks:
            assert {x for kx, x in stack.added() if kx == k} == word.roots(k) - before.roots(k)
            assert set(stack.periods(k)) == word.periods(k)
            assert stack.roots(k) == word.roots(k)
            for g in range(1, stack.n // k + 1):
                assert list(stack.roots_of_period(k, g)) == list(dict.fromkeys(word.roots_of_period(k, g)))


@settings(max_examples=25)
@given(
    st.one_of(
        st.text(alphabet="01", min_size=1, max_size=400),
        st.text(alphabet="012", min_size=1, max_size=400),
        mutated_periodic(1, 400),
    )
)
def test_word_powers_match_period_scan(w):
    word = WordPowers(w.encode())
    for k in (2, 3, 4):
        by_period = {g: scan_power_roots(w, k, g) for g in range(1, len(w) // k + 1)}
        assert set(word.periods(k)) == {g for g, roots in by_period.items() if roots}
        assert word.roots(k) == {x.encode() for roots in by_period.values() for x in roots}
        for g, roots in by_period.items():
            assert [x.decode() for x in word.roots_of_period(k, g)] == roots
        for pos in range(len(w) + 1):
            assert list(word.ends(k, pos)) == scan_power_ends(w, k, pos), (k, pos)
    # the a = 1 indexes are read off square_runs, the others from their own pass
    for a in range(4):
        for b in range(3) if a else (1, 2):
            want = {}
            for p, s, run in long_runs(w, range(1, len(w)), lambda p: a * p + b):
                want.setdefault(p, []).append((s, run))
            assert word.runs(a, b) == want, (a, b)


@pytest.mark.parametrize("n", [60, 300])
def test_one_square_pass_per_word(monkeypatch, n):
    """After ``distinct_squares(w)`` every search reading square runs, with or
    without a tail, finds them in the memo of ``square_runs``; the cube and
    q = 1 tail indexes make one pass of their own per search."""
    calls = []
    real = repetitions.long_runs

    def counted(w, periods, min_len):
        calls.append(periods)
        return real(w, periods, min_len)

    monkeypatch.setattr(repetitions, "long_runs", counted)
    monkeypatch.setattr(formulas, "long_runs", counted)
    w = fixed_point_prefix(parse_morphism("01/00"), n)
    distinct_squares(w)
    for text in ("AA", "ABBA", "AA.BB", "ABAB", "ABABA", "AAA", "ABA"):
        f = parse_formula(text)
        passes = 1 if text in ("AAA", "ABA") else 0
        for search in (lambda: find_occurrences(w, f, 6), lambda: has_occurrence(w, f)):
            calls.clear()
            assert search()
            assert len(calls) == passes, (text, calls)


def _stacked_prefixes(w, f):
    """(prefix, PowerStack over it) for every non-empty prefix of w."""
    runs = SuffixRuns(3, len(w))
    stack = PowerStack(anchored_power_exponents(f), runs)
    buf = bytearray(w.encode())
    for n in range(1, len(w) + 1):
        runs.push(buf[n - 1] - ord("0"))
        stack.push(buf, n)
        yield w[:n], stack


@settings(max_examples=60)
@given(st.one_of(st.text(alphabet="01", max_size=24), st.text(alphabet="012", max_size=18)))
def test_anchored_search_with_and_without_a_power_stack(w):
    """On every prefix both searches give the same answers: every occurrence
    the prefix one letter shorter lacks is reported, and only occurrences.
    The doubled-block and pivot formulas take lengths from ``ends``."""
    for f in FORMULAS + ROOT_FORMULAS + MIXED_FORMULAS + DOUBLED_BLOCK_FORMULAS + PIVOT_FORMULAS:
        before = set()
        for prefix, stack in _stacked_prefixes(w, f):
            new = new_assignments(prefix, f)
            assert new_assignments(prefix, f, powers=stack) == new, (prefix, str(f))
            now = find_occurrences(prefix, f, cap=len(prefix))
            assert now - before <= new <= now, (prefix, str(f))
            exists = new_occurrence_exists(prefix, f)
            assert new_occurrence_exists(prefix, f, powers=stack) == exists, (prefix, str(f))
            assert bool(now - before) <= exists <= bool(now), (prefix, str(f))
            before = now


@settings(max_examples=30)
@given(st.one_of(st.text(alphabet="01", max_size=24), st.text(alphabet="012", max_size=18)))
def test_anchored_search_on_a_power_stack_makes_no_whole_word_pass(w):
    """With a ``PowerStack``, the root-block formulas read every power from it,
    a disjoint root block such as the BCBC of AA.BCBC included."""

    def whole_word_pass(*args):
        raise AssertionError("whole-word runs pass")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WordPowers, "runs", whole_word_pass)
        for f in ROOT_FORMULAS + [parse_formula("AA.BCBC")]:
            for prefix, stack in _stacked_prefixes(w, f):
                new_assignments(prefix, f, powers=stack)
                new_occurrence_exists(prefix, f, powers=stack)


def test_root_block_anchor_is_bounded_by_the_new_roots():
    """ABCABC at the end of the 400-letter prefix of the square-free 012/02/1
    word: no square root is new, so the search stops before guessing any
    image length (at the last letter the generic anchored search took 2.35 M
    steps). With a 100-letter square xx appended, x is the one new root, and
    its first split is an occurrence."""
    w = fixed_point_prefix(parse_morphism("012/02/1"), 400)
    f = parse_formula("ABCABC")
    for v, want in ((w, False), (w + w[-100:], True)):
        assert new_occurrence_exists(v, f, step_budget=10_000) is want
        *_, (_, stack) = _stacked_prefixes(v, f)
        assert new_occurrence_exists(v, f, step_budget=10_000, powers=stack) is want


def test_mixed_formula_anchor_is_bounded_by_the_new_roots():
    """ABCABC.ABA at the end of the 200-letter prefix of the square-free
    012/02/1 word: ABCABC is seeded from the new square roots, of which there
    are none, and only ABA from the images ending at the last letter. Seeding
    ABCABC from its suffixes too took 302 852 steps."""
    w = fixed_point_prefix(parse_morphism("012/02/1"), 200)
    f = parse_formula("ABCABC.ABA")
    assert new_occurrence_exists(w, f, step_budget=20_000) is False
    *_, (_, stack) = _stacked_prefixes(w, f)
    assert new_occurrence_exists(w, f, step_budget=20_000, powers=stack) is False


def test_anchored_search_rejects_a_power_stack_of_another_length():
    f = parse_formula("AA.ABAB.BB")
    with pytest.raises(DomainError):
        new_occurrence_exists("0101", f, powers=PowerStack((2,), SuffixRuns(2, 4)))


@pytest.mark.parametrize("text, exponents, missing", [("AAA.BB", (2,), "[3]"), ("ABCBC", (3,), "[2]")])
def test_anchored_search_rejects_a_power_stack_missing_an_exponent(text, exponents, missing):
    """AAA reads cubes; the doubled block BCBC reads the squares ending at the end."""
    f = parse_formula(text)
    runs = SuffixRuns(2, 4)
    stack = PowerStack(exponents, runs)
    buf = bytearray(b"0000")
    for n in range(1, 5):
        runs.push(0)
        stack.push(buf, n)
    with pytest.raises(DomainError, match=re.escape(missing)):
        new_occurrence_exists("0000", f, powers=stack)


@pytest.mark.parametrize("morphism, text, most", [("01/00", "AAABABAA", 5_000), ("01/10", "ABBA", 60_000)])
def test_anchored_lengths_come_from_the_powers_ending_there(morphism, text, most):
    """Summed over every prefix of 300 letters, the anchored search with a
    stack takes its run and doubled-block lengths from the powers ending at
    each position: 2 459 steps for AAABABAA on the period-doubling word
    (47 980 trying every length) and 40 477 for ABBA on Thue-Morse (256 760)."""
    w = fixed_point_prefix(parse_morphism(morphism), 300)
    f = parse_formula(text)
    steps = 0
    for prefix, stack in _stacked_prefixes(w, f):
        eng = formulas._anchored_engine(prefix, f, None, stack, first_only=False)
        steps += 0 if eng is None else eng.steps
    assert steps <= most


def test_step_budget_carries_partial_results():
    import pytest as _pytest

    from wordlab.errors import ResourceBudgetError

    w = "01001010010010100101" * 4
    with _pytest.raises(ResourceBudgetError) as info:
        find_occurrences(w, parse_formula("ABBA"), cap=20, step_budget=50)
    assert isinstance(info.value.partial, set)


@pytest.mark.parametrize("f, budget", [("AA", 50), ("ABBA", 1_000)])
def test_a_lone_group_overrun_keeps_what_it_found(f, budget):
    """A formula of one group adds each occurrence as it is found, so an
    overrun attaches those found so far (6 and 11 here), each a real one."""
    w = "01001010010010100101" * 4
    f = parse_formula(f)
    with pytest.raises(ResourceBudgetError) as info:
        find_occurrences(w, f, cap=20, step_budget=budget)
    partial = info.value.partial
    assert partial and partial <= naive_occurrences(w, f.fragments, f.variable_count, 20)


def test_localizer_patterns_run_at_scale():
    # doubled-block fragments route through the square scan
    from wordlab.morphisms import morphic_prefix, parse_morphism

    b3 = parse_morphism("012/02/1")
    g5 = parse_morphism("0000100000111000011000111/000010000011000111/0000011")
    w = morphic_prefix(g5, b3, 3000)
    assert avoids(w, parse_formula("ABBBBBCABBBBBC"))
    assert not avoids(w + "0" * 40 + "1" + "0" * 40 + "1", parse_formula("ABBBBBCABBBBBC"))
