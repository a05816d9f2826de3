import functools
import glob
import os
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MANIFEST_DIR
from oracles import (
    all_words,
    naive_distinct_squares,
    naive_has_occurrence,
    naive_occurrences,
    permutation_group,
)
from period_scan import PeriodScanChecker
from wordlab import search
from wordlab.constraints import (
    ConstraintSet,
    check,
    letter_symmetries,
    load_constraints,
    parse_constraints,
    relabel,
)
from wordlab.errors import DomainError, ResourceBudgetError
from wordlab.formulas import parse_formula
from wordlab.graphs import builtin_graph, graph_from_edges
from wordlab.repetitions import is_exponent_free
from wordlab.search import BranchChecker, count_by_length, extendable_set, longest_word_search

AA = parse_formula("AA")
SQUARE_FREE_2 = ConstraintSet(2, forbidden_formulas=(AA,))
SQUARE_FREE_3 = ConstraintSet(3, forbidden_formulas=(AA,))


def test_longest_word_search_examples():
    out = longest_word_search(SQUARE_FREE_2, 100, 10**6)
    assert out.kind == "exhausted" and out.max_length == 3 and out.witness == "010"

    out = longest_word_search(SQUARE_FREE_3, 50, 10**6)
    assert out.kind == "reached_budget" and out.max_length == 50 and len(out.witness) == 50
    assert check(out.witness, SQUARE_FREE_3) is None

    with pytest.raises(DomainError):
        longest_word_search(SQUARE_FREE_2, 0, 100)


def test_longest_word_search_node_budget():
    with pytest.raises(ResourceBudgetError) as info:
        longest_word_search(SQUARE_FREE_3, 50, 10)
    assert info.value.partial is not None
    assert info.value.partial.max_length <= 10


def test_exhaustion_is_letter_order_independent():
    pd_new = parse_constraints("alphabet 2\nforbid-formula AA.ABAB.BB\nforbid-factor 11 1010\n")
    fwd = longest_word_search(pd_new, 1000, 10**6)
    rev = longest_word_search(pd_new, 1000, 10**6, letter_order=[1, 0])
    assert fwd.kind == rev.kind == "exhausted"
    assert fwd.max_length == rev.max_length == 16


def test_extendable_set_examples():
    c = ConstraintSet(2, forbidden_factors=frozenset({"11"}))
    assert extendable_set(c, 2, 2) == {"00", "01", "10"}

    empty = ConstraintSet(2, forbidden_factors=frozenset({"0", "1"}))
    assert extendable_set(empty, 1, 1) == set()

    with pytest.raises(DomainError):
        extendable_set(c, 0)


def test_extendable_set_members_are_middles_of_good_words():
    c = parse_constraints("alphabet 2\nforbid-factor 11\nforbid-formula AAA\n")
    length, horizon = 3, 2
    out = extendable_set(c, length, horizon)
    # brute force: middles of all good words of length L+2h
    brute = set()
    for w in all_words(2, length + 2 * horizon):
        if check(w, c) is None:
            brute.add(w[horizon : horizon + length])
    assert out == brute


def test_extendable_set_skips_subtrees_of_known_middles():
    """Below a recorded middle nothing is searched.

    With no constraints, length 3 and horizon 6, a full enumeration of the
    15-letter words takes 65 534 nodes. Skipping every subtree whose middle
    is known, and every word that starts with 1 (swapping the letters is a
    symmetry), takes 559 nodes. A budget that runs out leaves a subset: 200
    of the 624 nodes of ternary square-free words avoiding 010, whose only
    symmetry is the identity, find 8 of the 16 middles at length 4 and
    horizon 4. On ternary square-free words every permutation of the
    letters is a symmetry, the 18 middles make 3 orbits of 6, and 50 of the
    208 nodes find 2 orbits.
    """
    assert extendable_set(ConstraintSet(2), 3, 6, budget_nodes=2000) == set(all_words(2, 3))

    for c, budget, found in (
        (parse_constraints("alphabet 3\nforbid-formula AA\nforbid-factor 010\n"), 200, 8),
        (SQUARE_FREE_3, 50, 12),
    ):
        full = extendable_set(c, 4, 4)
        with pytest.raises(ResourceBudgetError) as info:
            extendable_set(c, 4, 4, budget_nodes=budget)
        assert info.value.partial < full
        assert len(info.value.partial) == found


def test_count_by_length_examples():
    assert count_by_length(SQUARE_FREE_2, 4) == [2, 2, 2, 0]
    assert count_by_length(ConstraintSet(2), 3) == [2, 4, 8]


@given(
    st.sampled_from(
        [
            ConstraintSet(2, forbidden_factors=frozenset({"010"})),
            ConstraintSet(2, forbidden_formulas=(AA,)),
            ConstraintSet(2, allowed_squares=frozenset({"00"})),
            ConstraintSet(2, exponent_cap=(Fraction(2), False)),
            ConstraintSet(2, occurrence_budget=(parse_formula("ABBA"), 1)),
            ConstraintSet(3, forbidden_formulas=(AA,), forbidden_factors=frozenset({"010", "212"})),
        ]
    ),
    st.integers(1, 7),
)
@settings(max_examples=25)
def test_count_by_length_matches_brute_force(c, n_max):
    counts = count_by_length(c, n_max)
    brute = [
        sum(1 for w in all_words(c.alphabet_size, n) if check(w, c) is None)
        for n in range(1, n_max + 1)
    ]
    assert counts == brute


def test_walk_constrained_search_emits_walks():
    c = parse_constraints("alphabet 5\ngraph P5\nforbid-squares-min-period 1\n")
    out = extendable_set(c, 4, 2)
    g = builtin_graph("P5")
    from wordlab.graphs import is_walk

    assert out and all(is_walk(w, g) for w in out)


def test_repetition_threshold_walk_searches():
    c4 = parse_constraints("alphabet 4\ngraph C4\nexponent-cap 5/3 strict\n")
    out = longest_word_search(c4, 1000, 10**7)
    assert out.kind == "reached_budget"
    assert is_exponent_free(out.witness, Fraction(5, 3), strict=True) is None

    k13 = parse_constraints("alphabet 4\ngraph K13\nexponent-cap 15/7 strict\n")
    out = longest_word_search(k13, 500, 10**7)
    assert out.kind == "reached_budget"
    assert is_exponent_free(out.witness, Fraction(15, 7), strict=True) is None

    ternary_74 = parse_constraints("alphabet 3\nexponent-cap 7/4 strict\n")
    out = longest_word_search(ternary_74, 400, 10**7)
    assert out.kind == "reached_budget"
    assert is_exponent_free(out.witness, Fraction(7, 4), strict=True) is None


def test_occurrence_budget_search_is_exact():
    # avoiding ABBA entirely over the binary alphabet is a finite language
    c = parse_constraints("alphabet 2\nmax-occurrences ABBA 0\n")
    out = longest_word_search(c, 100, 10**6)
    assert out.kind == "exhausted" and out.max_length == 10
    # brute-force confirmation at the boundary
    from wordlab.formulas import find_occurrences

    assert any(
        not find_occurrences(w, parse_formula("ABBA"), cap=10) for w in all_words(2, 10)
    )
    assert all(find_occurrences(w, parse_formula("ABBA"), cap=11) for w in all_words(2, 11))

    out = longest_word_search(parse_constraints("alphabet 2\nmax-occurrences ABBA 1\n"), 100, 10**6)
    assert out.kind == "exhausted" and out.max_length == 14


# repetition shapes (x_1...x_d)^q x_1...x_r besides the powers and ABAB: q = 1
# (ABA), odd and even lengths, d = 3, and two shapes merged into one threshold
SHAPE_LINES = ("ABA", "ABABA", "ABABAB", "ABCABC", "ABCAB", "AA ABABA")
# formulas whose every fragment is a power, a doubled block (ABAABA) or an
# r = 0 periodic block (ABCABC), searched from the roots a push adds; only the
# ABA of AA.ABA and the ACA of ABAB.ACA are seeded from images ending there
ROOT_LINES = (
    "forbid-formula AA.BB",
    "forbid-formula AAA.ABAB",
    "forbid-formula ABAABA.BB",
    "forbid-formula ABCABC.AA",
    "forbid-formula AA.ABA",
    "forbid-formula ABAB.ACA",
    "forbid-formula ABAABA",
    "forbid-formula AA.BCBC",
    "max-occurrences AA.BB 3",
)

DIFFERENTIAL_SETS = [
    pytest.param(ConstraintSet(k, forbidden_formulas=(parse_formula(f),)), id=f"{f}-{k}")
    for k in (2, 3)
    for f in ("AA", "AAA", "AAAA", "ABAB", "AAABABAA", "AA.ABAB.BB")
] + [
    pytest.param(parse_constraints(f"alphabet {k}\nforbid-formula {line}\n"), id=f"{line}-{k}")
    for k in (2, 3)
    for line in SHAPE_LINES
] + [
    pytest.param(ConstraintSet(k, occurrence_budget=(parse_formula("ABBA"), 2)), id=f"ABBA<=2-{k}")
    for k in (2, 3)
] + [
    pytest.param(parse_constraints(f"alphabet {k}\n{line}\n"), id=f"{line}-{k}")
    for k in (2, 3)
    for line in (
        "forbid-squares-min-period 2",
        "forbid-squares-min-period 3",
        "allow-squares 00 11 0101 1010 010010",
        "allow-overlaps 000 111 01010",
        "max-distinct-squares 5",
        "max-distinct-overlaps 2",
    )
    + ROOT_LINES
] + [
    pytest.param(
        ConstraintSet(2 if e >= 2 else 3, exponent_cap=(e, strict)),
        id=f"exponent-cap-{e}-{'strict' if strict else 'weak'}",
    )
    for e in (Fraction(5, 3), Fraction(7, 4), Fraction(2), Fraction(5, 2), Fraction(3))
    for strict in (True, False)
] + [
    # two budgets, a period bound with an allow-list, and budgets on both sides of the
    # repetition loop: where the square and overlap families and their undo meet
    pytest.param(
        parse_constraints("\n".join((f"alphabet {k}",) + lines) + "\n"), id=f"{' + '.join(lines)}-{k}"
    )
    for k in (2, 3)
    for lines in (
        ("max-distinct-squares 3", "max-distinct-overlaps 1"),
        ("forbid-squares-min-period 3", "allow-squares 00 11 0101 1010"),
        ("allow-overlaps 000 111", "max-distinct-squares 4", "max-occurrences ABBA 2"),
    )
] + [
    # a non-edge that is also a forbidden factor: the factor wins, as in check
    pytest.param(parse_constraints("alphabet 3\ngraph K3\nforbid-factor 00\n"), id="K3-factor-00"),
    # 1021 starts inside a partial match of 0102 and 0010: the automaton's failure links
    pytest.param(
        parse_constraints("alphabet 3\nforbid-factor 0102 1021 0010\n"), id="factors-0102-1021-0010"
    ),
    # P3STAR's non-edges are 00, 02, 11 and 20; 0120 ends with one
    pytest.param(
        parse_constraints("alphabet 3\ngraph P3STAR\nforbid-factor 0120 1212 2221\n"),
        id="P3STAR-factors-0120-1212-2221",
    ),
] + [
    pytest.param(load_constraints(path), id=os.path.basename(path))
    for path in sorted(glob.glob(os.path.join(MANIFEST_DIR, "*.cons")))
]


@pytest.mark.parametrize("c", DIFFERENTIAL_SETS)
@given(data=st.data())
@settings(max_examples=25)
def test_check_is_equivariant_under_relabelling(c, data):
    """For a permutation s of the letters, check(s(w), relabel(c, s)) has check(w, c)'s kind and end."""
    k = c.alphabet_size
    s = data.draw(st.permutations(range(k)))
    w = data.draw(st.text(alphabet="0123456789"[:k], min_size=1, max_size=30))
    v = check(w, c)
    u = check(w.translate({48 + a: 48 + b for a, b in enumerate(s)}), relabel(c, s))
    assert (u and (u.kind, u.end)) == (v and (v.kind, v.end))


def _push_all(checker, w):
    """Push w letter by letter; (length, kind) at the first rejection, else None."""
    for i, ch in enumerate(w):
        kind = checker.push(int(ch))
        if kind is not None:
            return i + 1, kind
    return None


@pytest.mark.parametrize("c", DIFFERENTIAL_SETS)
@given(data=st.data())
@settings(max_examples=25)
def test_branch_checker_replay_matches_check(c, data):
    """The first rejected push of a replay is where check's earliest violation ends."""
    w = data.draw(st.text(alphabet="0123456789"[: c.alphabet_size], min_size=1, max_size=30))
    rejected = _push_all(BranchChecker(c, len(w)), w)
    v = check(w, c)
    assert rejected == (None if v is None else (v.end, v.kind))


@pytest.mark.parametrize("c", DIFFERENTIAL_SETS)
@given(data=st.data())
@settings(max_examples=25)
def test_branch_checker_pop_undoes_push(c, data):
    """After any push/pop sequence the checker answers like a fresh replay of its word."""
    ops = data.draw(st.lists(st.integers(-1, c.alphabet_size - 1), max_size=30))
    checker = BranchChecker(c, len(ops) + 1)
    for op in ops:
        if op < 0:
            if checker.n:
                checker.pop()
        else:
            checker.push(op)
        fresh = BranchChecker(c, checker.n + 1)
        assert _push_all(fresh, checker.word()) is None
        assert check(checker.word(), c) is None
        for a in range(c.alphabet_size):
            kind = checker.push(a)
            assert kind == fresh.push(a), (checker.word(), a)
            if kind is None:
                checker.pop()
                fresh.pop()


@given(data=st.data())
@settings(max_examples=200)
def test_factor_automaton_replay_matches_check(data):
    """1-6 random forbidden factors of 1-6 letters over 2-3 letters, with or
    without a random graph: pushed letter by letter, a random word and every
    word of 5 letters are rejected where, and as, check's earliest violation ends."""
    k = data.draw(st.integers(2, 3))
    letters = "012"[:k]
    factors = data.draw(
        st.frozensets(st.text(alphabet=letters, min_size=1, max_size=6), min_size=1, max_size=6)
    )
    graph = None
    if data.draw(st.booleans()):
        pairs = data.draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
        graph = graph_from_edges(k, pairs)
    c = ConstraintSet(k, forbidden_factors=factors, graph=graph)
    words = [data.draw(st.text(alphabet=letters, min_size=1, max_size=30))]
    for w in words + list(all_words(k, 5)):
        v = check(w, c)
        assert _push_all(BranchChecker(c, len(w)), w) == (None if v is None else (v.end, v.kind)), w


def test_push_reports_not_allowed_before_count_as_check_does():
    """A letter completing an allowed fresh square over the budget and a square
    off the allow-list is rejected with check's kind, square-not-allowed.

    For each binary word of at most 12 letters whose last letter completes two
    new squares, the set allows the squares of w[:-1] and the shorter new one
    and budgets the count of the squares of w[:-1].
    """
    words = 0
    for n in range(2, 13):
        for w in all_words(2, n):
            old = naive_distinct_squares(w[:-1])
            new = naive_distinct_squares(w) - old
            if len(new) != 2:
                continue
            words += 1
            allowed = frozenset(old | {min(new, key=len)})
            c = ConstraintSet(2, allowed_squares=allowed, max_square_count=len(old))
            assert _push_all(BranchChecker(c, n), w) == (n, check(w, c).kind), w
    assert words == 8


def test_non_positive_node_budget_is_a_domain_error_for_every_search():
    for budget in (0, -4):
        for run in (
            lambda: longest_word_search(SQUARE_FREE_2, 5, budget),
            lambda: extendable_set(SQUARE_FREE_2, 2, budget_nodes=budget),
            lambda: count_by_length(SQUARE_FREE_2, 3, budget_nodes=budget),
        ):
            with pytest.raises(DomainError, match="node budget"):
                run()


def test_pop_on_empty_checker_is_a_domain_error():
    with pytest.raises(DomainError):
        BranchChecker(SQUARE_FREE_2, 3).pop()


@functools.cache
def _good_words(c, n):
    """Good words of length n in letter order, by check on each one-letter extension.

    A word with a bad prefix is bad, so only good words are extended.
    """
    if n == 0:
        return ("",)
    letters = "0123456789"[: c.alphabet_size]
    return tuple(w + a for w in _good_words(c, n - 1) for a in letters if check(w + a, c) is None)


def _draw_sizes(data, c):
    """Length 1-4 and horizon 0-3, the total kept to 10 letters on two letters and 7 on more."""
    most = 10 if c.alphabet_size == 2 else 7
    length = data.draw(st.integers(1, 4))
    return length, data.draw(st.integers(0, min(3, (most - length) // 2)))


@pytest.mark.parametrize("c", DIFFERENTIAL_SETS)
@given(data=st.data())
@settings(max_examples=10)
def test_extendable_set_matches_brute_force(c, data):
    length, horizon = _draw_sizes(data, c)
    brute = {w[horizon : horizon + length] for w in _good_words(c, length + 2 * horizon)}
    assert extendable_set(c, length, horizon) == brute


def _orbit_rule_witnesses(c, length, horizon):
    """Each middle's witness under the orbit rule, by brute force.

    The good words whose first letter is the least of its orbit are read
    in letter order. On each new middle, it and each of its images under the
    symmetries, breadth first over the generators, are recorded with the
    image of the word under the same permutation.
    """
    k = c.alphabet_size
    gens = letter_symmetries(c)
    for s in gens:
        assert relabel(c, s) == c
    tables = [str.maketrans("0123456789"[:k], "".join(map(str, s))) for s in gens]
    least = {str(a): min(s[a] for s in permutation_group(k, gens)) for a in range(k)}
    first: dict[str, str] = {}
    for w in _good_words(c, length + 2 * horizon):
        mid = w[horizon : horizon + length]
        if least[w[0]] != int(w[0]) or mid in first:
            continue
        first[mid] = w
        queue = [mid]
        for m in queue:
            for t in tables:
                if m.translate(t) not in first:
                    first[m.translate(t)] = first[m].translate(t)
                    queue.append(m.translate(t))
    return first


@pytest.mark.parametrize("c", DIFFERENTIAL_SETS)
@given(data=st.data())
@settings(max_examples=5)
def test_extendable_set_witnesses_come_first_in_letter_order(c, data):
    """The words re-checked are, per middle, the witnesses of the orbit rule."""
    length, horizon = _draw_sizes(data, c)
    first = _orbit_rule_witnesses(c, length, horizon)
    rechecked = []

    def recording(w, cs):
        rechecked.append(w)
        return check(w, cs)

    with mock.patch.object(search, "full_check", recording):
        extendable_set(c, length, horizon)
    assert len(rechecked) == len(first)
    assert all(first[w[horizon : horizon + length]] == w for w in rechecked)


class _Lockstep:
    """A checker and the period-scan reference, pushed and popped together."""

    def __init__(self, c, max_length):
        self.c = c
        self.checker = BranchChecker(c, max_length)
        self.ref = PeriodScanChecker(c, max_length)

    def push(self, a):
        kind = self.checker.push(a)
        assert kind == self.ref.push(a), (self.checker.word(), a)
        return kind

    def pop(self):
        self.checker.pop()
        self.ref.pop()

    def probe(self):
        """Push every letter and undo the accepted ones."""
        for a in range(self.c.alphabet_size):
            if self.push(a) is None:
                self.pop()


def _descend(both, tried, depth):
    """Depth-first search from the current word until it has ``depth`` letters.

    tried[d] is the next letter to try at depth d, as in ``_run_dfs``.
    """
    while both.checker.n < depth:
        d = both.checker.n
        if len(tried) == d:
            tried.append(0)
        if tried[d] == both.c.alphabet_size:
            tried.pop()
            both.pop()
            continue
        tried[d] += 1
        both.push(tried[d] - 1)


DEEP_SETS = [
    pytest.param("alphabet 4\ngraph C4\nexponent-cap 5/3 strict\n", id="C4-5/3+"),
    pytest.param("alphabet 3\nexponent-cap 7/4 strict\n", id="ternary-7/4+"),
    pytest.param("alphabet 3\nforbid-formula AA\n", id="ternary-square-free"),
]


@pytest.mark.parametrize("text", DEEP_SETS)
def test_deep_undo_matches_period_scan(text):
    """Pops far below the counters' snapshot window leave every push exact.

    A search goes deeper than three windows of 256 levels; then, several
    times, it pops down to some level, probes every letter and goes back
    down. Every push is compared with the reference. The levels include the
    first one below the window and the last one of a 256-level block, where
    the pop rebuilds the counters by replaying pushes.
    """
    c = parse_constraints(text)
    depth = 3 * 256 + 40
    both, tried = _Lockstep(c, depth), []
    rng = random.Random(text)
    _descend(both, tried, depth)
    for level in [depth - 256, 511, 255] + [rng.randrange(depth) for _ in range(3)]:
        while both.checker.n > level:
            both.pop()
        del tried[level + 1 :]
        both.probe()
        _descend(both, tried, depth)
    assert both.checker.n == depth and check(both.checker.word(), c) is None


def test_allow_list_before_budget_matches_period_scan():
    """The last letter of 0110101101 completes 101101, allowed but fresh over
    the budget, and 0110101101, not allowed: both checkers and check report
    square-not-allowed. Every letter is probed on the way."""
    c = parse_constraints("alphabet 2\nallow-squares 11 1010 0101 101101\nmax-distinct-squares 3\n")
    w = "0110101101"
    both = _Lockstep(c, len(w))
    for a in w[:-1]:
        both.probe()
        assert both.push(int(a)) is None
    assert both.push(int(w[-1])) == check(w, c).kind == "square-not-allowed"


@pytest.mark.parametrize("max_length, bits", [(32_767, 16), (32_768, 32)])
def test_counters_on_both_field_widths(max_length, bits):
    """Either side of the switch to 32-bit counters the checker agrees with the reference."""
    c = parse_constraints(
        "alphabet 3\nforbid-squares-min-period 3\nmax-distinct-overlaps 4\n"
        "exponent-cap 3 weak\nforbid-formula AAAA ABAB\n"
    )
    both = _Lockstep(c, max_length)
    assert both.checker.runs._bits == bits
    rng = random.Random(max_length)
    for _ in range(300):
        if both.checker.n and rng.random() < 0.3:
            both.pop()
        else:
            both.push(rng.randrange(3))
        both.probe()


@pytest.mark.parametrize("line", ("ABAB",) + SHAPE_LINES)
def test_repetition_shape_counts_match_oracle(line):
    """Counts of binary words to 10 letters and ternary ones to 7, by brute force.

    The oracle tries every assignment of factors to the variables. An
    occurrence in a prefix is one in the word, so every avoiding word is an
    avoiding word one letter shorter plus a letter.
    """
    fs = [parse_formula(t) for t in line.split()]
    for k, n_max in ((2, 10), (3, 7)):
        good, brute = [""], []
        for _ in range(n_max):
            good = [
                w + a
                for w in good
                for a in "012"[:k]
                if not any(naive_has_occurrence(w + a, f.fragments, f.variable_count) for f in fs)
            ]
            brute.append(len(good))
        assert count_by_length(ConstraintSet(k, forbidden_formulas=tuple(fs)), n_max) == brute


@pytest.mark.parametrize("line", ROOT_LINES)
def test_root_decidable_counts_match_oracle(line):
    """Counts of binary words to 10 letters and ternary ones to 7, by brute force,
    grown as in ``test_repetition_shape_counts_match_oracle``."""
    c = parse_constraints(f"alphabet 2\n{line}\n")
    if c.occurrence_budget is not None:
        f, budget = c.occurrence_budget
        bad = lambda w: len(naive_occurrences(w, f.fragments, f.variable_count, len(w))) > budget
    else:
        (f,) = c.forbidden_formulas
        bad = lambda w: naive_has_occurrence(w, f.fragments, f.variable_count)
    for k, n_max in ((2, 10), (3, 7)):
        good, brute = [""], []
        for _ in range(n_max):
            good = [w + a for w in good for a in "012"[:k] if not bad(w + a)]
            brute.append(len(good))
        assert count_by_length(replace(c, alphabet_size=k), n_max) == brute


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("line", ("ABAB",) + SHAPE_LINES)
def test_repetition_shapes_match_period_scan(line, k):
    """Random pushes, pops and probes agree with the reference, which decides
    these formulas by the engine's anchored search instead of the counters."""
    c = parse_constraints(f"alphabet {k}\nforbid-formula {line}\n")
    max_length = 40
    both = _Lockstep(c, max_length)
    rng = random.Random(f"{line}-{k}")
    for _ in range(300):
        n = both.checker.n
        if n == max_length - 1 or (n and rng.random() < 0.3):
            both.pop()
        else:
            both.push(rng.randrange(k))
        both.probe()


def test_checker_set_up_is_linear_in_max_length():
    """A million-letter checker is built and used at once; a bad letter order fails first."""
    c4 = parse_constraints("alphabet 4\ngraph C4\nexponent-cap 5/3 strict\n")
    checker = BranchChecker(c4, 10**6)
    for a in (0, 1, 2, 1):
        assert checker.push(a) is None
    assert checker.push(2) == "exponent"
    checker.pop()
    assert checker.word() == "012"
    del checker
    with pytest.raises(DomainError):
        longest_word_search(c4, 10**6, 1000, letter_order=[0, 0, 1, 2])


@pytest.mark.extended
def test_repetition_threshold_c4_at_full_scale():
    c4 = parse_constraints("alphabet 4\ngraph C4\nexponent-cap 5/3 strict\n")
    out = longest_word_search(c4, 10_000, 10**8)
    assert out.kind == "reached_budget"
    assert is_exponent_free(out.witness, Fraction(5, 3), strict=True) is None
