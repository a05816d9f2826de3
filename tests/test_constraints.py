import glob
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import MANIFEST_DIR
from oracles import naive_has_occurrence, naive_occurrences, permutation_group
from wordlab.constraints import (
    ConstraintSet,
    check,
    letter_symmetries,
    load_constraints,
    parse_constraints,
    relabel,
)
from wordlab.errors import AlphabetError, DomainError, ParseError
from wordlab.formulas import parse_formula
from wordlab.graphs import builtin_graph
from wordlab.morphisms import fixed_point_prefix, parse_morphism
from wordlab.search import BranchChecker

FOUR_SQUARES = parse_constraints(
    """alphabet 2
forbid-squares-min-period 4
forbid-factor 0000 1111 0101 1010 10010 01101
"""
)


def test_parse_constraints_full_vocabulary():
    c = parse_constraints(
        """# comment
alphabet 2
forbid-factor 010
forbid-formula AA.ABAB.BB
forbid-squares-min-period 4
allow-squares 00 11
allow-overlaps 01010
max-distinct-squares 11
max-distinct-overlaps 2
max-occurrences ABBA 8
exponent-cap 5/3 strict
graph-edges 0-1 1-1
"""
    )
    assert c.alphabet_size == 2
    assert c.forbidden_factors == frozenset({"010"})
    assert c.forbidden_formulas == (parse_formula("AA.ABAB.BB"),)
    assert c.sq_min_period == 4
    assert c.allowed_squares == frozenset({"00", "11"})
    assert c.allowed_overlaps == frozenset({"01010"})
    assert c.max_square_count == 11 and c.max_overlap_count == 2
    assert c.occurrence_budget == (parse_formula("ABBA"), 8)
    assert c.exponent_cap == (Fraction(5, 3), True)
    assert c.graph.has_edge(1, 1)


def test_parse_constraints_errors():
    # unknown directives: tests/test_directives.py
    with pytest.raises(ParseError):
        parse_constraints("forbid-factor 00\n")  # missing alphabet
    with pytest.raises(ParseError):
        parse_constraints("alphabet 2\nallow-squares 010\n")  # not a square
    with pytest.raises(ParseError):
        parse_constraints("alphabet 2\nallow-overlaps 0101\n")  # not a minimal overlap
    with pytest.raises(AlphabetError):
        parse_constraints("alphabet 2\nforbid-factor 02\n")
    # a graph vertex outside the alphabet names its line and the vertex
    for text, line, vertex in (
        ("alphabet 3\ngraph P5\n", 2, 4),
        ("alphabet 3\ngraph-edges 0-1 1-7\n", 2, 7),
        ("# K3\nalphabet 2\n\ngraph K3\n", 4, 2),
    ):
        with pytest.raises(ParseError, match=f"^constraint file line {line}: graph: vertex {vertex} is outside"):
            parse_constraints(text)
    for size in (0, 11):  # the size is at fault, not a vertex or the vertex count
        with pytest.raises(AlphabetError, match=f"alphabet size must be 1..10, got {size}"):
            parse_constraints(f"alphabet {size}\ngraph K3\n")
    for cap in ("1/0", "0/0"):
        with pytest.raises(ParseError, match="line 2:"):
            parse_constraints(f"alphabet 2\nexponent-cap {cap}\n")
    with pytest.raises(ParseError, match="line 2:"):
        parse_constraints("alphabet 2\ngraph-edges\n")
    with pytest.raises(ParseError, match="line 2: graph: unknown builtin graph"):
        parse_constraints("alphabet 3\ngraph FOO\n")
    # the budgeted formula is held to the variable limit of the forbidden ones
    with pytest.raises(DomainError, match="too many variables"):
        ConstraintSet(2, occurrence_budget=(parse_formula("ABCDEFG"), 3))


@pytest.mark.parametrize(
    "first, second",
    [
        ("alphabet 2", "alphabet 3"),
        ("forbid-squares-min-period 3", "forbid-squares-min-period 4"),
        ("max-distinct-squares 3", "max-distinct-squares 4"),
        ("max-distinct-overlaps 1", "max-distinct-overlaps 2"),
        # the second line would lift the budget that 0011 breaks
        ("max-occurrences AA 0", "max-occurrences ABBA 5"),
        # the second line would accept 000
        ("exponent-cap 2 strict", "exponent-cap 3 strict"),
        ("graph K3", "graph-edges 0-1"),
        ("graph-edges 0-1", "graph K3"),
        ("graph-edges 0-1", "graph-edges 1-0"),
    ],
)
def test_a_repeated_single_valued_directive_is_a_parse_error(first, second):
    text = f"{first}\nforbid-factor 22\n{second}\n"
    if not first.startswith("alphabet"):
        text = "alphabet 3\n" + text
    last = text.count("\n")
    with pytest.raises(ParseError, match=f"line {last}:"):
        parse_constraints(text)


def test_list_directives_accumulate():
    c = parse_constraints(
        "alphabet 2\nforbid-factor 000\nforbid-factor 111\nforbid-formula ABABA\n"
        "forbid-formula AAAA\nallow-squares 00\nallow-squares 11\n"
        "allow-overlaps 000\nallow-overlaps 111\n"
    )
    assert c.forbidden_factors == {"000", "111"}
    assert len(c.forbidden_formulas) == 2
    assert c.allowed_squares == {"00", "11"} and c.allowed_overlaps == {"000", "111"}


def test_check_examples():
    c = parse_constraints("alphabet 3\nforbid-factor 010 212\nforbid-squares-min-period 1\n")
    v = check("0102012", c)
    assert v.kind == "factor" and v.witness == "010" and (v.start, v.end) == (0, 3)

    assert check("00010011000111011", FOUR_SQUARES) is None

    v = check("110110110", parse_constraints("alphabet 2\nallow-overlaps\n"))
    assert v.kind == "overlap-not-allowed" and v.witness == "1101101" and v.end == 7

    # the first period-2 run holds only the allowed 0101; the second run's
    # 1212 completes before the period-1 square 00
    v = check("01012121200", parse_constraints("alphabet 3\nallow-squares 0101\n"))
    assert v.kind == "square-not-allowed" and v.witness == "1212" and (v.start, v.end) == (3, 7)


def test_check_more_categories():
    v = check("0101", ConstraintSet(2, exponent_cap=(Fraction(2), False)))
    assert v.kind == "exponent" and v.witness == "0101"

    v = check("001100", ConstraintSet(2, max_square_count=1))
    assert v.kind == "square-count"

    v = check("012", ConstraintSet(3, graph=builtin_graph("P3STAR")))
    assert v is None
    v = check("021", ConstraintSet(3, graph=builtin_graph("P3STAR")))
    assert v.kind == "graph" and v.witness == "02"

    from wordlab.formulas import find_occurrences

    w = "0100101000"
    f = parse_formula("AA.ABAB.BB")
    v = check(w, ConstraintSet(2, forbidden_formulas=(f,)))
    assert v.kind == "formula"
    # completes exactly at the shortest prefix containing an occurrence
    expected_end = min(n for n in range(1, 11) if find_occurrences(w[:n], f, cap=n))
    assert v.end == expected_end

    v = check("0011", ConstraintSet(2, occurrence_budget=(parse_formula("AA"), 1)))
    assert v.kind == "occurrence-budget" and v.end == 4

    with pytest.raises(AlphabetError):
        check("012", FOUR_SQUARES)


def constraint_sets():
    aa = parse_formula("AA")
    pdnew = parse_formula("AA.ABAB.BB")
    return st.sampled_from(
        [
            ConstraintSet(2, forbidden_factors=frozenset({"010", "11"})),
            ConstraintSet(2, sq_min_period=2),
            ConstraintSet(2, allowed_squares=frozenset({"00", "11"})),
            ConstraintSet(2, allowed_overlaps=frozenset({"000"})),
            ConstraintSet(2, max_square_count=2),
            ConstraintSet(2, max_overlap_count=1),
            ConstraintSet(2, exponent_cap=(Fraction(7, 4), True)),
            ConstraintSet(2, forbidden_formulas=(aa,)),
            ConstraintSet(2, forbidden_formulas=(pdnew,)),
            ConstraintSet(2, occurrence_budget=(parse_formula("ABBA"), 1)),
            FOUR_SQUARES,
        ]
    )


@given(constraint_sets(), st.text(alphabet="01", min_size=1, max_size=28))
def test_incremental_checker_agrees_with_batch(c, w):
    """Push letters one at a time; the first rejected push must coincide with
    the earliest-completing batch violation."""
    checker = BranchChecker(c, len(w))
    incremental = None
    for i, ch in enumerate(w):
        kind = checker.push(int(ch))
        if kind is not None:
            incremental = (i + 1, kind)
            break
    batch = check(w, c)
    if batch is None:
        assert incremental is None
    else:
        assert incremental is not None
        assert incremental == (batch.end, batch.kind)


@given(constraint_sets(), st.text(alphabet="01", min_size=1, max_size=24))
def test_check_is_prefix_monotone(c, w):
    if check(w, c) is None:
        for i in range(len(w)):
            for j in range(i, len(w) + 1):
                assert check(w[i:j], c) is None


binary_nonempty = st.text(alphabet="01", min_size=1, max_size=2)


@given(
    st.sampled_from(["AAABABAA", "AABAB"]),
    st.text(alphabet="01", max_size=5),
    binary_nonempty,
    binary_nonempty,
    st.text(alphabet="01", max_size=5),
)
def test_formula_violation_ends_at_the_first_occurrence(pattern, x, a, b, y):
    """check's formula witness ends where the shortest prefix with an occurrence does."""
    f = parse_formula(pattern)
    w = x + "".join({"A": a, "B": b}[ch] for ch in pattern) + y
    v = check(w, parse_constraints(f"alphabet 2\nforbid-formula {pattern}\n"))
    first = next(n for n in range(1, len(w) + 1) if naive_has_occurrence(w[:n], f.fragments, 2))
    assert (v.kind, v.end) == ("formula", first), (w, pattern)


@given(
    st.sampled_from(["AA", "ABBA", "AA.BB"]),
    st.integers(0, 3),
    st.text(alphabet="01", min_size=1, max_size=10),
)
def test_occurrence_budget_ends_where_brute_force_exceeds_it(pattern, budget, w):
    """check's budget violation ends at the shortest prefix with more than budget occurrences."""
    f = parse_formula(pattern)
    v = check(w, ConstraintSet(2, occurrence_budget=(f, budget)))
    over = [
        m for m in range(1, len(w) + 1)
        if len(naive_occurrences(w[:m], f.fragments, f.variable_count, m)) > budget
    ]
    if not over:
        assert v is None
    else:
        assert (v.kind, v.end) == ("occurrence-budget", over[0]), (w, pattern, budget)


def test_pd_currie_prefix_passes_check(manifest_dir):
    """The 10 000-letter period-doubling prefix avoids pd-currie's constraints."""
    c = load_constraints(f"{manifest_dir}/pd-currie.cons")
    assert check(fixed_point_prefix(parse_morphism("01/00"), 10_000), c) is None


def _group(c):
    """Every permutation the generators of ``letter_symmetries(c)`` generate, in one-line notation."""
    gens = letter_symmetries(c)
    assert all(relabel(c, s) == c for s in gens)
    return set(permutation_group(c.alphabet_size, gens))


# the sets whose symmetry group is more than the identity
SHIPPED_SYMMETRIES = {
    "b3": {(0, 1, 2), (2, 1, 0)},  # 010 and 212 swap
    "c-sq3f": {(0, 1), (1, 0)},
    "g4": {(0, 1), (1, 0)},
    "thrifty": {(0, 1), (1, 0)},
    "k4": {(0, 1, 2, 3), (3, 2, 1, 0)},  # the path 0-1-2-3 reversed
    "k5": {(0, 1, 2, 3, 4), (3, 1, 4, 0, 2)},  # the path 2-0-1-3-4 reversed
}


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(MANIFEST_DIR, "*.cons"))), ids=os.path.basename
)
def test_letter_symmetries_of_the_shipped_sets(path):
    c = load_constraints(path)
    name = os.path.basename(path)[: -len(".cons")]
    assert _group(c) == SHIPPED_SYMMETRIES.get(name, {tuple(range(c.alphabet_size))})


def test_letter_symmetries_of_the_4_cycle_are_dihedral():
    rotations = {tuple((a + r) % 4 for a in range(4)) for r in range(4)}
    reflections = {tuple((r - a) % 4 for a in range(4)) for r in range(4)}
    assert _group(parse_constraints("alphabet 4\ngraph C4\n")) == rotations | reflections


def test_letter_symmetries_of_ten_free_letters_without_enumerating_them():
    """The generators of the 10! symmetries come in well under a second.

    The generators fixing 0 .. i - 1 move i within an orbit of 10 - i
    letters, so they generate at least 10! = 3 628 800 permutations: all.
    """
    c = ConstraintSet(10)
    start = time.perf_counter()
    gens = letter_symmetries(c)
    assert time.perf_counter() - start < 1.0
    order = 1
    for i in range(10):
        orbit = [i]
        for a in orbit:
            for s in gens:
                if all(s[b] == b for b in range(i)) and s[a] not in orbit:
                    orbit.append(s[a])
        order *= len(orbit)
    assert order == 3_628_800


def test_relabel_renames_every_letter_bearing_field():
    c = parse_constraints(
        "alphabet 3\nforbid-factor 01 122\nallow-squares 00 1212\nallow-overlaps 000 20202\n"
        "graph-edges 0-1 1-2 2-2\nforbid-formula AA.ABAB.BB\nexponent-cap 5/2\n"
    )
    r = relabel(c, (1, 2, 0))
    assert r.forbidden_factors == {"12", "200"}
    assert r.allowed_squares == {"11", "2020"} and r.allowed_overlaps == {"111", "01010"}
    assert r.graph.edges == {(1, 2), (0, 2), (0, 0)}
    assert (r.forbidden_formulas, r.exponent_cap) == (c.forbidden_formulas, c.exponent_cap)
    assert relabel(r, (2, 0, 1)) == c
    with pytest.raises(DomainError):
        relabel(c, (0, 0, 1))
