import os
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MANIFEST_DIR
from oracles import naive_code_membership
from wordlab import repetitions
from wordlab.characterize import (
    code_factor_membership,
    every_window_contains,
    load_manifest,
    morphisms_equal,
    verify_characterization,
)
from wordlab.cli import main
from wordlab.errors import DomainError, ParseError
from wordlab.morphisms import compose, fixed_point_prefix, parse_morphism
from wordlab.words import factors

B3 = parse_morphism("012/02/1")


def test_code_factor_membership_examples():
    assert code_factor_membership("0010", {"01", "0"})
    assert not code_factor_membership("11", {"01", "0"})
    assert code_factor_membership("", {"01", "0"})
    assert code_factor_membership("10", {"01"})  # spans a piece boundary
    assert code_factor_membership("0110", {"011", "00"})
    with pytest.raises(DomainError):
        code_factor_membership("01", set())
    with pytest.raises(DomainError):
        code_factor_membership("01", {""})


@given(
    st.text(alphabet="01", min_size=0, max_size=10),
    st.sets(st.text(alphabet="01", min_size=2, max_size=4), min_size=1, max_size=3),
)
@settings(max_examples=80)
def test_code_membership_matches_enumeration(v, pieces):
    assert code_factor_membership(v, pieces) == naive_code_membership(v, pieces)


@given(st.integers(1, 6))
def test_fixed_point_factors_live_in_their_code(length):
    for text in ("012/02/1", "01/0", "01/00", "01/23/4/21/0"):
        m = parse_morphism(text)
        w = fixed_point_prefix(m, 2000)
        pieces = {img for img in m.images if img}
        assert all(code_factor_membership(v, pieces) for v in factors(w, length))


def test_morphisms_equal_identities():
    k5 = parse_morphism("013431/0131/02")
    coloring = parse_morphism("0/1/2/2/0")
    assert morphisms_equal(compose(coloring, k5), compose(B3, B3))
    g12 = parse_morphism("001/01/1")
    m2 = parse_morphism("02/1/0/12/")
    h12 = parse_morphism("0011/01/001/011/")
    assert morphisms_equal(compose(g12, m2), h12)
    assert morphisms_equal(B3, B3)
    assert not morphisms_equal(B3, parse_morphism("012/02/2"))
    with pytest.raises(DomainError):
        morphisms_equal(B3, parse_morphism("01/0"))


def test_every_window_contains():
    assert every_window_contains("00100010", 4, "1")
    assert not every_window_contains("0101", 2, "00")
    assert every_window_contains("0101", 2, "")
    assert not every_window_contains("10001", 3, "1")
    with pytest.raises(DomainError):
        every_window_contains("01", 3, "0")
    with pytest.raises(DomainError):
        every_window_contains("01", 1, "01")


@given(st.text(alphabet="01", min_size=1, max_size=25), st.integers(1, 8))
def test_every_window_matches_brute_force(w, k):
    if k > len(w):
        return
    u = w[:2]
    if len(u) > k:
        return
    brute = all(u in w[i : i + k] for i in range(len(w) - k + 1))
    assert every_window_contains(w, k, u) == brute


def test_manifest_round_trip(manifest_dir):
    m = load_manifest(os.path.join(manifest_dir, "b3"))
    assert m.name == "b3"
    assert m.inner == B3 and m.outer is None
    assert m.check_length == 20 and m.resolved_horizon() == 20
    assert m.constraints.alphabet_size == 3


def test_manifest_parse_errors(tmp_path):
    # unknown directives: tests/test_directives.py
    incomplete = tmp_path / "incomplete"
    incomplete.write_text("name x\n")
    with pytest.raises(ParseError):
        load_manifest(incomplete)


@pytest.mark.parametrize(
    "line",
    [
        "check-length 0", "horizon -1", "localizer 0 0", "localizer 3 0000", "localizer 4 0 AA 0",
        "expect-occurrences AA 0", "code-pieces from-target-outer",
    ],
)
def test_an_out_of_range_manifest_value_is_a_parse_error_naming_its_line(tmp_path, capsys, line):
    """Each is rejected while the manifest is read, before any prefix is built."""
    (tmp_path / "b3.cons").write_text("alphabet 3\nforbid-formula AA\n")
    path = tmp_path / "m"
    path.write_text(f"name x\nconstraints b3.cons\n{line}\ntarget-inner 012/02/1\n")
    with pytest.raises(ParseError, match="^manifest line 3: "):
        load_manifest(path)
    assert main(["verify", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: manifest line 3: ")


@pytest.mark.parametrize(
    "line",
    [
        "name y", "constraints b3.cons", "target-inner 012/02/1", "target-outer 0/1/2",
        "check-length 6", "horizon 6", "prefix 60", "expect-squares", "expect-overlaps",
        "expect-occurrences AA 3", "code-pieces 0 1 2",
    ],
)
def test_a_repeated_single_valued_manifest_directive_is_a_parse_error(tmp_path, line):
    (tmp_path / "b3.cons").write_text("alphabet 3\nforbid-formula AA\n")
    key = line.split()[0]
    lines = [d for d in ("name x", "constraints b3.cons", "target-inner 012/02/1") if d.split()[0] != key]
    lines += [line, "localizer 4 0", "localizer 4 1", "expect-avoids AAA", "expect-avoids ABABA"]
    path = tmp_path / "m"
    path.write_text("".join(d + "\n" for d in lines))
    m = load_manifest(path)  # localizer and expect-avoids accumulate
    assert len(m.localizers) == 2 and len(m.expect_avoids) == 2
    path.write_text("".join(d + "\n" for d in lines + [line]))
    with pytest.raises(ParseError, match=f"line {len(lines) + 1}:"):
        load_manifest(path)


def test_empty_inventory_lines_are_empty_sets(tmp_path):
    (tmp_path / "b3.cons").write_text("alphabet 3\nforbid-formula AA\nallow-squares\n")
    path = tmp_path / "m"
    path.write_text("name x\nconstraints b3.cons\ntarget-inner 012/02/1\nexpect-squares\nexpect-overlaps\n")
    m = load_manifest(path)
    assert m.expect_squares == frozenset() and m.expect_overlaps == frozenset()
    assert m.constraints.allowed_squares == frozenset()
    assert m.constraints.allowed_overlaps is None


def test_verify_characterization_passes_on_b3(manifest_dir):
    report = verify_characterization(load_manifest(os.path.join(manifest_dir, "b3")))
    assert report.passed
    assert report.verdict_line() == "VERDICT b3 PASS"
    names = [r.name for r in report.results]
    assert "target-prefix-satisfies-constraints" in names
    assert "extendable-set-equals-prefix-factors" in names
    assert report.assumptions  # the bounded-scale gap is recorded


def test_verify_characterization_fails_on_wrong_target(tmp_path, manifest_dir):
    cons = tmp_path / "empty.cons"
    cons.write_text("alphabet 2\n")
    man = tmp_path / "wrong"
    man.write_text(
        "name wrong\nconstraints empty.cons\ntarget-inner 01/00\n"
        "check-length 2\nhorizon 2\nprefix 400\n"
    )
    report = verify_characterization(load_manifest(man))
    assert not report.passed
    assert report.verdict_line() == "VERDICT wrong FAIL"
    failing = {r.name: r for r in report.results if not r.passed}
    # the unconstrained language has the factor 11, the period-doubling word does not
    assert "extendable-set-equals-prefix-factors" in failing
    assert "11" in failing["extendable-set-equals-prefix-factors"].detail


def test_reports_disjoint_differences(tmp_path):
    cons = tmp_path / "c.cons"
    cons.write_text("alphabet 2\n")
    man = tmp_path / "m"
    man.write_text(
        "name m\nconstraints c.cons\ntarget-inner 01/00\ncheck-length 2\nhorizon 2\nprefix 200\n"
    )
    manifest = load_manifest(man)
    from wordlab.search import extendable_set

    ext = extendable_set(manifest.constraints, 2, 2)
    fact = set(factors(fixed_point_prefix(manifest.inner, 200), 2))
    assert (ext - fact).isdisjoint(fact - ext)
    assert (ext - fact) | (fact - ext) == ext ^ fact


def test_node_budget_exhaustion_never_passes(manifest_dir, capsys):
    from wordlab.cli import main
    from wordlab.errors import ResourceBudgetError

    path = os.path.join(manifest_dir, "g4-four-squares")
    with pytest.raises(ResourceBudgetError):
        verify_characterization(load_manifest(path), budget_nodes=50)
    code = main(["verify", "--manifest", path, "--budget-nodes", "50"])
    out, err = capsys.readouterr()
    assert code == 3 and "budget" in err
    assert "VERDICT" not in out and "PASS" not in out


def test_verify_makes_one_square_runs_pass_over_the_prefix():
    """check and the two inventories share one m(p) = p pass over the prefix,
    although the extendable set's witness re-checks make passes of their own."""
    m = replace(load_manifest(os.path.join(MANIFEST_DIR, "g4-four-squares")), prefix_length=2000)
    passes = []
    inner = repetitions.long_runs

    def counting(w, periods, min_len):
        if len(w) == 2000 and all(min_len(p) == p for p in (1, 2, 7, 999)):
            passes.append(periods)
        return inner(w, periods, min_len)

    repetitions.square_runs.cache_clear()
    with mock.patch.object(repetitions, "long_runs", counting):
        report = verify_characterization(m)
    assert [r.name for r in report.results][:4] == [
        "target-prefix-satisfies-constraints",
        "factor-saturation",
        "extendable-set-equals-prefix-factors",
        "square-inventory",
    ]
    assert passes == [range(1, 1001)]
