import pytest
from hypothesis import given, strategies as st

from wordlab.errors import AlphabetError, DomainError, ParseError, ResourceBudgetError
from wordlab.morphisms import (
    Morphism,
    apply,
    compose,
    erase_letters,
    fixed_point_prefix,
    identity_morphism,
    morphic_prefix,
    parse_morphism,
    reachable_letters,
)

HALL_THUE = parse_morphism("012/02/1")


def small_morphisms(alphabet=3, max_image=4):
    digits = "0123456789"[:alphabet]
    image = st.text(alphabet=digits, max_size=max_image)
    return st.builds(
        lambda imgs: Morphism(tuple(imgs)),
        st.lists(image, min_size=alphabet, max_size=alphabet),
    )


def small_words(alphabet=3, max_size=20):
    return st.text(alphabet="0123456789"[:alphabet], max_size=max_size)


def test_parse_morphism():
    m = parse_morphism("012/02/1")
    assert m.alphabet_size == 3 and m.is_prolongable
    m = parse_morphism("0011/01/001/011/")
    assert m.alphabet_size == 5 and m.image(4) == ""
    assert not parse_morphism("0/1").is_prolongable
    with pytest.raises(ParseError):
        parse_morphism("01/a2")
    with pytest.raises(AlphabetError):
        parse_morphism("")
    with pytest.raises(AlphabetError):
        parse_morphism("/".join("0" * 11))


def test_apply_examples():
    assert apply(parse_morphism("01/00"), "0100") == "01000101"
    assert apply(parse_morphism("02/1/0/12/"), "01234") == "021012"
    assert apply(HALL_THUE, "") == ""
    with pytest.raises(DomainError):
        apply(parse_morphism("01/00"), "012")


def test_compose_examples():
    g12 = parse_morphism("001/01/1")
    m2 = parse_morphism("02/1/0/12/")
    assert str(compose(g12, m2)) == "0011/01/001/011/"
    assert compose(identity_morphism(3), HALL_THUE) == HALL_THUE
    assert str(compose(HALL_THUE, HALL_THUE)) == "012021/0121/02"
    with pytest.raises(DomainError):
        compose(parse_morphism("0/1"), parse_morphism("012/02/1"))


def test_fixed_point_prefix_examples():
    assert fixed_point_prefix(HALL_THUE, 6) == "012021"
    assert fixed_point_prefix(parse_morphism("01/0"), 8) == "01001010"
    assert fixed_point_prefix(parse_morphism("01/00"), 16) == "0100010101000100"
    assert fixed_point_prefix(HALL_THUE, 0) == ""
    with pytest.raises(DomainError):
        fixed_point_prefix(parse_morphism("0/1"), 4)  # not prolongable
    with pytest.raises(DomainError):
        fixed_point_prefix(parse_morphism("01/"), 4)  # reachable erasing image
    with pytest.raises(ResourceBudgetError):
        fixed_point_prefix(HALL_THUE, 100, max_letters=10)
    for budget in (0, -1):
        with pytest.raises(DomainError, match="letter budget"):
            fixed_point_prefix(HALL_THUE, 0, max_letters=budget)


def test_morphic_prefix_examples():
    g4 = parse_morphism("00010011000111011/000100111011/00111")
    assert morphic_prefix(g4, HALL_THUE, 17) == "00010011000111011"
    assert morphic_prefix(identity_morphism(3), HALL_THUE, 6) == "012021"
    h12 = parse_morphism("0011/01/001/011/")
    b5 = parse_morphism("01/23/4/21/0")
    assert morphic_prefix(h12, b5, 4) == "0011"
    # erasing all but one letter still yields an infinite image
    assert morphic_prefix(parse_morphism("//1"), HALL_THUE, 4) == "1111"
    with pytest.raises(DomainError):
        morphic_prefix(parse_morphism("//"), HALL_THUE, 4)  # erases everything reachable
    for budget in (0, -1):
        with pytest.raises(DomainError, match="letter budget"):
            morphic_prefix(g4, HALL_THUE, 0, max_letters=budget)


def test_erase_letters_examples():
    k4 = parse_morphism("1232/12/10")
    assert str(erase_letters(k4, {3})) == "122/12/10"
    assert erase_letters(k4, set()) == k4
    h12 = parse_morphism("0011/01/001/011/")
    assert erase_letters(h12, {0, 1}) == Morphism(("", "", "", "", ""))
    with pytest.raises(AlphabetError):
        erase_letters(parse_morphism("01/0"), {5})


def test_reachable_letters():
    assert reachable_letters(parse_morphism("01/23/4/21/0")) == frozenset(range(5))
    assert reachable_letters(parse_morphism("00/1")) == frozenset({0})


@given(small_morphisms(), small_words(), small_words())
def test_apply_is_a_morphism(m, u, v):
    assert apply(m, u + v) == apply(m, u) + apply(m, v)


@given(small_morphisms(), small_morphisms(), small_words())
def test_compose_matches_sequential_application(g, f, w):
    if f.target_alphabet_size > g.alphabet_size:
        with pytest.raises(DomainError):
            compose(g, f)
        return
    assert apply(compose(g, f), w) == apply(g, apply(f, w))


@given(st.integers(1, 60))
def test_fixed_point_property(n):
    for text in ("012/02/1", "01/0", "01/00", "01/23/4/21/0", "01/21/0"):
        m = parse_morphism(text)
        w = fixed_point_prefix(m, n)
        assert apply(m, w)[:n] == fixed_point_prefix(m, n if n <= len(w) else n)[:n]
        # prefix consistency
        assert fixed_point_prefix(m, max(0, n - 1)) == w[: max(0, n - 1)]


@given(small_morphisms(alphabet=2), small_words(alphabet=2), st.sets(st.integers(0, 1)))
def test_erase_commutes_with_apply(m, w, kill):
    target = m.target_alphabet_size
    kill = {a for a in kill if a < target}
    if not target:
        return
    table = {ord("0123456789"[a]): None for a in kill}
    assert apply(erase_letters(m, kill), w) == apply(m, w).translate(table)
