"""Morphisms on digit words: parsing, application, composition, fixed points.

The text format is slash-separated images, ``m(0)/m(1)/...``; a segment may
be empty for an erasing image ("0011/01/001/011/" has five images, the last
one empty).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetError, DomainError, ParseError, ResourceBudgetError
from .words import DIGITS, MAX_ALPHABET, validate_word

# Cap on materialized letters during prefix generation (overridable per call).
DEFAULT_LETTER_BUDGET = 200_000_000


@dataclass(frozen=True)
class Morphism:
    """Map letter -> word, one image per letter of the source alphabet."""

    images: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.images) <= MAX_ALPHABET:
            raise AlphabetError(f"morphism needs 1..{MAX_ALPHABET} images, got {len(self.images)}")
        for img in self.images:
            validate_word(img)

    @property
    def alphabet_size(self) -> int:
        return len(self.images)

    @property
    def target_alphabet_size(self) -> int:
        top = -1
        for img in self.images:
            for ch in img:
                if int(ch) > top:
                    top = int(ch)
        return top + 1

    @property
    def is_prolongable(self) -> bool:
        """True iff image(0) starts with letter 0 and has length >= 2."""
        return len(self.images[0]) >= 2 and self.images[0][0] == "0"

    def image(self, letter: int) -> str:
        return self.images[letter]

    def _table(self) -> dict[int, str]:
        return {ord(DIGITS[a]): img for a, img in enumerate(self.images)}

    def __str__(self) -> str:
        return "/".join(self.images)


def parse_morphism(text: str) -> Morphism:
    """Parse slash-separated digit segments; empty segments are erasing images."""
    if text == "":
        raise AlphabetError("morphism text is empty (0 segments)")
    segments = text.split("/")
    if len(segments) > MAX_ALPHABET:
        raise AlphabetError(f"morphism has {len(segments)} segments, more than {MAX_ALPHABET}")
    for seg in segments:
        for ch in seg:
            if ch not in DIGITS:
                raise ParseError(f"morphism image contains non-digit character {ch!r}")
    return Morphism(tuple(segments))


def identity_morphism(alphabet_size: int) -> Morphism:
    if not 1 <= alphabet_size <= MAX_ALPHABET:
        raise AlphabetError(f"alphabet size must be 1..{MAX_ALPHABET}")
    return Morphism(tuple(DIGITS[:alphabet_size]))


def apply(m: Morphism, w: str) -> str:
    """Image of ``w`` under ``m`` (concatenation of letter images)."""
    try:
        validate_word(w, m.alphabet_size)
    except AlphabetError as e:
        raise DomainError(f"word not in the morphism's source alphabet: {e}") from e
    return w.translate(m._table())


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """Morphism sending a to outer(inner(a)); inner's target must fit outer's source."""
    if inner.target_alphabet_size > outer.alphabet_size:
        raise DomainError(
            f"inner target alphabet ({inner.target_alphabet_size}) exceeds "
            f"outer source alphabet ({outer.alphabet_size})"
        )
    return Morphism(tuple(apply(outer, img) for img in inner.images))


def erase_letters(m: Morphism, kill) -> Morphism:
    """Delete every letter of ``kill`` from each image. No relabeling is done."""
    kill = frozenset(kill)
    target = m.target_alphabet_size
    for a in kill:
        if not isinstance(a, int) or not 0 <= a < MAX_ALPHABET:
            raise AlphabetError(f"kill letter {a!r} is not a letter")
        if a >= target:
            raise AlphabetError(f"kill letter {a} not in the target alphabet (size {target})")
    table = {ord(DIGITS[a]): None for a in kill}
    return Morphism(tuple(img.translate(table) for img in m.images))


def reachable_letters(m: Morphism) -> frozenset[int]:
    """Letters reachable from 0 by repeatedly taking images."""
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for ch in m.images[a]:
            b = int(ch)
            if b >= m.alphabet_size:
                raise DomainError(f"image letter {b} outside the source alphabet; not iterable")
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return frozenset(seen)


def fixed_point_prefix(m: Morphism, n: int, max_letters: int | None = None) -> str:
    """Length-``n`` prefix of the fixed point of a prolongable morphism."""
    budget = max_letters if max_letters is not None else DEFAULT_LETTER_BUDGET
    if budget < 1:
        raise DomainError(f"letter budget must be positive, got {budget}")
    if n < 0:
        raise DomainError("prefix length must be non-negative")
    if not m.is_prolongable:
        raise DomainError("morphism is not prolongable (image(0) must start with 0, length >= 2)")
    for a in sorted(reachable_letters(m)):
        if m.images[a] == "":
            raise DomainError(f"reachable letter {a} has an empty image; iterates may not grow")
    if n > budget:
        raise ResourceBudgetError(f"requested prefix of {n} letters exceeds budget {budget}")
    w = "0"
    while len(w) < n:
        w = apply(m, w)
        if len(w) > budget:
            raise ResourceBudgetError(f"fixed point iterate exceeded letter budget {budget}")
    return w[:n]


def morphic_prefix(outer: Morphism, inner: Morphism, n: int, max_letters: int | None = None) -> str:
    """Length-``n`` prefix of outer(fixed point of inner).

    With inner(0) = 0u the fixed point is 0 u h(u) h^2(u) ..., h = inner: the
    letter sets S_0 of u and S_{j+1} of h(S_j) enter a cycle, whose letters
    occur infinitely often, so the image is finite iff outer erases them all.
    """
    budget = max_letters if max_letters is not None else DEFAULT_LETTER_BUDGET
    fixed_point_prefix(inner, 0, max_letters=budget)  # the budget, and inner has a fixed point
    if n < 0:
        raise DomainError("prefix length must be non-negative")
    if max(reachable_letters(inner)) >= outer.alphabet_size:
        raise DomainError("outer morphism is not defined on every letter of the fixed point")
    sets = [frozenset(map(int, inner.images[0][1:]))]
    while (s := frozenset(int(ch) for a in sets[-1] for ch in inner.images[a])) not in sets:
        sets.append(s)
    if all(outer.images[a] == "" for a in frozenset().union(*sets[sets.index(s) :])):
        raise DomainError("outer morphism erases every letter that occurs infinitely often; image is finite")
    if n == 0:
        return ""
    length = max(n, 16)
    while True:
        img = apply(outer, fixed_point_prefix(inner, length, max_letters=budget))
        if len(img) >= n:
            return img[:n]
        if length >= budget:
            raise ResourceBudgetError(f"generating {n} image letters exceeded letter budget {budget}")
        length = min(length * 2, budget)
