"""Patterns and formulas over variables A..Z: parsing and occurrence search.

A formula is dot-separated fragments; an occurrence is a non-erasing
assignment of words to variables making every fragment image a factor of the
searched word. Occurrences are identified by the tuple of variable images.

The engine joins each group of fragments that share variables on its own; a
group with no solution ends the search. A fragment with a block of variables
whose image a run or a root covers goes to one routine, ``_block_matches``: a
power (the A of AA), a doubled block (the u of uu) or a periodic block with
no remainder (the AB of ABAB) has the image X^k, X the block's image, so X is
a root of exponent k; a periodic block with a tail (the AB of ABA or ABABA)
starts a run of its period. The routine reads those roots or runs and splits
each over the block with ``_match_exact``, which honours the image-length
caps, the allowed lengths and the images already fixed. Any other fragment is
matched left to right (``_match_at``) from each start position, or, if all
occurrences are sought, a free-headed one (ABBA) from each start of its first
run and back; there a variable that opens an adjacent k-run takes its lengths
from the k-powers at its position, and one that opens a doubled block, such
as the BCBC of ABCBC, the same split of each square there.

``new_occurrence_exists`` and ``new_assignments`` anchor the search at the
last letter, seeding each fragment by its own shape: a fragment with a root
block on the roots of its exponent that letter added, through the same
routine, and any other on its images ending there (``_anchored``). Roots,
periods and runs come from one index with two producers: ``WordPowers``
reads a whole word's runs per run threshold m(p) = a p + b, those for
a = 1 (squares, doubled blocks, ABAB roots, ABABA tails) off
``repetitions.square_runs`` and any other from a ``repetitions.long_runs``
pass of its own, and ``PowerStack`` is kept up to date by the search, one
letter at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice, product
from math import prod

from .errors import DomainError, ParseError, ResourceBudgetError
from .repetitions import SuffixRuns, long_runs, square_runs

# Larger patterns blow up combinatorially; use find_sq_t or a localizer
# reduction instead of SQ_7+ as a literal pattern.
MAX_PATTERN_VARIABLES = 6
DEFAULT_STEP_BUDGET = 200_000_000
_POWER_INDEX_MAX = 4_000_000


@dataclass(frozen=True)
class Formula:
    """Dot-separated fragments; a pattern is a formula with one fragment."""

    fragments: tuple[str, ...]

    def __post_init__(self):
        if not self.fragments:
            raise ParseError("formula needs at least one fragment")
        for frag in self.fragments:
            if not frag:
                raise ParseError("formula has an empty fragment")
            for ch in frag:
                if not "A" <= ch <= "Z":
                    raise ParseError(f"formula contains invalid character {ch!r}")

    @property
    def variable_count(self) -> int:
        return len({ch for frag in self.fragments for ch in frag})

    def __str__(self) -> str:
        return ".".join(self.fragments)


def parse_formula(text: str) -> Formula:
    """Parse and normalize: variables renamed to A, B, ... by first occurrence."""
    if not text:
        raise ParseError("empty formula")
    for ch in text:
        if ch != "." and not "A" <= ch <= "Z":
            raise ParseError(f"formula contains invalid character {ch!r}")
    parts = text.split(".")
    if any(not p for p in parts):
        raise ParseError("formula has an empty fragment")
    rename: dict[str, str] = {}
    for ch in text:
        if ch != "." and ch not in rename:
            rename[ch] = chr(ord("A") + len(rename))
    return Formula(tuple("".join(rename[ch] for ch in p) for p in parts))


def is_doubled(f: Formula) -> bool:
    """True iff no variable occurs exactly once across all fragments."""
    counts: dict[str, int] = {}
    for frag in f.fragments:
        for ch in frag:
            counts[ch] = counts.get(ch, 0) + 1
    return all(c >= 2 for c in counts.values())


def format_assignment(assignment: tuple[str, ...]) -> str:
    return ", ".join(f"{chr(ord('A') + i)}={img}" for i, img in enumerate(assignment))


def fragment_images(f: Formula, assignment: tuple[str, ...]) -> tuple[str, ...]:
    """The image of each fragment of f under an assignment (A's image first)."""
    return tuple("".join(assignment[ord(ch) - ord("A")] for ch in frag) for frag in f.fragments)


# ---------------------------------------------------------------------------
# compiled fragment structure


@dataclass(frozen=True)
class _Frag:
    occs: tuple[int, ...]  # variable ids in occurrence order
    var_ids: frozenset
    # a periodic fragment (x_1...x_d)^q x_1...x_r, d < len(occs); else d = 0
    d: int = 0
    q: int = 0
    r: int = 0
    runlen: tuple[int, ...] = ()  # adjacent same-variable run length at each occurrence
    # the least b >= 2 with occs[j:j+b] == occs[j+b:j+2b] and occs[j] once in
    # that block, for each occurrence j; 0 where there is none
    doubled: tuple[int, ...] = ()
    # (block, k) when every image of the fragment is X^k, X the image of the
    # block: a power (A), a doubled block uu (u) or an r = 0 periodic block
    root: tuple[tuple[int, ...], int] | None = None
    # (v, occurrences of v, other occurrences) for each variable v
    counts: tuple[tuple[int, int, int], ...] = ()
    # the first occurrence opening a k-run, k >= 2, if the head opens no block
    # and each variable before it recurs from it on (ABBA's BB); else 0
    pivot: int = 0
    group: int = 0  # the first fragment linked to this one by shared variables


def _doubled_block(occs: tuple[int, ...], j: int) -> int:
    for b in range(2, (len(occs) - j) // 2 + 1):
        if occs[j : j + b] == occs[j + b : j + 2 * b] and occs[j] not in occs[j + 1 : j + b]:
            return b
    return 0


def _classify(occs: tuple[int, ...]) -> _Frag:
    m = len(occs)
    vars_ = frozenset(occs)
    d = len(vars_)
    runlen = [1] * m
    for j in range(m - 2, -1, -1):
        if occs[j] == occs[j + 1]:
            runlen[j] = runlen[j + 1] + 1
    counts = tuple((v, occs.count(v), m - occs.count(v)) for v in sorted(vars_))
    doubled = tuple(_doubled_block(occs, j) for j in range(m))
    pivot = next((j for j in range(1, m) if runlen[j] >= 2), 0)
    if runlen[0] >= 2 or doubled[0] or not set(occs[:pivot]) <= set(occs[pivot:]):
        pivot = 0
    shape = {"runlen": tuple(runlen), "doubled": doubled, "counts": counts, "pivot": pivot}
    if d < m and len(set(occs[:d])) == d and all(occs[i] == occs[i % d] for i in range(m)):
        q, r = divmod(m, d)
        return _Frag(occs, vars_, d, q, r, root=(occs[:d], q) if r == 0 else None, **shape)
    if m % 2 == 0 and occs[: m // 2] == occs[m // 2 :]:
        return _Frag(occs, vars_, root=(occs[: m // 2], 2), **shape)
    return _Frag(occs, vars_, **shape)


@lru_cache(maxsize=512)
def _compiled(f: Formula) -> tuple[_Frag, ...]:
    frags = [_classify(tuple(ord(ch) - ord("A") for ch in frag)) for frag in f.fragments]
    group = list(range(len(frags)))
    for _ in frags:  # each round carries the least index one link further
        group = [min(group[i] for i, a in enumerate(frags) if a.var_ids & b.var_ids) for b in frags]
    return tuple(replace(frag, group=g) for frag, g in zip(frags, group))


def _adjacent_runs(frag: _Frag):
    """(variable, k) for each run of k >= 2 adjacent occurrences of one variable."""
    j = 0
    while j < len(frag.occs):
        k = frag.runlen[j]
        if k >= 2:
            yield frag.occs[j], k
        j += k


def repetition_shape(f: Formula) -> tuple[int, int, int] | None:
    """(d, q, r) if f is one fragment (x_1...x_d)^q x_1...x_r of distinct variables.

    These are the powers AA, AAA, ... (d = 1) and the periodic blocks ABA,
    ABAB, ABABA, ABCABC, ...; any other formula gives None. An occurrence of
    one ends at the last letter of a word exactly when r_p >= (q - 1) p + r
    for some period p >= d, r_p being the suffix-run counter of
    ``SuffixRuns``: the minimal split of such a suffix gives x_1...x_r one
    letter each, so every image is non-empty and fits in the word.
    """
    frags = _compiled(f)
    if len(frags) != 1 or not frags[0].d:
        return None
    return frags[0].d, frags[0].q, frags[0].r


def anchored_power_exponents(f: Formula) -> frozenset[int]:
    """Exponents k whose k-power periods or roots the anchored search for f reads.

    A ``PowerStack`` handed to ``new_occurrence_exists`` or
    ``new_assignments`` must track at least these.
    """
    ks = set()
    for frag in _compiled(f):
        ks.update(k for _, k in _adjacent_runs(frag))
        if frag.root is not None:
            ks.add(frag.root[1])
    return frozenset(ks)


# ---------------------------------------------------------------------------
# search engine


class WordPowers:
    """k-power periods and roots of one whole word, and the period runs behind them.

    Every run the engine reads is a maximal run of w[i] == w[i+p] at least
    m(p) = a p + b long: (k - 1) g for the k-powers of period g, P for the
    doubled blocks uu with |u| = P, (q - 1) G + r for the periodic blocks of
    q G + r letters. Each (a, b) is read when first asked for and kept
    indexed by period; ``runs`` says from which pass. This is the batch
    producer of the power index that ``_Engine`` reads; the search keeps the
    same three queries up to date letter by letter in ``PowerStack``.
    """

    def __init__(self, w: bytes):
        self.w = w
        self.n = len(w)
        self._runs: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
        self._roots: dict[int, frozenset[bytes]] = {}

    def runs(self, a: int, b: int) -> dict[int, list[tuple[int, int]]]:
        """Period p -> maximal runs (start, length >= a p + b), both ascending.

        For a = 1 these are the ``square_runs(w)`` at least p + b long, so
        ``check``, the inventories and every engine on one word share one
        pass. A cube or higher index (a >= 2) makes its own ``long_runs``
        pass: sampling every (a p + b)-th position costs less than a full
        square pass on a word whose square runs are not memoised. So does
        a = 0, the q = 1 tails of ABA and ABCAB: they need runs shorter
        than p, which ``square_runs`` does not hold.
        """
        index = self._runs.get((a, b))
        if index is None:
            index = {}
            w, m = self.w.decode("ascii"), lambda p: a * p + b
            for p, s, run in square_runs(w) if a == 1 else long_runs(w, range(1, self.n), m):
                if run >= m(p):
                    index.setdefault(p, []).append((s, run))
            self._runs[(a, b)] = index
        return index

    def periods(self, k: int):
        """Periods g for which some k-power of period g occurs in w."""
        return self.runs(k - 1, 0).keys()

    def roots(self, k: int) -> frozenset[bytes]:
        """All x such that x^k is a factor of w."""
        roots = self._roots.get(k)
        if roots is None:
            roots = frozenset(x for g in self.periods(k) for x in self.roots_of_period(k, g))
            self._roots[k] = roots
        return roots

    def roots_of_period(self, k: int, g: int):
        """Roots x of length g with x^k a factor, by run and position; may repeat."""
        for s, run in self.runs(k - 1, 0).get(g, ()):
            span = run - (k - 1) * g
            for i in range(s, s + min(g, span + 1)):
                yield self.w[i : i + g]


class PowerStack:
    """k-power periods and roots of a word that grows and shrinks at its end.

    ``push`` records the k-powers ending at the new last letter, for each
    tracked exponent k, and ``pop`` forgets exactly what the matching push
    added. Every factor ends at some earlier push, so after pushing w letter
    by letter the three queries answer exactly as ``WordPowers(w)`` does.
    The k-power suffixes come from the ``SuffixRuns`` counters of the same
    word: period g ends one exactly when r_g >= (k - 1) g.
    """

    def __init__(self, exponents, runs: SuffixRuns):
        self.exponents = tuple(sorted(exponents))
        self.runs = runs
        self.n = 0
        self._suffix_powers = tuple(
            (k, runs.threshold(lambda p, k=k: (k - 1) * p)) for k in self.exponents
        )
        # k -> period -> distinct roots of that length, in the order found
        self._by_period: dict[int, dict[int, list[bytes]]] = {k: {} for k in self.exponents}
        self._roots: dict[int, set[bytes]] = {k: set() for k in self.exponents}
        self._added: list[list[tuple[int, bytes]]] = []

    def push(self, buf, n: int) -> None:
        """Account for the letter buf[n-1]; ``runs`` has counted buf[:n] already."""
        if self.runs.n != n:
            raise DomainError(f"suffix runs cover {self.runs.n} letters, the word has {n}")
        added = []
        for k, powers in self._suffix_powers:
            roots, by_period = self._roots[k], self._by_period[k]
            for g in self.runs.hits(powers):
                x = bytes(buf[n - g : n])
                if x not in roots:
                    roots.add(x)
                    by_period.setdefault(g, []).append(x)
                    added.append((k, x))
        self._added.append(added)
        self.n = n

    def pop(self) -> None:
        for k, x in reversed(self._added.pop()):
            self._roots[k].remove(x)
            by_period = self._by_period[k]
            found = by_period[len(x)]
            found.pop()
            if not found:
                del by_period[len(x)]
        self.n -= 1

    def added(self) -> list[tuple[int, bytes]]:
        """The (k, root) pairs the last push added, by k and then period, ascending.

        Root x of exponent k is here exactly when x^k is a factor of the
        word but not of the word without its last letter; x^k is then a
        suffix, so x is too.
        """
        return self._added[-1]

    def periods(self, k: int):
        return self._by_period[k].keys()

    def roots(self, k: int) -> set[bytes]:
        return self._roots[k]

    def roots_of_period(self, k: int, g: int):
        return self._by_period[k].get(g, ())


class _Engine:
    def __init__(self, w, f: Formula, cap: int, budget: int | None, first_only: bool, powers=None):
        self.first_only = first_only
        self.w: bytes = w.encode("ascii") if isinstance(w, str) else bytes(w)
        self.n = len(self.w)
        self.frags = _compiled(f)
        self.nvars = f.variable_count
        self.budget = budget if budget is not None else DEFAULT_STEP_BUDGET
        self.steps = 0
        self.results: set[tuple[bytes, ...]] = set()
        self._power_index: dict[int, dict[int, list[int]] | None] = {}
        self.word = WordPowers(self.w)
        self.powers = self.word if powers is None else powers
        # per-variable cap: other occurrences in a fragment need >= 1 letter each
        caps = [cap] * self.nvars
        for frag in self.frags:
            for v, cnt, others in frag.counts:
                caps[v] = min(caps[v], (self.n - others) // cnt)
        self.caps = caps
        self._lengths: list[frozenset[int] | None] | None = None

    def _step(self, k: int = 1) -> None:
        self.steps += k
        if self.steps > self.budget:
            raise ResourceBudgetError(
                "occurrence search exceeded its step budget (partial results attached)",
                partial=self.decoded_results(),
            )

    def _powers(self, k: int) -> dict[int, list[int]] | None:
        """pos -> periods g such that w[pos:pos+k*g] is a k-power; None if too big."""
        if k in self._power_index:
            return self._power_index[k]
        index: dict[int, list[int]] = {}
        pairs = 0
        for g, runs in self.word.runs(k - 1, 0).items():
            for s, run in runs:
                span = run - (k - 1) * g
                pairs += span + 1
                if pairs > _POWER_INDEX_MAX:
                    self._power_index[k] = None
                    return None
                for i in range(s, s + span + 1):
                    index.setdefault(i, []).append(g)
        index = self._power_index[k] = dict(sorted(index.items()))
        return index

    def lengths(self, v: int) -> frozenset[int] | None:
        """Allowed image lengths for variable v, from its adjacent runs.

        If v occurs as an adjacent k-run in some fragment, its image x must
        satisfy x^k in Fact(w), so |x| is restricted to k-power periods.
        None means unconstrained.
        """
        if self._lengths is None:
            sets: list[frozenset[int] | None] = [None] * self.nvars
            for frag in self.frags:
                for u, k in _adjacent_runs(frag):
                    allowed = self.powers.periods(k)
                    sets[u] = allowed if sets[u] is None else sets[u] & allowed
            self._lengths = sets
        return self._lengths[v]

    def _length_candidates(self, v: int, lo: int, hi: int):
        allowed = self.lengths(v)
        if allowed is None:
            return range(lo, hi + 1)
        return [g for g in sorted(allowed) if lo <= g <= hi]

    def _assigned_fragment_ok(self, frag: _Frag, assign) -> bool:
        """Membership of a fully-assigned fragment image, using power-root sets
        to avoid repeated full-text scans for x^k-shaped images."""
        self._step()
        if frag.root is not None:
            block, k = frag.root
            return b"".join(assign[v] for v in block) in self.powers.roots(k)
        img = b"".join(assign[v] for v in frag.occs)
        return self.w.find(img) >= 0

    # -- fragment matchers ------------------------------------------------

    def _rest_min(self, occs, j, assign) -> int:
        return sum(1 if assign[v] is None else len(assign[v]) for v in occs[j:])

    def _match_at(self, frag: _Frag, j: int, pos: int, assign):
        """Match occurrences j.. of the fragment starting at pos; yields assigns.

        An unassigned variable's image length comes, in order of preference,
        from the k-powers starting at pos when it opens an adjacent k-run;
        from the squares starting at pos when it opens a doubled block
        (``_Frag.doubled``), each square's first half split over the block
        by ``_match_exact``; from the later occurrences of the next image
        when that one is known; and otherwise from every allowed length. The
        first two read the position index ``_powers(k)``, and fall back to
        the last two when it is too big.
        """
        self._step()
        occs = frag.occs
        if j == len(occs):
            yield assign
            return
        w = self.w
        v = occs[j]
        img = assign[v]
        if img is not None:
            L = len(img)
            if w[pos : pos + L] == img:
                yield from self._match_at(frag, j + 1, pos + L, assign)
            return
        k = frag.runlen[j]
        rest = self._rest_min(occs, j + k, assign)
        maxlen = min(self.caps[v], (self.n - pos - rest) // k)
        if maxlen < 1:
            return
        if k >= 2:
            index = self._powers(k)
            if index is not None:
                for g in index.get(pos, ()):
                    if g > maxlen:
                        break
                    assign2 = list(assign)
                    assign2[v] = w[pos : pos + g]
                    yield from self._match_at(frag, j + k, pos + k * g, assign2)
                return
        b = frag.doubled[j]
        index = self._powers(2) if b else None
        if index is not None:
            # the block's image is the first half of a square at pos
            hi = (self.n - pos - self._rest_min(occs, j + 2 * b, assign)) // 2
            for G in index.get(pos, ()):
                if G > hi:
                    break
                for assign2 in self._match_exact(occs[j : j + b], 0, pos, pos + G, assign, w):
                    yield from self._match_at(frag, j + 2 * b, pos + 2 * G, assign2)
            return
        if k == 1 and j + 1 < len(occs) and assign[occs[j + 1]] is not None:
            # jump straight to the occurrences of the known following image
            nxt = assign[occs[j + 1]]
            allowed = self.lengths(v)
            t = w.find(nxt, pos + 1)
            while t != -1 and t - pos <= maxlen:
                self._step()
                if allowed is None or t - pos in allowed:
                    assign2 = list(assign)
                    assign2[v] = w[pos:t]
                    yield from self._match_at(frag, j + 1, t, assign2)
                t = w.find(nxt, t + 1)
            return
        for L in self._length_candidates(v, 1, maxlen):
            self._step()
            if k >= 2 and w[pos : pos + (k - 1) * L] != w[pos + L : pos + k * L]:
                continue
            assign2 = list(assign)
            assign2[v] = w[pos : pos + L]
            yield from self._match_at(frag, j + k, pos + k * L, assign2)

    def _match_exact(self, occs, j: int, pos: int, end: int, assign, w: bytes):
        """Match occurrences j.. exactly filling w[pos:end]."""
        self._step()
        while j < len(occs) and assign[occs[j]] is not None:
            img = assign[occs[j]]
            if not w.startswith(img, pos, end):
                return
            j, pos = j + 1, pos + len(img)
        if j == len(occs):
            if pos == end:
                yield assign
            return
        v = occs[j]
        known = [len(assign[u]) for u in occs[j + 1 :] if assign[u] is not None]
        free = len(occs) - j - 1 - len(known)
        left = end - pos - free - sum(known)
        if free:
            lengths = self._length_candidates(v, 1, min(self.caps[v], left))
        else:
            # with every later image known, v's image fills exactly what they leave
            allowed = self.lengths(v)
            fits = 1 <= left <= self.caps[v] and (allowed is None or left in allowed)
            lengths = (left,) if fits else ()
        for L in lengths:
            assign2 = list(assign)
            assign2[v] = w[pos : pos + L]
            yield from self._match_exact(occs, j + 1, pos + L, end, assign2, w)

    def _position_matches(self, frag: _Frag, assign):
        """Matches from each start: a known head's ``find`` hits; in a search for
        all occurrences, with a pivot (``_Frag.pivot``), each k-power start i,
        forward from the pivot and back from i; else, or if refused, each start."""
        total_min = self._rest_min(frag.occs, 0, assign)
        img = assign[frag.occs[0]]
        if img is not None:
            # jump between occurrences of the known leading image
            pos = self.w.find(img)
            while 0 <= pos <= self.n - total_min:
                yield from self._match_at(frag, 0, pos, assign)
                pos = self.w.find(img, pos + 1)
            return
        # a first-only search keeps every start: check reports its first find
        index = self._powers(frag.runlen[frag.pivot]) if frag.pivot and not self.first_only else None
        if index is not None:
            for i in index:
                for assign2 in self._match_at(frag, frag.pivot, i, assign):
                    yield from self._anchored(frag, frag.pivot - 1, i, assign2)
            return
        for pos in range(self.n - total_min + 1):
            yield from self._match_at(frag, 0, pos, assign)

    def _block_matches(self, frag: _Frag, assign, roots=None):
        """Images of the fragment's block, each a split of a factor a root or a run covers.

        A root block (``_Frag.root``) of exponent k splits the given roots of
        exponent k, shortest first, else the word's roots whose length the
        block can take. A periodic block with a tail, (x_1...x_d)^q x_1...x_r,
        splits the first G letters of each run of period G at least
        (q - 1) G + r long, where the run leaves room for the tail. Candidates
        come by period, then position, then split, and each image once.
        """
        block = frag.occs[: frag.d] if frag.root is None else frag.root[0]
        lo = hi = 0
        for v in block:
            img = assign[v]
            lo += 1 if img is None else len(img)
            hi += self.caps[v] if img is None else len(img)
        seen = set()
        if frag.root is None:
            q, r = frag.q, frag.r
            for G, runs in self.word.runs(q - 1, r).items():
                if G > hi:
                    break
                for s, run in runs if G >= lo else ():
                    for i in range(s, s + min(G, run - (q - 1) * G - r + 1)):
                        room = s + run + G - i - q * G
                        for assign2 in self._match_exact(block, 0, i, i + G, assign, self.w):
                            images = tuple(assign2[v] for v in block)
                            if sum(map(len, images[:r])) <= room and images not in seen:
                                seen.add(images)
                                yield assign2
            return
        k = frag.root[1]
        if roots is None:
            powers = self.powers
            by_period = ((g, powers.roots_of_period(k, g)) for g in sorted(powers.periods(k)))
        else:
            by_period = ((len(x), (x,)) for x in roots)
        v = block[0] if len(block) == 1 else None
        allowed = None if v is None else self.lengths(v)
        for g, group in by_period:
            if g > hi:
                break
            if g < lo or (allowed is not None and g not in allowed):
                continue
            for x in group:
                self._step()
                if x in seen:
                    continue
                seen.add(x)
                if v is None:
                    yield from self._match_exact(block, 0, 0, g, assign, x)
                else:
                    assign2 = list(assign)
                    assign2[v] = x
                    yield assign2

    def _frag_matches(self, frag: _Frag, assign):
        unassigned = sum(1 for v in frag.var_ids if assign[v] is None)
        if not unassigned:
            if self._assigned_fragment_ok(frag, assign):
                yield assign
        elif frag.root is not None or (frag.r and unassigned == len(frag.var_ids)):
            yield from self._block_matches(frag, assign)
        else:
            yield from self._position_matches(frag, assign)

    # -- joint solving ----------------------------------------------------

    def _pick(self, remaining, assign) -> int:
        def key(fi):
            frag = self.frags[fi]
            unassigned = sum(1 for v in frag.var_ids if assign[v] is None)
            if unassigned == 0:
                return (0, 0, 0)  # cheap verification, do first
            # a root block with a variable pinned joins the pinned images
            # with the roots, the fewest candidates
            if frag.root is not None and unassigned < len(frag.var_ids):
                return (1, unassigned, -len(frag.occs))
            # run-based enumeration only applies with no variable pinned yet;
            # prefer it, and prefer pinning many variables at once
            if (frag.root is not None or frag.r) and unassigned == len(frag.var_ids):
                return (2, -unassigned, -len(frag.occs))
            # one the power index drives before one tried at every length
            driven = max(frag.runlen) >= 2 or any(frag.doubled)
            return (3, not driven, unassigned, -len(frag.occs))

        return min(remaining, key=key)

    def _join(self, group, assign):
        """Extensions of assign over a group of fragments, one at a time."""
        if not group:
            yield assign
            return
        fi = self._pick(group, assign)
        rest = [x for x in group if x != fi]
        for assign2 in self._frag_matches(self.frags[fi], assign):
            yield from self._join(rest, assign2)

    def solve(self, remaining, assign) -> None:
        """Add the occurrences extending assign: a lone group's (``_Frag.group``)
        as found; else each group's solutions (the first for ``first_only``), an
        empty group ending the search, then their product, a step per occurrence."""
        groups: dict[int, list[int]] = {}
        for fi in remaining:
            groups.setdefault(self.frags[fi].group, []).append(fi)
        take = 1 if self.first_only else None
        if len(groups) <= 1:  # streamed, so an overrun keeps what was found
            self.results.update(map(tuple, islice(self._join(remaining, assign), take)))
            return
        solutions = []
        for group in groups.values():
            solutions.append(list(islice(self._join(group, assign), take)))
            if not solutions[-1]:
                return
        # b"" for the images a group leaves to the others: max takes the one set
        parts = [[tuple(x or b"" for x in a) for a in found] for found in solutions]
        base = tuple(x or b"" for x in assign)
        occurrences = (tuple(map(max, base, *combo)) for combo in product(*parts))
        # add what the budget pays for, then charge them all
        self.results.update(islice(occurrences, self.budget - self.steps))
        self._step(prod(map(len, solutions)))

    def _anchored(self, frag: _Frag, j: int, end: int, assign):
        """Match occurrences ..j of the fragment so its image ends at ``end``."""
        self._step()
        if j < 0:
            yield assign
            return
        w = self.w
        v = frag.occs[j]
        img = assign[v]
        if img is not None:
            L = len(img)
            if end >= L and w[end - L : end] == img:
                yield from self._anchored(frag, j - 1, end - L, assign)
            return
        rest = self._rest_min(frag.occs[:j], 0, assign)
        maxlen = min(self.caps[v], end - rest)
        for L in self._length_candidates(v, 1, maxlen):
            assign2 = list(assign)
            assign2[v] = w[end - L : end]
            yield from self._anchored(frag, j - 1, end - L, assign2)

    def solve_anchored(self, delta) -> None:
        """Occurrences in which some fragment is anchored at the last letter.

        ``delta`` lists the (k, root) pairs the last letter added. A new
        occurrence has a fragment whose image is a new factor, hence a
        suffix. So each fragment is seeded by its own shape: a root block
        (image X^k) from the new roots of exponent k, as X^k is new exactly
        when X is, and any other fragment from images ending at the last
        letter. Every occurrence that w[:-1] lacks is found.
        """
        for fi, frag in enumerate(self.frags):
            rest = [x for x in range(len(self.frags)) if x != fi]
            if frag.root is None:
                seeds = self._anchored(frag, len(frag.occs) - 1, self.n, [None] * self.nvars)
            else:
                roots = [x for k, x in delta if k == frag.root[1]]
                seeds = self._block_matches(frag, [None] * self.nvars, roots)
            for assign in seeds:
                self.solve(rest, assign)
                if self.first_only and self.results:
                    return

    def decoded_results(self) -> set[tuple[str, ...]]:
        return {tuple(map(bytes.decode, t)) for t in self.results}


def _guard_variables(f: Formula) -> None:
    if f.variable_count > MAX_PATTERN_VARIABLES:
        raise DomainError(
            f"formula has {f.variable_count} variables (> {MAX_PATTERN_VARIABLES}); "
            "use find_sq_t or a localizer reduction for wide square patterns"
        )


def find_occurrences(w: str, f: Formula, cap: int, step_budget: int | None = None) -> set[tuple[str, ...]]:
    """All assignments (image tuple per variable, A first) with images of length <= cap."""
    _guard_variables(f)
    if cap < 1:
        raise DomainError("image length cap must be >= 1")
    eng = _Engine(w, f, cap, step_budget, first_only=False)
    eng.solve(list(range(len(eng.frags))), [None] * eng.nvars)
    return eng.decoded_results()


def first_occurrence(w: str, f: Formula, step_budget: int | None = None) -> tuple[str, ...] | None:
    """The first occurrence of f that the search meets in w, or None if w avoids f.

    A group without a solution ends the search: ``AA.BCB`` on the 200-letter
    012/02/1 prefix takes 0 steps (771 045 when BCB was split first). It
    takes no pivot: ``check`` reports the answer, found from each start, as its witness.
    """
    _guard_variables(f)
    if len(w) == 0:
        return None
    eng = _Engine(w, f, len(w), step_budget, first_only=True)
    eng.solve(list(range(len(eng.frags))), [None] * eng.nvars)
    return next(iter(eng.decoded_results()), None)


def has_occurrence(w: str, f: Formula, step_budget: int | None = None) -> bool:
    return first_occurrence(w, f, step_budget) is not None


def avoids(w: str, f: Formula, step_budget: int | None = None) -> bool:
    """True iff w contains no occurrence of f (image lengths implicitly <= |w|)."""
    return not has_occurrence(w, f, step_budget)


def _root_delta(w: bytes, ks, powers: PowerStack | None) -> list[tuple[int, bytes]]:
    """(k, x) for each k in ks and each root x with x^k a factor of w, not of w[:-1].

    Read off ``powers`` when given; otherwise each such x^k is a suffix of w
    whose first occurrence is at the end.
    """
    if powers is not None:
        return [(k, x) for k, x in powers.added() if k in ks]
    n = len(w)
    delta = []
    for k in sorted(ks):
        for g in range(1, n // k + 1):
            if w[n - 1 - g] == w[n - 1] and w[n - k * g : n - g] == w[n - (k - 1) * g :]:
                if w.find(w[n - k * g :]) == n - k * g:
                    delta.append((k, w[n - g :]))
    return delta


def _anchored_engine(w, f: Formula, step_budget, powers: PowerStack | None, first_only: bool):
    """The engine after its anchored search, or None when no occurrence can be new.

    Root-block fragments are seeded from the roots the last letter added; a
    formula of root-block fragments only has no new occurrence without one.
    """
    _guard_variables(f)
    if powers is not None and powers.n != len(w):
        raise DomainError(f"power index covers {powers.n} letters, the word has {len(w)}")
    if len(w) == 0:
        return None
    w = w.encode("ascii") if isinstance(w, str) else bytes(w)
    roots = [frag.root for frag in _compiled(f) if frag.root is not None]
    delta = _root_delta(w, {k for _, k in roots}, powers) if roots else []
    if not delta and len(roots) == len(f.fragments):
        return None
    eng = _Engine(w, f, len(w), step_budget, first_only, powers)
    eng.solve_anchored(delta)
    return eng


def new_occurrence_exists(
    w, f: Formula, step_budget: int | None = None, powers: PowerStack | None = None
) -> bool:
    """True if w has an occurrence of f that w[:-1] has not; False if w has none.

    So when ``w[:-1]`` avoids ``f``, this decides whether ``w`` does. The DFS
    calls it for the formulas that are not repetition shapes, which it
    decides on its suffix-run counters (``repetition_shape``). Each fragment
    that is a power, a doubled block or an r = 0 periodic block is seeded
    from the roots of its exponent that the last letter added, and any other
    from its images ending at the last letter; a formula made only of the
    former is False with no search when no root is new. ``powers``, if
    given, is a ``PowerStack`` over ``w`` tracking
    ``anchored_power_exponents(f)``; it replaces the whole-word scan and
    supplies those roots.
    """
    eng = _anchored_engine(w, f, step_budget, powers, first_only=True)
    return eng is not None and bool(eng.results)


def new_assignments(
    w, f: Formula, step_budget: int | None = None, powers: PowerStack | None = None
) -> set[tuple[str, ...]]:
    """Occurrences of f in w, including every one that w[:-1] has not.

    The search of ``new_occurrence_exists``, each fragment seeded by its own
    shape, run to the end. Every reported assignment is an occurrence in w;
    besides the new ones it may report some that w[:-1] has too, so the DFS
    counts the ``max-occurrences`` formula by adding them to the set it
    keeps. ``powers`` is as for ``new_occurrence_exists``.
    """
    eng = _anchored_engine(w, f, step_budget, powers, first_only=False)
    return set() if eng is None else eng.decoded_results()
