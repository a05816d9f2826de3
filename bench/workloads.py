"""The benchmark's workloads: seeded inputs, the library calls timed per item,
and a correctness gate per item that runs outside the timed region.

The seed never reaches the library as a parameter; it only shapes the inputs.
Letters are relabelled by a seeded permutation, which maps every search tree
and every repetition onto an isomorphic one, so the work per item is the same
for every seed while the words themselves differ.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import known
import wordlab.characterize as characterize
from wordlab import (
    check,
    count_by_length,
    distinct_min_overlaps,
    distinct_squares,
    extendable_set,
    find_occurrences,
    find_sq_t,
    is_exponent_free,
    load_constraints,
    load_manifest,
    longest_word_search,
    max_exponent,
    parse_constraints,
    parse_formula,
    verify_characterization,
)
from wordlab.constraints import ConstraintSet
from wordlab.formulas import has_occurrence
from wordlab.graphs import LabelledGraph
from wordlab.morphisms import Morphism

def plain_lib() -> SimpleNamespace:
    """The library calls the benchmark makes itself (wrapped when traced)."""
    return SimpleNamespace(
        verify_characterization=verify_characterization,
        extendable_set=extendable_set,
        longest_word_search=longest_word_search,
        count_by_length=count_by_length,
        distinct_squares=distinct_squares,
        distinct_min_overlaps=distinct_min_overlaps,
        max_exponent=max_exponent,
        is_exponent_free=is_exponent_free,
        find_sq_t=find_sq_t,
        find_occurrences=find_occurrences,
        has_occurrence=has_occurrence,
        check=check,
    )


@dataclass
class Item:
    id: str
    family: str
    call: Callable  # call(lib) -> output; the only timed code
    gate: Callable  # gate(output) -> None if correct, else what is wrong


@dataclass
class Workload:
    items: list[Item]
    # Item times are multiplied by reference.scale(...) ** scale_exponent.
    scale_exponent: float


# The pure-Python workloads (dfs, short-words) also slow somewhat less than
# the reference task under contention. Over twenty runs each, timings scaled
# by the factor's 3/4 power varied least between runs: for dfs a wall_s spread
# of 0.03-0.05 against 0.06 fully scaled and 0.13-0.28 unscaled.
PURE_PYTHON_SCALE_EXPONENT = 0.75


# ---------------------------------------------------------------------------
# relabelling


def _perm(rng: random.Random, k: int) -> str:
    letters = list(known.DIGITS[:k])
    rng.shuffle(letters)
    return "".join(letters)


def _relabel_words(words, table):
    return None if words is None else frozenset(u.translate(table) for u in words)


def relabel_constraints(c: ConstraintSet, perm: str) -> ConstraintSet:
    t = known.relabel_table(perm)
    graph = None
    if c.graph is not None:
        edges = [(int(perm[x]), int(perm[y])) for x, y in c.graph.edges]
        graph = LabelledGraph(c.graph.vertex_count, frozenset((min(e), max(e)) for e in edges))
    return replace(
        c,
        forbidden_factors=_relabel_words(c.forbidden_factors, t),
        allowed_squares=_relabel_words(c.allowed_squares, t),
        allowed_overlaps=_relabel_words(c.allowed_overlaps, t),
        graph=graph,
    )


def relabel_manifest(m, perm: str, prefix_length: int):
    """The same theorem about the relabelled target word, at another prefix length."""
    t = known.relabel_table(perm)
    if m.outer is None:
        outer = Morphism(tuple(perm[: m.inner.alphabet_size]))
    else:
        outer = Morphism(tuple(img.translate(t) for img in m.outer.images))
    occ = m.expect_occurrences
    return replace(
        m,
        constraints=relabel_constraints(m.constraints, perm),
        outer=outer,
        prefix_length=prefix_length,
        expect_squares=_relabel_words(m.expect_squares, t),
        expect_overlaps=_relabel_words(m.expect_overlaps, t),
        localizers=tuple(replace(loc, word=loc.word.translate(t)) for loc in m.localizers),
        code_pieces=None if m.code_pieces is None else tuple(p.translate(t) for p in m.code_pieces),
        expect_occurrences=None if occ is None else (occ[0], occ[1], _relabel_words(occ[2], t)),
    )


def _target(m, perm: str, n: int) -> str:
    """Independent prefix of the relabelled target word."""
    outer = None if m.outer is None else m.outer.images
    return known.morphic_word(m.inner.images, outer, n).translate(known.relabel_table(perm))


# ---------------------------------------------------------------------------
# verify-long: characterization verdicts on long prefixes

# Prefix bands: long enough that the scanners and check take most of each
# item, short enough that three passes fit in one run, and chosen so the four
# items cost about the same, which keeps their percentiles off the gaps
# between items. pd-currie's batch formula check grows faster than
# quadratically, so it runs at a much shorter prefix.
VERIFY_LONG = (
    ("g4-four-squares", 15_300, 15_700),
    ("g5-five-squares", 15_800, 16_200),
    ("h12-twelve-squares", 12_200, 12_600),
    ("pd-currie", 2_400, 2_500),
)


def build_verify_long(manifest_dir: str, rng: random.Random) -> Workload:
    items = []
    for name, lo, hi in VERIFY_LONG:
        m = load_manifest(os.path.join(manifest_dir, name))
        perm = _perm(rng, m.constraints.alphabet_size)
        n = rng.randint(lo, hi)
        mm = relabel_manifest(m, perm, n)

        def call(lib, mm=mm):
            # keep the extendable set the verifier computes, for the gate
            inner, kept = characterize.extendable_set, []

            def keep(*args, **kwargs):
                kept.append(inner(*args, **kwargs))
                return kept[-1]

            characterize.extendable_set = keep
            try:
                report = lib.verify_characterization(mm)
            finally:
                characterize.extendable_set = inner
            return report, kept[-1] if kept else None

        def gate(out, m=m, perm=perm, n=n):
            report, ext = out
            if not report.passed:
                return "FAIL: " + "; ".join(r.name for r in report.results if not r.passed)
            if ext != known.factor_set(_target(m, perm, n), m.check_length):
                return "extendable set differs from the prefix's factor set"
            return None

        items.append(Item(f"verify:{name}@{n}", "verify", call, gate))
    # The reference task slows more than these numpy-heavy items when the host
    # is contended: over eight passes it ranged 1.8x where they ranged 1.4-1.6x.
    # The square root of its ratio gave the least per-item variation: 0.10,
    # against 0.17 unscaled and 0.14 fully scaled.
    return Workload(items, scale_exponent=0.5)


# ---------------------------------------------------------------------------
# dfs: fixed search problems, one or more per constraint family

# (family, constraint file, manifest whose target prefix cross-checks the set,
#  check length = horizon, whether the set equals the prefix factors there).
# With the three search items below there are 15 items, an odd count, so the
# median item time falls inside one item's samples, not between two items.
EXTENDABLE = (
    ("local", "g4", "g4-four-squares", 30, True),
    ("local", "g5", "g5-five-squares", 30, True),
    ("local", "h12", "h12-twelve-squares", 30, True),
    ("local", "k5", "k5-p5-walk", 20, True),
    ("local", "k3", "k3-p3star-walk", 20, True),
    ("local", "c-sq3f", "c-abba-thrifty", 20, True),
    ("formula", "b3", "b3", 20, True),
    ("formula", "b5", "b5", 20, True),
    ("formula", "p", "p", 20, True),
    ("formula", "fib", "fib", 20, True),
    ("formula", "pd-currie", "pd-currie", 20, True),
    # pd-new costs 6 s at its manifest's length 20; at 12 its set only contains the factors
    ("formula", "pd-new", "pd-new", 12, False),
)
SQ11_LENGTH = 200  # below the pinned exhaustion length, so the search reaches it
WALK_LENGTH = 1000
THRIFTY_LENGTH = 12
WALK_CONSTRAINTS = "alphabet 4\ngraph C4\nexponent-cap 5/3 strict\n"


def _extendable_item(manifest_dir, rng, family, cons, manifest, length, equal) -> Item:
    c = load_constraints(os.path.join(manifest_dir, cons + ".cons"))
    perm = _perm(rng, c.alphabet_size)
    cc = relabel_constraints(c, perm)
    m = load_manifest(os.path.join(manifest_dir, manifest))
    expected_size = known.FROZEN_EXTENDABLE_SIZES[cons]
    factors: list = []  # computed once, on the first gate

    def call(lib):
        return lib.extendable_set(cc, length, length)

    def gate(ext):
        if len(ext) != expected_size:
            return f"|S^{length}| = {len(ext)}, frozen {expected_size}"
        if not factors:
            factors.append(known.factor_set(_target(m, perm, m.resolved_prefix()), length))
        if (ext != factors[0]) if equal else not ext >= factors[0]:
            return "extendable set disagrees with the target prefix's factors"
        return None

    return Item(f"{family}:{cons}@{length}", family, call, gate)


def _sq11_item(manifest_dir, rng) -> Item:
    c = load_constraints(os.path.join(manifest_dir, "sq11-ov2.cons"))
    perm = _perm(rng, 2)
    cc = relabel_constraints(c, perm)
    order = [int(x) for x in perm]
    allowed = cc.allowed_overlaps

    def call(lib):
        return lib.longest_word_search(cc, SQ11_LENGTH, letter_order=order)

    def gate(out):
        # reaching the budget is only consistent with exhaustion at 213 below it
        if SQ11_LENGTH > known.SQ11_EXHAUSTION_LENGTH or (out.kind, out.max_length, out.tree_nodes) != (
            "reached_budget", SQ11_LENGTH, known.FROZEN_SQ11_NODES
        ):
            return f"{out.kind} at {out.max_length} after {out.tree_nodes} nodes"
        w = out.witness
        overlaps = known.min_overlaps_first_end(w)
        if len(w) != SQ11_LENGTH:
            return f"witness has {len(w)} letters"
        if len(known.squares_first_end(w)) > 11:
            return "witness has more than 11 distinct squares"
        if len(overlaps) > 2 or not set(overlaps) <= allowed:
            return "witness has overlaps outside the allowed two"
        return None

    return Item(f"count:sq11-ov2@{SQ11_LENGTH}", "count", call, gate)


def _walk_item(rng) -> Item:
    perm = _perm(rng, 4)
    c = relabel_constraints(parse_constraints(WALK_CONSTRAINTS), perm)
    order = [int(x) for x in perm]
    edges = {(int(perm[x]), int(perm[y])) for x in range(4) for y in range(4) if (x - y) % 4 in (1, 3)}
    checked: dict[str, bool] = {}

    def call(lib):
        return lib.longest_word_search(c, WALK_LENGTH, letter_order=order)

    def gate(out):
        if (out.kind, out.max_length, out.tree_nodes) != (
            "reached_budget", WALK_LENGTH, known.FROZEN_WALK_NODES
        ):
            return f"{out.kind} at {out.max_length} after {out.tree_nodes} nodes"
        w = out.witness
        if w not in checked:
            checked[w] = all((int(x), int(y)) in edges for x, y in zip(w, w[1:])) and (
                known.exponent_at_most(w, Fraction(5, 3))
            )
        return None if checked[w] else "witness is not a 5/3+-free walk on C4"

    return Item(f"walk:C4@{WALK_LENGTH}", "walk", call, gate)


def _thrifty_item(manifest_dir) -> Item:
    c = load_constraints(os.path.join(manifest_dir, "thrifty.cons"))

    def call(lib):
        return lib.count_by_length(c, THRIFTY_LENGTH)

    def gate(counts):
        return None if tuple(counts) == known.FROZEN_THRIFTY_COUNTS else f"counts {counts}"

    return Item(f"occurrence:thrifty@{THRIFTY_LENGTH}", "occurrence", call, gate)


def build_dfs(manifest_dir: str, rng: random.Random) -> Workload:
    items = [_extendable_item(manifest_dir, rng, *spec) for spec in EXTENDABLE]
    items += [_sq11_item(manifest_dir, rng), _walk_item(rng), _thrifty_item(manifest_dir)]
    rng.shuffle(items)
    return Workload(items, scale_exponent=PURE_PYTHON_SCALE_EXPONENT)


# ---------------------------------------------------------------------------
# short-words: many small inputs through the same scanners

SHORT_WORDS = 1000
LONG_WORDS = 50  # the minority above the scanners' vectorisation threshold
OCC_FORMULAS = ("AA", "ABBA", "AA.BB", "ABAB")
OCC_CAP = 6
SQ_T = 3
EXPONENT = Fraction(5, 2)  # is_exponent_free(w, 5/2, strict)
CHECK_MIN_PERIOD, CHECK_SQUARES, CHECK_OVERLAPS, CHECK_CAP = 5, 8, 3, Fraction(3)
CHECK_CONSTRAINTS = (
    f"alphabet 3\nforbid-squares-min-period {CHECK_MIN_PERIOD}\nmax-distinct-squares {CHECK_SQUARES}\n"
    f"max-distinct-overlaps {CHECK_OVERLAPS}\nexponent-cap {CHECK_CAP} weak\n"
)


SHORT_WORD_OUTPUTS = ("squares", "overlaps", "max_exponent", "exponent_free", "find_sq_t",
                      "occurrences", "has_occurrence", "check")


def _short_word_item(index: int, w: str, formulas, c) -> Item:
    # Only a digest of the oracle's answer is kept between passes: the answers
    # of a whole batch would otherwise dominate the process's peak memory.
    digest: list = []  # computed once, on the first gate

    def call(lib):
        v = lib.check(w, c)
        return (
            lib.distinct_squares(w),
            lib.distinct_min_overlaps(w),
            lib.max_exponent(w),
            lib.is_exponent_free(w, EXPONENT, True),
            lib.find_sq_t(w, SQ_T),
            tuple(lib.find_occurrences(w, f, OCC_CAP) for f in formulas),
            tuple(lib.has_occurrence(w, f) for f in formulas),
            None if v is None else (v.kind, v.start, v.end, v.witness),
        )

    def gate(out):
        got = list(out)
        e, rep = got[2]
        got[2] = (e, rep.start, rep.period)
        got[3] = None if got[3] is None else (got[3].start, got[3].period, got[3].length)
        got[4] = None if got[4] is None else (got[4].start, got[4].period)
        if not digest:
            digest.append(answer_digest(known_short_word_answer(w)))
        if answer_digest(tuple(got)) == digest[0]:
            return None
        for name, g, k in zip(SHORT_WORD_OUTPUTS, got, known_short_word_answer(w)):
            if g != k:
                return f"{name} of {w}: {g!r} != {k!r}"
        return f"outputs of {w} differ from the oracle's in type"

    return Item(f"word:{index}:{len(w)}", "short", call, gate)


def answer_digest(answer) -> bytes:
    """Fingerprint of a short-word answer; sets enter in sorted order."""

    def canonical(x):
        if isinstance(x, (set, frozenset)):
            return ("set", sorted(canonical(y) for y in x))
        if isinstance(x, tuple):
            return tuple(canonical(y) for y in x)
        return x

    return hashlib.sha256(repr(canonical(answer)).encode()).digest()


def known_short_word_answer(w: str) -> tuple:
    return (
        set(known.squares_first_end(w)),
        set(known.min_overlaps_first_end(w)),
        known.max_exponent(w),
        known.first_exponent_violation(w, EXPONENT, True),
        known.leftmost_square_from(w, SQ_T),
        tuple(known.occurrences(w, f, OCC_CAP) for f in OCC_FORMULAS),
        tuple(known.has_occurrence(w, f) for f in OCC_FORMULAS),
        known.first_violation(w, CHECK_MIN_PERIOD, CHECK_SQUARES, CHECK_OVERLAPS, CHECK_CAP, False),
    )


def short_word_batch(rng: random.Random, short: int, long: int) -> list[str]:
    """Random binary and ternary words. The lengths are spread evenly over each
    band, so only the letters (and the order) depend on the seed."""
    lengths = [2 + i % 63 for i in range(short)] + [96 + i * 105 // long for i in range(long)]
    rng.shuffle(lengths)
    return [
        "".join(rng.choice("01" if i % 2 else "012") for _ in range(n))
        for i, n in enumerate(lengths)
    ]


def build_short_words(rng: random.Random, short: int = SHORT_WORDS, long: int = LONG_WORDS) -> Workload:
    formulas = tuple(parse_formula(f) for f in OCC_FORMULAS)
    c = parse_constraints(CHECK_CONSTRAINTS)
    words = short_word_batch(rng, short, long)
    items = [_short_word_item(i, w, formulas, c) for i, w in enumerate(words)]
    return Workload(items, scale_exponent=PURE_PYTHON_SCALE_EXPONENT)


def build(workload: str, seed: int, manifest_dir: str) -> Workload:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-long":
        return build_verify_long(manifest_dir, rng)
    if workload == "dfs":
        return build_dfs(manifest_dir, rng)
    if workload == "short-words":
        return build_short_words(rng)
    raise ValueError(f"unknown workload {workload!r}")
