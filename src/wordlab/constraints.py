"""Declarative avoidance constraint sets, file format, and whole-word checking.

Constraint files are directive files (``read_directives``, whose grammar
theorem manifests share): ``alphabet 2``, ``forbid-factor 010``,
``forbid-formula AA.ABAB.BB``, ``forbid-squares-min-period 4``,
``allow-squares 00 11``, ``allow-overlaps 01010``, ``max-distinct-squares 11``,
``max-distinct-overlaps 2``, ``max-occurrences ABBA 8``,
``exponent-cap 5/3 strict``, ``graph P5`` / ``graph-edges 0-1 1-2 2-2``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import AlphabetError, DomainError, ParseError
from .formulas import (
    MAX_PATTERN_VARIABLES,
    Formula,
    find_occurrences,
    first_occurrence,
    format_assignment,
    fragment_images,
    has_occurrence,
    parse_formula,
)
from .graphs import LabelledGraph, builtin_graph, graph_from_edges
from .repetitions import _violation_length, first_windows, long_runs, square_runs
from .words import validate_word

_KIND_PRIORITY = {
    "factor": 0,
    "graph": 1,
    "square-period": 2,
    "square-not-allowed": 3,
    "square-count": 4,
    "overlap-not-allowed": 5,
    "overlap-count": 6,
    "exponent": 7,
    "formula": 8,
    "occurrence-budget": 9,
}


def _is_square(u: str) -> bool:
    half = len(u) // 2
    return len(u) >= 2 and len(u) % 2 == 0 and u[:half] == u[half:]


def _is_min_overlap(u: str) -> bool:
    if len(u) < 3 or len(u) % 2 == 0:
        return False
    p = (len(u) - 1) // 2
    return u[: p + 1] == u[p:]


@dataclass(frozen=True)
class ConstraintSet:
    alphabet_size: int
    forbidden_factors: frozenset[str] = frozenset()
    forbidden_formulas: tuple[Formula, ...] = ()
    sq_min_period: int | None = None
    allowed_squares: frozenset[str] | None = None
    allowed_overlaps: frozenset[str] | None = None
    max_square_count: int | None = None
    max_overlap_count: int | None = None
    occurrence_budget: tuple[Formula, int] | None = None
    exponent_cap: tuple[Fraction, bool] | None = None  # (cap, strict)
    graph: LabelledGraph | None = None

    def __post_init__(self):
        if not 1 <= self.alphabet_size <= 10:
            raise AlphabetError(f"alphabet size must be 1..10, got {self.alphabet_size}")
        for fct in self.forbidden_factors:
            if not fct:
                raise ParseError("forbidden factor must be non-empty")
            validate_word(fct, self.alphabet_size)
        for f in self.forbidden_formulas:
            if f.variable_count > MAX_PATTERN_VARIABLES:
                raise DomainError(
                    f"formula {f} has too many variables; use forbid-squares-min-period "
                    "or a localizer reduction instead"
                )
        if self.sq_min_period is not None and self.sq_min_period < 1:
            raise DomainError("square period threshold must be >= 1")
        if self.allowed_squares is not None:
            for u in self.allowed_squares:
                validate_word(u, self.alphabet_size)
                if not _is_square(u):
                    raise ParseError(f"allow-squares entry {u!r} is not a square")
        if self.allowed_overlaps is not None:
            for u in self.allowed_overlaps:
                validate_word(u, self.alphabet_size)
                if not _is_min_overlap(u):
                    raise ParseError(f"allow-overlaps entry {u!r} is not a minimal overlap")
        for bound in (self.max_square_count, self.max_overlap_count):
            if bound is not None and bound < 0:
                raise DomainError("distinct repetition bounds must be >= 0")
        if self.occurrence_budget is not None and self.occurrence_budget[1] < 0:
            raise DomainError("occurrence budget must be >= 0")
        if self.exponent_cap is not None and self.exponent_cap[0] <= 1:
            raise DomainError("exponent cap must exceed 1")
        if self.graph is not None and self.graph.vertex_count != self.alphabet_size:
            raise DomainError("graph vertex count must equal the alphabet size")


def relabel(c: ConstraintSet, perm) -> ConstraintSet:
    """c with every letter a renamed perm[a].

    The forbidden factors, the allow-lists and the graph's edges bear
    letters; formulas, budgets, the exponent cap and the square period bound
    do not, so a word w is good for c exactly when perm(w) is good for the
    result.
    """
    k = c.alphabet_size
    if sorted(perm) != list(range(k)):
        raise DomainError(f"{perm!r} is not a permutation of the {k} letters")
    table = {48 + a: 48 + b for a, b in enumerate(perm)}

    def words(ws):
        return None if ws is None else frozenset(u.translate(table) for u in ws)

    graph = c.graph
    if graph is not None:
        graph = graph_from_edges(k, [(perm[a], perm[b]) for a, b in graph.edges])
    return replace(
        c,
        forbidden_factors=words(c.forbidden_factors),
        allowed_squares=words(c.allowed_squares),
        allowed_overlaps=words(c.allowed_overlaps),
        graph=graph,
    )


def letter_symmetries(c: ConstraintSet) -> tuple[tuple[int, ...], ...]:
    """Generators of the group of letter permutations s with relabel(c, s) == c.

    Level by level, as in the Schreier-Sims method: for each letter i, from
    the last down, and each j > i that the generators found so far (which
    all fix 0 .. i - 1) do not already send i to, a backtracking search
    looks for one symmetry that fixes 0 .. i - 1 and sends i to j. The
    generators found at levels i and above then generate the stabiliser of
    0 .. i - 1, so at most k(k - 1)/2 searches find the whole group, which
    is never enumerated (the unconstrained set on 10 letters has 10! = 3 628 800
    symmetries and 9 generators). The search assigns the letters in order
    and checks each letter-bearing word once its largest letter has an
    image; a letter goes only to a letter in as many such words at the same
    positions. Each generator is verified with ``relabel``.
    """
    k = c.alphabet_size
    items = {(kind, u) for u, kind in forbidden_patterns(c)}
    items |= {("square", u) for u in c.allowed_squares or ()}
    items |= {("overlap", u) for u in c.allowed_overlaps or ()}
    where = [
        sorted((kind, len(u), i) for kind, u in items for i, ch in enumerate(u) if ch == str(a))
        for a in range(k)
    ]
    # the words whose letters are all assigned once letter x is, by x
    decided: list[list[tuple[str, str]]] = [[] for _ in range(k)]
    for kind, u in items:
        decided[int(max(u))].append((kind, u))

    def complete(table: dict[int, int], x: int, images) -> tuple[int, ...] | None:
        """A symmetry extending table, which maps the letters below x, and x into images."""
        if x == k:
            perm = tuple(table[48 + a] - 48 for a in range(k))
            return perm if relabel(c, perm) == c else None
        used = set(table.values())
        for y in images:
            if 48 + y in used or where[y] != where[x]:
                continue
            table[48 + x] = 48 + y
            if all((kind, u.translate(table)) in items for kind, u in decided[x]):
                perm = complete(table, x + 1, range(k))
                if perm is not None:
                    return perm
            del table[48 + x]
        return None

    gens: list[tuple[int, ...]] = []
    for i in reversed(range(k)):
        orbit = [i]
        for j in range(i + 1, k):
            if j in orbit:
                continue
            perm = complete({48 + a: 48 + a for a in range(i)}, i, (j,))
            if perm is None:
                continue
            gens.append(perm)
            for a in orbit:
                for s in gens:
                    if s[a] not in orbit:
                        orbit.append(s[a])
    return tuple(gens)


@dataclass(frozen=True)
class Violation:
    kind: str
    start: int
    end: int  # index one past the completing letter
    witness: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.kind} {self.witness} at {self.start}..{self.end}"
        return f"{msg} ({self.detail})" if self.detail else msg


# ---------------------------------------------------------------------------
# directive files


def one(convert):
    """Arity helper for ``read_directives``: exactly one argument, converted."""
    def read(args):
        if len(args) != 1:
            raise ParseError(f"takes one argument, got {len(args)}")
        return convert(args[0])
    return read


def some(convert):
    """Arity helper for ``read_directives``: at least one argument, each converted."""
    def read(args):
        if not args:
            raise ParseError("needs at least one argument")
        return tuple(map(convert, args))
    return read


def read_directives(lines, where: str, spec: dict) -> tuple[dict, dict]:
    """The values of a directive file's lines, by slot, and the line of each slot.

    The grammar that constraint files and theorem manifests share: a ``#``
    starts a comment, blank lines are skipped, and every other line is
    ``key arg ...``. ``spec`` maps each key to ``(slot, convert, repeats)``;
    ``convert`` turns the line's argument list into its value, raising
    ParseError, DomainError or ValueError when the arguments are malformed. A repeating
    slot joins the items of its lines' values in file order, in a tuple, and
    its line is the last; any other slot takes one line, whichever of its
    keys that line uses (``graph`` and ``graph-edges`` fill one slot), as a
    second line would silently replace the first. A slot with no line is
    absent from both dicts. Unknown keys are errors, and every error is a
    ParseError that starts ``{where} line N:``.
    """
    values: dict = {}
    line_of: dict = {}
    for ln, raw in enumerate(lines, 1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        key, args = words[0], words[1:]
        try:
            if key not in spec:
                raise ParseError("unknown directive")
            slot, convert, repeats = spec[key]
            if repeats:
                values[slot] = values.get(slot, ()) + tuple(convert(args))
            elif slot in values:
                raise ParseError(f"would replace line {line_of[slot]}")
            else:
                values[slot] = convert(args)
        except (ValueError, ParseError, DomainError) as e:
            raise ParseError(f"{where} line {ln}: {key}: {e}") from e
        line_of[slot] = ln
    return values, line_of


def _exponent_cap(args) -> tuple[Fraction, bool]:
    etok, mode = args if len(args) != 1 else (args[0], "strict")
    if mode not in ("strict", "weak"):
        raise ParseError("mode must be 'strict' or 'weak'")
    num, den = etok.split("/") if "/" in etok else (etok, "1")
    if int(den) == 0:
        raise ParseError(f"{etok} has a zero denominator")
    return Fraction(int(num), int(den)), mode == "strict"


def _occurrence_budget(args) -> tuple[Formula, int]:
    ftok, ntok = args
    return parse_formula(ftok), int(ntok)


def _edge(tok: str) -> tuple[int, int]:
    a, b = tok.split("-")
    return int(a), int(b)


def _graph_edges(args) -> LabelledGraph:
    """The graph on the edges' vertices; ``parse_constraints`` adds the rest."""
    pairs = some(_edge)(args)
    return graph_from_edges(max(map(max, pairs)) + 1, pairs)


# slots are ConstraintSet fields
_CONSTRAINT_DIRECTIVES = {
    "alphabet": ("alphabet_size", one(int), False),
    "forbid-factor": ("forbidden_factors", some(str), True),
    "forbid-formula": ("forbidden_formulas", some(parse_formula), True),
    "forbid-squares-min-period": ("sq_min_period", one(int), False),
    "allow-squares": ("allowed_squares", tuple, True),
    "allow-overlaps": ("allowed_overlaps", tuple, True),
    "max-distinct-squares": ("max_square_count", one(int), False),
    "max-distinct-overlaps": ("max_overlap_count", one(int), False),
    "max-occurrences": ("occurrence_budget", _occurrence_budget, False),
    "exponent-cap": ("exponent_cap", _exponent_cap, False),
    "graph": ("graph", one(builtin_graph), False),
    "graph-edges": ("graph", _graph_edges, False),
}


def parse_constraints(text: str) -> ConstraintSet:
    """The constraint set a constraint file's text declares (``read_directives``).

    ``alphabet`` is required. The lists of ``forbid-factor``,
    ``forbid-formula``, ``allow-squares`` and ``allow-overlaps`` lines add
    up; ``forbid-formula`` keeps file order, which breaks ``check``'s ties
    between formulas. An allow-list with no line is None (no such
    constraint), one with only empty lines the empty set.
    """
    d, _ = read_directives(text.splitlines(), "constraint file", _CONSTRAINT_DIRECTIVES)
    if "alphabet_size" not in d:
        raise ParseError("constraint file must declare 'alphabet K'")
    for slot in ("forbidden_factors", "allowed_squares", "allowed_overlaps"):
        if slot in d:
            d[slot] = frozenset(d[slot])
    graph = d.get("graph")
    if graph is not None and graph.vertex_count < d["alphabet_size"]:
        d["graph"] = LabelledGraph(d["alphabet_size"], graph.edges)
    return ConstraintSet(**d)


def load_constraints(path) -> ConstraintSet:
    with open(path, encoding="utf-8") as fh:
        return parse_constraints(fh.read())


# ---------------------------------------------------------------------------
# whole-word checking (earliest-completing violation)


def forbidden_patterns(c: ConstraintSet) -> list[tuple[str, str]]:
    """Each factor a good word avoids, with its kind: "factor" or "graph".

    A walk on the graph avoids the 2-letter factors of its non-edges.
    """
    out = [(fct, "factor") for fct in sorted(c.forbidden_factors)]
    if c.graph is not None:
        adj = c.graph.adjacency()
        letters = range(c.alphabet_size)
        out += [(f"{a}{b}", "graph") for a in letters for b in letters if not adj[a][b]]
    return out


def check(w: str, c: ConstraintSet) -> Violation | None:
    """The earliest-completing violation of ``w`` against ``c``, or None.

    Ordered by completion index, then a fixed kind priority, then start.
    """
    validate_word(w, c.alphabet_size)
    n = len(w)
    cands: list[Violation] = []

    for fct, kind in forbidden_patterns(c):
        i = w.find(fct)
        if i >= 0:
            cands.append(Violation(kind, i, i + len(fct), fct))

    want_sq = (
        c.sq_min_period is not None or c.allowed_squares is not None or c.max_square_count is not None
    )
    want_ov = c.allowed_overlaps is not None or c.max_overlap_count is not None
    if want_sq or want_ov:
        # runs of length >= p hold the squares, and the overlaps in those >= p + 1
        runs = square_runs(w)
        if c.sq_min_period is not None:
            # the earliest square of a run is its first 2p letters
            best = min(((s + 2 * p, s) for p, s, _ in runs if p >= c.sq_min_period), default=None)
            if best is not None:
                e, s = best
                cands.append(Violation("square-period", s, e, w[s:e]))
        for name, extra, allowed, budget in (
            ("square", 0, c.allowed_squares, c.max_square_count),
            ("overlap", 1, c.allowed_overlaps, c.max_overlap_count),
        ):
            if allowed is None and budget is None:
                continue
            first = first_windows(w, extra)
            for u, e in first.items():
                if allowed is not None and u not in allowed:
                    cands.append(Violation(f"{name}-not-allowed", e - len(u), e, u))
            if budget is not None and len(first) > budget:
                e, u = sorted((e, u) for u, e in first.items())[budget]
                detail = f"more than {budget} distinct {name}s"
                cands.append(Violation(f"{name}-count", e - len(u), e, u, detail))

    if c.exponent_cap is not None:
        e_cap, strict = c.exponent_cap
        runs = long_runs(w, range(1, n), lambda p: _violation_length(e_cap, p, strict) - p)
        # the earliest violation in a run is its first need(p) letters
        best = min(((s + _violation_length(e_cap, p, strict), s) for p, s, _ in runs), default=None)
        if best is not None:
            e, s = best
            cands.append(
                Violation("exponent", s, e, w[s:e], f"exponent {'>' if strict else '>='} {e_cap}")
            )

    for f in c.forbidden_formulas:
        if has_occurrence(w, f):
            end = bisect.bisect_left(range(n), True, lo=1, key=lambda m: has_occurrence(w[:m], f))
            first = format_assignment(first_occurrence(w[:end], f))
            cands.append(Violation("formula", 0, end, str(f), first))

    if c.occurrence_budget is not None:
        f, budget = c.occurrence_budget
        occs = find_occurrences(w, f, cap=max(1, n))
        if len(occs) > budget:
            # an occurrence lies in w[:m] once each of its fragment images has occurred
            ends = sorted(max(w.find(u) + len(u) for u in fragment_images(f, a)) for a in occs)
            cands.append(
                Violation(
                    "occurrence-budget", 0, ends[budget], str(f),
                    f"{len(occs)} distinct occurrences, budget {budget}",
                )
            )

    if not cands:
        return None
    return min(cands, key=lambda v: (v.end, _KIND_PRIORITY[v.kind], v.start))
