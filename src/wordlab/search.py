"""Pruned depth-first enumeration of constrained factorial languages.

The DFS appends letters in ascending order and prunes on violations that
complete at the appended letter. Factor, square, overlap, graph and exponent
constraints are suffix-local; so are the formulas that are repetition shapes
(x_1...x_d)^q x_1...x_r (``AA``, ``AAA``, ``ABAB``, ``ABABA``, ``ABCABC``,
...; ``formulas.repetition_shape``), which the word ends in exactly when some
period p >= d has r_p >= (q - 1) p + r. Other formula and occurrence-budget
constraints are re-checked through suffix-anchored occurrence search, which
is exact because every prefix on the current branch already passed.

Forbidden factors and the graph's non-edges, taken as forbidden 2-letter
factors, are one Aho-Corasick automaton (Aho and Corasick, CACM 1975), built
once per checker: a table of state x letter -> next state, where a
transition that completes a pattern stores the kind it completes ("factor"
before "graph", as in ``check``). The state after each prefix is kept by
depth, so a push is one table lookup on the state of the word one letter
shorter, and a pop or a rejected push has nothing to undo; this is the
incremental design of Ochem's morphism generator (RAIRO ITA, 2006).
``check`` keeps one ``str.find`` per pattern, which beats a Python loop over
the automaton on a long word.

Every suffix test on repetitions reads one set of counters,
``repetitions.SuffixRuns``: for each period p, the length r_p of the run of
w[i] == w[i-p] that ends the word. The word ends in a square of period p
when r_p >= p, in an overlap when r_p >= p + 1, in a k-power when
r_p >= (k - 1) p, in a repetition shape as above, and in a violation of an
exponent cap when r_p >= need(p) - p. The counters are fields of one int, so
a push updates all of them, and finds every period meeting one threshold, in
a fixed number of big-int operations of O(depth) size rather than a
comparison per period.
A pop restores them from snapshots: one per level for the last 256 levels
(about 5 MB at depth 10 000, linear in the depth) and one per 256 levels
below (about 0.4 MB there, quadratic in the depth).

Squares and minimal overlaps are one family each: a window of length
2p + extra (extra 0 or 1) ends the word when r_p >= p + extra, and one loop
tests all of a family's windows against its allow-list before it counts the
new ones against its budget, the kind order of ``check``.
Per depth, ``BranchChecker`` keeps what the push at that depth added, and a
pop (or a rejected push) undoes exactly that: one undo record, kept only
when a budget is set, of the squares, overlaps and occurrence assignments
counted against the budgets, and, in a ``PowerStack``, the k-power periods
and roots of the word for every exponent k the anchored search reads. A
push adds only the k-powers ending at the new letter and keeps their periods
by depth (``PowerStack.ends``), so the anchored search takes its power
lengths, power roots and fresh power images from that stack instead of
rescanning the word's period runs. Matching right to left, a variable that
closes a k-run or a doubled block takes its lengths from the periods of the
k-powers or squares ending where its image ends.

The anchored search seeds each fragment by its own shape, since a new
occurrence has a fragment whose image is a new factor, hence a suffix. A
power, a doubled block uu or an r = 0 periodic block has the image X^k, new
exactly when its root X is, so it is seeded from the roots the push added
(``PowerStack.added``); any other fragment from its images ending at the new
letter. For a formula of root fragments only (``AA.ABAB.BB``) a push that
adds no root needs no search. This is the semi-naive evaluation of the
conjunctive query over the root sets (Bancilhon and Ramakrishnan, 1986).

``_run_dfs`` hands each good word to an ``on_good`` callback, which answers
DESCEND (search its extensions), PRUNE (keep it, skip its extensions) or
STOP. ``longest_word_search`` and ``count_by_length`` always descend until
they stop. ``extendable_set`` is an existence search below the middle: once
the word is h + L letters long its middle w[h:h+L] is fixed, so a subtree
whose middle already has a witness is pruned, and the first good word of
length L + 2h with a new middle becomes that middle's witness. About half
the nodes of a full enumeration are skipped.

``extendable_set`` and ``count_by_length`` also search up to a permutation
of the letters (Ochem, RAIRO ITA 2006; sound symmetry breaking in the sense
of Crawford, Ginsberg, Luks and Roy, KR 1996). A symmetry s of the
constraint set (``constraints.letter_symmetries``) maps good words onto good
words, so only the subtrees whose first letter is the least of its orbit
are searched: a count weighs each word by the size of that orbit, and a new
middle is recorded together with its images under the symmetries, each with
the image of the witness, whose subtrees are then skipped as well. With the
identity alone the tree is the one searched without symmetries.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass

from .constraints import (
    ConstraintSet,
    check as full_check,
    forbidden_patterns,
    letter_symmetries,
)
from .errors import DomainError, InternalError, ResourceBudgetError
from .formulas import (
    PowerStack,
    anchored_power_exponents,
    new_assignments,
    new_occurrence_exists,
    repetition_shape,
)
from .repetitions import SuffixRuns, _violation_length

DEFAULT_NODE_BUDGET = 100_000_000


@dataclass(frozen=True)
class SearchOutcome:
    # "exhausted" | "reached_budget", or "node-budget-exceeded" for the
    # partial outcome a ResourceBudgetError carries
    kind: str
    max_length: int
    witness: str | None
    tree_nodes: int


# The kinds of pattern the factor automaton rejects on, in ``check``'s order;
# a transition completing one of kind i stores ~i.
_COMPLETES = ("factor", "graph")


def _factor_automaton(c: ConstraintSet) -> list[int] | None:
    """The Aho-Corasick automaton of ``forbidden_patterns(c)``, as a flat table.

    A state is a longest suffix of the word that is a proper prefix of some
    pattern, and is numbered by its offset s = k * index, so its transition
    on the letter a is entry s + a: the next state's offset, or ~i when the
    letter completes a pattern of kind ``_COMPLETES[i]`` ("factor" when a
    factor and a non-edge both end there). No state ends a pattern, since
    the search never extends a word that contains one. None if there are no
    patterns.
    """
    patterns = forbidden_patterns(c)
    if not patterns:
        return None
    k = c.alphabet_size
    live = len(_COMPLETES)  # the kind index of a node that completes no pattern
    children: list[dict[int, int]] = [{}]  # the trie of the patterns
    done = [live]  # the least kind index that a node's suffixes complete
    for fct, kind in patterns:
        s = 0
        for a in map(int, fct):
            if a not in children[s]:
                children[s][a] = len(children)
                children.append({})
                done.append(live)
            s = children[s][a]
        done[s] = min(done[s], _COMPLETES.index(kind))
    # breadth first, so a node's failure link (its longest proper suffix in
    # the trie) comes before it: a missing child falls back on the link's row
    rows: list[list[int]] = [[]] * len(children)
    fail = [0] * len(children)
    order = [0]
    for u in order:
        rows[u] = [children[u].get(a, rows[fail[u]][a] if u else 0) for a in range(k)]
        for a, v in children[u].items():
            fail[v] = rows[fail[u]][a] if u else 0
            done[v] = min(done[v], done[fail[v]])
            order.append(v)
    states = [u for u in order if done[u] == live]
    offset = {u: k * i for i, u in enumerate(states)}
    return [offset[v] if done[v] == live else ~done[v] for u in states for v in rows[u]]


def _least(a, b):
    """The elementwise minimum of two int arrays (or of two ints)."""
    return a + (b < a) * (b - a)


class BranchChecker:
    """Incremental constraint checker over one growing/shrinking word."""

    def __init__(self, c: ConstraintSet, max_length: int):
        self.c = c
        self.buf = bytearray(max_length + 1)
        self.n = 0
        self._goto = _factor_automaton(c)
        if self._goto is not None:
            # the automaton's state after each prefix, by its length
            top = max(self._goto)
            code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "L"
            self._state = array(code, [0]) * (max_length + 1)
        # repetition shapes (AA, ABAB, ABCABC, ...) are decided on the counters, no engine
        shapes = {repetition_shape(f) for f in c.forbidden_formulas} - {None}
        self.formulas = tuple(f for f in c.forbidden_formulas if repetition_shape(f) is None)
        self.occ = c.occurrence_budget
        exponents = {k for f in self.formulas for k in anchored_power_exponents(f)}
        if self.occ is not None:
            exponents |= anchored_power_exponents(self.occ[0])

        # each repetition test is one threshold m(p) on the suffix-run counters
        repetitions = any(x is not None for x in (
            c.sq_min_period, c.allowed_squares, c.max_square_count,
            c.allowed_overlaps, c.max_overlap_count, c.exponent_cap,
        ))
        self.runs = runs = (
            SuffixRuns(c.alphabet_size, max_length)
            if repetitions or shapes or exponents
            else None
        )
        never = max_length + 1
        sq_min = c.sq_min_period
        self._square_period = (
            None if sq_min is None else runs.threshold(lambda p: p + (p < sq_min) * never)
        )
        # a square (extra 0) or minimal overlap (extra 1) of period p ends the word
        # when r_p >= p + extra; one entry per family with an allow-list or a budget
        self._families = [
            (
                runs.threshold(lambda p: p + extra),
                extra,
                None if allowed is None else frozenset(u.encode() for u in allowed),
                budget,
                set(),  # the distinct windows counted against the budget
                f"{name}-not-allowed",
                f"{name}-count",
            )
            for extra, allowed, budget, name in (
                (0, c.allowed_squares, c.max_square_count, "square"),
                (1, c.allowed_overlaps, c.max_overlap_count, "overlap"),
            )
            if allowed is not None or budget is not None
        ]
        self._exponent = None
        if c.exponent_cap is not None:
            e, strict = c.exponent_cap
            self._exponent = runs.threshold(lambda p: _violation_length(e, p, strict) - p)
        # one threshold for all shapes: the least (q - 1) p + r over those with p >= d
        self._shapes = None
        if shapes:
            self._shapes = runs.threshold(
                lambda p: functools.reduce(
                    _least, [(q - 1) * p + r + (p < d) * never for d, q, r in shapes]
                )
            )
        self.powers = PowerStack(exponents, runs) if exponents else None
        self.seen_assignments: set[tuple[str, ...]] = set()
        self._budgeted = (c.max_square_count, c.max_overlap_count, self.occ) != (None, None, None)
        # per depth, the (seen set, new items) pairs its push added; kept only under a budget
        self._undo: list[list[tuple[set, list]]] = []

    def word(self) -> str:
        return self.buf[: self.n].decode("ascii")

    def push(self, letter: int) -> str | None:
        """Append a letter; None if still violation-free, else the violation kind."""
        n = self.n + 1
        goto = self._goto
        if goto is not None:
            t = goto[self._state[n - 1] + letter]
            if t < 0:
                return _COMPLETES[~t]
            self._state[n] = t
        buf = self.buf
        buf[n - 1] = 48 + letter
        self.n = n

        runs = self.runs
        if runs is not None:
            runs.push(letter)
        if self._square_period is not None and runs.any(self._square_period):
            return self._reject("square-period")
        added: list[tuple[set, list]] = []
        for t, extra, allowed, budget, seen, not_allowed, count in self._families:
            # windows of different periods differ in length, so none repeats in a push
            fresh: list[bytes] = []
            for p in runs.hits(t):
                fct = bytes(buf[n - 2 * p - extra : n])
                if allowed is not None and fct not in allowed:
                    return self._reject(not_allowed)
                if budget is not None and fct not in seen:
                    fresh.append(fct)
            if budget is not None and len(seen) + len(fresh) > budget:
                return self._reject(count)
            if fresh:
                added.append((seen, fresh))
        if self._exponent is not None and runs.any(self._exponent):
            return self._reject("exponent")
        if self._shapes is not None and runs.any(self._shapes):
            return self._reject("formula")

        powers = self.powers
        if powers is not None:
            powers.push(buf, n)
        wb: bytes | None = None
        if self.formulas:
            wb = bytes(buf[:n])
            for f in self.formulas:
                if new_occurrence_exists(wb, f, powers=powers):
                    self._unpush()
                    return "formula"
        if self.occ is not None:
            if wb is None:
                wb = bytes(buf[:n])
            f, budget = self.occ
            seen = self.seen_assignments
            fresh = [a for a in new_assignments(wb, f, powers=powers) if a not in seen]
            if len(seen) + len(fresh) > budget:
                self._unpush()
                return "occurrence-budget"
            added.append((seen, fresh))

        if self._budgeted:
            for seen, fresh in added:
                seen.update(fresh)
            self._undo.append(added)
        return None

    def _reject(self, kind: str) -> str:
        """Undo a push rejected after the counters took the letter, before the power stack."""
        self.n -= 1
        self.runs.pop()
        return kind

    def _unpush(self) -> None:
        """Drop the last letter from the word, the power stack and the counters."""
        if self.powers is not None:
            self.powers.pop()
        self.n -= 1
        if self.runs is not None:
            self.runs.pop()

    def pop(self) -> None:
        if self.n == 0:
            raise DomainError("pop on empty checker")
        self._unpush()
        if self._budgeted:
            for seen, fresh in self._undo.pop():
                seen.difference_update(fresh)


class _Stop(Exception):
    pass


# What ``on_good`` answers for a good word in ``_run_dfs``.
DESCEND = "descend"  # try its extensions
PRUNE = "prune"  # keep the word but not its extensions
STOP = "stop"  # end the search


def _run_dfs(c, max_depth, node_budget, on_good, letter_order=None, partial=None, roots=None):
    """DFS over good words up to max_depth, in letter order.

    ``roots`` are the first letters searched (default: all of them).
    ``on_good(checker)`` sees each good word and answers DESCEND, PRUNE or
    STOP. Returns the number of attempted letter placements (tree nodes).
    """
    if max_depth < 0:
        raise DomainError("search depth must be non-negative")
    if node_budget < 1:
        raise DomainError(f"node budget must be positive, got {node_budget}")
    letters = list(letter_order) if letter_order is not None else list(range(c.alphabet_size))
    if sorted(letters) != list(range(c.alphabet_size)):
        raise DomainError("letter order must be a permutation of the alphabet")
    checker = BranchChecker(c, max_depth)
    nodes = 0
    if max_depth == 0:
        return 0
    stack = [iter(letters if roots is None else roots)]  # the letters left to try, by depth
    try:
        while stack:
            a = next(stack[-1], None)
            if a is None:
                stack.pop()
                if stack:
                    checker.pop()
                continue
            nodes += 1
            if nodes > node_budget:
                raise ResourceBudgetError(
                    f"search exceeded node budget {node_budget}",
                    partial=partial(nodes) if partial is not None else None,
                )
            if checker.push(a) is None:
                step = on_good(checker)
                if step is STOP:
                    raise _Stop
                if step is DESCEND and checker.n < max_depth:
                    stack.append(iter(letters))
                else:
                    checker.pop()
    except _Stop:
        pass
    return nodes


def longest_word_search(
    c: ConstraintSet,
    budget_length: int,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    letter_order=None,
) -> SearchOutcome:
    """Longest word in the language, exactly, or a witness of reaching budget_length.

    kind == "exhausted" means no good word of max_length+1 exists at all.
    """
    if budget_length < 1:
        raise DomainError("length budget must be positive")
    best = {"len": 0, "word": ""}
    reached = {"hit": False}

    def on_good(checker: BranchChecker):
        if checker.n > best["len"]:
            best["len"] = checker.n
            best["word"] = checker.word()
            if checker.n >= budget_length:
                reached["hit"] = True
                return STOP
        return DESCEND

    def partial(nodes):
        return SearchOutcome("node-budget-exceeded", best["len"], best["word"], nodes)

    nodes = _run_dfs(c, budget_length, budget_nodes, on_good, letter_order, partial)
    kind = "reached_budget" if reached["hit"] else "exhausted"
    return SearchOutcome(kind, best["len"], best["word"] if best["len"] else "", nodes)


def _images(mid: str, witness: str, tables) -> dict[str, str]:
    """Each image of mid under the group the translation tables generate, with the
    image of witness under the same permutation, breadth first over the tables."""
    out = {mid: witness}
    queue = [mid]
    for m in queue:
        for t in tables:
            image = m.translate(t)
            if image not in out:
                out[image] = out[m].translate(t)
                queue.append(image)
    return out


def _symmetries(c: ConstraintSet) -> tuple[list[dict[int, int]], dict[int, int]]:
    """The translation tables of ``letter_symmetries(c)``, and the size of each
    letter orbit by its least letter."""
    tables = [{48 + a: 48 + b for a, b in enumerate(s)} for s in letter_symmetries(c)]
    roots: dict[int, int] = {}
    placed: set[str] = set()
    for a in "0123456789"[: c.alphabet_size]:
        if a not in placed:
            orbit = _images(a, a, tables)
            placed.update(orbit)
            roots[int(a)] = len(orbit)
    return tables, roots


def extendable_set(
    c: ConstraintSet,
    length: int,
    horizon: int | None = None,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
) -> set[str]:
    """Words v of the given length with a good extension p v s, |p|=|s|=horizon.

    An existence search below the middle, up to a permutation of the
    letters. A symmetry s of c (``letter_symmetries``) maps the good words
    onto the good words, so only words whose first letter is the least of
    its orbit are searched. Every good word up to depth ``horizon + length``
    is enumerated, because the prefix p decides which middles are good, but
    from there on the middle w[h:h+length] is fixed. The first good word of
    length ``length + 2*horizon`` with a new middle m is recorded as its
    witness and not extended, and each image s(m) is recorded too, with the
    witness s(w) (breadth first over the generators). A subtree whose middle
    is already recorded is not entered. Every witness, images included, is
    re-verified against the batch checker.
    """
    if length < 1:
        raise DomainError("extendable-set length must be >= 1")
    h = horizon if horizon is not None else length
    if h < 0:
        raise DomainError("horizon must be >= 0")
    fixed, total = h + length, length + 2 * h
    tables, roots = _symmetries(c)
    middles: dict[str, str] = {}

    def on_good(checker: BranchChecker):
        n = checker.n
        if n < fixed:
            return DESCEND
        mid = checker.buf[h:fixed].decode("ascii")
        if mid in middles:
            return PRUNE
        if n == total:
            # no image of a new middle is recorded: each record adds a whole orbit
            middles.update(_images(mid, checker.word(), tables))
            return PRUNE
        return DESCEND

    _run_dfs(c, total, budget_nodes, on_good, partial=lambda nodes: set(middles), roots=roots)
    for witness in middles.values():
        if full_check(witness, c) is not None:
            raise InternalError(
                f"internal disagreement: incremental search emitted {witness} "
                "but the batch checker rejects it"
            )
    return set(middles)


def count_by_length(
    c: ConstraintSet,
    n_max: int,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
) -> list[int]:
    """counts[i] = number of good words of length i+1, for i+1 = 1..n_max.

    A symmetry s of c (``letter_symmetries``) maps the good words starting
    with a onto those starting with s(a), so only words whose first letter
    is the least of its orbit are searched, and each counts as many words
    as that orbit has letters.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    counts = [0] * (n_max + 1)
    _, roots = _symmetries(c)
    weight = {48 + a: size for a, size in roots.items()}  # by the first byte of the word

    def on_good(checker: BranchChecker):
        counts[checker.n] += weight[checker.buf[0]]
        return DESCEND

    _run_dfs(c, n_max, budget_nodes, on_good, partial=lambda nodes: counts[1:], roots=roots)
    return counts[1:]
