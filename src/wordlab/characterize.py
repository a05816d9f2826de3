"""Desk-scale verification of characterization claims.

A theorem manifest bundles a constraint file, a target morphic word, a check
length L and horizon, and optional extra checks (expected square/overlap
inventories, localizer windows, occurrence inventories, code membership).
Verification compares the two-sidedly extendable words of length L with the
length-L factors of a long target prefix. The step from these bounded checks
to the bi-infinite statements is recorded as an assumption in the report,
not re-proved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .constraints import ConstraintSet, check, load_constraints, one, read_directives, some
from .errors import DomainError, ParseError
from .formulas import Formula, avoids, find_occurrences, fragment_images, parse_formula
from .morphisms import DEFAULT_LETTER_BUDGET, Morphism, fixed_point_prefix, morphic_prefix, parse_morphism
from .repetitions import distinct_min_overlaps, distinct_squares
from .search import DEFAULT_NODE_BUDGET, extendable_set
from .words import factors, parse_word

BOUNDED_SCALE_NOTE = (
    "bounded-scale substitute: equality of extendable sets with prefix factors at one "
    "length does not itself prove the bi-infinite characterization"
)
LOCALIZER_NOTE = (
    "localizer step assumed: window coverage plus avoidance of the reduced pattern is "
    "taken to rule out long-period squares beyond the checked range"
)


@dataclass(frozen=True)
class Localizer:
    window: int
    word: str
    pattern: Formula | None
    pattern_prefix: int | None  # pattern checked on this prefix length (None = full)


@dataclass(frozen=True)
class TheoremManifest:
    name: str
    constraints: ConstraintSet
    inner: Morphism
    outer: Morphism | None = None
    check_length: int = 20
    horizon: int | None = None
    prefix_length: int | None = None
    expect_squares: frozenset[str] | None = None
    expect_overlaps: frozenset[str] | None = None
    overlaps_derived: bool = False
    localizers: tuple[Localizer, ...] = ()
    code_pieces: tuple[str, ...] | None = None
    expect_occurrences: tuple[Formula, int, frozenset[str]] | None = None
    expect_avoids: tuple[Formula, ...] = ()

    def resolved_horizon(self) -> int:
        return self.horizon if self.horizon is not None else self.check_length

    def resolved_prefix(self) -> int:
        if self.prefix_length is not None:
            return self.prefix_length
        return max(10 * self.check_length, 10_000)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    name: str
    results: list[CheckResult] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    derived: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def verdict_line(self) -> str:
        return f"VERDICT {self.name} {'PASS' if self.passed else 'FAIL'}"

    def lines(self) -> list[str]:
        out = [f"manifest {self.name}"]
        for r in self.results:
            mark = "ok" if r.passed else "FAIL"
            out.append(f"  [{mark}] {r.name}" + (f": {r.detail}" if r.detail else ""))
        for key, value in sorted(self.derived.items()):
            out.append(f"  derived {key}: {value}")
        for a in self.assumptions:
            out.append(f"  assumption: {a}")
        out.append(self.verdict_line())
        return out


def morphisms_equal(m1: Morphism, m2: Morphism) -> bool:
    """Image-wise equality of morphisms on the same source alphabet."""
    if m1.alphabet_size != m2.alphabet_size:
        raise DomainError("morphisms have different source alphabets")
    return m1.images == m2.images


def every_window_contains(w: str, k: int, u: str) -> bool:
    """True iff every length-k factor of w contains u."""
    if k > len(w):
        raise DomainError("window length exceeds the word")
    if len(u) > k:
        raise DomainError("required factor longer than the window")
    pos = w.find(u)
    for i in range(len(w) - k + 1):
        while pos != -1 and pos < i:
            pos = w.find(u, pos + 1)
        if pos == -1 or pos > i + k - len(u):
            return False
    return True


def code_factor_membership(v: str, pieces) -> bool:
    """True iff v is a factor of some bi-infinite concatenation of the pieces."""
    pieces = sorted(set(pieces))
    if not pieces or any(p == "" for p in pieces):
        raise DomainError("pieces must be a non-empty set of non-empty words")
    if v == "":
        return True
    if any(v in p for p in pieces):
        return True
    n = len(v)
    # boundary[j]: v[:j] is a piece suffix followed by whole pieces
    boundary = [False] * (n + 1)
    for p in pieces:
        for j in range(0, min(len(p), n) + 1):
            if j == 0 or p.endswith(v[:j]):
                boundary[j] = True
    for j in range(n + 1):
        if not boundary[j]:
            continue
        if j == n:
            return True  # v ends on a piece boundary
        for p in pieces:
            if j + len(p) <= n:
                if v[j : j + len(p)] == p:
                    boundary[j + len(p)] = True
            elif p.startswith(v[j:]):
                return True  # v ends inside this piece
    return False


# ---------------------------------------------------------------------------
# manifest files


def _at_least(lo: int):
    """A converter to an integer that is at least lo."""
    def read(tok) -> int:
        if int(tok) < lo:
            raise ParseError(f"{tok} is below {lo}")
        return int(tok)
    return read


def _flag(args) -> bool:
    if args:
        raise ParseError(f"takes no arguments, got {len(args)}")
    return True


def _localizer(args) -> tuple[Localizer]:
    if not 2 <= len(args) <= 4:
        raise ParseError(f"takes 2 to 4 arguments, got {len(args)}")
    k, u, pat, plen = args + [None] * (4 - len(args))
    window, word = _at_least(1)(k), parse_word(u)
    if len(word) > window:
        raise ParseError(f"word {word} is longer than the window {window}")
    pattern = None if pat is None else parse_formula(pat)
    return (Localizer(window, word, pattern, None if plen is None else _at_least(1)(plen)),)


def _code_pieces(args) -> tuple[str, ...]:
    # from-target-outer: load_manifest reads the pieces off target-outer
    return tuple(args) if args == ["from-target-outer"] else some(parse_word)(args)


def _expected_occurrences(args) -> tuple[Formula, int, frozenset[str]]:
    ftok, captok, *images = args
    return parse_formula(ftok), _at_least(1)(captok), frozenset(map(parse_word, images))


# slots are TheoremManifest fields; load_manifest adds "constraints"
_MANIFEST_DIRECTIVES = {
    "name": ("name", one(str), False),
    "target-inner": ("inner", one(parse_morphism), False),
    "target-outer": ("outer", one(parse_morphism), False),
    "check-length": ("check_length", one(_at_least(1)), False),
    "horizon": ("horizon", one(_at_least(0)), False),
    "prefix": ("prefix_length", one(int), False),
    "expect-squares": ("expect_squares", lambda args: frozenset(map(parse_word, args)), False),
    "expect-overlaps": ("expect_overlaps", lambda args: frozenset(map(parse_word, args)), False),
    "expect-overlaps-derived": ("overlaps_derived", _flag, False),
    "localizer": ("localizers", _localizer, True),
    "code-pieces": ("code_pieces", _code_pieces, False),
    "expect-occurrences": ("expect_occurrences", _expected_occurrences, False),
    "expect-avoids": ("expect_avoids", some(parse_formula), True),
}


def load_manifest(path) -> TheoremManifest:
    """The theorem manifest in a file (``constraints.read_directives``).

    ``name``, ``constraints`` (a constraint file, relative to the manifest's
    directory) and ``target-inner`` are required; ``localizer`` and
    ``expect-avoids`` lines add up, in file order. A ``prefix`` shorter than
    the check length is an error naming its line.
    """
    base = os.path.dirname(os.fspath(path))
    cons = one(lambda rel: load_constraints(os.path.join(base, rel)))
    spec = {**_MANIFEST_DIRECTIVES, "constraints": ("constraints", cons, False)}
    with open(path, encoding="utf-8") as fh:
        d, line_of = read_directives(fh, "manifest", spec)
    if not {"name", "constraints", "inner"} <= d.keys():
        raise ParseError("manifest needs at least 'name', 'constraints' and 'target-inner'")
    if d.get("code_pieces") == ("from-target-outer",):
        if "outer" not in d:
            where = f"manifest line {line_of['code_pieces']}: code-pieces"
            raise ParseError(f"{where}: from-target-outer needs target-outer")
        d["code_pieces"] = tuple(sorted({img for img in d["outer"].images if img}))
    m = TheoremManifest(**d)
    if m.resolved_prefix() < m.check_length:
        raise ParseError(
            f"manifest line {line_of['prefix_length']}: prefix: "
            f"{m.prefix_length} letters hold no factor of length {m.check_length}"
        )
    return m


def _set_diff_detail(left: set[str], right: set[str], lname: str, rname: str) -> str:
    only_l = sorted(left - right)
    only_r = sorted(right - left)
    bits = []
    if only_l:
        bits.append(f"only in {lname}: {' '.join(only_l[:8])}{' ...' if len(only_l) > 8 else ''}")
    if only_r:
        bits.append(f"only in {rname}: {' '.join(only_r[:8])}{' ...' if len(only_r) > 8 else ''}")
    return "; ".join(bits) if bits else "equal"


def verify_characterization(
    m: TheoremManifest,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    max_letters: int = DEFAULT_LETTER_BUDGET,
) -> Report:
    """Run all checks of a manifest: constraint check of the target prefix,
    extendable-set equality at the check length, and the extra checks.

    ``max_letters`` bounds the letters generated for the target prefix."""
    report = Report(m.name)
    L = m.check_length
    h = m.resolved_horizon()
    N = m.resolved_prefix()
    if m.outer is not None:
        prefix = morphic_prefix(m.outer, m.inner, N, max_letters=max_letters)
    else:
        prefix = fixed_point_prefix(m.inner, N, max_letters=max_letters)

    violation = check(prefix, m.constraints)
    # the inventories read the runs pass check leaves in square_runs' memo, which
    # the extendable set's witness re-checks replace, so they come first
    squares = None if m.expect_squares is None else distinct_squares(prefix)
    overlaps = None
    if m.expect_overlaps is not None or m.overlaps_derived:
        overlaps = distinct_min_overlaps(prefix)
    report.results.append(
        CheckResult(
            "target-prefix-satisfies-constraints",
            violation is None,
            "" if violation is None else str(violation),
        )
    )

    fact = set(factors(prefix, L))
    early = set(factors(prefix[: len(prefix) // 2], L))
    report.results.append(
        CheckResult(
            "factor-saturation",
            early == fact,
            f"{len(fact)} factors of length {L}"
            + ("" if early == fact else f"; {len(fact) - len(early)} appear only after N/2"),
        )
    )

    ext = extendable_set(m.constraints, L, h, budget_nodes=budget_nodes)
    report.results.append(
        CheckResult(
            "extendable-set-equals-prefix-factors",
            ext == fact,
            f"|S^{L}|={len(ext)}, |Fact_{L}|={len(fact)}; "
            + _set_diff_detail(ext, fact, "extendable", "factors"),
        )
    )
    report.assumptions.append(BOUNDED_SCALE_NOTE)

    if m.expect_squares is not None:
        report.results.append(
            CheckResult(
                "square-inventory",
                squares == set(m.expect_squares),
                _set_diff_detail(squares, set(m.expect_squares), "found", "expected"),
            )
        )
    if m.expect_overlaps is not None:
        report.results.append(
            CheckResult(
                "overlap-inventory",
                overlaps == set(m.expect_overlaps),
                _set_diff_detail(overlaps, set(m.expect_overlaps), "found", "expected"),
            )
        )
    if m.overlaps_derived:
        report.derived["overlap-inventory"] = " ".join(sorted(overlaps)) if overlaps else "(none)"

    for loc in m.localizers:
        ok = every_window_contains(prefix, loc.window, loc.word)
        report.results.append(
            CheckResult(
                f"window-{loc.window}-contains-{loc.word}",
                ok,
                "" if ok else "some window misses the word",
            )
        )
        if loc.pattern is not None:
            scope = prefix if loc.pattern_prefix is None else prefix[: loc.pattern_prefix]
            ok = avoids(scope, loc.pattern)
            report.results.append(
                CheckResult(
                    f"avoids-{loc.pattern}-on-{len(scope)}",
                    ok,
                    "" if ok else "reduced pattern occurs",
                )
            )
        report.assumptions.append(LOCALIZER_NOTE)

    if m.code_pieces is not None:
        bad = [v for v in sorted(fact) if not code_factor_membership(v, m.code_pieces)]
        report.results.append(
            CheckResult(
                "factors-live-in-code",
                not bad,
                "" if not bad else f"{len(bad)} factors outside the code, e.g. {bad[0]}",
            )
        )

    if m.expect_occurrences is not None:
        f, cap, images = m.expect_occurrences
        occs = find_occurrences(prefix, f, cap)
        got_images = {img for t in occs for img in fragment_images(f, t)}
        ok = len(occs) == len(images) and got_images == set(images)
        report.results.append(
            CheckResult(
                f"occurrence-inventory-{f}",
                ok,
                f"{len(occs)} assignments; images "
                + _set_diff_detail(got_images, set(images), "found", "expected"),
            )
        )

    for f in m.expect_avoids:
        ok = avoids(prefix, f)
        report.results.append(
            CheckResult(f"avoids-{f}", ok, "" if ok else "occurrence found")
        )
    return report
