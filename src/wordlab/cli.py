"""Command-line interface.

Exit codes: 0 verified/ok, 1 refuted or violation found, 2 usage/parse
error (bad ``WORDLAB_*`` budget values, a node or letter budget below 1, a
repeated single-valued directive and unreadable input files included),
3 resource budget exceeded, 4 internal error: a disagreement between the
library's own checkers or any other unexpected exception (a bug, never a
verdict). Machine-readable output is deterministic: no timestamps, factors
sorted lexicographically.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import characterize, constraints, formulas, morphisms, repetitions, search, words
from .errors import DomainError, InternalError, ParseError, ResourceBudgetError

ENV_NODE_BUDGET = "WORDLAB_NODE_BUDGET"
ENV_LETTER_BUDGET = "WORDLAB_LETTER_BUDGET"


def _env_budget(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        budget = int(value)
    except ValueError:
        budget = 0  # rejected below, with the value as given
    if budget < 1:
        raise ParseError(f"{name} must be a positive integer, got {value!r}")
    return budget


def _read_word(args) -> str:
    if args.stdin:
        text = sys.stdin.read()
    else:
        if not args.input:
            raise ParseError("either --input FILE or --stdin is required")
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    return words.parse_word("".join(text.split()))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wordlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    word = argparse.ArgumentParser(add_help=False)
    word.add_argument("--input")
    word.add_argument("--stdin", action="store_true")
    cons = argparse.ArgumentParser(add_help=False)
    cons.add_argument("--constraints", required=True)
    nodes = argparse.ArgumentParser(add_help=False)
    nodes.add_argument("--budget-nodes", type=int, default=None)

    g = sub.add_parser("generate", help="print a prefix of a (possibly coded) fixed point")
    g.add_argument("--morphism", required=True, help="inner morphism, e.g. 012/02/1")
    g.add_argument("--outer", help="optional outer morphism applied to the fixed point")
    g.add_argument("--length", type=int, required=True)

    for name, help_ in (
        ("squares", "print the distinct-square inventory"),
        ("overlaps", "print the minimal-overlap inventory"),
        ("exponent", "print the maximum exponent and a witness factor"),
    ):
        sub.add_parser(name, help=help_, parents=[word])

    m = sub.add_parser("match", help="list occurrences of a formula", parents=[word])
    m.add_argument("--formula", required=True)
    m.add_argument("--cap", type=int, help="max variable image length (default: word length)")

    sub.add_parser("check", help="check a word against a constraint file", parents=[cons, word])

    s = sub.add_parser(
        "search", help="longest word satisfying a constraint file", parents=[cons, nodes]
    )
    s.add_argument("--budget-length", type=int, required=True)

    e = sub.add_parser(
        "extendable", help="two-sidedly extendable words of one length", parents=[cons, nodes]
    )
    e.add_argument("--length", type=int, required=True)
    e.add_argument("--horizon", type=int, default=None)

    n = sub.add_parser("counts", help="number of good words per length", parents=[cons, nodes])
    n.add_argument("--max", type=int, required=True)

    v = sub.add_parser("verify", help="run one theorem manifest", parents=[nodes])
    v.add_argument("--manifest", required=True)

    va = sub.add_parser("verify-all", help="run every manifest in a directory", parents=[nodes])
    va.add_argument("--dir", required=True)
    return p


def _cmd_generate(args) -> int:
    inner = morphisms.parse_morphism(args.morphism)
    if args.outer:
        outer = morphisms.parse_morphism(args.outer)
        word = morphisms.morphic_prefix(outer, inner, args.length, max_letters=args.max_letters)
    else:
        word = morphisms.fixed_point_prefix(inner, args.length, max_letters=args.max_letters)
    print(word)
    return 0


def _cmd_inventory(args) -> int:
    w = _read_word(args)
    if args.command == "exponent":
        exp, witness = repetitions.max_exponent(w)
        print(f"{repetitions.format_exponent(exp)}\t{witness.factor_of(w)}")
        return 0
    inventory = {"squares": repetitions.distinct_squares, "overlaps": repetitions.distinct_min_overlaps}
    for u in sorted(inventory[args.command](w)):
        print(u)
    return 0


def _cmd_match(args) -> int:
    w = _read_word(args)
    f = formulas.parse_formula(args.formula)
    cap = args.cap if args.cap is not None else max(1, len(w))
    occs = formulas.find_occurrences(w, f, cap)
    for t in sorted(occs):
        print(formulas.format_assignment(t))
    return 0


def _cmd_check(args) -> int:
    w = _read_word(args)
    c = constraints.load_constraints(args.constraints)
    violation = constraints.check(w, c)
    if violation is None:
        print("ok")
        return 0
    print(f"violation {violation}")
    return 1


def _cmd_search(args) -> int:
    c = constraints.load_constraints(args.constraints)
    outcome = search.longest_word_search(c, args.budget_length, args.budget_nodes)
    print(
        f"{outcome.kind} max_length={outcome.max_length} "
        f"witness={outcome.witness or '(empty)'} nodes={outcome.tree_nodes}"
    )
    return 0


def _cmd_extendable(args) -> int:
    c = constraints.load_constraints(args.constraints)
    out = search.extendable_set(c, args.length, args.horizon, budget_nodes=args.budget_nodes)
    for w in sorted(out):
        print(w)
    return 0


def _cmd_counts(args) -> int:
    c = constraints.load_constraints(args.constraints)
    counts = search.count_by_length(c, args.max, budget_nodes=args.budget_nodes)
    for n, count in enumerate(counts, 1):
        print(f"{n}\t{count}")
    return 0


def _cmd_verify(args) -> int:
    if args.command == "verify":
        paths = [args.manifest]
    else:
        paths = sorted(
            os.path.join(args.dir, name)
            for name in os.listdir(args.dir)
            if "." not in name and not name.startswith("_")
        )
        if not paths:
            raise ParseError(f"no manifest files found in {args.dir!r}")
    all_pass = True
    for path in paths:
        manifest = characterize.load_manifest(path)
        report = characterize.verify_characterization(
            manifest, budget_nodes=args.budget_nodes, max_letters=args.max_letters
        )
        for line in report.lines():
            print(line)
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


_DISPATCH = {
    "generate": _cmd_generate,
    "squares": _cmd_inventory,
    "overlaps": _cmd_inventory,
    "exponent": _cmd_inventory,
    "match": _cmd_match,
    "check": _cmd_check,
    "search": _cmd_search,
    "extendable": _cmd_extendable,
    "counts": _cmd_counts,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        if hasattr(args, "budget_nodes") and args.budget_nodes is None:
            args.budget_nodes = _env_budget(ENV_NODE_BUDGET, search.DEFAULT_NODE_BUDGET)
        if args.command in ("generate", "verify", "verify-all"):
            args.max_letters = _env_budget(ENV_LETTER_BUDGET, morphisms.DEFAULT_LETTER_BUDGET)
        return _DISPATCH[args.command](args)
    except ResourceBudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (ParseError, DomainError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug, never a verdict
        detail = e if isinstance(e, InternalError) else f"internal error: {type(e).__name__}: {e}"
        print(f"error: {detail}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
