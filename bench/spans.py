"""Span recording for the traced run, and the per-layer metrics derived from it.

The tracer wraps library entry points from the outside: the module attributes
that library callers look up at call time (``wordlab.characterize.check``,
``wordlab.search.new_occurrence_exists``, ...), the ``BranchChecker.push`` and
``pop`` methods, and the calls the benchmark itself makes. Each call becomes a
span with a name, start, end, parent span and item; spans are kept in
columnar arrays in memory and saved when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

# Violation kinds reported by BranchChecker.push, in the library's priority order.
PRUNE_KINDS = (
    "factor",
    "graph",
    "square-period",
    "square-not-allowed",
    "square-count",
    "overlap-not-allowed",
    "overlap-count",
    "exponent",
    "formula",
    "occurrence-budget",
)
_KIND_CODE = {None: 0, **{k: i + 1 for i, k in enumerate(PRUNE_KINDS)}}
FAMILIES = ("local", "formula", "count", "walk", "occurrence")


def _length_of_first(args, result):
    return len(args[0]), 0


def _length_of_result(args, result):
    return len(result), 0


def _hit(args, result):
    return int(bool(result)), 0


def _push_tag(args, result):
    checker = args[0]
    return _KIND_CODE[result], checker.n if result is None else checker.n + 1


# (module, attribute, span name, tag). The tag stores two integers per span:
# letters scanned or generated, a hit flag, or a push's violation kind and depth.
LIBRARY_SITES = (
    ("wordlab.characterize", "morphic_prefix", "morphisms.prefix", _length_of_result),
    ("wordlab.characterize", "fixed_point_prefix", "morphisms.prefix", _length_of_result),
    ("wordlab.characterize", "check", "constraints.check", None),
    ("wordlab.characterize", "factors", "words.factors", None),
    ("wordlab.characterize", "extendable_set", "search.extendable_set", None),
    ("wordlab.characterize", "distinct_squares", "repetitions.squares", _length_of_first),
    ("wordlab.characterize", "distinct_min_overlaps", "repetitions.overlaps", _length_of_first),
    ("wordlab.characterize", "every_window_contains", "characterize.window", None),
    ("wordlab.characterize", "code_factor_membership", "characterize.code", None),
    ("wordlab.characterize", "avoids", "formulas.avoids", None),
    ("wordlab.characterize", "find_occurrences", "formulas.find_occurrences", None),
    ("wordlab.constraints", "has_occurrence", "formulas.has_occurrence", None),
    ("wordlab.constraints", "find_occurrences", "formulas.find_occurrences", None),
    ("wordlab.search", "full_check", "search.witness_recheck", None),
    ("wordlab.search", "new_occurrence_exists", "formulas.anchored", _hit),
    ("wordlab.search", "new_assignments", "formulas.anchored", _hit),
)
METHOD_SITES = (
    ("wordlab.search", "BranchChecker", "push", "search.push", _push_tag),
    ("wordlab.search", "BranchChecker", "pop", "search.pop", None),
)
# Calls the benchmark makes itself: attribute of the Lib namespace -> span name.
BENCH_SITES = {
    "verify_characterization": ("characterize.verify", None),
    "extendable_set": ("search.extendable_set", None),
    "longest_word_search": ("search.longest_word_search", None),
    "count_by_length": ("search.count_by_length", None),
    "distinct_squares": ("repetitions.squares", _length_of_first),
    "distinct_min_overlaps": ("repetitions.overlaps", _length_of_first),
    "max_exponent": ("repetitions.max_exponent", _length_of_first),
    "is_exponent_free": ("repetitions.exponent_free", _length_of_first),
    "find_sq_t": ("repetitions.sq_t", _length_of_first),
    "find_occurrences": ("formulas.find_occurrences", None),
    "has_occurrence": ("formulas.has_occurrence", None),
    "check": ("constraints.check", None),
}


class Tracer:
    """Records nested spans in columnar arrays; one tracer per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self.current_item = -1

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn, tag=None):
        nid = self.name_id(name)
        names, starts, ends, parents, items = self.name, self.start, self.end, self.parent, self.item
        col_a, col_b, stack = self.a, self.b, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.current_item)
            starts.append(0.0)
            ends.append(0.0)
            col_a.append(0)
            col_b.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tag is not None:
                col_a[idx], col_b[idx] = tag(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, lib):
        """Wrap every library site; yield the benchmark's calls, wrapped too."""
        saved = []
        try:
            for module, attr, span, tag in LIBRARY_SITES:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr), tag))
            for module, cls_name, attr, span, tag in METHOD_SITES:
                cls = getattr(importlib.import_module(module), cls_name)
                saved.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, self.wrap(span, cls.__dict__[attr], tag))
            yield SimpleNamespace(
                **{
                    attr: self.wrap(BENCH_SITES[attr][0], fn, BENCH_SITES[attr][1])
                    for attr, fn in vars(lib).items()
                }
            )
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "item": np.asarray(self.item, dtype=np.int64),
            "a": np.asarray(self.a),
            "b": np.asarray(self.b),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, item_families: list[str], item_factors: list[float]) -> dict[str, float]:
    """Per-layer totals of one traced pass, times in reference seconds.

    item_families[i] is the family of the pass's i-th item and item_factors[i]
    the factor that turned its wall time into reference seconds; an item span
    is named "item" and carries that index.
    """
    cols = tracer.columns()
    name, parent, item, a, b = cols["name"], cols["parent"], cols["item"], cols["a"], cols["b"]
    factor = np.array(list(item_factors) + [1.0])  # index -1: outside any item
    dur = (cols["end"] - cols["start"]) * factor[item]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_t = dur - child

    def mask(*span_names):
        ids = [tracer.ids[s] for s in span_names if s in tracer.ids]
        return np.isin(name, ids)

    def total(*span_names, of=dur):
        return float(of[mask(*span_names)].sum())

    def count(*span_names):
        return int(mask(*span_names).sum())

    m: dict[str, float] = {}
    reps = ("repetitions.squares", "repetitions.overlaps", "repetitions.max_exponent",
            "repetitions.exponent_free", "repetitions.sq_t")
    m["repetitions.squares_s"] = total("repetitions.squares")
    m["repetitions.overlaps_s"] = total("repetitions.overlaps")
    m["repetitions.max_exponent_s"] = total("repetitions.max_exponent")
    m["repetitions.exponent_free_s"] = total("repetitions.exponent_free")
    m["repetitions.calls"] = count(*reps)
    m["repetitions.letters_per_s"] = _ratio(total(*reps, of=a), total(*reps))

    checks = ("constraints.check", "search.witness_recheck")
    m["constraints.check_s"] = total(*checks, of=self_t)
    m["constraints.check_calls"] = count(*checks)

    batch = ("formulas.avoids", "formulas.find_occurrences", "formulas.has_occurrence")
    m["formulas.batch_s"] = total(*batch)
    m["formulas.batch_calls"] = count(*batch)
    m["formulas.anchored_s"] = total("formulas.anchored")
    m["formulas.anchored_calls"] = count("formulas.anchored")
    m["formulas.anchored_hit_ratio"] = _ratio(total("formulas.anchored", of=a), count("formulas.anchored"))

    push = mask("search.push")
    pushes = int(push.sum())
    m["search.push_s"] = float(self_t[push].sum())
    m["search.pop_s"] = total("search.pop")
    m["search.pushes"] = pushes
    m["search.accept_ratio"] = _ratio(int((a[push] == 0).sum()), pushes)
    for code, kind in enumerate(PRUNE_KINDS, 1):
        m[f"search.prunes.{kind}"] = int((a[push] == code).sum())
    items = mask("item")
    item_family = np.array(list(item_families) + ["-"])  # index -1: outside any item
    push_family = item_family[item[push]]
    item_span_family = item_family[a[items]]
    for fam in FAMILIES:
        fam_time = float(dur[items][item_span_family == fam].sum())
        m[f"search.nodes_per_s.{fam}"] = _ratio(int((push_family == fam).sum()), fam_time)
    accepted = push & (a == 0)
    m["search.max_depth"] = int(b[accepted].max()) if accepted.any() else 0
    m["search.witness_recheck_s"] = total("search.witness_recheck")

    verify = mask("characterize.verify")
    m["characterize.verify_self_s"] = float(self_t[verify].sum())
    under_verify = np.zeros(dur.size, dtype=bool)
    under_verify[nested] = verify[parent[nested]]
    phases = {
        "prefix": ("morphisms.prefix",),
        "check": ("constraints.check",),
        "factors": ("words.factors",),
        "extendable": ("search.extendable_set",),
        "inventories": ("repetitions.squares", "repetitions.overlaps"),
        "localizer": ("characterize.window", "formulas.avoids"),
        "code": ("characterize.code",),
        "occurrences": ("formulas.find_occurrences",),
    }
    for phase, span_names in phases.items():
        m[f"characterize.phase.{phase}_s"] = float(dur[under_verify & mask(*span_names)].sum())

    m["morphisms.prefix_s"] = total("morphisms.prefix")
    m["morphisms.letters_per_s"] = _ratio(total("morphisms.prefix", of=a), total("morphisms.prefix"))
    m["words.factors_s"] = total("words.factors")
    return m
