"""Words, morphisms, repetitions, patterns and factorial-language search."""

from .characterize import (
    CheckResult,
    Localizer,
    Report,
    TheoremManifest,
    code_factor_membership,
    every_window_contains,
    load_manifest,
    morphisms_equal,
    verify_characterization,
)
from .constraints import ConstraintSet, Violation, check, load_constraints, parse_constraints
from .errors import (
    AlphabetError,
    DomainError,
    InternalError,
    ParseError,
    ResourceBudgetError,
    WordlabError,
)
from .formulas import (
    Formula,
    avoids,
    find_occurrences,
    format_assignment,
    is_doubled,
    parse_formula,
)
from .graphs import LabelledGraph, builtin_graph, graph_from_edges, is_walk
from .morphisms import (
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
from .repetitions import (
    Repetition,
    distinct_min_overlaps,
    distinct_squares,
    find_sq_t,
    format_exponent,
    is_exponent_free,
    max_exponent,
)
from .search import (
    BranchChecker,
    SearchOutcome,
    count_by_length,
    extendable_set,
    longest_word_search,
)
from .words import contains_factor, factors, parse_word
