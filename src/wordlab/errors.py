"""Shared exception types."""


class WordlabError(Exception):
    """Base class for all library errors."""


class ParseError(WordlabError):
    """Malformed word, morphism, formula, constraint or manifest text."""


class AlphabetError(ParseError):
    """Alphabet bounds violated (size outside 1..10, letter out of range)."""


class DomainError(WordlabError):
    """Operation precondition violated (e.g. morphism not prolongable)."""


class ResourceBudgetError(WordlabError):
    """A node/letter/step budget was exhausted.

    ``partial`` carries the best result computed so far, when one exists.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalError(WordlabError):
    """Two of the library's own checkers disagree: a bug, never a verdict."""
