"""Exception hierarchy shared by all modules, and the table of limits.

Domain errors derive from :class:`DomainError`; input parsing and I/O
problems derive from :class:`InputError`.  The CLI maps the former to
exit code 1 and the latter to exit code 2 (``exit_code``).  Every fixed
limit is a row of :class:`Limit`; a site compares against its value and,
only to refuse, raises the row's ``refusal``.
"""

from enum import Enum, unique


class KonigmatchError(Exception):
    """Base class for all library errors."""


class DomainError(KonigmatchError):
    """A structurally valid input violated a precondition."""


class InputError(KonigmatchError):
    """Malformed input (bad file, bad index, bad label)."""


# graph construction
class SameSideEdge(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class DuplicateVertex(InputError):
    pass


class UnknownVertex(InputError):
    pass


class NotBipartite(InputError):
    """Edge-list input admits no two-coloring."""


# matchings
class InvalidMatching(DomainError):
    """Edge set is not a matching of the host graph."""


class NotMaximal(DomainError):
    pass


# covers
class NotMinimumCover(DomainError):
    pass


class RoundTripFailed(DomainError):
    """Reverse procedure output did not map back to the input cover.
    Signals an implementation defect, never expected on valid input."""


# star-studded
class EmptyGraph(DomainError):
    pass


# limits
class BudgetExceeded(DomainError):
    """A request went over a limit of the table ``Limit``."""


class PathExplosion(BudgetExceeded):
    """Augmenting-path enumeration exceeded its limit."""


def exit_code(error: type[BaseException]) -> int:
    """The CLI's exit code for ``error``: 1 for a domain error, else 2."""
    return 1 if issubclass(error, DomainError) else 2


@unique
class Limit(Enum):
    """The limits: each row's value, what it counts, and its error."""

    # a neighbour mask is as wide as its highest neighbour id, so every
    # graph's masks take at most 20,000**2 / 8 bytes (50 MB)
    VERTICES = (20_000, "vertices in a graph, ids 0 to its highest",
                BudgetExceeded)
    # a trial draws one number per potential edge, whatever p is
    EDGE_DRAWS = (5 * 10 ** 6, "edge draws in an experiment run, nl * nr "
                  "a trial", BudgetExceeded)
    POTENTIAL_EDGES = (10 ** 7, "potential edges in a trial, nl * nr",
                       ValueError)
    # building structures is quadratic in the path count; the corpus has
    # at most 64 paths a maximal matching at 10 vertices and 128 at 11
    PATHS = 4096, "augmenting paths of a matching", PathExplosion
    CORPUS_VERTICES = 11, "vertices in a corpus graph", BudgetExceeded
    ORACLE_VERTICES = 16, "vertices in an oracle's graph", BudgetExceeded
    # K7,7's 130,922 matchings fit, K8,8's 1,441,729 are refused early
    ORACLE_STEPS = 2 ** 17, "steps of an oracle's search", BudgetExceeded

    def __new__(cls, value: int, counts: str, error: type[Exception]):
        row = object.__new__(cls)
        row._value_, row.counts, row.error = value, counts, error
        return row

    def refusal(self, found: int, allowed: int | None = None) -> Exception:
        """The error refusing ``found`` of what this row counts, over
        ``allowed``: the row's value unless a caller set its own."""
        allowed = self.value if allowed is None else allowed
        return self.error(f"at most {allowed:,} {self.counts}; got {found:,}")
