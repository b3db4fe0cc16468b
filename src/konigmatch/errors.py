"""Exception hierarchy shared by all modules.

Domain errors derive from :class:`DomainError`; input parsing and I/O
problems derive from :class:`InputError`.  The CLI maps the former to
exit code 1 and the latter to exit code 2.
"""


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


class SaturatedStart(DomainError):
    pass


class NotMaximal(DomainError):
    pass


# covers
class NotACover(DomainError):
    pass


class NotMinimumCover(DomainError):
    pass


class SaturationImpossible(DomainError):
    """The down-subgraph admits no matching saturating its cover side;
    the supplied cover cannot have been minimum."""


class RoundTripFailed(DomainError):
    """Reverse procedure output did not map back to the input cover.
    Signals an implementation defect, never expected on valid input."""


# path structures
class PathExplosion(DomainError):
    """Augmenting-path enumeration exceeded its limit."""


# star-studded
class EmptyGraph(DomainError):
    pass


# oracle
class BudgetExceeded(DomainError):
    pass
