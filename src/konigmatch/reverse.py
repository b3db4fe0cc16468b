"""Recovering a matching from a minimum vertex cover.

The cover splits the graph into an *up* part (cover vertices on the V
side together with the uncovered U vertices), a *down* part (cover
vertices on the U side together with the uncovered V vertices), and the
cut edges with both endpoints in the cover.  A saturating matching is
found on the down part; on the up part a depth-first procedure grows a
matching while keeping each visited root unsaturated.  Applying Kőnig's
procedure to the union reproduces the input cover; this is asserted and
a violation raises ``RoundTripFailed``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    NotMinimumCover,
    RoundTripFailed,
    SaturationImpossible,
)
from .graph import BipartiteGraph, Edge, induced_subgraph, procedure_sides
from .konig import (VertexCover, _cover_vertices, is_minimum_cover,
                    konig_vertices)
from .matching import Matching, maximum_matching


@dataclass(frozen=True)
class CoverSplit:
    """The up/down/cut decomposition induced by a minimum cover."""

    up: BipartiteGraph
    down: BipartiteGraph
    cut_edges: frozenset[Edge]
    up_roots: frozenset[int]       # U \ C, the up part's non-cover side
    down_cover_side: frozenset[int]  # U ∩ C, must end up saturated


@dataclass(frozen=True)
class ReverseResult:
    """Output of the reverse procedure."""

    m_up: Matching
    m_down: Matching
    combined: Matching
    visit_order: tuple[int, ...]


def split_by_cover(g: BipartiteGraph,
                   c: VertexCover | Iterable[int]) -> CoverSplit:
    """Split ``g`` along a minimum cover.

    U here is the procedure side (smaller side per component), matching
    the convention ``konig_cover`` uses, so the round trip is consistent.
    """
    cset = _cover_vertices(c)
    if not is_minimum_cover(g, cset):
        raise NotMinimumCover("input set is not a minimum vertex cover")
    u_side, v_side = procedure_sides(g)
    up = induced_subgraph(g, (v_side & cset) | (u_side - cset))
    down = induced_subgraph(g, (u_side & cset) | (v_side - cset))
    cut = frozenset((u, v) for u, v in g.edges if u in cset and v in cset)
    return CoverSplit(up, down, cut,
                      up_roots=u_side - cset,
                      down_cover_side=u_side & cset)


def saturating_matching_down(split: CoverSplit) -> Matching:
    """Matching on the down part saturating every cover vertex of U.

    Existence follows from Hall's condition when the cover is minimum;
    failure therefore signals a non-minimum input.
    """
    m = maximum_matching(split.down)
    missed = [v for v in split.down_cover_side if not m.saturates(v)]
    if missed:
        raise SaturationImpossible(
            f"down part cannot saturate {sorted(missed)}; "
            "cover was not minimum")
    return m


def reverse_procedure_up(split: CoverSplit,
                         visit_order: Sequence[int] | None = None,
                         ) -> Matching:
    """Grow a matching on the up part, keeping each visited root unsaturated.

    Roots (the uncovered U vertices) are visited in ``visit_order``
    (default ascending id).  From a root ``u``, each unsaturated neighbor
    ``v`` is matched to one of its own unsaturated neighbors ``w`` other
    than the root, and the walk continues depth-first from ``w``.
    Saturation is re-checked immediately before every insertion.
    """
    up = split.up
    roots = split.up_roots
    if visit_order is None:
        order = sorted(roots)
    else:
        order = list(visit_order)
        if set(order) != set(roots):
            raise NotMinimumCover(
                "visit_order must be a permutation of the uncovered U side")
    partner: dict[int, int] = {}
    for root in order:
        if root in partner:
            continue
        # one iterator over sorted neighbors per vertex on the walk; the
        # walk resumes a vertex's scan once everything below it is done
        stack = [iter(sorted(up.neighbors(root)))]
        while stack:
            for v in stack[-1]:
                if v in partner:
                    continue
                w = next((w for w in sorted(up.neighbors(v))
                          if w != root and w not in partner), None)
                if w is None:
                    continue
                partner[v] = w
                partner[w] = v
                stack.append(iter(sorted(up.neighbors(w))))
                break
            else:
                stack.pop()
    return Matching(up, partner.items())


def reverse_konig(g: BipartiteGraph,
                  c: VertexCover | Iterable[int],
                  visit_order: Sequence[int] | None = None) -> ReverseResult:
    """Recover a matching whose Kőnig cover is exactly ``c``.

    The round trip is verified before returning; a mismatch raises
    ``RoundTripFailed`` (a defect, never expected on valid input).
    """
    cset = _cover_vertices(c)
    split = split_by_cover(g, cset)
    order = tuple(sorted(split.up_roots) if visit_order is None
                  else visit_order)
    m_down = saturating_matching_down(split)
    m_up = reverse_procedure_up(split, order)
    combined = Matching(g, m_up.edges | m_down.edges)
    produced = konig_vertices(g, combined)
    if produced != cset:
        raise RoundTripFailed(
            f"expected cover {sorted(cset)}, procedure gave "
            f"{sorted(produced)}")
    return ReverseResult(m_up, m_down, combined, order)
