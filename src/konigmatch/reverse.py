"""Recovering a matching from a minimum vertex cover.

The cover splits the graph into an *up* part (cover vertices on the V
side together with the uncovered U vertices), a *down* part (cover
vertices on the U side together with the uncovered V vertices), and the
cut edges with both endpoints in the cover.  The down part needs no
search of its own: a minimum cover holds exactly one end of each edge
of a maximum matching M*, and every cover vertex lies on an M* edge
(Kőnig; Dulmage and Mendelsohn, 1958), so the M* edges at U ∩ C form a
matching of the down part saturating U ∩ C.  The up part needs no graph
of its own: a root u ∈ U \\ C has N(u) ⊆ V ∩ C, as C covers its edges,
and v ∈ V ∩ C has up neighbours N(v) ∩ (U \\ C).  On it a depth-first
procedure grows a matching while keeping each visited root unsaturated.
Kőnig's procedure on the union must give back the input cover.

The split and its down matching depend on the cover alone; only the up
walk depends on the order in which roots are visited.  So a split is a
value: the graph and cover it was made for, the roots U \\ C and the
down matching.  ``reverse_konig`` takes a split, not a graph and a
cover, which lets a caller try many visit orders on one split.  It
walks the graph's own neighbour masks, holding the walk's saturated
vertices as one vertex mask, and builds one matching of the whole
graph, whose up half is ``m.edges - split.m_down.edges``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import NotMinimumCover, RoundTripFailed
from .graph import BipartiteGraph, _bits, _mask
from .konig import VertexCover, _konig_mask, is_minimum_cover, konig_vertices
from .matching import Matching, maximum_matching


@dataclass(frozen=True)
class CoverSplit:
    """The up/down decomposition induced by a minimum cover.

    ``graph`` and ``cover`` name what the split was made for, so
    ``reverse_konig`` checks its round trip against the right cover.
    ``m_down`` is the matching of ``graph`` that saturates U ∩ C: the
    edges of ``maximum_matching(graph)`` whose U-end is in the cover.
    The up part is no field: ``reverse_konig`` reads it off ``graph``.
    """

    graph: BipartiteGraph
    cover: frozenset[int]
    up_roots: frozenset[int]       # U \ C, the up part's non-cover side
    m_down: Matching


def split_by_cover(g: BipartiteGraph,
                   c: VertexCover | Iterable[int]) -> CoverSplit:
    """Split ``g`` along a minimum cover and match its down part.

    U here is ``g.u_mask`` (the smaller side per component), matching
    the convention ``konig_cover`` uses, so the round trip is consistent.
    A cover that is not minimum raises ``NotMinimumCover``.  ``m_down``
    follows ``g``'s kept M*, empty-start on a ``cached_corpus`` graph.
    """
    cset = frozenset(c)
    if not is_minimum_cover(g, cset):
        raise NotMinimumCover("input set is not a minimum vertex cover")
    u_mask = g.u_mask
    down = u_mask & _mask(cset)  # U ∩ C
    # the cover holds one end of each maximum-matching edge, and each of
    # its vertices is matched, so the edges with an end in U ∩ C (their
    # U-end: an edge has one) saturate it, and their V-ends lie outside C
    m_down = Matching._unchecked(g, [
        (a, b) for a, b in maximum_matching(g).edges
        if (down >> a | down >> b) & 1])
    return CoverSplit(g, cset, frozenset(_bits(u_mask & ~down)), m_down)


def reverse_konig(split: CoverSplit,
                  visit_order: Sequence[int] | None = None) -> Matching:
    """Recover a matching of ``split.graph`` whose Kőnig cover is exactly
    ``split.cover``: a matching grown on the up part, keeping each
    visited root unsaturated, together with the split's down matching.

    Roots (the uncovered U vertices) are visited in ``visit_order``
    (default ascending id); an order that is not a permutation of them
    raises ``NotMinimumCover``.  From a root ``u``, each unsaturated
    neighbor ``v`` is matched to its first unsaturated neighbor ``w``
    among the other roots (the lowest bit of ``v``'s neighbour mask
    among the roots, less ``u`` and the saturated vertices), and the walk
    continues depth-first from ``w``.  Saturation is re-checked
    immediately before every insertion.
    The up and down parts share no vertex, so the union is a matching.

    ``split`` is ``split_by_cover(g, c)`` for a minimum cover ``c``;
    many visit orders can share one split.  The round trip is verified
    against the split's cover before returning; a mismatch raises
    ``RoundTripFailed`` (a defect, or a split whose parts belong to
    another cover).  Through ``split.m_down`` a fresh graph's matching can
    depend on its first search (see ``split_by_cover``); its cover never
    does, and the CLI loads a fresh graph per command.
    """
    adjacency = split.graph._adjacency
    roots = split.up_roots
    if visit_order is None:
        order = sorted(roots)
    else:
        order = list(visit_order)
        try:
            # a repeated root would pass the set comparison alone
            permutation = len(order) == len(roots) and set(order) == roots
        except TypeError:  # an unhashable entry is no root
            permutation = False
        if not permutation:
            raise NotMinimumCover(
                "visit_order must be a permutation of the uncovered U side")
    roots_mask = _mask(roots)
    saturated = 0  # the vertex mask of the up walk's matched vertices
    up_edges: list[tuple[int, int]] = []
    for root in order:
        bit = 1 << root
        if saturated & bit:
            continue
        free_roots = roots_mask & ~bit
        # one iterator over the ascending neighbors per vertex on the
        # walk; the walk resumes a vertex's scan once everything below
        # it is done
        stack = [_bits(adjacency[root])]
        while stack:
            for v in stack[-1]:
                if saturated >> v & 1:
                    continue
                # the first other root still unsaturated
                near = adjacency[v] & free_roots & ~saturated
                if not near:
                    continue
                low = near & -near
                w = low.bit_length() - 1
                saturated |= 1 << v | low
                up_edges.append((v, w))
                stack.append(_bits(adjacency[w]))
                break
            else:
                stack.pop()
    # each up edge once; the constructor checks every edge
    combined = Matching(split.graph, [*up_edges, *split.m_down.edges])
    if _konig_mask(combined) != _mask(split.cover):
        raise RoundTripFailed(
            f"expected cover {sorted(split.cover)}, procedure gave "
            f"{sorted(konig_vertices(combined))}")
    return combined
