"""Recovering a matching from a minimum vertex cover.

The cover splits the graph into an *up* part (cover vertices on the V
side together with the uncovered U vertices), a *down* part (cover
vertices on the U side together with the uncovered V vertices), and the
cut edges with both endpoints in the cover.  A saturating matching is
found on the down part; on the up part a depth-first procedure grows a
matching while keeping each visited root unsaturated.  Applying Kőnig's
procedure to the union reproduces the input cover; this is asserted and
a violation raises ``RoundTripFailed``.

The split and its down matching depend on the cover alone; only the up
walk depends on the order in which roots are visited.  So a split is a
value: it records the graph and cover it was made for, and
``reverse_konig`` takes a split, not a graph and a cover, which lets a
caller try many visit orders on one split.  It walks the up part and
builds one matching of the whole graph, whose up half is
``m.edges - split.m_down.edges``.  A split stores its up part, the up
part's roots and the down matching, which records the down part as its
graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import NotMinimumCover, RoundTripFailed, SaturationImpossible
from .graph import BipartiteGraph, induced_subgraph, procedure_sides
from .konig import VertexCover, is_minimum_cover, konig_vertices
from .matching import Matching, maximum_matching


@dataclass(frozen=True)
class CoverSplit:
    """The up/down decomposition induced by a minimum cover.

    ``graph`` and ``cover`` name what the split was made for, so
    ``reverse_konig`` checks its round trip against the right cover.
    ``m_down`` is the down part's matching saturating U ∩ C, found once
    with the split; its graph is the down part.
    """

    graph: BipartiteGraph
    cover: frozenset[int]
    up: BipartiteGraph
    up_roots: frozenset[int]       # U \ C, the up part's non-cover side
    m_down: Matching


def split_by_cover(g: BipartiteGraph,
                   c: VertexCover | Iterable[int]) -> CoverSplit:
    """Split ``g`` along a minimum cover and match its down part.

    U here is the procedure side (smaller side per component), matching
    the convention ``konig_cover`` uses, so the round trip is consistent.
    A cover that is not minimum raises ``NotMinimumCover``.  The down
    matching saturates every cover vertex of U; it exists by Hall's
    condition when the cover is minimum, so ``SaturationImpossible``
    signals a defect.
    """
    cset = frozenset(c)
    if not is_minimum_cover(g, cset):
        raise NotMinimumCover("input set is not a minimum vertex cover")
    u_side, v_side = procedure_sides(g)
    up = induced_subgraph(g, (v_side & cset) | (u_side - cset))
    down = induced_subgraph(g, (u_side & cset) | (v_side - cset))
    m_down = maximum_matching(down)
    missed = [v for v in u_side & cset if not m_down.saturates(v)]
    if missed:
        raise SaturationImpossible(
            f"down part cannot saturate {sorted(missed)}; "
            "cover was not minimum")
    return CoverSplit(g, cset, up, u_side - cset, m_down)


def reverse_konig(split: CoverSplit,
                  visit_order: Sequence[int] | None = None) -> Matching:
    """Recover a matching of ``split.graph`` whose Kőnig cover is exactly
    ``split.cover``: a matching grown on the up part, keeping each
    visited root unsaturated, together with the split's down matching.

    Roots (the uncovered U vertices) are visited in ``visit_order``
    (default ascending id); an order that is not a permutation of them
    raises ``NotMinimumCover``.  From a root ``u``, each unsaturated
    neighbor ``v`` is matched to one of its own unsaturated neighbors
    ``w`` other than the root, and the walk continues depth-first from
    ``w``.  Saturation is re-checked immediately before every insertion.
    The up and down parts share no vertex, so the union is a matching.

    ``split`` is ``split_by_cover(g, c)`` for a minimum cover ``c``;
    many visit orders can share one split.  The round trip is verified
    against the split's cover before returning; a mismatch raises
    ``RoundTripFailed`` (a defect, or a split whose parts belong to
    another cover).
    """
    up = split.up
    roots = split.up_roots
    if visit_order is None:
        order = sorted(roots)
    else:
        order = list(visit_order)
        # a repeated root would pass the set comparison alone
        if len(order) != len(roots) or set(order) != set(roots):
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
    combined = Matching(split.graph,
                        [*partner.items(), *split.m_down.edges])
    produced = konig_vertices(combined)
    if produced != split.cover:
        raise RoundTripFailed(
            f"expected cover {sorted(split.cover)}, procedure gave "
            f"{sorted(produced)}")
    return combined
