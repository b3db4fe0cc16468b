"""Star-studded graphs: attach a three-leaf star to every vertex.

Every minimum vertex cover of the studded graph contains exactly the star
centers plus a minimum cover of the base, which makes lifting and
restricting covers a bijection.  Studded graphs have the property that
every minimum cover is reachable from a maximal matching by Kőnig's
procedure.

That check is decided per minimum cover C by ``maximal_witness``, from
C and its split.  If K(M) = C for a matching M, then Z(M) = U △ C, the
vertex set of the up part.  So M has no edge between U ∩ C and V ∩ C
(a V ∩ C vertex in Z brings its partner into Z, and U ∩ C is outside
Z), and every U ∩ C vertex is saturated (a free U-vertex is in Z), so
it is matched inside the down part.  M's up half splits over the up
part's connected components.  Every edge outside the up part touches
the saturated U ∩ C, so M is maximal iff each up piece is maximal in
its component; the closure from the free U-vertices never leaves the
up part, so Z(M) is the whole up part iff each piece's closure is its
whole component.  The down half may be any matching that saturates
U ∩ C, such as the split's.  Hence a witness exists iff every up
component has a maximal matching that closes over it, and only those
components' matchings are walked.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import (
    DuplicateVertex,
    EmptyGraph,
    NotMinimumCover,
    RoundTripFailed,
)
from .graph import BipartiteGraph, connected_components
from .konig import _alternating_closure, is_minimum_cover, konig_vertices
from .matching import Matching, is_maximal
from .oracle import OracleBudget, all_minimum_covers, iter_maximal_matchings
from .reverse import split_by_cover


@dataclass(frozen=True)
class StarStuddedGraph:
    """Base graph, studded graph, and the per-vertex star attachment map.

    ``attachment[v]`` is ``(center, leaf1, leaf2, leaf3)`` for each base
    vertex ``v``; the center sits on the opposite side from ``v`` and the
    leaves on the same side.
    """

    base: BipartiteGraph
    full: BipartiteGraph
    attachment: dict[int, tuple[int, int, int, int]]


def star_stud(h: BipartiteGraph) -> StarStuddedGraph:
    """Attach a fresh three-leaf star to every vertex of ``h``.

    New vertices get ids after the base ids, in ascending base-vertex
    order, center first then the three leaves, so the labeling is
    reproducible.  A star label equal to a label already given (base
    labels ``a`` and ``a*c``) raises ``DuplicateVertex``.
    """
    if not h.left or not h.right:
        raise EmptyGraph("base graph needs both sides nonempty")
    next_id = max(h.vertices) + 1
    left = set(h.left)
    right = set(h.right)
    edges = set(h.edges)
    labels = dict(h.labels)
    taken = set(labels.values())
    attachment: dict[int, tuple[int, int, int, int]] = {}
    for v in sorted(h.vertices):
        center = next_id
        leaves = (next_id + 1, next_id + 2, next_id + 3)
        next_id += 4
        base_label = h.labels[v]
        for w, suffix in zip((center,) + leaves, ("c", "l1", "l2", "l3")):
            label = f"{base_label}*{suffix}"
            if label in taken:
                raise DuplicateVertex(
                    f"star label {label!r} is already a vertex label")
            taken.add(label)
            labels[w] = label
        if v in h.left:
            right.add(center)
            left.update(leaves)
            edges.add((v, center))
            edges.update((leaf, center) for leaf in leaves)
        else:
            left.add(center)
            right.update(leaves)
            edges.add((center, v))
            edges.update((center, leaf) for leaf in leaves)
        attachment[v] = (center,) + leaves
    full = BipartiteGraph(left, right, edges, labels)
    return StarStuddedGraph(h, full, attachment)


def restrict_cover(ssg: StarStuddedGraph, c) -> frozenset[int]:
    """Minimum cover of the studded graph → minimum cover of the base."""
    cset = frozenset(c)
    if not is_minimum_cover(ssg.full, cset):
        raise NotMinimumCover(
            "input is not a minimum cover of the studded graph")
    return cset & ssg.base.vertices


def maximal_witness(g: BipartiteGraph,
                    cover: Iterable[int],
                    budget: OracleBudget | None = None) -> Matching | None:
    """A maximal matching of ``g`` whose Kőnig cover is ``cover``, or
    None if there is none.

    ``cover`` must be a minimum cover (``NotMinimumCover`` otherwise).
    The down half is the split's matching; the up half takes, in each
    component of the up part (the subgraph on C △ U), the first maximal
    matching whose alternating closure from its free U-vertices is the
    whole component.  Only the component graphs are built, and their
    maximal matchings are walked lazily under ``budget``.  The union is
    checked on the whole graph; a failed check raises ``RoundTripFailed``.
    """
    split = split_by_cover(g, cover)
    edges = set(split.m_down.edges)
    for comp in connected_components(g, split.cover ^ g.u_side):
        comp_roots = comp.vertices & split.up_roots
        for m in iter_maximal_matchings(comp, budget):
            partner = m._partner
            free = [u for u in comp_roots if u not in partner]
            if len(_alternating_closure(comp._adjacency, partner, free)) \
                    == len(comp.vertices):
                edges |= m.edges
                break
        else:
            return None
    witness = Matching(g, edges)
    if not is_maximal(witness) or konig_vertices(witness) != split.cover:
        raise RoundTripFailed(
            f"witness {sorted(witness.edges)} is not maximal or does not "
            f"give cover {sorted(split.cover)}")
    return witness


def is_enumeratively_konig_egervary(
    g: BipartiteGraph,
    budget: OracleBudget | None = None,
) -> bool:
    """True iff every minimum vertex cover of ``g`` arises from Kőnig's
    procedure applied to some maximal matching, that is, has a
    ``maximal_witness``."""
    return all(maximal_witness(g, c, budget) is not None
               for c in all_minimum_covers(g, budget))
