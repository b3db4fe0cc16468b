"""Star-studded graphs: attach a three-leaf star to every vertex.

Every minimum vertex cover of the studded graph contains exactly the star
centers plus a minimum cover of the base, which makes lifting and
restricting covers a bijection.  Studded graphs have the property that
every minimum cover is reachable from a maximal matching by Kőnig's
procedure.

That check is an existence check: it is settled once each minimum cover
has one witness.  ``is_enumeratively_konig_egervary`` therefore feeds
the lazy ``iter_maximal_matchings`` to ``reached_minimum_covers`` with
the oracle's covers as ``until``, and the walk stops at the last
witness instead of visiting every maximal matching.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import EmptyGraph, NotMinimumCover
from .graph import BipartiteGraph
from .konig import is_minimum_cover, konig_vertices
from .matching import Matching, matching_number
from .oracle import OracleBudget, all_minimum_covers, iter_maximal_matchings


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

    @property
    def centers(self) -> frozenset[int]:
        return frozenset(c for c, _, _, _ in self.attachment.values())


def star_stud(h: BipartiteGraph) -> StarStuddedGraph:
    """Attach a fresh three-leaf star to every vertex of ``h``.

    New vertices get ids after the base ids, in ascending base-vertex
    order, center first then the three leaves, so the labeling is
    reproducible.
    """
    if not h.left or not h.right:
        raise EmptyGraph("base graph needs both sides nonempty")
    next_id = max(h.vertices) + 1
    left = set(h.left)
    right = set(h.right)
    edges = set(h.edges)
    labels = dict(h.labels)
    attachment: dict[int, tuple[int, int, int, int]] = {}
    for v in sorted(h.vertices):
        center = next_id
        leaves = (next_id + 1, next_id + 2, next_id + 3)
        next_id += 4
        base_label = h.labels[v]
        labels[center] = f"{base_label}*c"
        for k, leaf in enumerate(leaves, start=1):
            labels[leaf] = f"{base_label}*l{k}"
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


def lift_cover(ssg: StarStuddedGraph, c) -> frozenset[int]:
    """Minimum cover of the base → minimum cover of the studded graph.

    The lift adds every star center; no leaf is ever needed.
    """
    cset = frozenset(c)
    if not is_minimum_cover(ssg.base, cset):
        raise NotMinimumCover("input is not a minimum cover of the base")
    return cset | ssg.centers


def restrict_cover(ssg: StarStuddedGraph, c) -> frozenset[int]:
    """Minimum cover of the studded graph → minimum cover of the base."""
    cset = frozenset(c)
    if not is_minimum_cover(ssg.full, cset):
        raise NotMinimumCover(
            "input is not a minimum cover of the studded graph")
    return cset & ssg.base.vertices


def reached_minimum_covers(
    g: BipartiteGraph,
    matchings: Iterable[Matching],
    until: set[frozenset[int]] | None = None,
) -> set[frozenset[int]]:
    """The minimum vertex covers Kőnig's procedure yields from
    ``matchings``, which are matchings of ``g``.

    K(M) is a vertex cover for every matching M, so it is minimum
    exactly when it has ν(G) vertices.  With ``until``, stop drawing
    from ``matchings`` as soon as every cover in ``until`` has been
    reached.  When ``until`` is the set of all minimum covers, every
    cover collected is in it, so an early stop returns exactly
    ``until``, and a walk that never reaches some cover runs to the end
    and returns what a full walk returns.
    """
    nu = matching_number(g)
    reached = set()
    missing = set(until or ())
    if until is not None and not missing:
        return reached
    for m in matchings:
        k = konig_vertices(g, m)
        if len(k) == nu:
            reached.add(k)
            missing.discard(k)
            if until is not None and not missing:
                break
    return reached


def is_enumeratively_konig_egervary(
    g: BipartiteGraph,
    budget: OracleBudget | None = None,
) -> bool:
    """True iff every minimum vertex cover of ``g`` arises from Kőnig's
    procedure applied to some maximal matching.

    The maximal matchings are walked only until each minimum cover has
    a witness.
    """
    wanted = all_minimum_covers(g, budget)
    return wanted <= reached_minimum_covers(
        g, iter_maximal_matchings(g, budget), until=wanted)
