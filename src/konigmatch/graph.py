"""Bipartite graph representation, validation, and basic queries.

Vertices are identified by dense non-negative integers, and the
constructor refuses any other id with ``IndexOutOfRange``: the package
holds vertex sets as *vertex masks*, ints with bit v for vertex v
(``_mask`` builds one, ``_bits`` lists one in ascending order).  A
vertex's neighbour mask is as wide as its highest neighbour id, so a
graph of n vertices may hold about n²/8 bytes of masks even when it is
sparse; the constructor refuses an id of ``MAX_VERTICES`` or more with
``BudgetExceeded``, before it builds any mask, which bounds the masks of
any graph at ``MAX_VERTICES``²/8 bytes (50 MB) and the loaders' graphs,
whose ids run from 0, at ``MAX_VERTICES`` vertices.  A graph
keeps a designated *left* side, which holds an endpoint of every edge,
and a *right* side.  ``build_graph`` normalizes inputs so that the left
side is never larger than the right side; induced subgraphs keep their
parent's vertex ids and side designation.

The adjacency is one map from each vertex to its neighbour mask, built
with the graph; ``neighbors(v)`` turns a mask into a frozenset for
callers outside the package, which reads the masks themselves.
Kőnig's procedure searches from ``u_side``, U: in each connected
component the smaller side, ties keeping the left side; V, the other
vertices, is never stored.  A graph never changes: ``__init__``
computes U, as ``u_side`` and as the vertex mask ``u_mask``, and the
other data derived from the graph (the edges of a maximum matching, the
label index) is computed on first use and kept.  ``_covers`` and
``_irredundant`` test a vertex mask against the neighbour masks: it
covers every edge, and none of its vertices has its whole neighborhood
inside it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BudgetExceeded,
    DuplicateVertex,
    IndexOutOfRange,
    SameSideEdge,
    UnknownVertex,
)

Edge = tuple[int, int]

# every vertex id is below this, so a graph's neighbour masks, each as
# wide as its highest neighbour id, take at most MAX_VERTICES**2 / 8
# bytes (50 MB); `match` on a 20,000-vertex path file peaks at 64 MiB
# and `reverse` at 98 MiB, and a 40,000-vertex path holds 119 MiB of
# masks
MAX_VERTICES = 20_000


class BipartiteGraph:
    """An immutable bipartite graph with a designated left/right bipartition.

    Edges are stored as ``(u, v)`` pairs with ``u`` on the left side.
    Equality and hashing consider only the structure (sides and edges),
    not the labels.

    ``u_side`` is the U side of Kőnig's procedure (see the module
    docstring) and ``u_mask`` its vertex mask; ``_adjacency`` maps each
    vertex to its neighbour mask.  ``_maximum`` and ``_by_label`` are
    memo slots, left unset by ``__init__`` and filled on first use by
    ``matching.maximum_matching`` and ``vertex_by_label``.  ``_maximum``
    holds a maximum matching's edges, not the ``Matching``: a matching
    refers to its graph, so a graph holding one would form a cycle that
    only the cycle collector frees.
    """

    __slots__ = ("left", "right", "edges", "labels", "u_side", "u_mask",
                 "_adjacency", "_hash", "_maximum", "_by_label")

    def __init__(
        self,
        left: Iterable[int],
        right: Iterable[int],
        edges: Iterable[Edge],
        labels: Mapping[int, str] | None = None,
    ):
        left_set = frozenset(left)
        right_set = frozenset(right)
        if left_set & right_set:
            raise DuplicateVertex(
                f"vertices on both sides: {sorted(left_set & right_set)}")
        vertices = left_set | right_set
        # a vertex is a bit of every mask, so its id must be a bit index
        adjacency: dict[int, int] = {}
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise IndexOutOfRange(
                    f"vertex id {v!r} is not a non-negative integer")
            adjacency[v] = 0
        if vertices and max(vertices) >= MAX_VERTICES:
            raise BudgetExceeded(
                f"a graph has at most {MAX_VERTICES:,} vertices, ids 0 to "
                f"{MAX_VERTICES - 1}; this one has id {max(vertices)}")
        normalized = []
        for a, b in edges:
            if b in left_set and a in right_set:
                a, b = b, a
            elif a not in left_set or b not in right_set:
                if a in left_set and b in left_set or (
                        a in right_set and b in right_set):
                    raise SameSideEdge(
                        f"edge ({a}, {b}) joins one side to itself")
                raise UnknownVertex(f"edge ({a}, {b}) uses unknown vertices")
            normalized.append((a, b))
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        self.left = left_set
        self.right = right_set
        self.edges = frozenset(normalized)
        if labels is None:
            self.labels = {v: str(v) for v in vertices}
        else:
            self.labels = {v: labels[v] for v in vertices}
        self._adjacency = adjacency
        left_mask = _mask(left_set)
        u = 0
        for comp in _components(adjacency, left_mask | _mask(right_set)):
            side = comp & left_mask
            u |= side if 2 * side.bit_count() <= comp.bit_count() \
                else comp ^ side
        self.u_mask = u
        # U is the left side in every connected graph build_graph makes
        self.u_side = left_set if u == left_mask else frozenset(_bits(u))
        self._hash = hash((self.left, self.right, self.edges))

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return self.left | self.right

    def neighbors(self, v: int) -> frozenset[int]:
        """Exact adjacency set of ``v``, built from its neighbour mask."""
        try:
            return frozenset(_bits(self._adjacency[v]))
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in graph") from None

    def edge_key(self, a: int, b: int) -> Edge:
        """Normalize an endpoint pair to the stored ``(left, right)`` order."""
        if a in self.left:
            return (a, b)
        return (b, a)

    def vertex_by_label(self, label: str) -> int:
        try:
            by_label = self._by_label
        except AttributeError:
            by_label = {}
            for v, lab in self.labels.items():
                by_label.setdefault(lab, v)  # the first vertex wins
            self._by_label = by_label
        try:
            return by_label[label]
        except (KeyError, TypeError):  # unhashable labels name no vertex
            raise UnknownVertex(f"no vertex labeled {label!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"BipartiteGraph(|left|={len(self.left)}, "
                f"|right|={len(self.right)}, |edges|={len(self.edges)})")


def build_graph(
    left_count: int,
    right_count: int,
    edges: Iterable[tuple[int, int]],
    left_labels: Sequence[str] | None = None,
    right_labels: Sequence[str] | None = None,
) -> BipartiteGraph:
    """Build a normalized graph from per-side indices.

    Edge ``(i, j)`` joins the i-th left vertex to the j-th right vertex.
    Left vertices get ids ``0 .. left_count-1`` and right vertices
    ``left_count .. left_count+right_count-1``.  If the left side is
    larger than the right, the side roles are swapped (ids are unchanged),
    so the given left vertices form the result's ``right``.
    """
    if left_count < 0 or right_count < 0:
        raise IndexOutOfRange("vertex counts must be non-negative")
    edge_ids = []
    for i, j in edges:
        if not (0 <= i < left_count):
            raise IndexOutOfRange(f"left index {i} out of range")
        if not (0 <= j < right_count):
            raise IndexOutOfRange(f"right index {j} out of range")
        edge_ids.append((i, left_count + j))
    if left_labels is None:
        left_labels = [f"u{i}" for i in range(left_count)]
    if right_labels is None:
        right_labels = [f"v{j}" for j in range(right_count)]
    if len(left_labels) != left_count or len(right_labels) != right_count:
        raise IndexOutOfRange("label sequences must match vertex counts")
    all_labels = list(left_labels) + list(right_labels)
    if len(set(all_labels)) != len(all_labels):
        raise DuplicateVertex("vertex labels must be unique")
    labels = dict(enumerate(all_labels))
    left_ids = range(left_count)
    right_ids = range(left_count, left_count + right_count)
    if left_count > right_count:
        return BipartiteGraph(right_ids, left_ids, edge_ids, labels)
    return BipartiteGraph(left_ids, right_ids, edge_ids, labels)


def induced_subgraph(g: BipartiteGraph,
                     vertices: Iterable[int]) -> BipartiteGraph:
    """Subgraph induced by ``vertices``, preserving parent ids and sides;
    its ``u_side`` is its own, chosen per component of the subgraph."""
    vset = set(vertices)
    unknown = vset - g.vertices
    if unknown:
        raise UnknownVertex(f"vertices not in graph: {sorted(unknown)}")
    return BipartiteGraph(
        g.left & vset,
        g.right & vset,
        {(u, v) for (u, v) in g.edges if u in vset and v in vset},
        g.labels,
    )


def _mask(vertices: Iterable[int]) -> int:
    """A vertex set as an int: bit v stands for vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a vertex mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _covers(g: BipartiteGraph, s: int) -> bool:
    """True iff the vertex mask ``s`` covers every edge of ``g``; U holds
    one endpoint of each edge, so checking its vertices outside ``s`` is
    enough."""
    adjacency = g._adjacency
    rest = g.u_mask & ~s
    while rest:
        low = rest & -rest
        if adjacency[low.bit_length() - 1] & ~s:
            return False
        rest ^= low
    return True


def _irredundant(g: BipartiteGraph, s: int) -> bool:
    """True iff no vertex of the vertex mask ``s`` has its whole
    neighborhood inside ``s``: a cover with this property loses an edge
    when any single vertex is dropped, so it is minimal."""
    adjacency = g._adjacency
    outside = ~s
    rest = s
    while rest:
        low = rest & -rest
        if not adjacency[low.bit_length() - 1] & outside:
            return False
        rest ^= low
    return True


def _components(adjacency: Mapping[int, int], within: int) -> Iterator[int]:
    """Each connected component of the subgraph on the vertex mask
    ``within``, as a vertex mask, by least vertex: a BFS over the
    neighbour masks ``adjacency``, one frontier mask per level."""
    while within:
        comp = frontier = within & -within
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & within & ~comp
            comp |= frontier
        within ^= comp
        yield comp


def connected_components(g: BipartiteGraph,
                         vertices: Iterable[int]) -> list[BipartiteGraph]:
    """The components, by least vertex, of the subgraph on ``vertices``,
    walked on ``g``'s neighbour masks: only they are built.  A vertex not
    in ``g`` raises ``UnknownVertex``."""
    vset = set(vertices)
    unknown = vset - g.vertices
    if unknown:
        raise UnknownVertex(f"vertices not in graph: {sorted(unknown)}")
    return [induced_subgraph(g, _bits(comp))
            for comp in _components(g._adjacency, _mask(vset))]
