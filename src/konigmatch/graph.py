"""Bipartite graph representation, validation, and basic queries.

Vertices are identified by dense non-negative integers.  A graph keeps a
designated *left* side, which holds an endpoint of every edge, and a
*right* side.  ``build_graph`` normalizes inputs so that the left side is
never larger than the right side; induced subgraphs keep their parent's
vertex ids and side designation.

Kőnig's procedure searches from ``u_side``, U: in each connected
component the smaller side, ties keeping the left side; V, the other
vertices, is never stored.  A graph never changes: ``__init__``
computes U, and the other data derived from the graph (the edges of a
maximum matching, the label index) is computed on first use and kept.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateVertex,
    IndexOutOfRange,
    SameSideEdge,
    UnknownVertex,
)

Edge = tuple[int, int]


class BipartiteGraph:
    """An immutable bipartite graph with a designated left/right bipartition.

    Edges are stored as ``(u, v)`` pairs with ``u`` on the left side.
    Equality and hashing consider only the structure (sides and edges),
    not the labels.

    ``u_side`` is the U side of Kőnig's procedure (see the module
    docstring).  ``_maximum`` and ``_by_label`` are memo slots, left unset
    by ``__init__`` and filled on first use by
    ``matching.maximum_matching`` and ``vertex_by_label``.  ``_maximum``
    holds a maximum matching's edges, not the ``Matching``: a matching
    refers to its graph, so a graph holding one would form a cycle that
    only the cycle collector frees.
    """

    __slots__ = ("left", "right", "edges", "labels",
                 "u_side", "_adjacency", "_hash", "_maximum", "_by_label")

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
        adjacency: dict[int, set[int]] = {v: set() for v in vertices}
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
            adjacency[a].add(b)
            adjacency[b].add(a)
        # frozen one set at a time, so the two copies never coexist
        for v, ns in adjacency.items():
            adjacency[v] = frozenset(ns)
        self.left = left_set
        self.right = right_set
        self.edges = frozenset(normalized)
        if labels is None:
            self.labels = {v: str(v) for v in vertices}
        else:
            self.labels = {v: labels[v] for v in vertices}
        self._adjacency = adjacency
        u: set[int] = set()
        for comp in _components(self):
            left = left_set.intersection(comp)
            u |= left if 2 * len(left) <= len(comp) else set(comp) - left
        # U is the left side in every connected graph build_graph makes
        self.u_side = left_set if u == left_set else frozenset(u)
        self._hash = hash((self.left, self.right, self.edges))

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return self.left | self.right

    def neighbors(self, v: int) -> frozenset[int]:
        """Exact adjacency set of ``v``."""
        try:
            return self._adjacency[v]
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


def _components(g: BipartiteGraph) -> Iterator[list[int]]:
    """The vertex list of each connected component, by breadth-first search
    over the adjacency sets."""
    adjacency = g._adjacency
    seen: set[int] = set()
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:  # the list grows while it is walked: a BFS
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        yield comp


def connected_components(g: BipartiteGraph) -> list[BipartiteGraph]:
    """Partition ``g`` into connected components, ordered by least vertex."""
    return [induced_subgraph(g, comp)
            for comp in sorted(_components(g), key=min)]
