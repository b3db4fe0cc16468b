"""Bipartite graph representation, validation, and basic queries.

Vertices are identified by dense non-negative integers, and the
constructor refuses any other id with ``IndexOutOfRange``: the package
holds vertex sets as *vertex masks*, ints with bit v for vertex v
(``_mask`` builds one, ``_bits`` lists one in ascending order).  A
vertex's neighbour mask is as wide as its highest neighbour id, so a
graph of n vertices may hold about n²/8 bytes of masks even when it is
sparse; the constructor refuses an id at or over the vertex limit
(``errors.Limit.VERTICES``) before it builds any mask, which bounds
every graph's masks and the loaders' graphs, whose ids run from 0.  A
graph keeps a designated *left* side, which holds an endpoint of every
edge, and a *right* side.  ``build_graph`` normalizes inputs so that the
left side is never larger than the right side; induced subgraphs keep
their parent's vertex ids and side designation.

The neighbour masks are the graph, which never changes:
``BipartiteGraph`` lists what it stores, the views it builds on every
read for callers outside the package (which reads the masks
themselves), and what it computes once and keeps.  ``_edge_list`` lists
the edges in ascending order and ``_edge`` tests one vertex pair,
through a side table indexed by vertex id (``_sides``).  Kőnig's
procedure searches from U: in each connected component the smaller
side, ties keeping the left side; V, the other vertices, is never
stored.  ``_covers`` and ``_irredundant`` test a vertex mask against the
neighbour masks: it covers every edge, and none of its vertices has its
whole neighborhood inside it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateVertex,
    IndexOutOfRange,
    Limit,
    SameSideEdge,
    UnknownVertex,
)

Edge = tuple[int, int]


class BipartiteGraph:
    """An immutable bipartite graph with a designated left/right bipartition.

    Stored: ``_adjacency``, each vertex's neighbour mask (its keys are
    the vertices); ``left_mask`` and ``u_mask``, the left side and the U
    side of Kőnig's procedure (see the module docstring) as vertex
    masks; and ``_labels``, the labels the caller gave, one to a vertex,
    or None (a vertex with no label raises ``IndexOutOfRange``, and a
    label given twice or unhashable ``DuplicateVertex``).
    Derived on every read, in O(n + E): ``left``, ``right``,
    ``vertices``, ``u_side`` and ``edges`` (``(u, v)`` pairs with ``u``
    on the left side) as frozensets, and ``labels``, the given labels
    or ``str(v)`` for each vertex.  Equality and hashing consider only
    the structure (the left mask and the neighbour masks), not the
    labels.

    ``_hash``, ``_side``, ``_maximum`` and ``_by_label`` are memo slots,
    left unset by ``__init__`` and filled on first use by ``__hash__``,
    ``_sides``, ``matching.maximum_matching`` and ``vertex_by_label``.
    ``_maximum`` holds a maximum matching's edges as a tuple, not the
    ``Matching``: a matching refers to its graph, so a graph holding one
    would form a cycle that only the cycle collector frees.
    """

    __slots__ = ("_adjacency", "left_mask", "u_mask", "_labels",
                 "_hash", "_side", "_maximum", "_by_label")

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
        if vertices and max(vertices) >= Limit.VERTICES.value:
            raise Limit.VERTICES.refusal(max(vertices) + 1)
        if labels is not None:
            try:
                labels = {v: labels[v] for v in adjacency}
            except KeyError as exc:
                raise IndexOutOfRange(f"vertex {exc} has no label") from None
            try:
                unique = len(set(labels.values())) == len(labels)
            except TypeError:  # an unhashable label
                unique = False
            if not unique:
                raise DuplicateVertex("labels must be unique and hashable")
        for a, b in edges:
            if b in left_set and a in right_set:
                a, b = b, a
            elif a not in left_set or b not in right_set:
                if a in left_set and b in left_set or (
                        a in right_set and b in right_set):
                    raise SameSideEdge(
                        f"edge ({a}, {b}) joins one side to itself")
                raise UnknownVertex(f"edge ({a}, {b}) uses unknown vertices")
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        self._store(adjacency, _mask(left_set), labels)

    @classmethod
    def _from_masks(cls, adjacency: dict[int, int], left_mask: int,
                    labels: dict[int, str] | None) -> BipartiteGraph:
        """A graph on checked masks: ``adjacency`` symmetric and keyed by
        valid ids, ``left_mask`` holding one end of every edge, and
        ``labels`` None or keyed by those ids."""
        g = cls.__new__(cls)
        g._store(adjacency, left_mask, labels)
        return g

    def _store(self, adjacency: dict[int, int], left_mask: int,
               labels: dict[int, str] | None) -> None:
        self._adjacency = adjacency
        self.left_mask = left_mask
        self._labels = labels
        u = 0
        for comp in _components(adjacency, _mask(adjacency)):
            side = comp & left_mask
            u |= side if 2 * side.bit_count() <= comp.bit_count() \
                else comp ^ side
        self.u_mask = u

    # -- views: sets built from the masks on each read ----------------

    @property
    def left(self) -> frozenset[int]:
        return frozenset(_bits(self.left_mask))

    @property
    def right(self) -> frozenset[int]:
        return frozenset(self._adjacency).difference(_bits(self.left_mask))

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adjacency)

    @property
    def u_side(self) -> frozenset[int]:
        return frozenset(_bits(self.u_mask))

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(_edge_list(self))

    @property
    def labels(self) -> dict[int, str]:
        """The labels given to the constructor, or ``str(v)`` for each
        vertex when none were."""
        return self._labels or {v: str(v) for v in self._adjacency}

    # -- basic queries -------------------------------------------------

    def neighbors(self, v: int) -> frozenset[int]:
        """Exact adjacency set of ``v``, built from its neighbour mask."""
        try:
            return frozenset(_bits(self._adjacency[v]))
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in graph") from None

    def edge_key(self, a: int, b: int) -> Edge:
        """Normalize an endpoint pair to the stored ``(left, right)``
        order; a pair that is no edge comes back as given."""
        return _edge(self, a, b) or (a, b)

    def vertex_by_label(self, label: str) -> int:
        try:
            by_label = self._by_label
        except AttributeError:
            by_label = {lab: v for v, lab in self.labels.items()}
            self._by_label = by_label
        try:
            return by_label[label]
        except (KeyError, TypeError):  # unhashable labels name no vertex
            raise UnknownVertex(f"no vertex labeled {label!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.left_mask == other.left_mask
                and self._adjacency == other._adjacency)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.left_mask,
                               frozenset(self._adjacency.items())))
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
    so the given left vertices form the result's ``right``.  A graph
    given no labels keeps none and reads ``str(v)`` for vertex ``v``; a
    side given none, beside one given labels, is labeled so too.

    The edge indices are checked as the constructor reads them, so an
    index out of range is raised after any label error and the vertex
    limit's ``BudgetExceeded``.
    """
    if left_count < 0 or right_count < 0:
        raise IndexOutOfRange("vertex counts must be non-negative")
    edge_ids = _edge_ids(left_count, right_count, edges)
    left_ids = range(left_count)
    right_ids = range(left_count, left_count + right_count)
    labels = None
    if left_labels is not None or right_labels is not None:
        if left_labels is None:
            left_labels = list(map(str, left_ids))
        if right_labels is None:
            right_labels = list(map(str, right_ids))
        if len(left_labels) != left_count or \
                len(right_labels) != right_count:
            raise IndexOutOfRange("label sequences must match vertex counts")
        labels = dict(enumerate([*left_labels, *right_labels]))
    if left_count > right_count:
        return BipartiteGraph(right_ids, left_ids, edge_ids, labels)
    return BipartiteGraph(left_ids, right_ids, edge_ids, labels)


def _edge_ids(left_count: int, right_count: int,
              edges: Iterable[tuple[int, int]]) -> Iterator[Edge]:
    """Each index pair ``(i, j)`` of ``edges`` as the id pair ``(i,
    left_count + j)``, checked as the constructor consumes it, so no
    list of the ids is built."""
    for i, j in edges:
        if not (0 <= i < left_count):
            raise IndexOutOfRange(f"left index {i} out of range")
        if not (0 <= j < right_count):
            raise IndexOutOfRange(f"right index {j} out of range")
        yield i, left_count + j


def induced_subgraph(g: BipartiteGraph,
                     vertices: Iterable[int]) -> BipartiteGraph:
    """Subgraph induced by ``vertices``, preserving parent ids, sides and
    labels: each neighbour mask cut to ``vertices``.  Its U side is its
    own, chosen per component of the subgraph."""
    within = _known_mask(g, vertices)
    adjacency = g._adjacency
    labels = g._labels
    kept = list(_bits(within))
    return BipartiteGraph._from_masks(
        {v: adjacency[v] & within for v in kept}, g.left_mask & within,
        None if labels is None else {v: labels[v] for v in kept})


def _known_mask(g: BipartiteGraph, vertices: Iterable[int]) -> int:
    """``vertices`` as a vertex mask; an element that is no vertex id of
    ``g`` (absent, or not an int, such as 2.0, which equals the id 2)
    raises ``UnknownVertex``."""
    adjacency = g._adjacency
    mask = 0
    unknown = []
    for v in set(vertices):
        if isinstance(v, int) and v in adjacency:
            mask |= 1 << v
        else:
            unknown.append(v)
    if unknown:
        # by repr, as the unknown elements may not be comparable
        raise UnknownVertex(
            f"vertices not in graph: {sorted(unknown, key=repr)}")
    return mask


def _sides(g: BipartiteGraph) -> bytes:
    """The side table of ``g``: byte v is 1 at a left vertex v and 0 at
    a right vertex or at an id that is no vertex; built on first use and
    kept."""
    try:
        return g._side
    except AttributeError:
        side = bytearray(max(g._adjacency, default=-1) + 1)
        for v in _bits(g.left_mask):
            side[v] = 1
        g._side = bytes(side)
        return g._side


def _edge(g: BipartiteGraph, a: object, b: object) -> Edge | None:
    """The stored edge ``(left, right)`` joining ``a`` and ``b``, or None
    if they are no edge's ends.  Ids that are no vertices of ``g`` (not
    ints, negative, absent) are no edge's ends: the side table refuses a
    non-int or a too-large id, and the neighbour masks a negative or an
    absent one."""
    side = _sides(g)
    try:
        if side[a]:
            edge = g._adjacency[a] >> b & 1
        else:
            a, b = b, a
            edge = side[a] and g._adjacency[a] >> b & 1
    except (IndexError, KeyError, TypeError, ValueError):
        edge = 0
    return (a, b) if edge else None


def _edge_list(g: BipartiteGraph) -> list[Edge]:
    """The edges of ``g`` as ``(left, right)`` pairs, in ascending order,
    read off the left vertices' neighbour masks."""
    adjacency = g._adjacency
    edges = []
    left = g.left_mask
    while left:
        low = left & -left
        left ^= low
        u = low.bit_length() - 1
        near = adjacency[u]
        while near:
            bit = near & -near
            near ^= bit
            edges.append((u, bit.bit_length() - 1))
    return edges


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
    return [induced_subgraph(g, _bits(comp)) for comp in
            _components(g._adjacency, _known_mask(g, vertices))]
