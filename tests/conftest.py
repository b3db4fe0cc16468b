import tempfile
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from konigmatch import (
    BipartiteGraph,
    Matching,
    build_graph,
    enumerate_augmenting_paths,
    induced_subgraph,
    is_augmenting_path,
    is_maximal,
    is_minimal_cover,
    is_minimum_cover,
    konig_vertices,
    maximize,
)
from konigmatch import paths as paths_module
from konigmatch.corpus import _is_connected
from konigmatch.errors import BudgetExceeded, NotMinimumCover
from konigmatch.graph import _bits, _mask
from konigmatch.oracle import OracleBudget, all_matchings
from konigmatch.verify import _describe

FIXTURES = Path(__file__).parent / "fixtures"

# the same examples on every run, and no example database written into
# the checkout; example counts stay at their defaults
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
# what hypothesis still stores (its constants cache) goes to a directory
# removed when the run ends, not to .hypothesis/ in the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    # removed here, so the directory is never left to the finalizer,
    # which would warn that it cleans it up implicitly
    _HYPOTHESIS_HOME.cleanup()


@st.composite
def graph_args(draw, max_side=4, min_edges=1):
    """``build_graph``'s side counts and edges: 1 to ``max_side``
    vertices a side and at least ``min_edges`` edges."""
    nl = draw(st.integers(1, max_side))
    nr = draw(st.integers(1, max_side))
    possible = [(i, j) for i in range(nl) for j in range(nr)]
    edges = draw(st.sets(st.sampled_from(possible), min_size=min_edges))
    return nl, nr, sorted(edges)


def graphs():
    """Graphs with 1 to 4 vertices a side and at least one edge."""
    return graph_args().map(lambda args: build_graph(*args))


@dataclass(frozen=True)
class Given:
    """A graph as its constructor's input describes it, worked out from
    that input alone: the sides, the edges as (left, right) pairs and
    the labels.  The tests hold a graph's views, which are read off its
    masks, against it."""

    left: frozenset[int]
    right: frozenset[int]
    edges: frozenset[tuple[int, int]]
    labels: dict[int, str]

    @property
    def vertices(self) -> frozenset[int]:
        return self.left | self.right

    def neighbors(self) -> dict[int, set[int]]:
        near = {v: set() for v in self.vertices}
        for u, v in self.edges:
            near[u].add(v)
            near[v].add(u)
        return near

    def components(self) -> list[frozenset[int]]:
        """The vertex sets of the components, by least vertex, merged one
        edge at a time."""
        comp = {v: frozenset([v]) for v in self.vertices}
        for u, v in self.edges:
            merged = comp[u] | comp[v]
            for x in merged:
                comp[x] = merged
        return sorted(set(comp.values()), key=min)

    def u_side(self) -> frozenset[int]:
        """Kőnig's U: in each component the smaller side, ties keeping
        the left side."""
        u = set()
        for comp in self.components():
            side = comp & self.left
            u |= side if 2 * len(side) <= len(comp) else comp - side
        return frozenset(u)

    def induced(self, kept) -> "Given":
        kept = frozenset(kept)
        return Given(self.left & kept, self.right & kept,
                     frozenset((u, v) for u, v in self.edges
                               if u in kept and v in kept),
                     {v: self.labels[v] for v in kept})


def given_build(nl, nr, edges, left_labels=None, right_labels=None):
    """What ``build_graph(nl, nr, edges, ...)`` is given, read by its
    documented rule: left ids 0 .. nl-1, right ids after them, the side
    roles swapped when the left side is larger, and ``str(v)`` for each
    vertex given no label."""
    left = frozenset(range(nl))
    right = frozenset(range(nl, nl + nr))
    pairs = frozenset((i, nl + j) for i, j in edges)
    labels = {v: str(v) for v in left | right}
    labels.update(zip(range(nl), left_labels or ()))
    labels.update(zip(range(nl, nl + nr), right_labels or ()))
    if nl > nr:
        left, right = right, left
        pairs = frozenset((b, a) for a, b in pairs)
    return Given(left, right, pairs, labels)


def labeled(g, *labels):
    """Vertex ids for the given labels, as a frozenset."""
    return frozenset(g.vertex_by_label(lab) for lab in labels)


def matching_by_labels(g, pairs):
    return Matching(g, [(g.vertex_by_label(a), g.vertex_by_label(b))
                        for a, b in pairs])


def ladder(k):
    """The ladder with rungs 0..k and a maximal matching on it.

    U-vertices x_i, y_i and V-vertices p_i, q_i; x_i and y_i are each
    joined to p_i and q_i, and the matched edges p_i x_{i+1} and
    q_i y_{i+1} join rung i to rung i + 1.  An augmenting path starts at
    x_0 or y_0 and picks p_i or q_i on every rung: 2^(k+2) paths on
    4(k+1) vertices.
    """
    n = k + 1
    rungs = [(a, b) for i in range(n) for a in (i, n + i) for b in (i, n + i)]
    matched = ([(i + 1, i) for i in range(k)]
               + [(n + i + 1, n + i) for i in range(k)])
    g = build_graph(2 * n, 2 * n, rungs + matched,
                    [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)],
                    [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)])
    return g, Matching(g, [(a, 2 * n + b) for a, b in matched])


def _edges(g, path):
    """The stored edge keys of a vertex tuple's steps."""
    return {g.edge_key(a, b) for a, b in zip(path, path[1:])}


def rebuilt(g):
    """A copy of ``g`` that keeps no maximum matching yet, so the next
    ``maximum_matching`` call on it searches.  A ``cached_corpus`` graph
    keeps its one from the moment it is built."""
    return BipartiteGraph(g.left, g.right, g.edges, g.labels)


def keeping(g, edges):
    """A copy of ``g`` that keeps, as its maximum matching, the one
    ``maximize`` grows from the matching ``edges``.  The library keeps
    the search from the empty matching; the paper's procedures hold for
    any maximum matching, and this reaches the others."""
    h = rebuilt(g)
    h._maximum = tuple(maximize(Matching(h, edges)).edges)
    return h


def count_searches(monkeypatch, module):
    """The list of starts ``maximize`` is called with from here on, in
    call order, through ``module``'s name for it: one per search."""
    starts = []
    real_maximize = module.maximize

    def counting_maximize(m):
        starts.append(m)
        return real_maximize(m)

    monkeypatch.setattr(module, "maximize", counting_maximize)
    return starts


def flip(m, path):
    """M △ P: the matching ``m`` with the edges of the vertex tuple
    ``path`` flipped, checked by the ``Matching`` constructor."""
    return Matching(m.graph, m.edges ^ _edges(m.graph, path))


def reference_augmenting_path(m, start):
    """The augmenting-path search ``maximize`` runs, kept as a separate
    function so the tests can pin ``maximize`` to it: BFS from the free
    vertex ``start`` along non-matching edges out and matching edges
    back, over sorted neighbours; the first free vertex reached on the
    opposite side ends the path."""
    g = m.graph
    parent = {start: -1}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in sorted(g.neighbors(x)):
            if y in parent or (x, y) in m:
                continue
            parent[y] = x
            if not m.saturates(y):
                path = [y]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            z = m.partner(y)
            if z not in parent:
                parent[z] = y
                queue.append(z)
    return None


def reference_maximize(m):
    """``maximize`` as a loop over ``reference_augmenting_path``: one
    search from each left vertex ``m`` leaves free, in ascending order;
    each path it finds must pass ``is_augmenting_path``."""
    for u in m.unsaturated(m.graph.left):
        path = reference_augmenting_path(m, u)
        if path is not None:
            assert is_augmenting_path(m, path)
            m = flip(m, path)
    return m


def reference_reverse_up(split, visit_order=None):
    """The up walk of ``reverse_konig`` on the up part built as a graph,
    kept as a separate function so the tests can pin ``reverse_konig``,
    which reads the parent graph, to it: the subgraph induced on
    C △ U, roots in ``visit_order`` (default ascending), saturated roots
    skipped, sorted neighbours, each unsaturated neighbour ``v`` of the
    walk matched to its first unsaturated neighbour other than the root.
    Returns the matching on the up part."""
    g = split.graph
    up = induced_subgraph(g, split.cover ^ g.u_side)
    order = sorted(split.up_roots) if visit_order is None else visit_order
    assert sorted(order) == sorted(split.up_roots)
    partner = {}
    for root in order:
        if root in partner:
            continue
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


def reference_random_bipartite(cfg, rng):
    """The trials' graph drawn as an edge list: one ``rng.random()`` per
    potential (left, right) edge, left index outer, and the kept index
    pairs handed to ``build_graph``."""
    p = cfg.edge_probability
    edges = [(i, j)
             for i in range(cfg.n_left)
             for j in range(cfg.n_right)
             if rng.random() < p]
    return build_graph(cfg.n_left, cfg.n_right, edges)


def reference_greedy_maximal(g, edge_order):
    """One scan of ``edge_order``, a permutation of the graph's edges,
    adding each edge whose endpoints are free."""
    assert sorted(edge_order) == sorted(g.edges)
    used = set()
    chosen = []
    for u, v in edge_order:
        if u not in used and v not in used:
            chosen.append((u, v))
            used.add(u)
            used.add(v)
    return Matching(g, chosen)


def star_centers(ssg):
    """The star centers of the studded graph ``ssg``."""
    return frozenset(c for c, _, _, _ in ssg.attachment.values())


def lift_cover(ssg, c):
    """The paper's lift: a minimum cover of the base → a minimum cover of
    the studded graph ``ssg``, by adding every star center; no leaf is
    ever needed."""
    cset = frozenset(c)
    if not is_minimum_cover(ssg.base, cset):
        raise NotMinimumCover("input is not a minimum cover of the base")
    return cset | star_centers(ssg)


def minimum_covers_by_subset_scan(g, b=None):
    """Dead-simple reference for ``all_minimum_covers``: scan all vertex
    subsets in increasing size, within ``b``'s vertex and subset budget."""
    b = b or OracleBudget()
    vertices = sorted(g.vertices)
    if len(vertices) > b.max_vertices or 2 ** len(vertices) > b.max_subsets:
        raise BudgetExceeded("subset scan exceeds budget")
    edges = list(g.edges)
    for size in range(len(vertices) + 1):
        found = {
            frozenset(s)
            for s in combinations(vertices, size)
            if all(u in s or v in s for u, v in edges)
        }
        if found:
            return found
    return {frozenset()}


def maximum_matching_size_brute_force(g, b=None):
    """Largest matching cardinality by full enumeration."""
    return max(map(len, all_matchings(g, b)))


def scan_block(nl, nr):
    """The corpus block as it was generated before orderly generation,
    kept so the tests can pin ``corpus._block`` to it: scan every
    non-increasing tuple of nr nonempty left sets, keep the connected ones
    that no left relabeling (and, when nl == nr, no relabeling of the
    transpose) gives a smaller edge mask, and build them in mask order."""
    full = (1 << nl) - 1
    # spread[c]: edge bits of the left set c as column 0
    spread = [sum(1 << i * nr for i in range(nl) if c >> i & 1)
              for c in range(full + 1)]
    # relabelings[k][c]: the left set c under the k-th left permutation
    relabelings = [[sum(1 << p[i] for i in range(nl) if c >> i & 1)
                    for c in range(full + 1)]
                   for p in permutations(range(nl))]

    def edge_mask(cols: Sequence[int]) -> int:
        return sum(spread[c] << j for j, c in enumerate(cols))

    def beaten(cols: tuple[int, ...], mask: int) -> bool:
        """Does some left relabeling of ``cols`` have a smaller mask?"""
        return any(edge_mask(sorted(map(r.__getitem__, cols), reverse=True))
                   < mask for r in relabelings)

    found = []
    for cols in combinations_with_replacement(range(full, 0, -1), nr):
        if not _is_connected(cols, full):
            continue
        mask = edge_mask(cols)
        if beaten(cols, mask):
            continue
        if nl == nr:
            rows = tuple(sum(1 << j for j, c in enumerate(cols) if c >> i & 1)
                         for i in range(nl))
            if beaten(rows, mask):
                continue
        found.append((mask, cols))
    return [build_graph(nl, nr, [(i, j) for j, c in enumerate(cols)
                                 for i in range(nl) if c >> i & 1])
            for _, cols in sorted(found)]


def reference_one_endpoint_and_minimal(record, result):
    """The one-endpoint check as it was before it counted its edge cases
    in bulk, kept so the tests can pin the check to it: one
    ``result.check`` per matched edge, then one per maximal matching."""
    g = record.graph
    for m in record.matchings:
        k = konig_vertices(m)
        for u, v in m.edges:
            result.check((u in k) != (v in k),
                         lambda: f"{_describe(g)} {sorted(m.edges)}: "
                                 f"edge ({u},{v}) not split by cover")
        if is_maximal(m):
            result.check(is_minimal_cover(g, k),
                         lambda: f"{_describe(g)} {sorted(m.edges)}: "
                                 "maximal matching gave non-minimal result")


@dataclass(frozen=True)
class ReferenceStructure:
    """One structure as ``reference_structures`` builds it."""

    base_path: tuple[int, ...]
    family: tuple[tuple[int, ...], ...]
    vertices: frozenset[int]
    z_after: frozenset[int]
    stranded: frozenset[int]
    hat_cut_vertex: int | None
    hat: frozenset[int]


def reference_structures(m):
    """The structures of ``m`` on vertex sets, as they were built before
    the mask helper, kept so the tests can pin the helper, its views and
    the structure check to them.  Per augmenting path P, in enumeration
    order: the family (the paths sharing a vertex with P), its vertex
    union, Z(M △ P) (read as a vertex mask through ``paths._z_after``,
    which the fault tests replace), the unsaturated V-vertices of the
    union outside Z(M △ P), the hat's cut vertex (over the paths into
    P's endpoint from another root, the latest along P of their first
    vertices on P) and the hat (the union less the prefix, up to the
    cut, of each path into P's endpoint through the cut)."""
    g = m.graph
    v_side = g.vertices - g.u_side
    paths = enumerate_augmenting_paths(m)
    roots = _mask(m.unsaturated(g.u_side))
    for p in paths:
        family = tuple(q for q in paths if not set(p).isdisjoint(q))
        vertices = frozenset().union(*family)
        z_after = frozenset(_bits(paths_module._z_after(m, p, roots)))
        stranded = frozenset(v for v in (vertices - z_after) & v_side
                             if not m.saturates(v))
        into_end = [q for q in family if q[-1] == p[-1]]
        rank = {v: i for i, v in enumerate(p)}
        joins = [min((v for v in q if v in rank), key=rank.__getitem__)
                 for q in into_end if q[0] != p[0]]
        cut = max(joins, key=rank.__getitem__, default=None)
        hat = set(vertices)
        for q in into_end:
            if cut in q:
                hat.difference_update(q[:q.index(cut) + 1])
        yield ReferenceStructure(p, family, vertices, z_after, stranded, cut,
                                 frozenset(hat))


def reference_path_structure_properties(record, result):
    """The path-structure check as it was before it skipped matchings
    that saturate U, read K(M) only for matchings with a path, counted
    its localization and pair cases in bulk and held its sets as masks,
    kept so the tests can pin the check to it: every maximal matching's
    structures are drawn from ``reference_structures``, K(M) is computed
    for each, and every case is one ``result.check``."""
    g = record.graph
    u_side = g.u_side
    vertices = g.vertices
    for m in record.maximal_matchings:
        k_before = konig_vertices(m)
        for ps in reference_structures(m):
            p = ps.base_path

            def where() -> str:
                return f"{_describe(g)} {sorted(m.edges)} p={list(p)}"

            structure = ps.vertices
            k_after = u_side ^ ps.z_after  # K(M △ P)
            for r in sorted(vertices - structure):
                partner = m.partner(r)  # None is in neither cover
                result.check((r in k_before or partner in k_before)
                             == (r in k_after or partner in k_after),
                             lambda: f"{where()}: localization fails at {r}")
            sub = set()
            for q in ps.family:
                if q[0] == p[0] and q[-1] == p[-1]:
                    sub.update(q)
            result.check(len(k_before & sub) == len(k_after & sub),
                         lambda: f"{where()}: unique-root restricted "
                                 "equality fails")
            result.check((len(ps.stranded) >= 2)
                         == (len(k_before) > len(k_after)),
                         lambda: f"{where()}: stranded count and cover "
                                 "decrease disagree")
            hat = ps.hat
            full_eq = len(k_before & structure) == len(k_after & structure)
            hat_eq = len(k_before & hat) == len(k_after & hat)
            result.check(full_eq == hat_eq,
                         lambda: f"{where()}: hat reduction disagrees")
            p_vertices = frozenset(p)
            for q in ps.family:
                if q <= p:
                    continue
                shared = p_vertices.intersection(q)
                if not (_edges(g, p) & _edges(g, q)):
                    endpoints = {p[0], p[-1]} & {q[0], q[-1]}
                    result.check(shared <= endpoints,
                                 lambda: f"{_describe(g)}: paths share "
                                         "interior vertices without "
                                         "sharing edges")
                if len(shared) >= 2:
                    in_p = [v for v in p if v in shared]
                    in_q = [v for v in q if v in shared]
                    result.check(in_p != in_q[::-1],
                                 lambda: f"{_describe(g)}: shared "
                                         "vertices in exactly reversed order")


@pytest.fixture
def p4():
    """The path 1-2-3-4 with odd labels on the left."""
    return build_graph(2, 2, [(0, 0), (1, 0), (1, 1)],
                       ["1", "3"], ["2", "4"])


@pytest.fixture
def fork():
    """Two pendant vertices a1, a2 meeting b1, which joins c1 and its
    three pendant neighbors d1, d2, d3."""
    return build_graph(3, 4,
                       [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3)],
                       ["a1", "a2", "c1"], ["b1", "d1", "d2", "d3"])


@pytest.fixture
def c4():
    """The four-cycle."""
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
