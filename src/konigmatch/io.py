"""Reading and writing graphs, matchings, and covers.

Two graph formats are supported:

* JSON: ``{"left": ["a1", ...], "right": ["b1", ...],
  "edges": [["a1", "b1"], ...]}``
* plain edge list: one ``u v`` pair per line; sides are inferred by
  two-coloring and an error is raised if the graph is not bipartite.
  The colored sides and the edges, as labels, then go through the JSON
  reader, so both formats build their graphs by one route.

Matchings and covers serialize as JSON arrays of external labels.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Iterable

from .errors import InputError, NotBipartite
from .graph import BipartiteGraph, build_graph
from .matching import Matching


def _label(lab):
    """``lab``, refused if it is JSON ``true`` or ``false``: no label,
    though Python reads them as bools equal to 1 and 0."""
    if isinstance(lab, bool):
        raise InputError(f"vertex label {lab!r} is not a string or number")
    return lab


def graph_from_json_dict(data: dict) -> BipartiteGraph:
    try:
        left, right, edges = data["left"], data["right"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc
    for key, value in (("left", left), ("right", right), ("edges", edges)):
        if not isinstance(value, list):
            raise InputError(f"graph JSON {key!r} must be an array")
    labels = left + right
    for lab in map(_label, labels):
        if not isinstance(lab, (str, int, float)):
            raise InputError(f"vertex label {lab!r} is not a string or number")
        if isinstance(lab, float) and not math.isfinite(lab):
            raise InputError(f"vertex label {lab!r} is not a finite number")
    # output sorts labels and keys objects by them, where 1 and "1" collide
    if len({isinstance(lab, str) for lab in labels}) > 1:
        raise InputError("vertex labels mix strings and numbers")
    label_to_index = {lab: ("left", idx) for idx, lab in enumerate(left)}
    label_to_index.update((lab, ("right", idx)) for idx, lab in enumerate(right))
    if len(label_to_index) != len(labels):
        raise InputError("duplicate vertex labels in graph JSON")
    index_edges = []
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2:
            raise InputError(f"edge {edge!r} is not a pair of labels")
        a, b = edge
        try:
            sa, ia = label_to_index[_label(a)]
            sb, ib = label_to_index[_label(b)]
        except (KeyError, TypeError):
            raise InputError(f"edge ({a!r}, {b!r}) uses unknown labels") \
                from None
        if sa == sb:
            raise InputError(f"edge ({a!r}, {b!r}) joins one side to itself")
        if sa == "left":
            index_edges.append((ia, ib))
        else:
            index_edges.append((ib, ia))
    return build_graph(len(left), len(right), index_edges,
                       left_labels=left, right_labels=right)


def graph_from_edge_list(text: str) -> BipartiteGraph:
    """Parse a plain edge list, inferring sides by two-coloring."""
    adjacency: dict[str, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        a, b = parts
        if a == b:
            raise InputError(f"line {lineno}: self-loop on {a!r}")
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    color: dict[str, int] = {}
    for root in sorted(adjacency):
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in sorted(adjacency[x]):
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    raise NotBipartite(
                        f"edge ({x!r}, {y!r}) closes an odd cycle")
    left = sorted(v for v in adjacency if color[v] == 0)
    right = sorted(v for v in adjacency if color[v] == 1)
    return graph_from_json_dict({
        "left": left,
        "right": right,
        "edges": [[a, b] for a in left for b in adjacency[a]],
    })


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def load_graph(path: str) -> BipartiteGraph:
    """Load a graph file, trying JSON first, then the edge-list format."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return graph_from_edge_list(text)
    except (RecursionError, ValueError) as exc:  # deep, or a huge int
        raise InputError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("graph JSON must be an object")
    return graph_from_json_dict(data)


def graph_to_json_dict(g: BipartiteGraph) -> dict:
    labels = g.labels
    return {
        "left": [labels[v] for v in sorted(g.left)],
        "right": [labels[v] for v in sorted(g.right)],
        "edges": [[labels[u], labels[v]] for u, v in sorted(g.edges)],
    }


def matching_from_json(g: BipartiteGraph, data: list) -> Matching:
    edges = []
    for pair in data:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"matching entry {pair!r} is not a pair")
        a, b = map(_label, pair)
        edges.append((g.vertex_by_label(a), g.vertex_by_label(b)))
    return Matching(g, edges)


def _load_json_array(path: str, what: str) -> list:
    """The JSON array in ``path``; ``what`` names the document in errors."""
    try:
        data = json.loads(_read_text(path))
    except (RecursionError, ValueError) as exc:  # JSONDecodeError too
        raise InputError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InputError(f"{what} JSON must be an array")
    return data


def load_matching(g: BipartiteGraph, path: str) -> Matching:
    return matching_from_json(g, _load_json_array(path, "matching"))


def matching_to_json(m: Matching) -> list:
    labels = m.graph.labels
    return [[labels[u], labels[v]] for u, v in sorted(m.edges)]


def load_vertex_set(g: BipartiteGraph, path: str) -> frozenset[int]:
    data = _load_json_array(path, "vertex-set")
    return frozenset(g.vertex_by_label(_label(lab)) for lab in data)


def vertex_set_to_json(g: BipartiteGraph, vertices: Iterable[int]) -> list:
    labels = g.labels
    return [labels[v] for v in sorted(vertices)]
