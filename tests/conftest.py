from pathlib import Path

import pytest

from konigmatch import Matching, build_graph

FIXTURES = Path(__file__).parent / "fixtures"


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
