import pytest

from facevec import Complex

from oracles import graph_from_edges

C5_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
PETERSEN_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
]


@pytest.fixture
def c5():
    return graph_from_edges(5, C5_EDGES)


@pytest.fixture
def pentagon():
    return Complex.from_faces(C5_EDGES)


@pytest.fixture
def petersen():
    return graph_from_edges(10, PETERSEN_EDGES)


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
