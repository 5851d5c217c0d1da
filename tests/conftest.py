import pytest

from cli_cases import write_graphs
from klr import KLRRing, a1xa1, a2, cycle, single_vertex


def random_word(rng, m, max_tokens=6):
    """A random generator word on m strands, about 60% crossings."""
    tokens = []
    for _ in range(rng.randint(0, max_tokens)):
        if rng.random() < 0.6 and m > 1:
            tokens.append(("C", rng.randint(1, m - 1)))
        else:
            tokens.append(("D", rng.randint(1, m)))
    return tokens


@pytest.fixture(scope="session")
def ring_a1():
    return KLRRing(single_vertex())


@pytest.fixture(scope="session")
def ring_a2():
    return KLRRing(a2())


@pytest.fixture(scope="session")
def ring_a1xa1():
    return KLRRing(a1xa1())


@pytest.fixture(scope="session")
def ring_cycle3():
    return KLRRing(cycle(3))


@pytest.fixture(scope="session")
def ring_cycle4():
    return KLRRing(cycle(4))


@pytest.fixture(scope="session")
def graph_files(tmp_path_factory):
    """The graph JSON files of ``cli_cases.GRAPHS``, for CLI tests; returns
    a dict name -> path."""
    return write_graphs(tmp_path_factory.mktemp("graphs"))
