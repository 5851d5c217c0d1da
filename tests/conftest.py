import json

import pytest

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


@pytest.fixture()
def graph_files(tmp_path):
    """Graph JSON files for CLI tests; returns a dict name -> path."""
    out = {}
    specs = {
        "a1": {"vertices": ["i"], "edges": []},
        "a2": {"vertices": ["i", "j"], "edges": [["i", "j"]]},
        "a1xa1": {"vertices": ["i", "j"], "edges": []},
        "cycle3": cycle(3).to_json(),
        "cycle4": cycle(4).to_json(),
        "empty": {"vertices": [], "edges": []},
        "ints": {"vertices": [1, 2], "edges": [[1, 2]]},
        "string": {"vertices": "ij", "edges": []},
        "twice": {"vertices": ["i", "i"], "edges": []},
        "spaced": {"vertices": ["a b", "c"], "edges": [["a b", "c"]]},
    }
    for name, obj in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        out[name] = str(path)
    return out

