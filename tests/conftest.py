"""Shared test plumbing: caps each test's run time, collects
acceptance-criterion verdicts to print one line per criterion in the
terminal summary, counts validated tokens, and holds the tests' one
pairwise alternation oracle, their reference search, every labelled graph
on n nodes, a seeded random graph, a random uniform word and a graph
relabelling."""
import signal
import sys
from itertools import combinations

import pytest

from wordrep import Graph, Word, words

TEST_SECONDS = 60  # the slowest test takes under 3 s

acceptance_results: list[tuple[int, str, str]] = []


class TimeCapExceeded(Exception):
    """A test ran past TEST_SECONDS.  Neither a ValueError nor an OSError,
    so that ``cli.main`` cannot turn it into exit code 2."""


@pytest.fixture(autouse=True)
def _time_cap():
    """Fail a test that runs past TEST_SECONDS instead of hanging the suite
    (a search fault can make a query run for hours); a no-op on platforms
    without SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeCapExceeded(f"test ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def validated_tokens(monkeypatch):
    """A one-element list counting the distinct names handed to the
    validator, words._check_names, from here on, and the set of modules
    patched to count them.  Names are counted, not check_symbol calls: the
    validator checks the distinct names in one pass.  Every wordrep module
    holding the validator is patched, so a new importer cannot hide names
    from the count."""
    tokens = [0]
    original = words._check_names

    def counted(names):
        try:
            tokens[0] += len(set(names))
        except TypeError:  # an unhashable name, which the validator rejects
            tokens[0] += len(names)
        return original(names)

    holders = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("wordrep.") and getattr(module, "_check_names", None) is original:
            monkeypatch.setattr(module, "_check_names", counted)
            holders.add(module)
    return tokens, holders


def restriction_alternates(letters, x, y):
    """Pairwise oracle, written from the definition: the restriction of the
    token sequence ``letters`` to {x, y} has no two equal neighbours."""
    kept = [t for t in letters if t == x or t == y]
    return all(a != b for a, b in zip(kept, kept[1:]))


def all_graphs(size):
    """Every labelled graph on the nodes "1".."size", in the order of its
    edge mask over the pairs in name order."""
    names = [str(i) for i in range(1, size + 1)]
    pairs = list(combinations(names, 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(names, [p for i, p in enumerate(pairs) if mask >> i & 1])


def random_graph(rng, names, p):
    """A graph on ``names`` in which each pair, taken in the order of
    ``names``, is an edge with probability p, drawn from rng."""
    return Graph(names, [e for e in combinations(names, 2) if rng.random() < p])


def random_uniform_word(rng, size, k):
    """A random k-uniform word over the nodes "1".."size"."""
    letters = [str(i) for i in range(1, size + 1)] * k
    rng.shuffle(letters)
    return Word(letters)


def reference_search(g, k):
    """Reference search written from the definition, in the same
    lexicographic order: a branch dies only when an edge pair stops
    alternating, or when a non-edge pair still alternates with both symbols
    complete, and every first letter is tried.  Returns (word or None,
    explored), counting placements that pass the edge check."""
    names = sorted(g.nodes)
    word, counts, explored = [], dict.fromkeys(names, 0), 0

    def descend():
        nonlocal explored
        if len(word) == len(names) * k:
            return True
        for x in names:
            if counts[x] == k:
                continue
            word.append(x)
            counts[x] += 1
            if all(restriction_alternates(word, x, u) for u in names if g.adjacent(x, u)):
                explored += 1
                if all(counts[u] < k or not restriction_alternates(word, x, u) for u in names
                       if counts[x] == k and u != x and not g.adjacent(x, u)) and descend():
                    return True
            word.pop()
            counts[x] -= 1
        return False

    return (Word(word) if descend() else None), explored


def relabel(g, mapping):
    """The graph g with each node v renamed mapping[v]; compared with ==,
    it checks an isomorphism name-exactly."""
    return Graph([mapping[v] for v in g.nodes], [(mapping[u], mapping[v]) for u, v in g.edges])


def record_criterion(number: int, description: str, passed: bool) -> None:
    acceptance_results.append((number, description, "PASS" if passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, verdict in sorted(acceptance_results):
        terminalreporter.write_line(f"{verdict}  criterion {number}: {description}")
