import random
import time
from itertools import combinations

import pytest

from wordrep import (
    Graph,
    NamingConflictError,
    Word,
    cartesian_product,
    complete,
    cube,
    cube_word,
    cycle,
    graph_from_edges_text,
    graph_from_json,
    graph_of_word,
    graph_to_edges_text,
    graph_to_json,
    isomorphic,
    parse_graph,
    represents,
)

SEED_WORD = Word("3 1 4 2 1 3 2 4")


def test_graph_normalizes_edges_and_validates():
    g = Graph(["a", "b", "c"], [("b", "a")])
    assert g.edges == {("a", "b")}
    assert g.adjacent("a", "b") and g.adjacent("b", "a")
    assert g.neighbors("c") == frozenset()
    with pytest.raises(ValueError, match="self-loop"):
        Graph(["a"], [("a", "a")])
    with pytest.raises(ValueError, match="endpoint"):
        Graph(["a"], [("a", "b")])


def test_complete_generator():
    assert complete(2).edges == {("1", "2")}
    assert complete(1) == Graph(["1"])
    assert len(complete(4).edges) == 6
    with pytest.raises(ValueError):
        complete(0)


def test_cycle_generator():
    assert cycle(4).edges == {("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")}
    assert cycle(3) == complete(3)
    g5 = cycle(5)
    assert len(g5.edges) == 5 and all(g5.degree(v) == 2 for v in g5.nodes)
    with pytest.raises(ValueError):
        cycle(2)


def test_cube_generator():
    assert isomorphic(cube(1), complete(2)) is not None
    assert isomorphic(cube(2), cycle(4)) is not None
    g3 = cube(3)
    assert len(g3.nodes) == 8 and len(g3.edges) == 12
    assert all(g3.degree(v) == 3 for v in g3.nodes)
    assert g3.adjacent("000", "010") and not g3.adjacent("000", "011")
    with pytest.raises(ValueError):
        cube(0)


def test_cartesian_product_examples():
    assert isomorphic(cartesian_product(complete(2), complete(2)), cycle(4)) is not None
    prism = cartesian_product(cycle(3), complete(2))
    assert len(prism.nodes) == 6 and len(prism.edges) == 9
    g = cycle(5)
    assert isomorphic(cartesian_product(g, complete(1)), g) is not None


def test_cartesian_product_counts():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 4), prefix="h")
        p = cartesian_product(g, h)
        assert len(p.nodes) == len(g.nodes) * len(h.nodes)
        assert len(p.edges) == len(g.nodes) * len(h.edges) + len(h.nodes) * len(g.edges)


def random_graph(rng, size, prefix=""):
    names = [f"{prefix}{i}" for i in range(1, size + 1)]
    return Graph(names, [e for e in combinations(names, 2) if rng.random() < 0.5])


def test_cartesian_product_naming_conflict():
    g = Graph(["a@b", "a"])
    h = Graph(["c", "b@c"])
    # ("a@b", "c") and ("a", "b@c") would both be named "a@b@c"
    with pytest.raises(NamingConflictError):
        cartesian_product(g, h)


def test_cube_is_iterated_product_with_k2():
    for k in (2, 3, 4):
        assert isomorphic(cube(k), cartesian_product(cube(k - 1), complete(2))) is not None


def test_graph_of_word_examples():
    assert graph_of_word(SEED_WORD) == cycle(4)
    for n in (1, 3, 5):
        assert graph_of_word(Word([str(i) for i in range(1, n + 1)])) == complete(n)
    assert graph_of_word(Word("1 1 2 2")) == Graph(["1", "2"])
    assert graph_of_word(Word()) == Graph([])
    assert graph_of_word(Word("x x x")) == Graph(["x"])
    assert graph_of_word(Word("a b a")) == Graph(["a", "b"], [("a", "b")])
    assert graph_of_word(Word("a b b a")) == Graph(["a", "b"])
    assert graph_of_word(Word("a b a a")) == Graph(["a", "b"])  # counts 2 apart


def test_graph_of_word_is_reversal_invariant():
    rng = random.Random(37)
    for _ in range(150):
        letters = rng.choices(["1", "2", "3", "4", "5"], k=rng.randint(1, 14))
        w = Word(letters)
        assert graph_of_word(w) == graph_of_word(Word(reversed(letters)))


def test_represents_examples():
    assert represents(SEED_WORD, cycle(4))
    assert represents(Word("1 2"), complete(2))
    assert not represents(Word("1 2 1 2"), complete(3))  # node sets differ
    assert not represents(SEED_WORD, complete(4))
    assert represents(Word(), Graph([]))
    assert not represents(Word(), complete(1))
    assert represents(Word("x"), Graph(["x"]))


def test_represents_graph_of_word_round_trip():
    rng = random.Random(61)
    for _ in range(100):
        w = Word(rng.choices(["a", "b", "c", "d"], k=rng.randint(1, 12)))
        assert represents(w, graph_of_word(w))


def restriction_alternates(letters, x, y):
    """Pairwise oracle: the restriction to {x, y} has no two equal neighbours."""
    kept = [t for t in letters if t == x or t == y]
    return all(a != b for a, b in zip(kept, kept[1:]))


def oracle_graph(w):
    names = sorted(set(w.letters))
    pairs = [(x, y) for x, y in combinations(names, 2) if restriction_alternates(w.letters, x, y)]
    return Graph(names, pairs)


def random_nonuniform_word(rng):
    """Up to 6 symbols, each with its own count in 1..5, shuffled; every
    tenth word is empty and about one in eight has a single symbol."""
    size = 0 if rng.random() < 0.1 else rng.choice([1, 2, 2, 3, 4, 5, 6, 6])
    letters = []
    for s in range(size):
        letters += [f"s{s}"] * rng.randint(1, 5)
    rng.shuffle(letters)
    return Word(letters)


def test_sweep_matches_pairwise_oracle_on_nonuniform_words():
    rng = random.Random(2718)
    seen_shapes = set()  # (count difference capped at 2, alternates?)
    sizes = set()
    for _ in range(2500):
        w = random_nonuniform_word(rng)
        expected = oracle_graph(w)
        assert graph_of_word(w) == expected, w
        assert represents(w, expected), w
        sizes.add(len(w.alphabet))
        for x, y in combinations(sorted(w.alphabet), 2):
            diff = min(abs(w.counts[x] - w.counts[y]), 2)
            seen_shapes.add((diff, expected.adjacent(x, y)))
            flipped = set(expected.edges) ^ {(x, y)}
            assert not represents(w, Graph(expected.nodes, flipped)), (w, x, y)
        if w.letters:
            renamed = sorted(expected.nodes - {w.letters[0]}) + ["other"]
            assert not represents(w, Graph(renamed))
        assert not represents(w, Graph(expected.nodes | {"extra"}, expected.edges))
    assert {0, 1} <= sizes and max(sizes) == 6
    # alternating pairs with equal counts and counts one apart, and pairs
    # two or more apart, which never alternate
    assert {(0, True), (0, False), (1, True), (1, False), (2, False)} <= seen_shapes
    assert (2, True) not in seen_shapes


def test_cube_12_verifies_in_linear_time():
    # A test of every pair took 35-39 s on this word (Python 3.11, 2-core
    # x86-64); the single sweep takes well under a second there.
    started = time.perf_counter()
    w = cube_word(12)
    g = cube(12)
    assert represents(w, g)
    assert graph_of_word(w) == g
    assert time.perf_counter() - started < 20.0


def test_isomorphic_identity_and_absence():
    g = cartesian_product(cycle(3), complete(2))
    assert isomorphic(g, g) == {v: v for v in g.nodes}
    assert isomorphic(complete(3), cycle(4)) is None
    assert isomorphic(cycle(4), complete(4)) is None  # same sizes, different edge counts
    assert isomorphic(cycle(6), cartesian_product(complete(3), complete(2))) is None


def test_isomorphic_mapping_preserves_adjacency():
    g, h = cube(2), cycle(4)
    phi = isomorphic(g, h)
    assert phi is not None and sorted(phi.values()) == sorted(h.nodes)
    for u, v in combinations(g.nodes, 2):
        assert g.adjacent(u, v) == h.adjacent(phi[u], phi[v])


def test_edges_text_round_trip():
    g = Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")])
    text = graph_to_edges_text(g)
    assert graph_from_edges_text(text) == g
    assert "lonely" in text.splitlines()


def test_edges_text_parsing():
    g = graph_from_edges_text("# comment\n1 2\n\n2 3\n4\n")
    assert g == Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3")])
    with pytest.raises(ValueError, match="line 2"):
        graph_from_edges_text("1 2\n1 2 3\n")


def test_json_round_trip():
    g = cartesian_product(complete(2), complete(2))
    assert graph_from_json(graph_to_json(g)) == g


def test_json_parsing_errors():
    with pytest.raises(ValueError, match="JSON"):
        graph_from_json("{not json")
    with pytest.raises(ValueError, match="object"):
        graph_from_json("[1, 2]")
    with pytest.raises(ValueError, match="2-array"):
        graph_from_json('{"nodes": ["a"], "edges": [["a"]]}')


def test_parse_graph_autodetects_format():
    g = cycle(4)
    assert parse_graph(graph_to_json(g)) == g
    assert parse_graph(graph_to_edges_text(g)) == g
