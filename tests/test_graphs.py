import random
import time
from itertools import combinations, permutations

import pytest

from wordrep import (
    Graph,
    NamingConflictError,
    Word,
    alternates,
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
    load_graph,
    parse_graph,
    represents,
)
from wordrep.graphs import _maps

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


@pytest.mark.parametrize("nodes", [[1, "a"], ["a", None]])
def test_graph_validates_node_names_before_sorting_them(nodes):
    # sorting these would raise TypeError; the name check comes first
    with pytest.raises(ValueError, match="invalid symbol token"):
        Graph(nodes)


def test_graph_equality_and_hash_ignore_edge_orientation_and_order():
    rng = random.Random(97)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        pairs = list(g.edges)
        rng.shuffle(pairs)
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        same = Graph(reversed(sorted(g.nodes)), flipped)
        assert same == g and hash(same) == hash(g) and same.edges == g.edges
        u, v = rng.sample(sorted(g.nodes), 2)
        toggled = Graph(g.nodes, set(g.edges) ^ {(min(u, v), max(u, v))})
        assert toggled != g and toggled.adjacent(u, v) != g.adjacent(u, v)
    assert Graph(["a", "b"]) != Graph(["a", "c"])


@pytest.mark.parametrize("text, first", [
    ("ok a!\nb! c!\n", "a!"),
    ('{"nodes": ["x", "n!"], "edges": [["e!", "x"]]}', "n!"),
    ('{"nodes": ["x"], "edges": [["x", "e!"], ["f!", "x"]]}', "e!"),
])
def test_parsers_report_the_first_invalid_name_in_input_order(text, first):
    # the names reach Graph in input order, not in a set's hash order
    with pytest.raises(ValueError, match=f"invalid symbol token: '{first}'"):
        parse_graph(text)


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


def test_represents_agrees_with_pairwise_alternates_oracle():
    # the oracle tests every pair with words.alternates; the graphs are the
    # word's own graph with 0-3 pairs toggled
    rng = random.Random(4242)
    toggles = set()
    for t in range(600):
        if t % 2:
            w = random_nonuniform_word(rng)
        else:
            size, k = rng.randint(1, 6), rng.randint(1, 4)
            letters = [f"u{i}" for i in range(size)] * k
            rng.shuffle(letters)
            w = Word(letters)
        names = sorted(w.alphabet)
        pairs = list(combinations(names, 2))
        edges = {(x, y) for x, y in pairs if alternates(w, x, y)}
        assert graph_of_word(w) == Graph(names, edges), w
        flips = set(rng.sample(pairs, min(len(pairs), rng.randint(0, 3))))
        toggles.add(len(flips))
        g = Graph(names, edges ^ flips)
        oracle = all(alternates(w, x, y) == g.adjacent(x, y) for x, y in pairs)
        assert oracle == (not flips)
        assert represents(w, g) == oracle, (w, sorted(flips))
    assert toggles == {0, 1, 2, 3}


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


def test_maps_agree_with_a_permutation_oracle():
    # on every labelled graph of at most 5 nodes: the maps of g onto itself
    # are exactly the permutations that preserve adjacency, and one that
    # fixes a set and sends x to y exists iff _maps extends that partial map
    for size in range(1, 6):
        names = [str(i) for i in range(1, size + 1)]
        pairs = list(combinations(names, 2))
        for edges in range(2 ** len(pairs)):
            g = Graph(names, [p for i, p in enumerate(pairs) if edges >> i & 1])
            nbr = [{j for j in range(size) if m >> j & 1} for m in g.masks]
            auts = {p for p in permutations(range(size))
                    if all({p[j] for j in nbr[a]} == nbr[p[a]] for a in range(size))}
            assert {tuple(m[a] for a in range(size)) for m in _maps(g, g, {})} == auts
            for fixed in range(2 ** size):
                stay = {a: a for a in range(size) if fixed >> a & 1}
                # the inverse sends y back to x, so the pairs y < x cover every pair
                for y, x in combinations([a for a in range(size) if a not in stay], 2):
                    found = next(_maps(g, g, {**stay, x: y}), None)
                    expected = any(p[x] == y and all(p[a] == a for a in stay) for p in auts)
                    assert (found is not None) == expected, (sorted(g.edges), sorted(stay), x, y)
                    assert found is None or (found[x] == y and tuple(found[a] for a in range(size)) in auts)


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
    for edges in ("5", "null"):
        with pytest.raises(ValueError, match="'edges' must be an array"):
            graph_from_json('{"nodes": ["1"], "edges": %s}' % edges)
    # deeper than any recursion limit: a clean error, not a RecursionError
    for text in ('{"nodes": ' + "[" * 100_000, "[" * 100_000):
        with pytest.raises(ValueError, match="nested too deeply"):
            graph_from_json(text)


def test_parse_graph_autodetects_format():
    g = cycle(4)
    assert parse_graph(graph_to_json(g)) == g
    assert parse_graph(graph_to_edges_text(g)) == g
    assert parse_graph("\n  \n" + graph_to_json(g)) == g
    assert parse_graph("# the 4-cycle\n" + graph_to_edges_text(g)) == g
    assert parse_graph("") == parse_graph(" \n\n") == Graph([])
    with pytest.raises(ValueError, match="must be an object"):
        parse_graph('[["1", "2"]]')


@pytest.mark.parametrize("name", ["g.edges", "g.json", "g.txt", "g"])
def test_load_graph_reads_either_format_under_any_name(tmp_path, name):
    g = Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")])
    path = tmp_path / name
    for text in (graph_to_json(g), graph_to_edges_text(g)):
        path.write_text(text)
        assert load_graph(str(path)) == g
