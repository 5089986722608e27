import hashlib
import random
import time
import json
import re
from itertools import combinations, product

import pytest

from conftest import relabel, restriction_alternates
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
    parse_graph,
    represents,
)
from wordrep.cli import _read_text, main
from wordrep.graphs import _alternation_rows

SEED_WORD = Word("3 1 4 2 1 3 2 4")


def test_graph_normalizes_edges_and_validates():
    g = Graph(["a", "b", "c"], [("b", "a")])
    assert g.edges == {("a", "b")}
    assert g.adjacent("a", "b") and g.adjacent("b", "a")
    assert not g.adjacent("a", "c") and not g.adjacent("c", "b")
    with pytest.raises(ValueError, match="self-loop"):
        Graph(["a"], [("a", "a")])
    with pytest.raises(ValueError, match="endpoint"):
        Graph(["a"], [("a", "b")])
    # the first bad edge in input order is the one reported
    for edges, error in [
        ([("a", "zz"), ("b", "b")], "edge ('a', 'zz') has an endpoint outside the node set"),
        ([("a", "b"), ("b", "b"), ("a", "zz")], "self-loop at 'b' not allowed"),
        ([("a", "b"), ("a", "b", "a")], "each edge must be a pair of node names, got ('a', 'b', 'a')"),
        # each malformed edge is one ValueError that names it
        ([("a", "b", "c")], "each edge must be a pair of node names, got ('a', 'b', 'c')"),
        ([(["x"], "a")], "each edge must be a pair of node names, got (['x'], 'a')"),
        (["ab"], "each edge must be a pair of node names, got 'ab'"),
    ]:
        with pytest.raises(ValueError) as info:
            Graph(["a", "b"], edges)
        assert str(info.value) == error


def test_adjacent_ignores_argument_order_and_unknown_names():
    g = cycle(4)
    # a name outside the graph is adjacent to nothing, in either position
    assert not g.adjacent("1", "zz") and not g.adjacent("zz", "1")
    assert not g.adjacent("zz", "yy")
    names = [*g.names, "zz"]
    for u in names:
        for v in names:
            assert g.adjacent(u, v) == g.adjacent(v, u) == ((min(u, v), max(u, v)) in g.edges)


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
    assert len(g5.edges) == 5 and all(m.bit_count() == 2 for m in g5.masks)
    with pytest.raises(ValueError):
        cycle(2)


def test_cube_generator():
    assert relabel(cube(1), {"0": "1", "1": "2"}) == complete(2)
    assert relabel(cube(2), {"00": "1", "01": "2", "11": "3", "10": "4"}) == cycle(4)
    g3 = cube(3)
    assert len(g3.nodes) == 8 and len(g3.edges) == 12
    assert all(m.bit_count() == 3 for m in g3.masks)
    assert g3.adjacent("000", "010") and not g3.adjacent("000", "011")
    with pytest.raises(ValueError):
        cube(0)
    # refused before anything is built: the 18-cube's masks would take 8 GiB
    for k in (18, 19, 20):
        with pytest.raises(ValueError, match=rf"cube graph needs k <= 17, got {k}: its masks would take"):
            cube(k)


def test_cartesian_product_examples():
    square = {"1@1": "1", "1@2": "2", "2@2": "3", "2@1": "4"}
    assert relabel(cartesian_product(complete(2), complete(2)), square) == cycle(4)
    prism = cartesian_product(cycle(3), complete(2))
    assert len(prism.nodes) == 6 and len(prism.edges) == 9
    g = cycle(5)
    assert relabel(cartesian_product(g, complete(1)), {f"{v}@1": v for v in g.nodes}) == g


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
    # ("x", "1@2") and ("x@1", "2") would both be named "x@1@2"
    with pytest.raises(NamingConflictError):
        cartesian_product(Graph(["x", "x@1"]), Graph(["1@2", "2"]))


def test_cube_is_iterated_product_with_k2():
    # x@1 -> x0 and x@2 -> x1: the K2 factor is the last bit
    for k in range(2, 9):
        names = {f"{x}@{j}": x + "01"[j - 1] for x in cube(k - 1).nodes for j in (1, 2)}
        assert relabel(cartesian_product(cube(k - 1), complete(2)), names) == cube(k)


# Each generator against Graph(names, edges) built from the definition's
# edge list, by names, never through positions.

def test_cube_matches_its_definition():
    for k in range(1, 13):
        names = ["".join(bits) for bits in product("01", repeat=k)]
        # one edge per pair of names that differ in exactly one place
        edges = [(v, v[:i] + "1" + v[i + 1:]) for v in names for i in range(k) if v[i] == "0"]
        assert cube(k) == Graph(names, edges), k


def test_cycle_and_complete_match_their_definitions():
    for n in range(3, 41):
        names = [str(i) for i in range(1, n + 1)]
        assert cycle(n) == Graph(names, [(names[i - 1], names[i]) for i in range(1, n)] + [(names[-1], names[0])]), n
    for n in range(1, 31):
        names = [str(i) for i in range(1, n + 1)]
        assert complete(n) == Graph(names, combinations(names, 2)), n


def reference_product(g, h):
    """The Cartesian product written from the definition, by names."""
    names = [f"{a}@{b}" for a in g.nodes for b in h.nodes]
    edges = [(f"{a}@{u}", f"{a}@{v}") for a in g.nodes for u, v in h.edges]
    edges += [(f"{u}@{b}", f"{v}@{b}") for u, v in g.edges for b in h.nodes]
    return Graph(names, edges)


@pytest.mark.parametrize("pool", [
    ["1", "10", "2", "11", "3", "9", "1_", "20"],
    ["a", "a_", "aa", "b", "a0", "aZ", "A", "_"],
    ["x", "x@1", "x@10", "x@1@2", "1", "10"],
])
def test_cartesian_product_matches_its_definition(pool):
    # names whose "a@b" order differs from their (a, b) order, since '@'
    # sorts after digits: "10@x" < "1@x" and "a0@x" < "a@x"
    assert sorted(["1@x", "10@x", "a@x", "a0@x"]) == ["10@x", "1@x", "a0@x", "a@x"]
    # and names that continue each other past '@', whose copies interleave
    # in name order: the copies of "x@1" fall between "x@1" and "x@2"
    assert sorted(["x@1", "x@2", "x@1@1", "x@1@2"]) == ["x@1", "x@1@1", "x@1@2", "x@2"]
    rng = random.Random(len(pool[0]) + 29)

    def sample(p):
        nodes = rng.sample(pool, rng.randint(1, 6))
        return Graph(nodes, [e for e in combinations(nodes, 2) if rng.random() < p])

    continued = set()  # whether a name of g continues another past '@'
    for _ in range(60):
        g, h = sample(0.5), sample(0.4)
        continued.add(any(b.startswith(a + "@") for a in g.names for b in g.names))
        assert cartesian_product(g, h) == reference_product(g, h), (sorted(g.edges), sorted(h.edges))
    # the '@' pool reaches both the copies in blocks and the interleaved ones
    assert continued == ({False, True} if "x@1" in pool else {False})


def reference_edges_text(text):
    """The edge-list parser written line by line: blank and comment lines
    are skipped, a line of two tokens is an edge, a line of one a node."""
    tokens, edges = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) > 2:
            raise ValueError(f"line {lineno}: expected 'u v' or 'u', got {raw.strip()!r}")
        tokens += parts
        if len(parts) == 2:
            edges.append((parts[0], parts[1]))
    return Graph(dict.fromkeys(tokens), edges)


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_edges_text_parser_matches_a_line_by_line_parser():
    # comments, blank lines, tabs, CRLF, \x0b and \x1c (both line breaks to
    # splitlines), isolated nodes between edges, self-loops, bad names and
    # lines of three tokens, in seeded random mixtures
    rng = random.Random(4099)
    names = ["1", "10", "2", "a", "a_", "aa", "x@y"]
    pieces = ["{u} {v}", "{u}\t{v}", " {u}  {v} ", "{u}", "# {u} {v} {u}", "#", "", "  ", "\t",
              "{u} {v} {u}", "{u} {u}", "{u} b!", "  # note", "{u} #c"]
    seen = set()
    for _ in range(1500):
        lines = [rng.choice(pieces).format(u=rng.choice(names), v=rng.choice(names)) for _ in range(rng.randint(0, 8))]
        text = "".join(line + rng.choice(["\n", "\r\n", "\x0b", "\x1c", "\r"]) for line in lines)
        expected = outcome(reference_edges_text, text)
        assert outcome(graph_from_edges_text, text) == expected, repr(text)
        seen.add(type(expected) if isinstance(expected, Graph) else expected.split(":")[0].split(" ")[0])
    assert {Graph, "line", "self-loop", "invalid"} <= seen


def reference_json(text):
    """The JSON graph parser written from the format's definition, as (sorted
    names, edges as sorted pairs): the payload's shape is checked first, then
    each edge in order, then every name in input order (nodes, then ends),
    then each edge for a self-loop.  An end that is not in "nodes" is a node."""
    payload = json.loads(text)
    if type(payload) is not dict:
        raise ValueError("graph JSON must be an object with 'nodes' and 'edges'")
    nodes, edges = payload.get("nodes", []), payload.get("edges", [])
    if type(nodes) is not list or any(type(v) is not str for v in nodes):
        raise ValueError("'nodes' must be an array of strings")
    if type(edges) is not list:
        raise ValueError("'edges' must be an array of 2-arrays of strings")
    for e in edges:
        if type(e) is not list or len(e) != 2 or any(type(v) is not str for v in e):
            raise ValueError(f"each edge must be a 2-array of strings, got {e!r}")
    names = nodes + [v for e in edges for v in e]
    for v in names:
        if re.fullmatch(r"[A-Za-z0-9_]+(@[A-Za-z0-9_]+)*", v) is None:
            raise ValueError(f"invalid symbol token: {v!r}")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u!r} not allowed")
    return sorted(set(names)), {(min(e), max(e)) for e in edges}


def test_json_parser_matches_a_reference_parser():
    # duplicate nodes, extra keys, an empty or missing "nodes", edges of
    # arity 0, 1 and 3, non-str and nested ends, self-loops and ends outside
    # "nodes", in seeded random mixtures: the graph or the first error
    rng = random.Random(8191)
    names = ["1", "10", "2", "a", "a_", "x@y"]
    odd = [None, 5, 1.5, True, [], ["a"], {"a": "b"}, "b!", "", "x@"]

    def end():
        return rng.choice(names) if rng.random() < 0.9 else rng.choice(odd)

    def edge():
        shape = rng.random()
        if shape < 0.8:
            return [end(), end()]
        if shape < 0.9:
            return [end() for _ in range(rng.choice([0, 1, 3]))]
        return rng.choice(odd + ["ab", ("a", "b")])

    seen = set()
    for _ in range(1500):
        payload = {}
        if rng.random() < 0.9:
            payload["nodes"] = [rng.choice(names) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.05:
                payload["nodes"].append(rng.choice(odd))
        if rng.random() < 0.9:
            payload["edges"] = [edge() if rng.random() < 0.1 else [rng.choice(names), rng.choice(names)]
                                for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.1 and "edges" in payload:
            # an edge of one end and one of three: as many ends as two pairs
            at = rng.randint(0, len(payload["edges"]))
            payload["edges"][at:at] = [[rng.choice(names)], [rng.choice(names) for _ in range(3)]]
        if rng.random() < 0.1:
            payload["extra"] = rng.choice(odd)
        if rng.random() < 0.05:
            payload[rng.choice(["nodes", "edges"])] = rng.choice(odd + ["ab"])
        if rng.random() < 0.03:
            payload = rng.choice([[], "g", None, 3])
        text = json.dumps(payload)
        expected = outcome(reference_json, text)
        got = outcome(graph_from_json, text)
        if isinstance(got, Graph):
            got = list(got.names), got.edges
        assert got == expected, text
        seen.add(Graph if isinstance(expected, tuple) else expected.split(" ")[0])
    assert {Graph, "graph", "'nodes'", "'edges'", "each", "invalid", "self-loop"} <= seen


@pytest.mark.parametrize("text, error", [
    ("# c\n1 2\n# x y z\n3 4 5\n", "line 4: expected 'u v' or 'u', got '3 4 5'"),
    ("1 2\n3 3\n", "self-loop at '3' not allowed"),
    ('{"nodes": ["a"], "edges": [["a", "b", "c"]]}', "each edge must be a 2-array of strings, got ['a', 'b', 'c']"),
    ('{"nodes": ["a"], "edges": [["a", "b"], ["a", 5]]}', "each edge must be a 2-array of strings, got ['a', 5]"),
    ('{"nodes": ["a"], "edges": [["b", "b"]]}', "self-loop at 'b' not allowed"),
    ('{"nodes": ["a", 5], "edges": []}', "'nodes' must be an array of strings"),
])
def test_parse_error_texts(text, error):
    with pytest.raises(ValueError) as info:
        parse_graph(text)
    assert str(info.value) == error


# sha256 of graph_to_edges_text and graph_to_json, recorded from the
# generators that built each graph edge by edge from its names
SERIALIZED_SHA256 = {
    "cube-12": ("9dffeab93a3863fe56555214535a551cddf9f157df57efa2df3c6bb10b2a5930",
                "35854753329582985ce13ab73e7e1887bedbc85e434fdc6790f1abb1efdafaf2"),
    "prism-300": ("0607bcc9206d11fed5bda11c49951fb798afad0e59e313d962967065dafa915c",
                  "36fdb2cf38b82c101302c48f65f68eb8cbccc58e6a125892a39b0996175a7d91"),
    "complete-200": ("6b1686b28a4b5dd73270fde7d668548869ee303c835fb358c75c17a2b6c9ca30",
                     "3449ce51a49ab1a4563d840854a3a46443b22f81d3c2dd9c8fc43e768e49b56b"),
    "C12xC10": ("4c8213a7f647c7e4476801e626291e5d5d4b7f97a6a6ebfdb5026e9ba0560f7f",
                "1a6ed5df9534081ed768ea3e8555f839d4020a4f198390a0365a2cab82508305"),
}


@pytest.mark.parametrize("name, build", [
    ("cube-12", lambda: cube(12)),
    ("prism-300", lambda: cartesian_product(cycle(300), complete(2))),
    ("complete-200", lambda: complete(200)),
    ("C12xC10", lambda: cartesian_product(cycle(12), cycle(10))),
])
def test_serialized_generators_are_byte_identical(name, build):
    g = build()
    digests = tuple(hashlib.sha256(f(g).encode()).hexdigest() for f in (graph_to_edges_text, graph_to_json))
    assert digests == SERIALIZED_SHA256[name]


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


def test_represents_does_not_count_the_word():
    # the sweep counts as it goes, so a built word is never counted again
    w = Word._trusted(cube_word(9).letters)
    assert represents(w, cube(9))
    assert w._counts is None


def test_represents_rejects_mismatched_symbols_without_raising():
    cases = [
        (Word("a b a"), Graph(["a"])),  # a letter outside the graph
        (Word("a b a b"), Graph(["a", "b", "c"])),  # a node with no letter
        (Word("a a a"), Graph(["a", "b"])),  # more copies than len(w) - n + 1 = 2
        (Word("a"), complete(3)),  # fewer letters than nodes
        (Word("1"), complete(3)),
        (Word(), complete(2)),
    ]
    for w, g in cases:
        assert _alternation_rows(w, g.index) is None, (w, g)
        assert represents(w, g) is False, (w, g)


def test_represents_graph_of_word_round_trip():
    rng = random.Random(61)
    for _ in range(100):
        w = Word(rng.choices(["a", "b", "c", "d"], k=rng.randint(1, 12)))
        assert represents(w, graph_of_word(w))


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
    # the oracle tests every pair with restriction_alternates; the graphs
    # are the word's own graph with 0-3 pairs toggled
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
        edges = {(x, y) for x, y in pairs if restriction_alternates(w, x, y)}
        assert graph_of_word(w) == Graph(names, edges), w
        flips = set(rng.sample(pairs, min(len(pairs), rng.randint(0, 3))))
        toggles.add(len(flips))
        g = Graph(names, edges ^ flips)
        oracle = all(restriction_alternates(w, x, y) == g.adjacent(x, y) for x, y in pairs)
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


def test_edges_text_round_trip():
    g = Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")])
    text = graph_to_edges_text(g)
    assert graph_from_edges_text(text) == g
    assert "lonely" in text.splitlines()


@pytest.mark.parametrize(
    "g",
    [
        cycle(12),
        cartesian_product(cycle(11), complete(2)),
        Graph(["10", "9", "2", "1", "lonely", "0"], [("9", "10"), ("10", "1"), ("2", "9")]),
    ],
    ids=["C12", "C11xK2", "isolated"],
)
def test_serializers_list_edges_in_sorted_order(g):
    # names whose string order differs from their numeric order: the edge
    # list and the JSON give the edges as sorted(g.edges), and the edge
    # list ends with the isolated nodes in name order
    edges = sorted(g.edges)
    isolated = sorted(g.nodes - {v for e in edges for v in e})
    assert graph_to_edges_text(g).splitlines() == [f"{u} {v}" for u, v in edges] + isolated
    assert json.loads(graph_to_json(g)) == {"nodes": sorted(g.nodes), "edges": [list(e) for e in edges]}


def test_edges_text_parsing():
    g = graph_from_edges_text("# comment\n1 2\n\n2 3\n4\n")
    assert g == Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3")])
    # tabs, CRLF, and \x0b and \x1c as line breaks, with isolated nodes between edges
    g = graph_from_edges_text("# head\r\n\r\n1\t2\r\nlone\r\n2 3\x0b4\x1c3 4\n\n5\n")
    assert g == Graph(["1", "2", "3", "4", "lone", "5"], [("1", "2"), ("2", "3"), ("3", "4")])
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
    # a graph file is read by the CLI's one reader and parsed by its content, whatever its name
    g = Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")])
    path, word = tmp_path / name, tmp_path / "w"
    word.write_text("lonely lonely a b a c b c\n")
    for text in (graph_to_json(g), graph_to_edges_text(g)):
        path.write_text(text)
        assert parse_graph(_read_text(str(path))) == g
        assert main(["check", str(word), str(path)]) == 0
