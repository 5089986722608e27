import json
import random
import time
from itertools import combinations, permutations

import pytest

from conftest import reference_search, restriction_alternates
from wordrep import (
    Graph,
    SearchOutcome,
    Word,
    cartesian_product,
    complete,
    cube,
    cycle,
    extend_uniform,
    graph_from_json,
    graph_to_json,
    is_k_representable,
    outcome_to_json,
    representation_number,
    represents,
    uniformity,
)
from wordrep import graphs, triples, words
from wordrep.graphs import _graph_json
from wordrep.search import _Symmetry
from wordrep.triples import _Live


def naive_k_representable(g, k):
    # independent oracle: walk every distinct k-uniform word once
    seen = set()
    for perm in permutations(sorted(g.nodes) * k):
        if perm in seen:
            continue
        seen.add(perm)
        if represents(Word(perm), g):
            return True
    return False


def all_graphs(size):
    names = [str(i) for i in range(1, size + 1)]
    pairs = list(combinations(names, 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(names, [p for i, p in enumerate(pairs) if mask >> i & 1])


def wheel5():
    # W5, hub 6 on the 5-cycle 1..5: the only 6-node graph with no representant
    rim = [str(i) for i in range(1, 6)]
    return Graph([*rim, "6"], [(v, "6") for v in rim] + [(rim[i], rim[(i + 1) % 5]) for i in range(5)])


def path3():
    return Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])


def mixed_triples(nbr):
    # by brute force, each triple of positions a < b < c with one or two
    # edges, mapped to the bits of its edges: a pair of roles r < s (a is
    # role 0, b role 1, c role 2) is the bit 1 << (r + s - 1)
    found = {}
    for t in combinations(range(len(nbr)), 3):
        bits = sum(1 << r + s - 1 for (r, x), (s, y) in combinations(enumerate(t), 2) if nbr[x] >> y & 1)
        if bits.bit_count() in (1, 2):
            found[t] = bits
    return found


def test_witness_examples():
    o = is_k_representable(complete(4), 1)
    assert o.found and o.word == Word("1 2 3 4")
    o = is_k_representable(cycle(4), 2)
    assert o.found and uniformity(o.word) == 2 and represents(o.word, cycle(4))
    o = is_k_representable(cartesian_product(complete(1), complete(2)), 1)
    assert o.found


def test_exhaustion_examples():
    # only complete graphs have 1-uniform representants
    assert is_k_representable(cycle(4), 1).result == "exhausted"
    assert is_k_representable(cartesian_product(complete(2), complete(2)), 1).result == "exhausted"


def test_three_prism_not_2_representable():
    prism = cartesian_product(complete(3), complete(2))
    o = is_k_representable(prism, 2)
    assert o.result == "exhausted" and o.word is None
    o3 = is_k_representable(prism, 3)
    assert o3.found and uniformity(o3.word) == 3 and represents(o3.word, prism)


def test_representation_number_of_complete_products():
    for n, expected in ((1, 1), (2, 2), (3, 3)):
        g = cartesian_product(complete(n), complete(2))
        *_, o = representation_number(g, 3)
        assert o.found and o.k == expected
    *_, o = representation_number(complete(5), 2)
    assert o.found and o.k == 1
    *_, o = representation_number(cube(2), 3)
    assert o.found and o.k == 2 and represents(o.word, cube(2))


def test_representation_number_unknown_within_bound():
    *_, o = representation_number(cartesian_product(complete(3), complete(2)), 2)
    assert (o.result, o.k, o.word) == ("exhausted", 2, None)


def test_budget_signal():
    # 8 nodes x 4 copies is 32 positions, above the default 24: refused
    # without searching
    o = is_k_representable(cube(3), 4)
    assert (o.result, o.word, o.explored) == ("resource-limit", None, 0)
    # explicit budget unlocks the same query shape
    assert is_k_representable(cycle(4), 2, budget=8).found
    # k = 1 fits an 8-position budget, k = 2 does not, and no 1-uniform
    # witness exists, so the bound is hit mid-scan
    *_, o = representation_number(cube(3), 2, budget=8)
    assert o.result == "resource-limit" and o.k == 2


def test_deep_query_runs_past_the_recursion_limit(monkeypatch):
    # 1,400 word positions, deeper than Python's default recursion limit
    # of 1,000 frames
    g = complete(700)
    calls = []
    cuts = _Symmetry.cuts
    monkeypatch.setattr(_Symmetry, "cuts", lambda self, x, placed: calls.append(x) or cuts(self, x, placed))
    o = is_k_representable(g, 2, budget=2000)
    assert o.found and uniformity(o.word) == 2 and represents(o.word, g)
    # each first copy placed is the smallest free node, so the symmetry cut
    # is never asked and never runs an automorphism search
    assert calls == []


def test_symmetry_agrees_with_a_permutation_oracle():
    # the lex-leader cut against the permutations that preserve adjacency:
    # asked on a fresh object, it holds for a free x iff one of them fixes
    # the placed set and sends x to a smaller free node.  It is asked for
    # every fixed set of every labelled graph of at most 5 nodes, and for
    # random fixed sets of seeded 6- and 7-node graphs under a random
    # labelling, so that the search meets its nodes in many position
    # orders: symmetric families (cycles, cycles with chords, the ladder and
    # the prism, each also with an isolated node at 7 nodes, and their
    # complements) and random graphs, which rarely have automorphisms.
    def agrees(g, fixed_sets):
        size = len(g.masks)
        nbr = [{j for j in range(size) if m >> j & 1} for m in g.masks]
        auts = {p for p in permutations(range(size))
                if all({p[j] for j in nbr[a]} == nbr[p[a]] for a in range(size))}
        cut = _Symmetry(g)
        for fixed in fixed_sets:
            stay = [a for a in range(size) if fixed >> a & 1]
            for x in range(size):
                if x not in stay:
                    expected = any(p[x] < x and all(p[a] == a for a in stay) for p in auts)
                    assert cut.cuts(x, fixed) == expected, (sorted(g.edges), stay, x)

    for size in range(1, 6):
        for g in all_graphs(size):
            agrees(g, range(2 ** size))

    def cycle_edges(n):
        return {(i, (i + 1) % n) for i in range(n)}

    def k2_times(right):
        # K2 times the 3-node graph with edge set right, on nodes 0..5
        return {(j, 3 + j) for j in range(3)} | {(3 * i + a, 3 * i + b) for i in range(2) for a, b in right}

    rng = random.Random(30)
    families = [
        lambda n: cycle_edges(n),
        lambda n: cycle_edges(n) | {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))},
        lambda n: {(i, (i + d) % n) for i in range(n) for d in (1, 2)},
        lambda n: k2_times(rng.choice(({(0, 1), (1, 2)}, {(0, 1), (1, 2), (0, 2)}))),
        lambda n: {p for p in combinations(range(n), 2) if rng.random() < 0.5},
    ]
    for _ in range(200):
        size = rng.choice((6, 7))
        edges = {tuple(sorted(p)) for p in rng.choice(families)(size)}
        if rng.random() < 0.5:
            edges = set(combinations(range(size), 2)) - edges
        names = [str(i) for i in range(1, size + 1)]
        label = rng.sample(names, size)
        g = Graph(names, [(label[a], label[b]) for a, b in edges])
        agrees(g, {sum(1 << a for a in rng.sample(range(size), rng.randint(0, size - 1)))
                   for _ in range(8)})


def test_input_validation():
    with pytest.raises(ValueError):
        is_k_representable(complete(2), 0)
    with pytest.raises(ValueError):
        is_k_representable(Graph([]), 1)
    with pytest.raises(ValueError):
        next(representation_number(complete(2), 0))


def test_search_agrees_with_naive_oracle():
    for size in (2, 3):
        for g in all_graphs(size):
            for k in (1, 2):
                assert is_k_representable(g, k).found == naive_k_representable(g, k)


class _CountingLive(_Live):
    """The triple cut's memo, counting its lookups: the search's, and those
    a miss makes of the code without its last letter."""

    def __init__(self, k):
        self.lookups = 0
        super().__init__(k)

    def __getitem__(self, code):
        self.lookups += 1
        return super().__getitem__(code)


@pytest.mark.parametrize(
    "make, explored, lookups",
    [
        (lambda: cartesian_product(complete(3), complete(2)), 25, 386),
        (lambda: cartesian_product(complete(4), complete(2)), 40, 998),
        (lambda: cube(3), 43, 1_070),
        (lambda: cartesian_product(cycle(5), complete(2)), 548, 18_357),
        (lambda: cartesian_product(path3(), complete(3)), 273, 7_853),
    ],
    ids=["K3xK2", "K4xK2", "Q3", "C5xK2", "P3xK3"],
)
def test_pinned_k2_exhaustion_counts(monkeypatch, make, explored, lookups):
    # the k = 2 exhaustions behind the paper's lower bounds (K4xK2 is the
    # 16-position one), and two 20- and 18-position ones that took
    # 1,408,741 and 138,566 explored before the triple cut.  From a fresh
    # memo the triple check makes the pinned lookups: it stops at the first
    # dead triple and asks first the one that last cut the node (asking
    # every triple takes 683, 2,555, 2,827, 73,530 and 26,302).  Neither
    # count depends on the machine, so a change to the pruning rules or to
    # the check's order has to update them on purpose
    live = _CountingLive(2)
    monkeypatch.setitem(triples._MEMOS, 2, live)
    o = is_k_representable(make(), 2)
    assert (o.result, o.explored, live.lookups) == ("exhausted", explored, lookups)


def test_complete_graph_minus_its_last_edge_exhausts_at_once():
    # K_24 minus the edge between its two largest names ("8" and "9" in
    # name order): k = 1 is answered without search, and at k = 2 (48
    # positions) the smallest representant is found without a backtrack,
    # one placement per letter
    names = complete(24).names
    g = Graph(names, [e for e in complete(24).edges if e != ("8", "9")])
    started = time.perf_counter()
    o = is_k_representable(g, 1)
    assert (o.result, o.explored) == ("exhausted", 0)
    o = is_k_representable(g, 2, budget=48)
    assert (o.result, o.explored) == ("witness", 48)
    assert time.perf_counter() - started < 1


def test_clique_joined_to_a_five_cycle_exhausts_at_once(monkeypatch):
    # K7 joined to C5 (it contains W5, so it has no representant), 24
    # positions at k = 2: the 7 clique nodes are interchangeable, so the
    # lex-leader cut tries only the first free one of them at each first
    # copy; without it the search explored 1,910,192 (36 s)
    rim = [f"r{i}" for i in range(5)]
    hub = [f"h{i}" for i in range(7)]
    g = Graph(rim + hub, [(rim[i], rim[(i + 1) % 5]) for i in range(5)]
              + [(h, r) for h in hub for r in rim] + list(combinations(hub, 2)))
    cut = []
    cuts = _Symmetry.cuts
    monkeypatch.setattr(_Symmetry, "cuts", lambda self, x, placed: cuts(self, x, placed) and not cut.append(x))
    started = time.perf_counter()
    o = is_k_representable(g, 2)
    assert (o.result, o.explored) == ("exhausted", 427)
    assert time.perf_counter() - started < 1
    assert len(cut) > 100


def test_pinned_wheel_counts():
    outcomes = [is_k_representable(wheel5(), k) for k in (1, 2, 3)]
    assert {o.result for o in outcomes} == {"exhausted"}
    assert [o.explored for o in outcomes] == [0, 25, 964]


def test_pinned_small_graph_totals():
    # explored summed over every labelled graph of at most 5 nodes at
    # k <= 3 (3,297 queries; 11,388 at k <= 2 and 19,761 at k = 3): a
    # change of where explored is counted shows here even when every single
    # answer stays the same
    graphs = [g for size in range(1, 6) for g in all_graphs(size)]
    total = sum(is_k_representable(g, k).explored for g in graphs for k in (1, 2, 3))
    assert (len(graphs), total) == (1_099, 31_149)


def test_order_of_the_triple_check_changes_nothing(monkeypatch):
    # the triple check is an AND over the placed node's triples, and the
    # search reorders them as it goes (the one that last cut a node is
    # asked first), so the order must change no result, witness or
    # explored count: with each node's triples shuffled as they are built,
    # every query gives the outcome it gives without the shuffle
    queries = [(g, k) for size in range(1, 6) for g in all_graphs(size) for k in (1, 2, 3)]
    queries += [(cartesian_product(complete(3), complete(2)), 2),
                (cartesian_product(cycle(5), complete(2)), 2), (wheel5(), 3)]

    def outcomes():
        return [(o.result, o.word, o.explored) for o in (is_k_representable(g, k) for g, k in queries)]

    plain = outcomes()
    build = triples.build
    for seed in range(3):
        rng = random.Random(seed)

        def shuffled(nbr):
            codes, member = build(nbr)
            for roles in member:
                rng.shuffle(roles)
            return codes, member

        monkeypatch.setattr(triples, "build", shuffled)
        assert outcomes() == plain, seed


def test_non_edge_lookahead_cuts_beside_the_triple_cut():
    # K3xK2 plus two isolated nodes x and y at k = 2: every triple holding
    # both is empty, so the triple cut never sees the pair x, y, and only
    # the lookahead drops a prefix where it still alternates once x is
    # complete; 750 explored without it
    prism = cartesian_product(complete(3), complete(2))
    g = Graph([*prism.names, "x", "y"], prism.edges)
    o = is_k_representable(g, 2)
    assert (o.result, o.explored) == ("exhausted", 655)


def test_non_edge_lookahead_cuts_above_max_triples():
    # K100 minus the perfect matching of consecutive sorted names has 4,900
    # triples, above triples.MAX_TRIPLES, so only the edge cut and the
    # non-edge lookahead prune; with both, the witness comes after 250
    # placements (without the lookahead no answer came in 300 s)
    names = complete(100).names
    matching = {(names[i], names[i + 1]) for i in range(0, 100, 2)}
    g = Graph(names, [e for e in complete(100).edges if e not in matching])
    assert len(mixed_triples(g.masks)) == 4_900 > triples.MAX_TRIPLES
    assert triples.build(g.masks) == ([], [[]] * 100)
    started = time.perf_counter()
    o = is_k_representable(g, 2, budget=200)
    assert time.perf_counter() - started < 1
    assert (o.result, o.explored) == ("witness", 250) and represents(o.word, g) and uniformity(o.word) == 2


def test_triple_count_and_triples_match_every_triple():
    # on every labelled graph of at most 5 nodes the triples built are
    # exactly those with one or two edges, each once, with roles 0, 1, 2 on
    # its nodes in position order and a code of 8 | the bits of its edges
    for size in range(1, 6):
        for g in all_graphs(size):
            codes, member = triples.build(g.masks)
            roles = [{} for _ in codes]
            for x, pairs in enumerate(member):
                for t, r in pairs:
                    roles[t][r] = x
            assert sum(map(len, member)) == 3 * len(codes), sorted(g.edges)
            built = {(roles[t][0], roles[t][1], roles[t][2]): codes[t] for t in range(len(codes))}
            expected = mixed_triples(g.masks)
            assert len(built) == len(codes) == len(expected), sorted(g.edges)
            assert built == {t: 8 | bits for t, bits in expected.items()}, sorted(g.edges)


def test_triple_memo_matches_every_completion():
    # a brute force over all completions: on each labelled 3-node graph
    # with one or two edges, at k <= 3, a prefix's code is live in a fresh
    # memo iff some k-uniform word that starts with the prefix represents
    # the graph, by the pairwise oracle; triangles and empty triples get
    # no triple at all
    names = ["1", "2", "3"]
    pairs = list(combinations(names, 2))
    for edges in range(8):
        g = Graph(names, [p for i, p in enumerate(pairs) if edges >> i & 1])
        codes, member = triples.build(g.masks)
        if bin(edges).count("1") in (0, 3):
            assert codes == []
            continue
        (code,) = codes
        role = {names[x]: r for x in range(3) for _, r in member[x]}
        for k in (1, 2, 3):
            live = _Live(k)
            words = set(permutations(names * k))
            good = {w[:i] for w in words for i in range(3 * k + 1)
                    if all(restriction_alternates(w, a, b) == g.adjacent(a, b) for a, b in pairs)}
            for prefix in {w[:i] for w in words for i in range(3 * k + 1)}:
                spelled = code
                for x in prefix:
                    spelled = spelled << 2 | role[x]
                assert (live[spelled] is not None) == (prefix in good), (sorted(g.edges), k, prefix)


def test_high_k_queries_answer_at_once(monkeypatch):
    # with an empty memo, every labelled 3-node graph at k = 1..8 gives the
    # reference search's result and witness, and W5 exhausts k = 4 (27,654
    # explored before the triple cut), each in under 1 s
    monkeypatch.setattr(triples, "_MEMOS", {})
    for g in all_graphs(3):
        for k in range(1, 9):
            started = time.perf_counter()
            o = is_k_representable(g, k)
            assert time.perf_counter() - started < 1, (sorted(g.edges), k)
            ref_word, _ = reference_search(g, k)
            assert (o.result, o.word) == ("exhausted" if ref_word is None else "witness", ref_word)
    started = time.perf_counter()
    o = is_k_representable(wheel5(), 4)
    assert time.perf_counter() - started < 1
    assert (o.result, o.explored) == ("exhausted", 8_079)


def test_triple_cut_is_off_above_max_triples(monkeypatch):
    # above the bound build() returns no triple, and the search is the one
    # without the triple cut: K3xK2 explores 343 at k = 2 instead of 25.
    # At the bound every triple is built
    g = cartesian_product(complete(3), complete(2))
    assert len(mixed_triples(g.masks)) == 18
    assert len(triples.build(g.masks)[0]) == 18
    monkeypatch.setattr(triples, "MAX_TRIPLES", 18)
    assert len(triples.build(g.masks)[0]) == 18
    monkeypatch.setattr(triples, "MAX_TRIPLES", 17)
    assert triples.build(g.masks) == ([], [[]] * 6)
    o = is_k_representable(g, 2)
    assert (o.result, o.explored) == ("exhausted", 343)


def test_search_matches_reference_on_six_node_graphs():
    # the lex-leader cut where criterion 7 does not reach: 300 random
    # 6-node graphs at k = 2 give the same result and witness word as the
    # reference search, which has no symmetry cut.  A cut that held as soon
    # as x had an image with x's placed neighbours, mapping no other node,
    # passes criterion 7 but fails here (edge mask 10135 would exhaust).
    rng = random.Random(5)
    names = [str(i) for i in range(1, 7)]
    pairs = list(combinations(names, 2))
    for _ in range(300):
        edges = rng.getrandbits(len(pairs))
        g = Graph(names, [p for i, p in enumerate(pairs) if edges >> i & 1])
        ref_word, _ = reference_search(g, 2)
        o = is_k_representable(g, 2)
        assert (o.result, o.word) == ("exhausted" if ref_word is None else "witness", ref_word), edges


def test_witness_extends_to_higher_uniformity():
    # a k-witness implies a (k+1)-witness via occurrence extension
    for g in (cycle(4), cycle(5), complete(3)):
        o = is_k_representable(g, 2)
        assert o.found
        taller = extend_uniform(o.word, 1)
        assert uniformity(taller) == 3
        assert represents(taller, g)
        assert is_k_representable(g, 3, budget=30).found


def test_outcome_json_shape_and_determinism():
    o = is_k_representable(complete(2), 1)
    text = outcome_to_json(o)
    assert text == outcome_to_json(is_k_representable(complete(2), 1))
    payload = json.loads(text)
    assert payload == {
        "graph": {"nodes": ["1", "2"], "edges": [["1", "2"]]},
        "k": 1,
        "result": "witness",
        "word": "1 2",
        "explored": 0,
        "millis": 0,
    }
    timed = json.loads(outcome_to_json(o, timings=True))
    assert timed["millis"] >= 0
    exhausted = json.loads(outcome_to_json(is_k_representable(cycle(4), 1)))
    assert exhausted["result"] == "exhausted" and exhausted["word"] is None


def _random_named_graph(rng):
    """A graph of 1-9 nodes with names from a pool that holds '@' names,
    edges drawn at a random density, and often an isolated node or more."""
    pool = ["a", "b", "z", "0", "10", "x_1", "A@b", "a@0", "0@1@2", "_"]
    names = rng.sample(pool, rng.randint(1, 9))
    p = rng.choice([0.0, 0.3, 0.7, 1.0])
    return Graph(names, [(u, v) for u, v in combinations(names, 2) if rng.random() < p])


def test_outcome_json_is_the_full_payload_dumped_at_once():
    # the graph's JSON and each outcome line are joined from the names, the
    # word and the counts; the line must be what one json.dumps of the whole
    # payload writes, byte for byte
    isolated = graph_from_json('{"nodes": ["b", "a"], "edges": []}')
    mixed = graph_from_json('{"nodes": ["0", "1", "2"], "edges": [["1", "2"]]}')
    outcomes = [
        is_k_representable(complete(2), 1),  # witness at k = 1
        is_k_representable(cycle(4), 2),  # witness
        is_k_representable(cycle(4), 1),  # exhausted at k = 1
        is_k_representable(cube(3), 2),  # exhausted
        is_k_representable(cube(3), 2, budget=8),  # resource-limit
        is_k_representable(isolated, 1),
        is_k_representable(isolated, 2),
        is_k_representable(mixed, 2),
        SearchOutcome(Graph([]), 1, "exhausted", None, 0, 0.0),  # no nodes: the search refuses them
        is_k_representable(cartesian_product(cycle(4), complete(3)), 1),
        SearchOutcome(mixed, 2, "witness", Word("0 0 1 2 1 2"), 7, 1.23456),
    ]
    # seeded random graphs, each with an outcome of every result and a
    # millis from 1e-6 to 1e6, and some millis that round at the third place
    rng = random.Random(31)
    results = ("witness", "exhausted", "resource-limit")
    for _ in range(200):
        g = _random_named_graph(rng)
        for result in results:
            word = Word(list(g.names) * 2) if result == "witness" else None
            millis = 10 ** rng.uniform(-6, 6)
            outcomes.append(SearchOutcome(g, 2, result, word, rng.randrange(10 ** 6), millis))
    for millis in (1e-6, 0.0004, 0.0005, 0.0015, 2.5e-3, 1.0, 999.9995, 123456.789, 1e6):
        outcomes.append(SearchOutcome(cube(3), 3, "exhausted", None, 0, millis))
    assert {o.result for o in outcomes} == set(results)
    for o in outcomes:
        graph = json.loads(graph_to_json(o.graph))
        assert _graph_json(o.graph) == json.dumps(graph), o.graph
        for timings in (False, True):
            payload = {
                "graph": graph,
                "k": o.k,
                "result": o.result,
                "word": None if o.word is None else str(o.word),
                "explored": o.explored,
                "millis": round(o.millis, 3) if timings else 0,
            }
            assert outcome_to_json(o, timings=timings) == json.dumps(payload), (o, timings)
    assert json.loads(outcome_to_json(outcomes[5]))["graph"] == {"nodes": ["a", "b"], "edges": []}
    assert _graph_json(Graph([])) == '{"nodes": [], "edges": []}'


def test_outcome_and_graph_json_share_one_payload():
    # an outcome carries the same graph object that graph_to_json writes,
    # for each graph in turn
    for g in (cycle(4), complete(3), cycle(4), complete(3)):
        graph_json = graph_to_json(g)
        assert json.loads(outcome_to_json(is_k_representable(g, 1)))["graph"] == json.loads(graph_json)
        assert graph_from_json(graph_json) == g


def test_search_validates_no_tokens(validated_tokens):
    # the graph's names were validated when it was built; a leaf's
    # candidate word is built from them unchecked, and represents still
    # verifies every witness
    g = cube(3)
    tokens, holders = validated_tokens
    assert {words, graphs} <= holders
    outcome = is_k_representable(g, 3)
    assert outcome.found and represents(outcome.word, g)
    assert tokens[0] == 0
    Word(str(outcome.word))  # the count is live: a parsed word's 8 distinct names
    assert tokens[0] == 8
