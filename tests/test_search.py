import json
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from wordrep import (
    Graph,
    Word,
    cartesian_product,
    complete,
    cube,
    cycle,
    extend_uniform,
    is_k_representable,
    outcome_to_json,
    representation_number,
    represents,
    uniformity,
)


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
        o = representation_number(g, 3)
        assert o.found and o.k == expected
    o = representation_number(complete(5), 2)
    assert o.found and o.k == 1
    o = representation_number(cube(2), 3)
    assert o.found and o.k == 2 and represents(o.word, cube(2))


def test_representation_number_unknown_within_bound():
    o = representation_number(cartesian_product(complete(3), complete(2)), 2)
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
    o = representation_number(cube(3), 2, budget=8)
    assert o.result == "resource-limit" and o.k == 2


def test_deep_query_runs_past_the_recursion_limit():
    # 1,400 word positions, deeper than Python's default recursion limit
    # of 1,000 frames
    g = complete(700)
    o = is_k_representable(g, 2, budget=2000)
    assert o.found and uniformity(o.word) == 2 and represents(o.word, g)


def test_input_validation():
    with pytest.raises(ValueError):
        is_k_representable(complete(2), 0)
    with pytest.raises(ValueError):
        is_k_representable(Graph([]), 1)
    with pytest.raises(ValueError):
        representation_number(complete(2), 0)


@lru_cache(maxsize=None)
def placement_tree_size(n, k):
    # number of nonempty prefixes of the full enumeration: sequences of
    # length 1..n*k over n symbols with every count at most k
    from math import factorial

    def count(length):
        total = 0

        def split(remaining, slots, acc):
            nonlocal total
            if slots == 0:
                if remaining == 0:
                    ways = factorial(length)
                    for c in acc:
                        ways //= factorial(c)
                    total += ways
                return
            for c in range(min(k, remaining) + 1):
                split(remaining - c, slots - 1, acc + [c])

        split(length, n, [])
        return total

    return sum(count(length) for length in range(1, n * k + 1))


def test_unpruned_search_visits_every_placement():
    # on instances with no witness the unpruned search must walk the whole
    # enumeration tree; its explored count is checked against the closed count
    path3 = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    o = is_k_representable(path3, 1, prune=False)
    assert o.result == "exhausted"
    assert o.explored == placement_tree_size(3, 1)
    o = is_k_representable(cycle(4), 1, prune=False)
    assert o.result == "exhausted"
    assert o.explored == placement_tree_size(4, 1)


def test_pruned_and_unpruned_agree_with_naive_oracle():
    for size in (2, 3):
        for g in all_graphs(size):
            for k in (1, 2):
                expected = naive_k_representable(g, k)
                assert is_k_representable(g, k).found == expected
                assert is_k_representable(g, k, prune=False).found == expected


def test_symmetry_reductions_change_nothing():
    rng = random.Random(53)
    for _ in range(40):
        size = rng.randint(2, 5)
        names = [str(i) for i in range(1, size + 1)]
        g = Graph(names, [e for e in combinations(names, 2) if rng.random() < 0.5])
        k = rng.randint(1, 2)
        pruned = is_k_representable(g, k)
        unpruned = is_k_representable(g, k, prune=False)
        assert pruned.found == unpruned.found
        for o in (pruned, unpruned):
            if o.found:
                assert represents(o.word, g)
        if unpruned.result == "exhausted":
            # the cuts and the fixed first letter only ever drop subtrees,
            # so exhaustion shrinks
            assert pruned.explored <= unpruned.explored


@pytest.mark.parametrize(
    "make, explored",
    [
        (lambda: cartesian_product(complete(3), complete(2)), 684),
        (lambda: cartesian_product(complete(4), complete(2)), 27_200),
        (lambda: cube(3), 33_794),
    ],
    ids=["K3xK2", "K4xK2", "Q3"],
)
def test_pinned_k2_exhaustion_counts(make, explored):
    # the k = 2 exhaustions behind the paper's lower bounds (K4xK2 is the
    # 16-position one); explored counts do not depend on the machine, so a
    # change to the pruning rules has to update them on purpose
    o = is_k_representable(make(), 2)
    assert (o.result, o.explored) == ("exhausted", explored)


def test_pinned_wheel_counts():
    # W5, hub 6 on the 5-cycle 1..5: the only 6-node graph with no representant
    rim = [str(i) for i in range(1, 6)]
    g = Graph([*rim, "6"], [(v, "6") for v in rim] + [(rim[i], rim[(i + 1) % 5]) for i in range(5)])
    outcomes = [is_k_representable(g, k) for k in (1, 2, 3)]
    assert {o.result for o in outcomes} == {"exhausted"}
    assert [o.explored for o in outcomes] == [1, 676, 6_682]


def test_pinned_small_graph_totals():
    # explored summed over every labelled graph of at most 5 nodes at
    # k <= 2 (2,198 queries): a change of where explored is counted shows
    # here even when every single answer stays the same
    graphs = [g for size in range(1, 6) for g in all_graphs(size)]
    total = sum(is_k_representable(g, k).explored for g in graphs for k in (1, 2))
    assert (len(graphs), total) == (1_099, 22_225)


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
        "explored": 2,
        "millis": 0,
    }
    timed = json.loads(outcome_to_json(o, timings=True))
    assert timed["millis"] >= 0
    exhausted = json.loads(outcome_to_json(is_k_representable(cycle(4), 1)))
    assert exhausted["result"] == "exhausted" and exhausted["word"] is None
