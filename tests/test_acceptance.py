"""Acceptance criteria, one test per criterion, each recorded as a PASS or
FAIL line in the terminal summary.  Random batches are seeded, so reruns
check identical instances."""
import functools
import random
import time
from itertools import combinations

import pytest

from conftest import all_graphs, random_uniform_word, record_criterion, reference_search, restriction_alternates
from wordrep import (
    ChainConditionError,
    cartesian_product,
    complete,
    complete_word,
    cube,
    cube_word,
    graph_of_word,
    is_k_representable,
    lemma1_concat,
    product_k2_word,
    product_kn_word,
    representation_number,
    represents,
    restrict,
    uniformity,
)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(number, description, False)
                raise
            record_criterion(number, description, True)
        return wrapper
    return deco


def product_batch(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_uniform_word(rng, rng.randint(1, 5), rng.randint(2, 4)), rng.randint(2, 4)


@criterion(1, "cube words are k-uniform representants of the k-cube (k = 1..8, plus k = 10)")
def test_cube_words_up_to_8_then_10():
    started = time.perf_counter()
    for k in range(1, 9):
        w = cube_word(k)
        assert uniformity(w) == k
        assert len(w.alphabet) == 2 ** k
        assert represents(w, cube(k))
    elapsed_8 = time.perf_counter() - started
    assert elapsed_8 < 10, f"k = 1..8 took {elapsed_8:.1f}s"
    started = time.perf_counter()
    w10 = cube_word(10)
    assert uniformity(w10) == 10 and len(w10.alphabet) == 1024
    assert represents(w10, cube(10))
    elapsed_10 = time.perf_counter() - started
    assert elapsed_10 < 60, f"k = 10 took {elapsed_10:.1f}s"


@criterion(2, "two-copy product words are (k+1)-uniform and represent the product graph name-exactly "
              "(500 random words)")
def test_product_k2_oracle_equivalence():
    started = time.perf_counter()
    for w, _ in product_batch(seed=1002, count=500):
        expected = cartesian_product(graph_of_word(w), complete(2))
        out = product_k2_word(w)
        assert graph_of_word(out) == expected, f"mismatch for {w}"
        assert uniformity(out) == uniformity(w) + 1, f"uniformity of {out}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5, f"took {elapsed:.1f}s"


@criterion(3, "n-copy product words are (k+n-1)-uniform and represent the product graph; at n = 2 "
              "they match the two-copy word's graph but not its letter order (500 random words)")
def test_product_kn_oracle_equivalence():
    started = time.perf_counter()
    for w, n in product_batch(seed=1003, count=500):
        expected = cartesian_product(graph_of_word(w), complete(n))
        out = product_kn_word(w, n)
        assert graph_of_word(out) == expected, f"mismatch for {w}, n={n}"
        assert uniformity(out) == uniformity(w) + n - 1, f"uniformity of {out}"
        two, k2 = product_kn_word(w, 2), product_k2_word(w)
        assert graph_of_word(two) == graph_of_word(k2), f"n=2 mismatch for {w}"
        # the factor order differs, so the two agree at the graph level only
        assert two != k2, f"n=2 word equals the two-copy word for {w}"
    elapsed = time.perf_counter() - started
    assert elapsed < 20, f"took {elapsed:.1f}s"


@criterion(4, "projection concatenation preserves the graph and sums the index-set sizes when chained (500 cases) "
              "and rejects uncovered pairs (100 cases)")
def test_lemma1_preservation_and_rejection():
    started = time.perf_counter()
    rng = random.Random(1004)
    for _ in range(500):
        k = rng.randint(2, 4)
        w = random_uniform_word(rng, rng.randint(2, 5), k)
        sets = [
            set(rng.sample(range(1, k + 1), rng.randint(1, k)))
            for _ in range(rng.randint(2, 4))
        ]
        for j in range(1, k):
            if not any(j in a and j + 1 in a for a in sets):
                rng.choice(sets).update((j, j + 1))
        out = lemma1_concat(w, sets)
        assert graph_of_word(out) == graph_of_word(w)
        assert uniformity(out) == sum(len(a) for a in sets)
    rejected = 0
    while rejected < 100:
        k = rng.randint(2, 4)
        w = random_uniform_word(rng, rng.randint(2, 5), k)
        sets = [
            frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            for _ in range(rng.randint(2, 4))
        ]
        uncovered = [
            j for j in range(1, k)
            if not any(j in a and j + 1 in a for a in sets)
        ]
        if not uncovered:
            continue
        with pytest.raises(ChainConditionError) as exc:
            lemma1_concat(w, sets)
        assert exc.value.uncovered == uncovered[0]
        rejected += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5, f"took {elapsed:.1f}s"


@criterion(5, "representation numbers of K_n x K_2 are 1, 2, 3 for n = 1, 2, 3, each witness verifying; "
              "a 3-uniform word exists for n = 4")
def test_complete_product_representation_numbers():
    started = time.perf_counter()
    for n, expected in ((1, 1), (2, 2), (3, 3)):
        g = cartesian_product(complete(n), complete(2))
        *_, o = representation_number(g, 3)
        assert o.found and o.k == expected, f"n={n}"
        assert uniformity(o.word) == expected and represents(o.word, g), f"n={n}: {o.word}"
    # the n = 3 case above includes exhausting k = 2 on the 3-prism
    prism = cartesian_product(complete(3), complete(2))
    assert is_k_representable(prism, 2).result == "exhausted"
    # n = 4, construction side: a verified 3-uniform representant
    w = product_k2_word(complete_word(4, 2))
    assert uniformity(w) == 3
    assert represents(w, cartesian_product(complete(4), complete(2)))
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(6, "same-node copies alternate through the whole product word (all criteria 2-3 outputs)")
def test_diagonal_alternation_identity():
    for seed in (1002, 1003):
        for w, n in product_batch(seed=seed, count=500):
            for out, copies in ((product_k2_word(w), 2), (product_kn_word(w, n), n)):
                k_out = uniformity(out)
                for x in w.alphabet:
                    for i, j in combinations(range(1, copies + 1), 2):
                        a, b = f"{x}@{i}", f"{x}@{j}"
                        assert restriction_alternates(out, a, b), f"{a}, {b} in {out}"
                        assert len(restrict(out, {a, b})) == 2 * k_out


@criterion(7, "the search matches an independent reference search in result and witness word "
              "on every graph with at most 5 nodes at k <= 2, explores no more nodes than it "
              "when they exhaust, and every witness verifies")
def test_search_reduction_equivalence():
    started = time.perf_counter()
    for size in range(1, 6):
        for g in all_graphs(size):
            for k in (1, 2):
                ref_word, ref_explored = reference_search(g, k)
                o = is_k_representable(g, k)
                assert o.word == ref_word, (sorted(g.edges), k, o.word, ref_word)
                assert o.result == ("witness" if ref_word is not None else "exhausted")
                if o.found:
                    assert represents(o.word, g)
                else:
                    assert o.explored <= ref_explored, (sorted(g.edges), k)
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"
