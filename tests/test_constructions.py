import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from wordrep import constructions, graphs, obf, words
from wordrep.cli import _build_parser
from wordrep import (
    Word,
    alternates,
    cartesian_product,
    complete,
    complete_word,
    cube,
    cube_word,
    cycle,
    cycle_word,
    graph_of_word,
    isomorphic,
    prism_word,
    product_k2_word,
    product_kn_word,
    represents,
    restrict,
    uniformity,
)


def random_uniform_word(rng, size, k):
    letters = [str(i) for i in range(1, size + 1)] * k
    rng.shuffle(letters)
    return Word(letters)


def test_product_k2_word_on_k2_seed():
    out = product_k2_word(Word("1 2 1 2"))
    assert out == Word("1@1 2@1 1@2 1@1 2@2 2@1 1@2 2@2 1@1 1@2 2@1 2@2")
    assert uniformity(out) == 3
    expected = cartesian_product(complete(2), complete(2))
    assert graph_of_word(out) == expected
    assert expected.edges == {
        ("1@1", "2@1"), ("1@2", "2@2"), ("1@1", "1@2"), ("2@1", "2@2"),
    }


def test_product_k2_word_rejects_low_uniformity():
    with pytest.raises(ValueError, match="k > 1"):
        product_k2_word(Word("1 2"))
    with pytest.raises(ValueError, match="uniform"):
        product_k2_word(Word("1 1 2"))


def test_product_k2_word_length_arithmetic():
    # each node contributes 2k-1 letters through the first function and 3
    # through the second, i.e. 2k+2 in total
    rng = random.Random(101)
    for _ in range(20):
        k = rng.randint(2, 5)
        w = random_uniform_word(rng, rng.randint(2, 5), k)
        out = product_k2_word(w)
        assert len(out) == len(w.alphabet) * (2 * k + 2)
        assert uniformity(out) == k + 1


def test_product_k2_word_matches_product_graph_randomized():
    rng = random.Random(7)
    for _ in range(150):
        w = random_uniform_word(rng, rng.randint(2, 5), rng.randint(2, 4))
        expected = cartesian_product(graph_of_word(w), complete(2))
        assert graph_of_word(product_k2_word(w)) == expected


def test_product_kn_word_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        product_kn_word(Word("1 2 1 2"), 1)
    with pytest.raises(ValueError, match="k > 1"):
        product_kn_word(Word("1 2"), 3)


def test_product_kn_word_agrees_with_k2_at_graph_level():
    rng = random.Random(19)
    for _ in range(60):
        w = random_uniform_word(rng, rng.randint(2, 5), rng.randint(2, 4))
        two = product_kn_word(w, 2)
        assert graph_of_word(two) == graph_of_word(product_k2_word(w))
        # the factor order differs, so equality holds at the graph level only
        assert two != product_k2_word(w)


def test_product_kn_word_matches_product_graph_randomized():
    rng = random.Random(43)
    for _ in range(100):
        w = random_uniform_word(rng, rng.randint(2, 5), rng.randint(2, 4))
        n = rng.randint(2, 4)
        expected = cartesian_product(graph_of_word(w), complete(n))
        assert graph_of_word(product_kn_word(w, n)) == expected


def test_product_kn_word_k2_n3_is_three_prism():
    out = product_kn_word(Word("1 2 1 2"), 3)
    assert uniformity(out) == 4 and len(out.alphabet) == 6
    expected = cartesian_product(complete(2), complete(3))
    assert graph_of_word(out) == expected
    assert isomorphic(expected, cartesian_product(cycle(3), complete(2))) is not None


def test_product_kn_word_per_node_counts():
    # x@1 occurs k+(n-1) times; x@j for j >= 2 occurs (k-1)+2+(n-2) times
    rng = random.Random(71)
    for _ in range(20):
        k, n = rng.randint(2, 4), rng.randint(2, 4)
        w = random_uniform_word(rng, rng.randint(2, 4), k)
        out = product_kn_word(w, n)
        assert uniformity(out) == k + n - 1
        for x in w.alphabet:
            for j in range(1, n + 1):
                assert out.counts[f"{x}@{j}"] == k + n - 1


def test_diagonal_pairs_alternate_fully():
    rng = random.Random(83)
    for _ in range(40):
        k, n = rng.randint(2, 4), rng.randint(2, 4)
        w = random_uniform_word(rng, rng.randint(2, 4), k)
        out = product_kn_word(w, n)
        for x in w.alphabet:
            for i, j in combinations(range(1, n + 1), 2):
                a, b = f"{x}@{i}", f"{x}@{j}"
                assert alternates(out, a, b)
                assert len(restrict(out, {a, b})) == 2 * uniformity(out)


def test_cube_word_base_cases():
    assert cube_word(1) == Word("0 1")
    assert cube_word(2) == Word("11 00 01 10 00 11 10 01")
    assert represents(cube_word(1), cube(1))
    assert represents(cube_word(2), cube(2))
    with pytest.raises(ValueError):
        cube_word(0)


def test_cube_word_dimension_is_bounded_like_the_cli():
    # above the bound a clear ValueError, not a RecursionError per dimension
    assert constructions.MAX_CUBE_DIMENSION == 20
    for k in (0, 21, 1200):
        with pytest.raises(ValueError, match=r"1 <= k <= 20, got"):
            cube_word(k)
    args = _build_parser().parse_args(["construct", "cube", "-k", "20"])
    assert args.k == 20


def test_cube_word_represents_cube():
    for k in range(1, 7):
        w = cube_word(k)
        assert uniformity(w) == k
        assert len(w.alphabet) == 2 ** k
        assert len(w) == k * 2 ** k
        assert represents(w, cube(k))


def test_complete_word():
    assert complete_word(3, 1) == Word("1 2 3")
    assert complete_word(3, 2) == Word("1 2 3 1 2 3")
    for n in range(1, 7):
        for k in range(1, 7):
            w = complete_word(n, k)
            assert uniformity(w) == k
            assert graph_of_word(w) == complete(n)
    with pytest.raises(ValueError):
        complete_word(0, 1)
    with pytest.raises(ValueError):
        complete_word(1, 0)


def test_cycle_word():
    assert graph_of_word(cycle_word(3)) == cycle(3)
    for n in range(3, 11):
        w = cycle_word(n)
        assert uniformity(w) == 2
        assert represents(w, cycle(n))
    with pytest.raises(ValueError):
        cycle_word(2)


def test_prism_word():
    for n in range(3, 9):
        w = prism_word(n)
        assert uniformity(w) == 3
        assert represents(w, cartesian_product(cycle(n), complete(2)))
    # the 4-prism is the 3-cube in disguise
    assert isomorphic(graph_of_word(prism_word(4)), cube(3)) is not None


def sha256(w):
    return hashlib.sha256(str(w).encode()).hexdigest()


def assert_counts_match_letters(w):
    assert list(w.counts.items()) == list(Counter(w.letters).items())


# sha256 of str(cube_word(k)), pinned so that faster constructions must
# reproduce the same words byte for byte
CUBE_WORD_SHA256 = {
    3: "5b772cfc16cdb624a30c40911fbc504218e44bacb864ce917445b0129b05d71a",
    4: "10c9856a1762a9c498f8c164f426a89da04d1c40ddb6460650698007eb8626e6",
    5: "2f3ba57edba7b55247178225bece302a15945e90f96e8cc3968b25a5059ce482",
    6: "06cf2fc8736b20cb28d5f40b2dce29aa33271b57d9ac7f3cf50ea328e0303097",
    7: "6e7dc7c98b3746e384ad9b091e2cfee4484e08aa929d07253e3c95c0bcfadcbc",
    8: "cec8ee3f6fa1585da5d68dd7d5096f302aa882121d6bec5a0657ad2fdb5c0c53",
    9: "cc1aac4347098fb361cefeed126473c55b63f5c992a07554fe1943ccba4a88d3",
    10: "0d787453665c8dcb4f036a4e21713b1596d9f58cb85f776e3396340c2a87fe28",
    11: "e4daaa48b694c17874e662dd462a83d6bd4a9dbb8ede74bd39168da3874ca4c6",
    12: "58f4265c04274469c1115ec383a4b168dd152d88b0f7f50eaf53b7e70a00b3da",
}


def test_cube_words_are_pinned():
    cube_word.cache_clear()
    for k, digest in CUBE_WORD_SHA256.items():
        w = cube_word(k)
        assert sha256(w) == digest, k
        assert_counts_match_letters(w)


def test_prism_and_product_kn_words_are_pinned():
    w = prism_word(7)
    assert sha256(w) == "441a6276baef4c64454ddd8c3fb7bfa232f5c3fc52e8af3013ba5fdb4f2ada25"
    assert_counts_match_letters(w)
    letters = [str(i) for i in range(1, 7)] * 3
    random.Random(2026).shuffle(letters)
    base = Word(letters)
    assert base == Word("6 3 1 2 2 5 6 2 5 1 3 1 4 4 3 6 5 4")
    w = product_kn_word(base, 4)
    assert sha256(w) == "a78ca2f603c5ce76ac810358423658cf89b76b17141477e308fe925890cb8a78"
    assert_counts_match_letters(w)
    assert_counts_match_letters(product_k2_word(base))


def test_cube_word_validates_each_new_token_about_once(monkeypatch):
    # step k hands its 2^k new names to the validator as the images of
    # both functions, and the domains (the previous word's valid names)
    # are not validated again: 2 * (2^13 - 8) + 4 seed names = 16,372
    # tokens for k = 12.  Tokens are counted, not check_symbol calls: the
    # validator checks a batch in one pass and calls check_symbol only
    # for a batch that fails.
    tokens = [0]
    original = words._check_tokens

    def counted(batch):
        batch = list(batch)
        tokens[0] += len(batch)
        return original(batch)

    for module in (words, graphs, obf):
        monkeypatch.setattr(module, "_check_tokens", counted)
    cube_word.cache_clear()
    try:
        cube_word(12)
    finally:
        cube_word.cache_clear()
    assert 16_372 <= tokens[0] <= 16_500
