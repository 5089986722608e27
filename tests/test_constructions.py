import hashlib
import random
from collections import Counter

import pytest

from conftest import relabel
from wordrep import constructions, graphs, obf, words
from wordrep.cli import _build_parser
from wordrep import (
    Graph,
    OccurrenceBasedFunction,
    Word,
    cartesian_product,
    complete,
    complete_word,
    cube,
    cube_word,
    cycle,
    cycle_word,
    extend_uniform,
    graph_of_word,
    lemma1_concat,
    prism_word,
    product_k2_word,
    product_kn_functions,
    product_kn_word,
    projection,
    represents,
    restrict,
    uniformity,
)


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


def test_product_kn_word_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        product_kn_word(Word("1 2 1 2"), 1)
    with pytest.raises(ValueError, match="k > 1"):
        product_kn_word(Word("1 2"), 3)


def test_product_kn_word_k2_n3_is_three_prism():
    out = product_kn_word(Word("1 2 1 2"), 3)
    assert uniformity(out) == 4 and len(out.alphabet) == 6
    expected = cartesian_product(complete(2), complete(3))
    assert graph_of_word(out) == expected
    # the factors swapped: a@b -> b@a
    swapped = {f"{a}@{b}": f"{b}@{a}" for a in "12" for b in "123"}
    assert relabel(expected, swapped) == cartesian_product(cycle(3), complete(2))


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
        for build in (cube_word, cube):
            with pytest.raises(ValueError, match=r"1 <= k <= 20, got"):
                build(k)
    args = _build_parser().parse_args(["construct", "cube", "-k", "20"])
    assert args.k == 20


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
    # every n that construct prism accepts: no construction checks itself
    assert graph_of_word(cycle_word(3)) == cycle(3)
    for n in range(3, 1001):
        w = cycle_word(n)
        assert uniformity(w) == 2
        assert represents(w, cycle(n))
    with pytest.raises(ValueError):
        cycle_word(2)


def test_prism_word():
    # n = 1000 is the largest prism the CLI builds: 6,000 letters on 2,000 nodes
    for n in (*range(3, 9), 1000):
        w = prism_word(n)
        assert uniformity(w) == 3
        assert represents(w, cartesian_product(cycle(n), complete(2)))
    # the 4-prism is the 3-cube in disguise
    # the 4-cycle 1 2 3 4 runs 00 01 11 10, and copy j of a node sets the last bit
    corners = {"1": "00", "2": "01", "3": "11", "4": "10"}
    names = {f"{i}@{j}": corners[i] + "01"[j - 1] for i in corners for j in (1, 2)}
    assert relabel(graph_of_word(prism_word(4)), names) == cube(3)


def sha256(w):
    return hashlib.sha256(str(w).encode()).hexdigest()


def assert_counts_match_letters(w):
    # a word counts its own letters in first-occurrence order, its counts
    # cannot be set apart from them, and it equals and hashes like the
    # same word parsed from its text
    assert list(w.counts.items()) == list(Counter(w.letters).items())
    with pytest.raises(AttributeError):
        w.counts = {}
    parsed = Word(str(w))
    assert w == parsed and hash(w) == hash(parsed)


def test_built_words_count_their_letters_and_hash_like_parsed_ones():
    w = cube_word(3)
    f, _ = constructions.product_kn_functions(w.alphabet, 3, 2)
    for built in (
        Word("b a") + Word("a c b"),
        w + w,
        restrict(w, {"000", "011", "110"}),
        restrict(w, ()),
        obf.apply(f, w),
        obf.lemma1_concat(w, [{1, 2}, {2, 3}]),
        cube_word(5),
        Word("3 1 4 2 1 3 2 4"),
    ):
        assert_counts_match_letters(built)


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


def test_constructions_validate_no_tokens(validated_tokens):
    # a construction names every node from valid names (x@j, x0 and x1
    # are valid iff x is) and concatenates images of its input, so it
    # validates no token; the entry points that take names from outside
    # still validate each of them once
    tokens, holders = validated_tokens
    assert {words, graphs, constructions, obf} <= holders
    base = Word("6 3 1 2 2 5 6 2 5 1 3 1 4 4 3 6 5 4")
    assert tokens[0] == 6  # the count is live: base's 6 distinct names
    tokens[0] = 0
    cube_word.cache_clear()
    try:
        cube_word(12)
    finally:
        cube_word.cache_clear()
    prism_word(200)
    complete_word(5, 3)
    product_kn_word(base, 4)
    # the projection concatenations build their projections from the
    # word's own names, so they validate none of them again
    assert graph_of_word(lemma1_concat(base, [{1, 2}, {2, 3}])) == graph_of_word(extend_uniform(base, 1))
    assert tokens[0] == 0
    # the product functions validate the m = 6 names of their alphabet,
    # not the 4 * 6 copies they derive
    product_kn_functions(base.alphabet, 3, 4)
    assert tokens[0] == 6
    # and so do the entry points of obf and graphs, through the same count
    projection({1}, base.alphabet, 3), Graph(base.alphabet)
    assert tokens[0] == 18
    for reject in (
        lambda: product_kn_functions({"a", "b@"}, 2, 3),
        lambda: projection({1}, {"a", "b@"}, 2),
        lambda: Word("a b@"),
        lambda: Graph(["a", "b@"]),
        lambda: OccurrenceBasedFunction({"a"}, 1, {("a", 1): ("a", "b@")}),
    ):
        with pytest.raises(ValueError, match="invalid symbol token: 'b@'$"):
            reject()
