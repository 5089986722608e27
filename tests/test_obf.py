import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import random_uniform_word
from wordrep import (
    ChainConditionError,
    OccurrenceBasedFunction,
    Word,
    apply,
    cube_word,
    extend_uniform,
    graph_of_word,
    lemma1_concat,
    product_kn_functions,
    projection,
    uniformity,
)
from wordrep.constructions import _copy_functions

SEED_WORD = Word("3 1 4 2 1 3 2 4")


def test_table_must_be_total():
    with pytest.raises(ValueError, match="not total"):
        OccurrenceBasedFunction({"a"}, 2, {("a", 1): ("a",)})


def test_image_tokens_are_validated():
    table = {(x, i): (x, "not ok") if i == 3 else (x,) for x in "ab" for i in (1, 2, 3)}
    with pytest.raises(ValueError, match="not ok"):
        OccurrenceBasedFunction({"a", "b"}, 3, table)
    with pytest.raises(ValueError):
        OccurrenceBasedFunction({"a"}, 2, {("a", 1): ("a",), ("a", 2): ("a", ["list"])})
    with pytest.raises(ValueError):
        OccurrenceBasedFunction({"a"}, 1, {("a", 1): ("a@",)})


def test_domain_symbols_are_validated_with_the_table():
    with pytest.raises(ValueError, match="b@"):
        OccurrenceBasedFunction({"a", "b@"}, 1, {("a", 1): ("a",), ("b@", 1): ()})
    with pytest.raises(ValueError, match="b@"):
        projection({1}, {"a", "b@"}, 2)
    # the product functions validate their alphabet before naming its
    # copies, so the error names the given token, not a copy of it
    with pytest.raises(ValueError, match="invalid symbol token: 'b@'$"):
        product_kn_functions({"a", "b@"}, 2, 3)


# Each entry point's error for three bad names, printed one per line; set
# order follows the hash seed, so a set-ordered check names any of them.
_FIRST_BAD_SCRIPT = """
from wordrep import *
bad = ["a!", "b!", "c!"]
for build in (
    lambda: OccurrenceBasedFunction(bad, 1, {(x, 1): (x,) for x in bad}),
    lambda: OccurrenceBasedFunction(["a", "b"], 1, {("a", 1): bad, ("b", 1): ["z!"]}),
    lambda: projection({1}, bad, 1),
    lambda: product_kn_functions(bad, 2, 2),
    lambda: Word(bad),
    lambda: Graph(bad),
    lambda: graph_from_edges_text("a! b!\\nc!"),
    lambda: graph_from_json('{"nodes": ["a!"], "edges": [["b!", "c!"]]}'),
):
    try:
        build()
    except ValueError as exc:
        print(exc)
"""


@pytest.mark.parametrize("seed", range(1, 7))
def test_several_bad_names_report_the_first_in_the_callers_order(seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _FIRST_BAD_SCRIPT], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}).stdout
    assert out.splitlines() == ["invalid symbol token: 'a!'"] * 8


def test_table_entries_outside_the_domain_are_rejected():
    with pytest.raises(ValueError, match=r"\('z', 1\)"):
        OccurrenceBasedFunction({"a"}, 1, {("a", 1): ("a",), ("z", 1): ("q",)})


def test_string_image_is_read_as_whitespace_separated_tokens():
    h = OccurrenceBasedFunction({"x"}, 2, {("x", 1): "x0", ("x", 2): " x1  x0 "})
    assert h.images["x"][0] == ("x0",)
    assert h.images["x"][1] == ("x1", "x0")
    assert h == OccurrenceBasedFunction({"x"}, 2, {("x", 1): Word("x0"), ("x", 2): ["x1", "x0"]})
    with pytest.raises(ValueError, match="x@"):
        OccurrenceBasedFunction({"x"}, 1, {("x", 1): "x x@"})


def test_bound_must_be_positive():
    with pytest.raises(ValueError):
        OccurrenceBasedFunction({"a"}, 0, {})
    with pytest.raises(ValueError, match="bound"):
        product_kn_functions({"a"}, 0, 2)


def test_product_kn_functions_need_a_copy():
    assert product_kn_functions({"a"}, 2, 1)[0].images == {"a": (("a@1",), ("a@1",))}
    with pytest.raises(ValueError, match="n >= 1"):
        product_kn_functions({"a"}, 2, 0)


def test_image_reads_the_rows_within_the_bound():
    h = OccurrenceBasedFunction({"a", "b"}, 2, {(x, i): (x,) * i for x in "ab" for i in (1, 2)})
    assert h.images["a"][0] == ("a",)
    assert h.images["b"][1] == ("b", "b")
    assert h.images == {"a": (("a",), ("a", "a")), "b": (("b",), ("b", "b"))}
    assert set(h.images) == {"a", "b"}
    assert repr(h) == "OccurrenceBasedFunction(domain=['a', 'b'], bound=2)"


def paper_copy_functions(alphabet, k, n, name):
    """The n-copy product's functions, one explicit table each, written
    from the formulas: f_1 maps (x, 1) to copy 1 and (x, i > 1) to copies
    n..1; f_j (j >= 2) maps (x, 1) to copy j, (x, 2) to copies j-1..1 then
    n..j, and (x, i > 2) to the empty word."""
    fs = []
    for j in range(1, n + 1):
        table = {}
        for x in alphabet:
            for i in range(1, k + 1):
                if i == 1:
                    copies = [j]
                elif j == 1:
                    copies = range(n, 0, -1)
                elif i == 2:
                    copies = [*range(j - 1, 0, -1), *range(n, j - 1, -1)]
                else:
                    copies = []
                table[(x, i)] = [name(x, c) for c in copies]
        fs.append(OccurrenceBasedFunction(alphabet, k, table))
    return fs


def assert_same_function(built, explicit, words):
    assert built == explicit and hash(built) == hash(explicit)
    assert built.bound == explicit.bound and built.images == explicit.images
    assert all(len(row) == built.bound for row in built.images.values())
    for w in words:
        out = apply(built, w)
        assert out == apply(explicit, w)
        assert list(out.counts.items()) == list(Counter(out.letters).items())
        assert out == Word(str(out)) and hash(out) == hash(Word(str(out)))


def test_product_kn_functions_match_the_formulas():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for k in (1, 2, 3, 4):
            words = [random_uniform_word(rng, 5, k) for _ in range(3)]
            alphabet = words[0].alphabet
            built = product_kn_functions(alphabet, k, n)
            explicit = paper_copy_functions(alphabet, k, n, lambda x, c: f"{x}@{c}")
            for f, e in zip(built, explicit, strict=True):
                assert_same_function(f, e, words)


def test_cube_copy_functions_match_the_formulas():
    # the cube's steps name copy 1 of x as x0 and copy 2 as x1
    for k in (1, 2, 3, 5):
        prev = cube_word(k)
        built = _copy_functions(prev.alphabet, k, ("0", "1"))
        explicit = paper_copy_functions(prev.alphabet, k, 2, lambda x, c: f"{x}{c - 1}")
        for f, e in zip(built, explicit, strict=True):
            assert_same_function(f, e, [prev])


def test_projection_matches_the_formula():
    rng = random.Random(11)
    for k in (1, 2, 3, 4):
        words = [random_uniform_word(rng, 4, k) for _ in range(3)]
        alphabet = words[0].alphabet
        for size in range(1, k + 1):
            idx = set(rng.sample(range(1, k + 1), size))
            explicit = OccurrenceBasedFunction(
                alphabet, k, {(x, i): [x] if i in idx else [] for x in alphabet for i in range(1, k + 1)}
            )
            assert_same_function(projection(idx, alphabet, k), explicit, words)


def test_apply_identity_and_empty_images():
    alpha = SEED_WORD.alphabet
    identity = OccurrenceBasedFunction(alpha, 2, {(x, i): (x,) for x in alpha for i in (1, 2)})
    assert apply(identity, SEED_WORD) == SEED_WORD
    erase = OccurrenceBasedFunction(alpha, 2, {(x, i): () for x in alpha for i in (1, 2)})
    assert apply(erase, SEED_WORD) == Word()
    assert apply(erase, SEED_WORD).counts == {}


def test_apply_two_copy_first_function():
    f, _ = product_kn_functions({"1", "2"}, 2, 2)
    assert apply(f, Word("1 2 1 2")) == Word("1@1 2@1 1@2 1@1 2@2 2@1")


def test_apply_rejects_domain_violations():
    h = OccurrenceBasedFunction({"a"}, 1, {("a", 1): ("a",)})
    with pytest.raises(ValueError, match="domain"):
        apply(h, Word("b"))
    with pytest.raises(ValueError, match="bound"):
        apply(h, Word("a a"))


def occurrence_indices(w):
    seen = {}
    out = []
    for x in w:
        seen[x] = seen.get(x, 0) + 1
        out.append(seen[x])
    return out


def test_apply_length_is_sum_of_image_lengths():
    rng = random.Random(17)
    for _ in range(50):
        k = rng.randint(1, 3)
        w = random_uniform_word(rng, rng.randint(1, 4), k)
        h = OccurrenceBasedFunction(
            w.alphabet,
            k,
            {(x, i): [f"{x}_{j}" for j in range((int(x) + i) % 3)] for x in w.alphabet for i in range(1, k + 1)},
        )
        out = apply(h, w)
        assert len(out) == sum(len(h.images[x][i - 1]) for x, i in zip(w, occurrence_indices(w)))


def test_projection_examples():
    alpha = SEED_WORD.alphabet
    assert apply(projection({1}, alpha, 2), SEED_WORD) == Word("3 1 4 2")
    assert apply(projection({2}, alpha, 2), SEED_WORD) == Word("1 3 2 4")
    assert apply(projection({1, 2}, alpha, 2), SEED_WORD) == SEED_WORD


def test_projection_validation():
    with pytest.raises(ValueError):
        projection(set(), {"a"}, 2)
    with pytest.raises(ValueError):
        projection({3}, {"a"}, 2)


def test_projection_of_uniform_word_is_size_uniform():
    rng = random.Random(29)
    for _ in range(50):
        k = rng.randint(1, 4)
        w = random_uniform_word(rng, rng.randint(2, 5), k)
        idx = set(rng.sample(range(1, k + 1), rng.randint(1, k)))
        out = apply(projection(idx, w.alphabet, k), w)
        assert uniformity(out) == len(idx)


def test_lemma1_concat_examples():
    assert lemma1_concat(Word("1 2 1 2"), [{1, 2}, {2}]) == Word("1 2 1 2 1 2")
    w = SEED_WORD
    assert lemma1_concat(w, [{1, 2}, {1, 2}]) == w + w


def test_lemma1_concat_rejects_uncovered_pair():
    with pytest.raises(ChainConditionError) as exc:
        lemma1_concat(Word("1 2 1 2"), [{1}, {2}])
    assert exc.value.uncovered == 1
    # the first uncovered index is the one reported
    with pytest.raises(ChainConditionError) as exc:
        lemma1_concat(Word("1 2 1 2 1 2"), [{1, 2}, {3}])
    assert exc.value.uncovered == 2


def test_lemma1_concat_input_validation():
    with pytest.raises(ValueError, match="uniform"):
        lemma1_concat(Word("1 1 2"), [{1}, {1}])
    with pytest.raises(ValueError, match="two index sets"):
        lemma1_concat(Word("1 2 1 2"), [{1, 2}])
    with pytest.raises(ValueError, match="index set"):
        lemma1_concat(Word("1 2 1 2"), [{1, 2}, {0, 1}])


def test_extend_uniform_examples():
    assert extend_uniform(Word("1 2 1 2"), 1) == Word("1 2 1 2 1 2")
    assert extend_uniform(Word("1 2"), 1) == Word("1 2 1 2")
    assert extend_uniform(SEED_WORD, 2) == Word("1 3 2 4 3 1 4 2 1 3 2 4")


def test_extend_uniform_validation():
    with pytest.raises(ValueError):
        extend_uniform(Word("1 2 1 2"), 3)
    with pytest.raises(ValueError):
        extend_uniform(Word("1 1 2"), 1)


def test_extend_uniform_preserves_graph_and_bumps_uniformity():
    rng = random.Random(59)
    for _ in range(100):
        k = rng.randint(1, 4)
        w = random_uniform_word(rng, rng.randint(2, 5), k)
        i = rng.randint(1, k)
        out = extend_uniform(w, i)
        assert uniformity(out) == k + 1
        assert graph_of_word(out) == graph_of_word(w)

