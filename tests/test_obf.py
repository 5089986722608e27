import random

import pytest

from wordrep import (
    ChainConditionError,
    OccurrenceBasedFunction,
    Word,
    apply,
    extend_uniform,
    graph_of_word,
    lemma1_concat,
    obf_from_text,
    obf_to_text,
    projection,
    uniformity,
)
from wordrep.constructions import product_k2_functions

SEED_WORD = Word("3 1 4 2 1 3 2 4")


def random_uniform_word(rng, size, k):
    letters = [str(i) for i in range(1, size + 1)] * k
    rng.shuffle(letters)
    return Word(letters)


def test_table_must_be_total():
    with pytest.raises(ValueError, match="not total"):
        OccurrenceBasedFunction({"a"}, 2, {("a", 1): ("a",)})


def test_image_tokens_are_validated():
    # a rule-built function's images are checked when a word reaches their
    # (x, i) and when the table is read; an explicit table is checked at once
    h = OccurrenceBasedFunction.from_rule({"a", "b"}, 3, lambda x, i: (x, "not ok") if i == 3 else (x,))
    assert apply(h, Word("a b b a")) == Word("a b b a")
    with pytest.raises(ValueError, match="not ok"):
        apply(h, Word("a b a a"))
    with pytest.raises(ValueError, match="not ok"):
        obf_to_text(h)
    h = OccurrenceBasedFunction.from_rule({"a"}, 2, lambda x, i: (x, ["list"]))
    with pytest.raises(ValueError):
        apply(h, Word("a"))
    with pytest.raises(ValueError):
        obf_to_text(h)
    with pytest.raises(ValueError):
        OccurrenceBasedFunction({"a"}, 1, {("a", 1): ("a@",)})


def test_table_entries_outside_the_domain_are_rejected():
    with pytest.raises(ValueError, match=r"\('z', 1\)"):
        OccurrenceBasedFunction({"a"}, 1, {("a", 1): ("a",), ("z", 1): ("q",)})


def test_from_rule_equals_its_explicit_table():
    def rule(x, i):
        return (f"{x}@{i}",) * (i % 3)

    domain, k = {"a", "b", "c"}, 4
    table = {(x, i): rule(x, i) for x in domain for i in range(1, k + 1)}
    lazy, eager = OccurrenceBasedFunction.from_rule(domain, k, rule), OccurrenceBasedFunction(domain, k, table)
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy.table == eager.table and obf_to_text(lazy) == obf_to_text(eager)
    w = Word("a b c c a b b a c a b c")
    assert apply(lazy, w) == apply(eager, w)


def test_bound_must_be_positive():
    with pytest.raises(ValueError):
        OccurrenceBasedFunction({"a"}, 0, {})


def test_from_rule_and_image():
    h = OccurrenceBasedFunction.from_rule({"a", "b"}, 2, lambda x, i: (x,) * i)
    assert h.image("a", 1) == ("a",)
    assert h.image("b", 2) == ("b", "b")


def test_apply_identity_and_empty_images():
    identity = OccurrenceBasedFunction.from_rule({"1", "2", "3", "4"}, 2, lambda x, i: (x,))
    assert apply(identity, SEED_WORD) == SEED_WORD
    erase = OccurrenceBasedFunction.from_rule({"1", "2", "3", "4"}, 2, lambda x, i: ())
    assert apply(erase, SEED_WORD) == Word()


def test_apply_two_copy_first_function():
    f, _ = product_k2_functions({"1", "2"}, 2)
    assert apply(f, Word("1 2 1 2")) == Word("1@1 2@1 1@2 1@1 2@2 2@1")


def test_apply_rejects_domain_violations():
    h = OccurrenceBasedFunction.from_rule({"a"}, 1, lambda x, i: (x,))
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
        h = OccurrenceBasedFunction.from_rule(
            w.alphabet, k, lambda x, i: tuple(f"{x}_{j}" for j in range((int(x) + i) % 3))
        )
        out = apply(h, w)
        assert len(out) == sum(len(h.image(x, i)) for x, i in zip(w, occurrence_indices(w)))


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


def test_lemma1_concat_preserves_graph_randomized():
    rng = random.Random(41)
    for _ in range(150):
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
        assert uniformity(out) == sum(len(a) for a in sets)
        assert graph_of_word(out) == graph_of_word(w)


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


def test_obf_text_round_trip():
    f, g = product_k2_functions({"1", "2"}, 3)
    for h in (f, g):
        text = obf_to_text(h)
        assert text.startswith("k=3\n")
        assert obf_from_text(text) == h


def test_obf_text_parsing_errors():
    with pytest.raises(ValueError, match="header"):
        obf_from_text("a 1 -> a\n")
    with pytest.raises(ValueError, match="'->'"):
        obf_from_text("k=1\na 1 a\n")
    with pytest.raises(ValueError, match="duplicate"):
        obf_from_text("k=1\na 1 -> a\na 1 -> b\n")
    with pytest.raises(ValueError, match="not total"):
        obf_from_text("k=2\na 1 -> a\n")
    with pytest.raises(ValueError, match=r"\('a', 2\)"):
        obf_from_text("k=1\na 1 -> a\na 2 -> b b\na 0 -> c")
    with pytest.raises(ValueError, match=r"\('a', 0\)"):
        obf_from_text("k=1\na 1 -> a\na 0 -> c")


def test_obf_text_allows_empty_right_hand_side():
    h = obf_from_text("k=2\nx 1 -> x\nx 2 ->\n")
    assert h.image("x", 2) == ()
