import random

import pytest

from wordrep import Word, alternates, check_symbol, label, parse_words, restrict, uniformity

SEED_WORD = Word("3 1 4 2 1 3 2 4")


def test_word_from_string_equals_word_from_tokens():
    assert Word("3 1 4 2") == Word(["3", "1", "4", "2"])
    assert str(Word(["a", "b"])) == "a b"


def test_word_counts_and_alphabet():
    w = SEED_WORD
    assert w.counts == {"1": 2, "2": 2, "3": 2, "4": 2}
    assert w.alphabet == {"1", "2", "3", "4"}
    assert len(w) == 8


def test_word_concatenation_and_equality():
    assert Word("1 2") + Word("1 2") == Word("1 2 1 2")
    assert Word() + Word("x") == Word("x")
    assert hash(Word("a b")) == hash(Word("a b"))


def test_symbol_validation():
    check_symbol("x")
    check_symbol("010")
    check_symbol("a_1")
    check_symbol("010@2")  # product copy names are first-class
    check_symbol("g@h@i")  # nested products
    for bad in ("", "a b", "x-y", "@a", "a@", "a@@b", "é"):
        with pytest.raises(ValueError):
            check_symbol(bad)


def test_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        Word(["ok", "not ok"])
    with pytest.raises(ValueError, match="x-y"):
        Word(["a", "b"] * 5000 + ["x-y"])  # one bad token after many good ones
    with pytest.raises(ValueError):
        Word(["a", 7])
    with pytest.raises(ValueError):
        Word(["a", ["b"]])  # unhashable
    with pytest.raises(ValueError):
        Word("a b a b é")


def test_restrict_examples():
    assert restrict(SEED_WORD, {"1", "2"}) == Word("1 2 1 2")
    assert restrict(SEED_WORD, {"1", "3"}) == Word("3 1 1 3")
    assert restrict(SEED_WORD, SEED_WORD.alphabet) == SEED_WORD
    assert restrict(SEED_WORD, set()) == Word()
    assert restrict(SEED_WORD, {"1", "9"}) == Word("1 1")


def test_restrict_composes_as_intersection():
    rng = random.Random(11)
    names = ["1", "2", "3", "4", "5"]
    for _ in range(200):
        w = Word(rng.choices(names, k=rng.randint(0, 12)))
        b = {s for s in names if rng.random() < 0.6}
        c = {s for s in names if rng.random() < 0.6}
        assert restrict(restrict(w, b), c) == restrict(w, b & c)


def test_alternates_examples():
    assert alternates(SEED_WORD, "1", "2")
    assert not alternates(SEED_WORD, "1", "3")
    assert alternates(Word("x"), "x", "y")  # absent symbol: length-1 restriction
    assert alternates(Word(), "x", "y")
    assert not alternates(Word("x x"), "x", "y")


def test_alternates_rejects_equal_symbols():
    with pytest.raises(ValueError):
        alternates(SEED_WORD, "1", "1")


def test_alternates_is_symmetric():
    rng = random.Random(5)
    names = ["1", "2", "3", "4"]
    for _ in range(200):
        w = Word(rng.choices(names, k=rng.randint(0, 10)))
        x, y = rng.sample(names, 2)
        assert alternates(w, x, y) == alternates(w, y, x)


def test_uniform_alternation_is_xy_power_or_yx_power():
    # For a k-uniform word, an alternating pair restricts to (xy)^k or (yx)^k.
    rng = random.Random(23)
    for _ in range(100):
        k = rng.randint(1, 4)
        names = ["1", "2", "3", "4"]
        letters = names * k
        rng.shuffle(letters)
        w = Word(letters)
        x, y = rng.sample(names, 2)
        r = restrict(w, {x, y})
        powers = (Word([x, y] * k), Word([y, x] * k))
        assert alternates(w, x, y) == (r in powers)


def test_uniformity_examples():
    assert uniformity(SEED_WORD) == 2
    assert uniformity(Word("1 2")) == 1
    assert uniformity(Word("1 1 2")) is None
    with pytest.raises(ValueError):
        uniformity(Word())


def test_label_examples():
    assert label(Word("1 2 1 2")) == (("1", 1), ("2", 1), ("1", 2), ("2", 2))
    assert label(Word()) == ()
    assert label(SEED_WORD) == (
        ("3", 1), ("1", 1), ("4", 1), ("2", 1), ("1", 2), ("3", 2), ("2", 2), ("4", 2),
    )


def test_label_preserves_length_and_drops_back_to_word():
    rng = random.Random(3)
    for _ in range(100):
        w = Word(rng.choices(["a", "b", "c"], k=rng.randint(0, 9)))
        pairs = label(w)
        assert len(pairs) == len(w)
        assert Word(x for x, _ in pairs) == w
        # per-symbol indices run 1, 2, 3, ... in order
        for s in w.alphabet:
            assert [i for x, i in pairs if x == s] == list(range(1, w.counts[s] + 1))


def test_parse_words_skips_comments_and_blanks():
    text = "# header\n3 1 4 2 1 3 2 4\n\n  1 2  \n# trailing\n"
    assert parse_words(text) == [SEED_WORD, Word("1 2")]
    assert parse_words("") == []
