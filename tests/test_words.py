import random

import pytest

from wordrep import Graph, Word, check_symbol, graph_of_word, parse_words, restrict, uniformity, words

SEED_WORD = Word("3 1 4 2 1 3 2 4")


def test_word_from_string_equals_word_from_tokens():
    assert Word("3 1 4 2") == Word(["3", "1", "4", "2"])
    assert str(Word(["a", "b"])) == "a b"


def test_word_counts_and_alphabet():
    w = SEED_WORD
    assert w.counts == {"1": 2, "2": 2, "3": 2, "4": 2}
    assert w.alphabet == {"1", "2", "3", "4"}
    assert len(w) == 8


def test_word_letters_cannot_be_replaced():
    w = Word("a b a b")
    assert w.counts == {"a": 2, "b": 2}
    with pytest.raises(AttributeError):
        w.letters = ("c",)
    assert w.letters == ("a", "b", "a", "b") and str(w) == "a b a b"
    assert w.counts == {"a": 2, "b": 2}


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


def _first_invalid(tokens):
    """The error of the first token that check_symbol rejects, one call per
    token, or None."""
    for tok in tokens:
        try:
            check_symbol(tok)
        except ValueError as exc:
            return str(exc)
    return None


def _random_token(rng):
    """A valid name, often with one character put in: whitespace, '@' at
    an end or next to another, a non-ASCII letter, or a hyphen."""
    tok = "".join(rng.choices("ab_019@", k=rng.randint(1, 6))).strip("@").replace("@@", "@") or "x"
    if rng.random() < 0.3:
        at = rng.choice([0, rng.randint(0, len(tok)), len(tok)])
        tok = tok[:at] + rng.choice([" ", "\t", "\n", "@", "é", "\u00a0", "-"]) + tok[at:]
    return tok


def test_batch_validation_agrees_with_check_symbol():
    # a batch passes iff every token passes check_symbol, and otherwise
    # raises check_symbol's error for its first bad token; 4,100 tokens
    # span two lines of the one-pass match
    rng = random.Random(15)
    for trial in range(1500):
        batch = [_random_token(rng) for _ in range(rng.choice([0, 1, 2, 3, 8, 40]))]
        if trial % 100 == 0:
            batch = [_random_token(rng) if rng.random() < 0.0005 else "v1" for _ in range(4100)]
        if rng.random() < 0.05:
            batch.insert(rng.randint(0, len(batch)), rng.choice([7, None, b"ab", ("a",), ["b"]]))
        bad = _first_invalid(batch)
        if bad is None:
            words._check_tokens(batch)
            continue
        with pytest.raises(ValueError) as exc:
            words._check_tokens(iter(batch))
        assert str(exc.value) == bad
    words._check_tokens([])
    for joined in (["a b"], ["a", "b c", "d"], ["a\tb"], ["a\nb"]):
        with pytest.raises(ValueError):  # one token holding a space is not two tokens
            words._check_tokens(joined)


def test_word_and_graph_name_the_first_bad_token():
    rng = random.Random(16)
    for _ in range(300):
        batch = [_random_token(rng) for _ in range(rng.randint(1, 12))]
        bad = _first_invalid(batch)
        for build in (Word, Graph):
            if bad is None:
                build(batch)
                continue
            with pytest.raises(ValueError) as exc:
                build(batch)
            assert str(exc.value) == bad
    for build in (Word, Graph):
        with pytest.raises(ValueError, match="invalid symbol token: 7"):
            build([7, "a"])
        with pytest.raises(ValueError, match="invalid symbol token: 'b@'"):
            build(["a", "b@", 7])


def test_restrict_examples():
    assert restrict(SEED_WORD, {"1", "2"}) == Word("1 2 1 2")
    assert restrict(SEED_WORD, {"1", "3"}) == Word("3 1 1 3")
    assert restrict(SEED_WORD, SEED_WORD.alphabet) == SEED_WORD
    assert restrict(SEED_WORD, set()) == Word()
    assert restrict(SEED_WORD, {"1", "9"}) == Word("1 1")
    # a string of symbols is read as Word reads it, not as a set of characters
    assert restrict(Word("ab c ab d"), "ab") == Word("ab ab")
    assert restrict(Word("ab c ab d"), "d ab") == Word("ab ab d")


def test_restrict_composes_as_intersection():
    rng = random.Random(11)
    names = ["1", "2", "3", "4", "5"]
    for _ in range(200):
        w = Word(rng.choices(names, k=rng.randint(0, 12)))
        b = {s for s in names if rng.random() < 0.6}
        c = {s for s in names if rng.random() < 0.6}
        out = restrict(restrict(w, b), c)
        assert out == restrict(w, b & c)
        assert list(out.counts.items()) == list(Word(out.letters).counts.items())


def test_uniform_alternation_is_xy_power_or_yx_power():
    # For a k-uniform word, an alternating pair restricts to (xy)^k or
    # (yx)^k: graph_of_word's sweep against the powers.
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
        assert graph_of_word(w).adjacent(x, y) == (r in powers)


def test_uniformity_examples():
    assert uniformity(SEED_WORD) == 2
    assert uniformity(Word("1 2")) == 1
    assert uniformity(Word("1 1 2")) is None
    with pytest.raises(ValueError):
        uniformity(Word())


def test_parse_words_skips_comments_and_blanks():
    text = "# header\n3 1 4 2 1 3 2 4\n\n  1 2  \n# trailing\n"
    assert parse_words(text) == [SEED_WORD, Word("1 2")]
    assert parse_words("") == []


def test_a_parsed_word_counts_its_letters_on_the_first_read():
    w = Word("b a b")
    assert w._counts is None  # validated, not counted
    assert w.counts == {"b": 2, "a": 1} and list(w.counts) == ["b", "a"]
    # the distinct tokens keep their first-occurrence order, so the error names the first bad one
    with pytest.raises(ValueError, match=r"^invalid symbol token: 'b!'$"):
        Word(["a", "b!", "c!"])
    # a ValueError, not a TypeError: the names are validated before they are hashed
    with pytest.raises(ValueError, match="invalid symbol token"):
        Graph([["a"]])
