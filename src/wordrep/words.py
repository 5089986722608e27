"""Words over symbol alphabets: parsing, restriction, uniformity.

A word is a finite sequence of symbols.  Two symbols x, y alternate in a
word when deleting every other symbol leaves xyxy... or yxyx... (no two
equal adjacent letters).  That single notion drives everything else in
this package: a word represents the graph whose edges are exactly its
alternating pairs, which :func:`wordrep.graphs.graph_of_word` finds in
one sweep.
"""
from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence, Set
from itertools import chain, islice

# Atomic symbol names use word characters only.  '@' is reserved as the
# separator that product constructions use to build copy names such as
# "x@2", so it may appear in a token only between atomic parts.
_ATOM = "[A-Za-z0-9_]+"
_TOKEN_RE = re.compile(rf"{_ATOM}(?:@{_ATOM})*\Z")
# Tokens joined by single spaces: the same grammar with ' ' allowed where
# '@' is.  A line with as many spaces as joins holds only valid tokens.
_LINE_RE = re.compile(rf"{_ATOM}(?:[@ ]{_ATOM})*")
_LINE_TOKENS = 4096  # the regex engine keeps state per repeat, so a line is bounded


def check_symbol(token: str) -> str:
    """Return ``token`` if it is a valid symbol name, else raise ValueError."""
    if not isinstance(token, str) or _TOKEN_RE.match(token) is None:
        raise ValueError(f"invalid symbol token: {token!r}")
    return token


def _check_tokens(tokens: Iterable[str]) -> None:
    """Raise check_symbol's ValueError for the first invalid token, if any.
    Each line of up to _LINE_TOKENS tokens is matched in one regex pass, and
    only a line that fails is checked token by token."""
    it = iter(tokens)
    while line := list(islice(it, _LINE_TOKENS)):
        try:
            text = " ".join(line)
        except TypeError:  # a token that is no str
            text = ""
        if _LINE_RE.fullmatch(text) is None or text.count(" ") != len(line) - 1:
            for tok in line:
                check_symbol(tok)


class Word:
    """An immutable word over symbol tokens.

    Accepts an iterable of tokens or a single whitespace-separated string,
    which is also the serialized form: ``Word("3 1 4 2")`` equals
    ``Word(["3", "1", "4", "2"])``.  Multi-character symbols are therefore
    unambiguous.  The empty word is allowed.  The distinct tokens are
    validated in one regex pass (per 4,096), and the error names the first
    bad one.  Words assembled from valid words (``+``, ``restrict``, the
    constructions' concatenations) are not validated again.  Every word
    counts its letters only when ``counts`` is first read.  ``letters`` and
    ``counts`` are read-only; ``counts`` lists the symbols in
    first-occurrence order.
    """

    __slots__ = ("_letters", "_counts")

    def __init__(self, letters: Iterable[str] | str = ()):
        if isinstance(letters, str):
            letters = letters.split()
        seq = tuple(letters)
        try:
            distinct = dict.fromkeys(seq)  # in first-occurrence order, so the error names the first bad token
        except TypeError:
            _check_tokens(seq)  # rejects the unhashable token: it is no str
            raise ValueError("invalid symbol token: unhashable value") from None
        _check_tokens(distinct)
        self._letters: tuple[str, ...] = seq
        self._counts: dict[str, int] | None = None

    @classmethod
    def _trusted(cls, letters: tuple[str, ...]) -> "Word":
        """A word whose tokens are known to be valid; nothing is checked."""
        w = cls.__new__(cls)
        w._letters = letters
        w._counts = None
        return w

    @property
    def letters(self) -> tuple[str, ...]:
        """The word's tokens, in order."""
        return self._letters

    @property
    def counts(self) -> dict[str, int]:
        """The occurrences of each symbol, in first-occurrence order."""
        if self._counts is None:
            self._counts = dict(Counter(self._letters))
        return self._counts

    @property
    def alphabet(self) -> frozenset[str]:
        """The set of distinct symbols occurring in the word."""
        return frozenset(self.counts)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self._letters)

    def __getitem__(self, i):
        return self._letters[i]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return _concat((self, other))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __str__(self) -> str:
        return " ".join(self._letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _concat(words: Sequence[Word]) -> Word:
    """The concatenation of ``words``, built once and not validated again."""
    return Word._trusted(tuple(chain.from_iterable(w.letters for w in words)))


def restrict(w: Word, symbols: Set[str] | Iterable[str] | str) -> Word:
    """The subsequence of ``w`` consisting of the letters in ``symbols``;
    a string of symbols is whitespace-separated, as ``Word`` reads it."""
    keep = frozenset(symbols.split() if isinstance(symbols, str) else symbols)
    return Word._trusted(tuple(tok for tok in w.letters if tok in keep))


def uniformity(w: Word) -> int | None:
    """Return k when every symbol of ``w`` occurs exactly k times, else None.

    The empty word has no occurrence counts at all and is rejected.
    """
    if not w.letters:
        raise ValueError("uniformity is undefined for the empty word")
    counts = set(w.counts.values())
    if len(counts) == 1:
        return counts.pop()
    return None


def parse_words(text: str) -> list[Word]:
    """Parse the word file format: one word per line, tokens separated by
    whitespace, blank lines skipped, lines starting with '#' are comments."""
    return [Word(tokens) for tokens in map(str.split, text.splitlines()) if tokens and tokens[0][0] != "#"]
