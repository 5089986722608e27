"""Words over symbol alphabets: restriction, alternation, uniformity, labelling.

A word is a finite sequence of symbols.  Two symbols x, y alternate in a
word when deleting every other symbol leaves xyxy... or yxyx... (no two
equal adjacent letters).  That single notion drives everything else in
this package: a word represents the graph whose edges are exactly its
alternating pairs.
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
    bad one.  ``counts`` lists the symbols in first-occurrence order.
    Words assembled from valid words (``+``, the constructions'
    concatenations) are not validated again.
    """

    __slots__ = ("letters", "counts", "_hash")

    def __init__(self, letters: Iterable[str] | str = ()):
        if isinstance(letters, str):
            letters = letters.split()
        seq = tuple(letters)
        try:
            counts = Counter(seq)
        except TypeError:
            _check_tokens(seq)  # rejects the unhashable token: it is no str
            raise ValueError("invalid symbol token: unhashable value") from None
        _check_tokens(counts)
        self.letters: tuple[str, ...] = seq
        self.counts: dict[str, int] = dict(counts)
        self._hash = hash(seq)

    @classmethod
    def _trusted(cls, letters: tuple[str, ...], counts: dict[str, int]) -> "Word":
        """A word whose tokens are known to be valid, with ``counts`` given
        in first-occurrence order; nothing is checked."""
        w = cls.__new__(cls)
        w.letters = letters
        w.counts = counts
        w._hash = hash(letters)
        return w

    @property
    def alphabet(self) -> frozenset[str]:
        """The set of distinct symbols occurring in the word."""
        return frozenset(self.counts)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return _concat((self, other))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return " ".join(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _concat(words: Sequence[Word]) -> Word:
    """The concatenation of ``words``, built once and not validated again."""
    counts: dict[str, int] = {}
    for w in words:
        for x, n in w.counts.items():
            counts[x] = counts.get(x, 0) + n
    return Word._trusted(tuple(chain.from_iterable(w.letters for w in words)), counts)


def restrict(w: Word, symbols: Set[str] | Iterable[str]) -> Word:
    """The subsequence of ``w`` consisting of the letters in ``symbols``."""
    keep = symbols if isinstance(symbols, (set, frozenset)) else frozenset(symbols)
    return Word(tok for tok in w.letters if tok in keep)


def alternates(w: Word, x: str, y: str) -> bool:
    """True iff x and y alternate in ``w``.

    Equivalent to: the restriction of ``w`` to {x, y} contains no two equal
    adjacent letters.  Restrictions of length 0 or 1 alternate vacuously,
    so symbols absent from ``w`` are fine.  Raises ValueError when x == y.
    """
    if x == y:
        raise ValueError(f"alternation query needs two distinct symbols, got {x!r} twice")
    prev = None
    for tok in w.letters:
        if tok == x or tok == y:
            if tok == prev:
                return False
            prev = tok
    return True


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


def label(w: Word) -> tuple[tuple[str, int], ...]:
    """Attach 1-based occurrence indices: the i-th x becomes (x, i)."""
    seen: Counter[str] = Counter()
    out = []
    for tok in w.letters:
        seen[tok] += 1
        out.append((tok, seen[tok]))
    return tuple(out)


def parse_words(text: str) -> list[Word]:
    """Parse the word file format: one word per line, tokens separated by
    whitespace, blank lines skipped, lines starting with '#' are comments."""
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(Word(stripped))
    return out
