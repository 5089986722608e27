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
from collections.abc import Iterable, Iterator, Set

# Atomic symbol names use word characters only.  '@' is reserved as the
# separator that product constructions use to build copy names such as
# "x@2", so it may appear in a token only between atomic parts.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+(?:@[A-Za-z0-9_]+)*\Z")


def check_symbol(token: str) -> str:
    """Return ``token`` if it is a valid symbol name, else raise ValueError."""
    if not isinstance(token, str) or _TOKEN_RE.match(token) is None:
        raise ValueError(f"invalid symbol token: {token!r}")
    return token


class Word:
    """An immutable word over symbol tokens.

    Accepts an iterable of tokens or a single whitespace-separated string,
    which is also the serialized form: ``Word("3 1 4 2")`` equals
    ``Word(["3", "1", "4", "2"])``.  Multi-character symbols are therefore
    unambiguous.  The empty word is allowed.  Each distinct token is
    validated once.  ``counts`` lists the symbols in first-occurrence order.
    """

    __slots__ = ("letters", "counts", "_hash")

    def __init__(self, letters: Iterable[str] | str = ()):
        if isinstance(letters, str):
            letters = letters.split()
        seq = tuple(letters)
        try:
            counts = Counter(seq)
        except TypeError:
            for tok in seq:
                check_symbol(tok)  # rejects the unhashable token: it is no str
            raise ValueError("invalid symbol token: unhashable value") from None
        for tok in counts:
            check_symbol(tok)
        self.letters: tuple[str, ...] = seq
        self.counts: dict[str, int] = dict(counts)
        self._hash = hash(seq)

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
        return Word(self.letters + other.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return " ".join(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


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
