"""Occurrence-based functions: rewrite the i-th occurrence of each symbol.

An occurrence-based function maps every pair (symbol, occurrence index) to
a replacement word.  Applying it to a word rewrites each letter according
to which occurrence it is, in position order.  Projections keep selected
occurrences; concatenating projections whose index sets chain together
preserves the represented graph, which is the engine behind the product
constructions.

A function is one row of images per symbol, h(x, 1), ..., h(x, bound),
built and validated when the function is constructed.  :func:`apply` only
looks the images up; the word it returns, and a concatenation of such
words, is not validated again and is counted only when ``counts`` is read.
"""
from __future__ import annotations

__all__ = [
    "ChainConditionError", "OccurrenceBasedFunction", "apply", "extend_uniform", "lemma1_concat", "projection",
]

from collections.abc import Iterable, Mapping, Sequence, Set
from itertools import chain

from .words import Word, _check_names, _concat, uniformity


class ChainConditionError(ValueError):
    """A projection list fails the chain condition at index ``uncovered``.

    The condition: for every j in 1..k-1 some index set must contain both
    j and j+1.  Without it the concatenation of projections may represent
    a different graph, so misuse is rejected eagerly.
    """

    def __init__(self, uncovered: int):
        self.uncovered = uncovered
        super().__init__(
            f"chain condition violated: no index set contains both {uncovered} and {uncovered + 1}"
        )


class OccurrenceBasedFunction:
    """A total map (symbol in domain, index in 1..bound) -> replacement word.

    Stored as ``images[x] = (h(x, 1), ..., h(x, bound))``, each image a
    tuple of tokens.  The bound is stored explicitly so that applying the
    function to a word with too many occurrences of a symbol is an error
    rather than a silent truncation.

    The table must cover exactly domain x 1..bound; an image is a
    sequence of tokens, a :class:`Word` or a whitespace-separated string,
    read as ``Word`` reads it.  Domain symbols, then image tokens, are
    validated as a set and, only if that fails, again in this order, so
    that the error names the first bad one whatever the hash seed.
    """

    __slots__ = ("bound", "images")

    def __init__(
        self,
        domain: Iterable[str],
        bound: int,
        table: Mapping[tuple[str, int], Sequence[str] | Word | str],
    ):
        _check_bound(bound)
        images: dict[str, tuple[tuple[str, ...], ...]] = {}
        for x in dict.fromkeys(domain):
            row = []
            for i in range(1, bound + 1):
                if (x, i) not in table:
                    raise ValueError(f"table is not total: missing image for ({x!r}, {i})")
                image = table[(x, i)]
                row.append(tuple(image.split() if isinstance(image, str) else image))
            images[x] = tuple(row)
        if len(table) > len(images) * bound:
            keys = {(x, i) for x in images for i in range(1, bound + 1)}
            extra = next(key for key in table if key not in keys)
            raise ValueError(f"table entry {extra!r} is outside the domain x 1..{bound}")
        _check_names([*images, *chain.from_iterable(chain.from_iterable(images.values()))])
        self.bound = bound
        self.images = images

    @classmethod
    def _trusted(cls, bound: int, images: dict[str, tuple[tuple[str, ...], ...]]) -> "OccurrenceBasedFunction":
        """The function with rows ``images`` of ``bound`` images each, their
        symbols and tokens known to be valid; only the bound is checked."""
        _check_bound(bound)
        h = cls.__new__(cls)
        h.bound = bound
        h.images = images
        return h

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OccurrenceBasedFunction)
            and self.bound == other.bound
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.bound, frozenset(self.images.items())))

    def __repr__(self) -> str:
        return f"OccurrenceBasedFunction(domain={sorted(self.images)}, bound={self.bound})"


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError(f"occurrence bound must be positive, got {bound}")


def apply(h: OccurrenceBasedFunction, w: Word) -> Word:
    """Rewrite ``w`` occurrence-wise: concatenate h(x, i) over the labelled word.

    Domain and bound are checked once per distinct symbol of ``w``, in
    first-occurrence order.  Each symbol's row is then read in order, one
    image per occurrence; the images were validated with the function.
    """
    rows = h.images
    for x, n in w.counts.items():
        if x not in rows:
            raise ValueError(f"symbol {x!r} is outside the function's domain")
        if n > h.bound:
            raise ValueError(f"symbol {x!r} occurs {n} times, above the occurrence bound {h.bound}")
    rest = {x: iter(rows[x]) for x in w.counts}
    return Word._trusted(tuple(chain.from_iterable(map(next, map(rest.__getitem__, w.letters)))))


def projection(indices: Iterable[int], alphabet: Iterable[str], bound: int) -> OccurrenceBasedFunction:
    """The occurrence-based function keeping exactly the occurrences whose
    index lies in ``indices`` and erasing the rest."""
    return _projection(_check_index_set(indices, bound), _check_names(list(alphabet)), bound)


def _projection(indices: Set[int], names: Iterable[str], bound: int) -> OccurrenceBasedFunction:
    """:func:`projection` on an index set and names known to be valid (the
    images hold no other tokens); only the bound is checked."""
    return OccurrenceBasedFunction._trusted(
        bound, {x: tuple((x,) if i in indices else () for i in range(1, bound + 1)) for x in names}
    )


def _check_index_set(a: Iterable[int], k: int) -> frozenset[int]:
    s = frozenset(a)
    if not s:
        raise ValueError("index sets must be nonempty")
    if not all(isinstance(i, int) and 1 <= i <= k for i in s):
        raise ValueError(f"index set {sorted(s)} not within 1..{k}")
    return s


def lemma1_concat(w: Word, index_sets: Sequence[Iterable[int]]) -> Word:
    """Concatenate the projections of ``w`` given by ``index_sets``.

    Requires ``w`` to be k-uniform and the index sets to satisfy the chain
    condition (each consecutive pair {j, j+1} covered by some set); the
    result is then (sum of set sizes)-uniform and represents the same
    graph as ``w``.  The first uncovered j is reported on violation.
    """
    k = uniformity(w)
    if k is None:
        raise ValueError("projection concatenation needs a uniform word")
    if len(index_sets) < 2:
        raise ValueError(f"need at least two index sets, got {len(index_sets)}")
    sets = [_check_index_set(a, k) for a in index_sets]
    for j in range(1, k):
        if not any(j in a and j + 1 in a for a in sets):
            raise ChainConditionError(j)
    return _concat([apply(_projection(a, w.counts, k), w) for a in sets])


def extend_uniform(w: Word, index: int) -> Word:
    """Prepend the ``index``-th occurrences of ``w`` to itself.

    For k-uniform ``w`` and 1 <= index <= k this yields a (k+1)-uniform
    word representing the same graph: the projections {index} and 1..k,
    concatenated.  :func:`lemma1_concat` rejects a word that is not uniform.
    """
    return lemma1_concat(w, [{index}, range(1, (uniformity(w) or 0) + 1)])

