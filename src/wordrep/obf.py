"""Occurrence-based functions: rewrite the i-th occurrence of each symbol.

An occurrence-based function maps every pair (symbol, occurrence index) to
a replacement word.  Applying it to a word rewrites each letter according
to which occurrence it is, in position order.  Projections keep selected
occurrences; concatenating projections whose index sets chain together
preserves the represented graph, which is the engine behind the product
constructions.

Every function is applied through its rule (x, i) -> image.  A function
given by an explicit table (the constructor, :func:`obf_from_text`) looks
the table up, and the table is validated when built.  A function given by
a rule (:meth:`OccurrenceBasedFunction.from_rule`, used by projections
and the products) builds and validates its table only when something
reads it.  A table is validated in one batch, the word that :func:`apply`
returns once per distinct token, and a concatenation of such words never.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import chain

from .words import Word, _check_tokens, _concat, uniformity


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

    The bound is stored explicitly so that applying the function to a word
    with too many occurrences of a symbol is an error rather than a silent
    truncation.

    A table must cover exactly domain x 1..bound and hold valid domain
    symbols and image tokens.  An explicit table is checked when built.  A
    function built by :meth:`from_rule` keeps the rule, which :func:`apply`
    calls per (symbol, index), so a bad image token raises when a word
    reaches it; the table is built and checked in full when first read
    (``table``, ``image``, ``==``, ``hash``, :func:`obf_to_text`), and only
    then does a bad domain symbol raise, since no valid word contains it.
    """

    __slots__ = ("domain", "bound", "_rule", "_table")

    def __init__(
        self,
        domain: Iterable[str],
        bound: int,
        table: Mapping[tuple[str, int], Sequence[str] | Word],
    ):
        self.domain = _check_domain(domain, bound)
        self.bound = bound
        self._table = tab = _tabulate(self.domain, bound, table)
        self._rule = lambda x, i: tab[(x, i)]

    @classmethod
    def from_rule(cls, domain: Iterable[str], bound: int, rule) -> "OccurrenceBasedFunction":
        """The function (x, i) -> ``rule(x, i)``; the rule is called when the
        function is applied, and for every pair only if the table is read."""
        h = cls.__new__(cls)
        h.domain = _check_domain(domain, bound)
        h.bound = bound
        h._rule = rule
        h._table = None
        return h

    @property
    def table(self) -> dict[tuple[str, int], tuple[str, ...]]:
        if self._table is None:
            rule, bound = self._rule, self.bound
            self._table = _tabulate(
                self.domain, bound, {(x, i): rule(x, i) for x in self.domain for i in range(1, bound + 1)}
            )
        return self._table

    def image(self, symbol: str, index: int) -> tuple[str, ...]:
        return self.table[(symbol, index)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OccurrenceBasedFunction)
            and self.bound == other.bound
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.bound, frozenset(self.table.items())))

    def __repr__(self) -> str:
        return f"OccurrenceBasedFunction(domain={sorted(self.domain)}, bound={self.bound})"


def _check_domain(domain: Iterable[str], bound: int) -> frozenset[str]:
    if bound < 1:
        raise ValueError(f"occurrence bound must be positive, got {bound}")
    return frozenset(domain)


def _tabulate(
    dom: frozenset[str], bound: int, table: Mapping[tuple[str, int], Sequence[str] | Word]
) -> dict[tuple[str, int], tuple[str, ...]]:
    """The table as tuples, checked to cover exactly dom x 1..bound and to
    hold valid domain symbols and image tokens."""
    tab: dict[tuple[str, int], tuple[str, ...]] = {}
    for x in dom:
        for i in range(1, bound + 1):
            if (x, i) not in table:
                raise ValueError(f"table is not total: missing image for ({x!r}, {i})")
            image = table[(x, i)]
            tab[(x, i)] = image.letters if isinstance(image, Word) else tuple(image)
    if len(table) > len(tab):
        extra = next(key for key in table if key not in tab)
        raise ValueError(f"table entry {extra!r} is outside the domain x 1..{bound}")
    _check_tokens(chain(dom, *tab.values()))
    return tab


def apply(h: OccurrenceBasedFunction, w: Word) -> Word:
    """Rewrite ``w`` occurrence-wise: concatenate h(x, i) over the labelled word.

    Domain and bound are checked once per distinct symbol of ``w``, in
    first-occurrence order; the result validates each distinct token once.
    """
    for x, n in w.counts.items():
        if x not in h.domain:
            raise ValueError(f"symbol {x!r} is outside the function's domain")
        if n > h.bound:
            raise ValueError(f"symbol {x!r} occurs {n} times, above the occurrence bound {h.bound}")
    image = h._rule
    seen = dict.fromkeys(w.counts, 0)
    out: list[str] = []
    for x in w.letters:
        i = seen[x] = seen[x] + 1
        out.extend(image(x, i))
    return Word(out)


def projection(indices: Iterable[int], alphabet: Iterable[str], bound: int) -> OccurrenceBasedFunction:
    """The occurrence-based function keeping exactly the occurrences whose
    index lies in ``indices`` and erasing the rest."""
    idx = _check_index_set(indices, bound)
    return OccurrenceBasedFunction.from_rule(
        alphabet, bound, lambda x, i: (x,) if i in idx else ()
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
    return _concat([apply(projection(a, w.alphabet, k), w) for a in sets])


def extend_uniform(w: Word, index: int) -> Word:
    """Prepend the ``index``-th occurrences of ``w`` to itself.

    For k-uniform ``w`` and 1 <= index <= k this yields a (k+1)-uniform
    word representing the same graph: the projections {index} and 1..k,
    concatenated.  :func:`lemma1_concat` rejects a word that is not uniform.
    """
    return lemma1_concat(w, [{index}, range(1, (uniformity(w) or 0) + 1)])


def obf_to_text(h: OccurrenceBasedFunction) -> str:
    """Serialize as a 'k=<bound>' header plus one 'x i -> tokens' line per entry."""
    lines = [f"k={h.bound}"]
    for x in sorted(h.domain):
        for i in range(1, h.bound + 1):
            rhs = " ".join(h.table[(x, i)])
            lines.append(f"{x} {i} -> {rhs}".rstrip())
    return "\n".join(lines) + "\n"


def obf_from_text(text: str) -> OccurrenceBasedFunction:
    """Parse the textual form produced by :func:`obf_to_text`."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("k="):
        raise ValueError("missing 'k=<bound>' header")
    try:
        bound = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad bound in header: {lines[0]!r}") from None
    table: dict[tuple[str, int], tuple[str, ...]] = {}
    for ln in lines[1:]:
        head, sep, rhs = ln.partition("->")
        if not sep:
            raise ValueError(f"malformed entry (no '->'): {ln!r}")
        parts = head.split()
        if len(parts) != 2:
            raise ValueError(f"malformed entry head: {ln!r}")
        x, idx_text = parts
        try:
            i = int(idx_text)
        except ValueError:
            raise ValueError(f"bad occurrence index in: {ln!r}") from None
        if (x, i) in table:
            raise ValueError(f"duplicate entry for ({x!r}, {i})")
        table[(x, i)] = tuple(rhs.split())
    domain = {x for x, _ in table}
    return OccurrenceBasedFunction(domain, bound, table)
