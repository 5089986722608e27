"""Constructive representants: Cartesian products with complete graphs,
hypercube words, and 2-uniform cycle words.

The product constructions rewrite a k-uniform word occurrence-wise so the
result represents the Cartesian product of the original graph with a
complete graph, using "x@j" for copy j of node x.  Stacking the two-copy
construction along a frozen bitstring relabelling yields a k-uniform
representant of the k-dimensional cube.
"""
from __future__ import annotations

from functools import cache

from .graphs import cycle, represents
from .obf import OccurrenceBasedFunction, apply
from .words import Word, _concat, uniformity


class ConstructionError(RuntimeError):
    """A construction failed its own verification; indicates a code bug."""


def _require_uniform_above_1(w: Word) -> int:
    k = uniformity(w)
    if k is None:
        raise ValueError("product constructions need a uniform word")
    if k <= 1:
        raise ValueError(
            f"product constructions need uniformity k > 1, got k = {k}; "
            "a 1-uniform input genuinely fails (its product need not be 2-representable)"
        )
    return k


def product_k2_functions(
    alphabet: frozenset[str] | set[str], k: int
) -> tuple[OccurrenceBasedFunction, OccurrenceBasedFunction]:
    """The two occurrence-based functions whose images concatenate to the
    two-copy product word.

    First function: (x,1) -> x@1 and (x,i) -> x@2 x@1 for i > 1.
    Second function: (x,1) -> x@2, (x,2) -> x@1 x@2, empty for i > 2.
    """
    def first(x: str, i: int) -> tuple[str, ...]:
        return (f"{x}@1",) if i == 1 else (f"{x}@2", f"{x}@1")

    def second(x: str, i: int) -> tuple[str, ...]:
        if i == 1:
            return (f"{x}@2",)
        if i == 2:
            return (f"{x}@1", f"{x}@2")
        return ()

    return (
        OccurrenceBasedFunction.from_rule(alphabet, k, first),
        OccurrenceBasedFunction.from_rule(alphabet, k, second),
    )


def product_k2_word(w: Word) -> Word:
    """A (k+1)-uniform word representing graph_of_word(w) times K2.

    Requires k-uniform input with k > 1; node copies are named x@1, x@2.
    """
    k = _require_uniform_above_1(w)
    f, g = product_k2_functions(w.alphabet, k)
    return apply(f, w) + apply(g, w)


def product_kn_functions(
    alphabet: frozenset[str] | set[str], k: int, n: int
) -> list[OccurrenceBasedFunction]:
    """The n occurrence-based functions of the n-copy product, listed as
    [f_1, ..., f_n]; the product word applies them in descending order.

    f_1: (x,1) -> x@1 and (x,i) -> x@n ... x@1 for i > 1.
    f_j for j >= 2: (x,1) -> x@j, (x,2) -> x@(j-1) ... x@1 x@n ... x@j,
    empty for i > 2.
    """
    def copies(x: str, top: int, bottom: int) -> tuple[str, ...]:
        return tuple(f"{x}@{j}" for j in range(top, bottom - 1, -1))

    def f1(x: str, i: int) -> tuple[str, ...]:
        return (f"{x}@1",) if i == 1 else copies(x, n, 1)

    def fj(j: int):
        def rule(x: str, i: int) -> tuple[str, ...]:
            if i == 1:
                return (f"{x}@{j}",)
            if i == 2:
                return copies(x, j - 1, 1) + copies(x, n, j)
            return ()
        return rule

    fs = [OccurrenceBasedFunction.from_rule(alphabet, k, f1)]
    for j in range(2, n + 1):
        fs.append(OccurrenceBasedFunction.from_rule(alphabet, k, fj(j)))
    return fs


def product_kn_word(w: Word, n: int) -> Word:
    """A (k+n-1)-uniform word representing graph_of_word(w) times K_n.

    Requires k-uniform input with k > 1 and n >= 2; copies named x@1..x@n.
    For n = 2 this represents the same graph as product_k2_word(w) but the
    letter order differs, so compare graphs, not words.
    """
    if n < 2:
        raise ValueError(f"product needs n >= 2 copies, got {n}")
    k = _require_uniform_above_1(w)
    fs = product_kn_functions(w.alphabet, k, n)
    return _concat([apply(f, w) for f in reversed(fs)])


# 2-uniform seed for the 2-cube: the 4-cycle word 31421324 under the frozen
# node bijection 1 -> 00, 2 -> 10, 3 -> 11, 4 -> 01.
_CUBE2_WORD = ("11", "00", "01", "10", "00", "11", "10", "01")


@cache
def cube_word(k: int) -> Word:
    """A k-uniform word over the 2^k bitstring names representing the k-cube.

    Built by stacking the two-copy product on the dimension-2 seed word,
    relabelling x@1 -> x0 and x@2 -> x1 at each step.
    """
    if k < 1:
        raise ValueError(f"cube word needs k >= 1, got {k}")
    if k == 1:
        return Word(("0", "1"))
    if k == 2:
        return Word(_CUBE2_WORD)
    prev = cube_word(k - 1)
    produced = product_k2_word(prev)
    rename = {}
    for b in prev.alphabet:
        rename[f"{b}@1"] = b + "0"
        rename[f"{b}@2"] = b + "1"
    # bitstrings extended by one bit are valid names, so nothing is re-checked
    return Word._trusted(
        tuple(map(rename.__getitem__, produced.letters)),
        {rename[x]: n for x, n in produced.counts.items()},
    )


def complete_word(n: int, k: int) -> Word:
    """The k-uniform word 1 2 ... n repeated k times, representing K_n."""
    if n < 1:
        raise ValueError(f"complete word needs n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"complete word needs k >= 1, got {k}")
    names = [str(i) for i in range(1, n + 1)]
    return Word(names * k)


def cycle_word(n: int) -> Word:
    """A 2-uniform word representing cycle(n), self-verified before return.

    Closed form: around 2n slots, node i occupies slots 2i and 2i+3
    (mod 2n).  The two slots of consecutive nodes interleave and those of
    non-consecutive nodes nest, which is exactly the cycle's edge set.
    """
    if n < 3:
        raise ValueError(f"cycle word needs n >= 3, got {n}")
    slots: list[str] = [""] * (2 * n)
    for i in range(n):
        name = str(i + 1)
        slots[(2 * i) % (2 * n)] = name
        slots[(2 * i + 3) % (2 * n)] = name
    w = Word(slots)
    if not represents(w, cycle(n)):
        raise ConstructionError(f"cycle word for n={n} failed verification")
    return w


def prism_word(n: int) -> Word:
    """A 3-uniform word representing the n-prism (cycle(n) times K2)."""
    return product_k2_word(cycle_word(n))
