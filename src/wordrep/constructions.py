"""Constructive representants: Cartesian products with complete graphs,
hypercube words, and 2-uniform cycle words.

The product constructions rewrite a k-uniform word occurrence-wise so the
result represents the Cartesian product of the original graph with a
complete graph, using "x@j" for copy j of node x.  Stacking the two-copy
construction, with copies named x0 and x1 from the start, yields a
k-uniform representant of the k-dimensional cube over bitstring names.
Each word is a concatenation of occurrence-based-function images: no
name it derives is validated, and no construction verifies its output.
"""
from __future__ import annotations

__all__ = [
    "complete_word", "cube_word", "cycle_word", "prism_word", "product_k2_word", "product_kn_functions",
    "product_kn_word",
]

from collections.abc import Iterable, Sequence
from functools import cache
from itertools import repeat

from .graphs import MAX_CUBE_DIMENSION
from .obf import OccurrenceBasedFunction, apply
from .words import Word, _check_names, _concat, uniformity


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


def _copy_functions(
    alphabet: Iterable[str], k: int, suffixes: Sequence[str]
) -> list[OccurrenceBasedFunction]:
    """product_kn_functions with copy j of symbol x, x_j, named
    x + suffixes[j - 1].  Each symbol's copy names are built once and not
    validated: x@j, x0 and x1 are valid names iff x is.
    """
    xs = list(alphabet)
    copies = [[x + s for x in xs] for s in suffixes]  # copies[j - 1][m]: x_j of x = xs[m]
    # zip builds each symbol's tuples, image by image and row by row
    down = list(zip(*reversed(copies)))  # x_n ... x_1
    rows = [zip(zip(copies[0]), *[down] * (k - 1))]  # f_1: x_1, then x_n ... x_1 for i > 1
    for j in range(2, len(copies) + 1):  # f_j: x_j, x_(j-1) ... x_1 x_n ... x_j, then empty
        turn = zip(*copies[j - 2::-1], *copies[:j - 2:-1])
        rows.append(zip(*[zip(copies[j - 1]), turn, *[repeat(())] * (k - 2)][:k]))
    return [OccurrenceBasedFunction._trusted(k, dict(zip(xs, row))) for row in rows]


def product_k2_word(w: Word) -> Word:
    """A (k+1)-uniform word representing graph_of_word(w) times K2.

    Requires k-uniform input with k > 1; node copies are named x@1, x@2.
    It is the n = 2 product word with its two images in the other order.
    """
    k = _require_uniform_above_1(w)
    f, g = _copy_functions(w.alphabet, k, ("@1", "@2"))
    return apply(f, w) + apply(g, w)


def product_kn_functions(alphabet: Iterable[str], k: int, n: int) -> list[OccurrenceBasedFunction]:
    """The n occurrence-based functions of the n-copy product, listed as
    [f_1, ..., f_n]; the product word applies them in descending order.

    f_1: (x,1) -> x@1 and (x,i) -> x@n ... x@1 for i > 1.
    f_j for j >= 2: (x,1) -> x@j, (x,2) -> x@(j-1) ... x@1 x@n ... x@j,
    empty for i > 2.  Each row holds exactly k images, k = 1 included.
    The alphabet is validated once, before its copies are named.
    """
    if n < 1:
        raise ValueError(f"product needs n >= 1 copies, got {n}")
    _check_names(xs := list(alphabet))
    return _copy_functions(xs, k, [f"@{j}" for j in range(1, n + 1)])


def product_kn_word(w: Word, n: int) -> Word:
    """A (k+n-1)-uniform word representing graph_of_word(w) times K_n.

    Requires k-uniform input with k > 1 and n >= 2; copies named x@1..x@n.
    For n = 2 this represents the same graph as product_k2_word(w) but the
    letter order differs, so compare graphs, not words.  The output's
    n * m * (k+n-1) letters, for m nodes, are counted before it is built,
    and a count above MAX_WORD_LENGTH is refused.
    """
    if n < 2:
        raise ValueError(f"product needs n >= 2 copies, got {n}")
    k = _require_uniform_above_1(w)
    length = n * len(w.counts) * (k + n - 1)
    if length > MAX_WORD_LENGTH:
        raise ValueError(
            f"product word would have {length:,} letters, above the {MAX_WORD_LENGTH:,} "
            f"of the {MAX_CUBE_DIMENSION}-cube word"
        )
    fs = _copy_functions(w.alphabet, k, [f"@{j}" for j in range(1, n + 1)])
    return _concat([apply(f, w) for f in reversed(fs)])


# the longest word a construction builds: the 20-cube word's 20,971,520 letters
MAX_WORD_LENGTH = MAX_CUBE_DIMENSION << MAX_CUBE_DIMENSION

# 2-uniform seed for the 2-cube: the 4-cycle word 31421324 under the frozen
# node bijection 1 -> 00, 2 -> 10, 3 -> 11, 4 -> 01.
_CUBE2_WORD = ("11", "00", "01", "10", "00", "11", "10", "01")


@cache
def cube_word(k: int) -> Word:
    """A k-uniform word over the 2^k bitstring names representing the k-cube.

    Built by stacking the two-copy product on the dimension-2 seed word,
    with copies x0 and x1 of each name x in place of x@1 and x@2.
    """
    if not 1 <= k <= MAX_CUBE_DIMENSION:
        raise ValueError(f"cube word needs 1 <= k <= {MAX_CUBE_DIMENSION}, got {k}")
    if k == 1:
        return Word._trusted(("0", "1"))
    if k == 2:
        return Word._trusted(_CUBE2_WORD)
    prev = cube_word(k - 1)
    f, g = _copy_functions(prev.alphabet, k - 1, ("0", "1"))
    return apply(f, prev) + apply(g, prev)


def complete_word(n: int, k: int) -> Word:
    """The k-uniform word 1 2 ... n repeated k times, representing K_n."""
    if n < 1:
        raise ValueError(f"complete word needs n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"complete word needs k >= 1, got {k}")
    names = [str(i) for i in range(1, n + 1)]
    return Word._trusted(tuple(names * k))


def cycle_word(n: int) -> Word:
    """A 2-uniform word representing cycle(n).

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
    return Word._trusted(tuple(slots))


def prism_word(n: int) -> Word:
    """A 3-uniform word representing the n-prism (cycle(n) times K2)."""
    return product_k2_word(cycle_word(n))
