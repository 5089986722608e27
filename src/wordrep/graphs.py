"""Finite simple graphs, standard generators, Cartesian products, and the
map from words to graphs via letter alternation.

A graph is kept as an index, built by ``_indexed``, which every builder
ends in: its sorted node names and one int adjacency mask per node.
Graph equality is name-sensitive: equal graphs have the same names and
edges.  Product nodes are named "g@h" with '@' reserved for that purpose.
"""
from __future__ import annotations

__all__ = [
    "Graph", "NamingConflictError", "cartesian_product", "complete", "cube", "cycle", "graph_from_edges_text",
    "graph_from_json", "graph_of_word", "graph_to_edges_text", "graph_to_json", "parse_graph", "represents",
]

from itertools import accumulate, chain, compress, count
from operator import or_
from collections.abc import Iterable, Iterator

from .words import Word, _check_names


class NamingConflictError(ValueError):
    """Two distinct product node pairs collide after '@' encoding."""


class Graph:
    """Immutable simple undirected graph over string-named nodes: ``names`` is the sorted tuple of node
    names, ``index`` maps each name to its position there, and ``masks[i]`` is the int bitmask of the
    positions adjacent to ``names[i]``.  ``nodes`` (names) and ``edges`` ((u, v) pairs with u < v) are
    frozensets built from the index each time they are read."""

    __slots__ = ("names", "index", "masks")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        g = _named(nodes, edges)
        self.names, self.index, self.masks = g.names, g.index, g.masks

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.names)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(_edge_pairs(self))

    def adjacent(self, u: str, v: str) -> bool:
        """True iff u and v are adjacent; a name outside the graph is adjacent to nothing."""
        i, j = self.index.get(u), self.index.get(v)
        return i is not None and j is not None and self.masks[i] >> j & 1 == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.names == other.names and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.names, self.masks))

    def __repr__(self) -> str:
        return f"Graph({len(self.names)} nodes, {_edge_count(self)} edges)"


def _graph(names: list[str], ends: Iterable[int] = (), masks: list[int] | None = None) -> Graph:
    """The graph on ``names``, distinct valid names in any order, with an edge between the positions
    of each two consecutive ``ends``: the names are sorted once, and the ends relabelled through one
    rank list.  Names that are already sorted may come with their ``masks`` instead."""
    index = dict(zip(sorted(names) if masks is None else names, range(len(names))))
    if masks is None:
        rank = list(map(index.__getitem__, names))
        ends = map(rank.__getitem__, ends)
    return _indexed(index, ends, masks)


def _indexed(index: dict[str, int], ends: Iterable[int], masks: list[int] | None = None) -> Graph:
    """The graph whose ``index`` maps its sorted names to their positions, with ``masks`` or, when none
    are given, an edge between each two consecutive positions of ``ends``."""
    if masks is None:
        masks = [0] * len(index)
        for i, j in zip(*[iter(ends)] * 2):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    g = object.__new__(Graph)
    g.names, g.index, g.masks = tuple(index), index, tuple(masks)
    return g


def _named(nodes: Iterable[str], edges: Iterable, flat: Iterable | None = None) -> Graph:
    """The graph on ``nodes``, names in any order and with repeats, whose edges are the pairs ``edges`` or,
    when given, each two consecutive names of ``flat``: the distinct names are validated by _check_names
    and sorted once, and each end is looked up once, straight to its sorted position.  The pairs are
    walked only to word the first bad edge."""
    index = dict(zip(sorted(_check_names(list(nodes))), count()))
    if flat is None:
        edges = list(edges)
        pairs = set(map(type, edges)) <= {tuple, list} and set(map(len, edges)) <= {2}
        flat = chain.from_iterable(edges) if pairs else None
    try:
        g = _indexed(index, map(index.__getitem__, flat))
    except (KeyError, TypeError):  # TypeError: flat is None, or an end is unhashable
        g = None
    if g is None or any(m >> i & 1 for i, m in enumerate(g.masks)):  # the second: a self-loop
        for e in edges:
            if type(e) not in (tuple, list) or len(e) != 2 or not set(map(type, e)) <= {str}:
                raise ValueError(f"each edge must be a pair of node names, got {e!r}")
            u, v = e
            if u == v or u not in index or v not in index:
                raise ValueError(f"self-loop at {u!r} not allowed" if u == v else
                                 f"edge ({u!r}, {v!r}) has an endpoint outside the node set")
    return g


def _edge_count(g: Graph) -> int:
    return sum(map(int.bit_count, g.masks)) // 2


def _edge_pairs(g: Graph) -> Iterator[tuple[str, str]]:
    """Each edge once, as (u, v) with u < v, in name order: that of sorted(g.edges)."""
    names = g.names  # below, m >> i << i keeps the neighbours after i
    return ((names[i], names[j]) for i, m in enumerate(g.masks) for j in _bits(m >> i << i))


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complete(n: int) -> Graph:
    """The complete graph on nodes "1".."n": each mask is all nodes but itself, in any name order."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return _graph(sorted(map(str, range(1, n + 1))), (), [(1 << n) - 1 ^ 1 << i for i in range(n)])


def cycle(n: int) -> Graph:
    """The cycle on nodes "1".."n" in circular order: the edges at positions (0, 1), ..., (n-1, 0)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return _graph(list(map(str, range(1, n + 1))), [0, *[i >> 1 for i in range(2, 2 * n)], 0])


def cube(k: int) -> Graph:
    """The k-dimensional hypercube on length-k bitstring names, 1 <= k <= 17."""
    if not 1 <= k <= MAX_CUBE_DIMENSION:
        raise ValueError(f"cube needs 1 <= k <= {MAX_CUBE_DIMENSION}, got {k}")
    if k > _MAX_CUBE_GRAPH:
        raise ValueError(f"cube graph needs k <= {_MAX_CUBE_GRAPH}, got {k}: its masks would take {4 ** k >> 33} GiB")
    names, masks = [""], [0]
    for d in range(k):
        # the (d+1)-cube: two d-cubes, prefixed 0 and 1, and edges from v to its copy v + h
        h = 1 << d
        names = [*map("0".__add__, names), *map("1".__add__, names)]
        masks += [m << h | 1 << v for v, m in enumerate(masks)]
        for v in range(h):
            masks[v] |= 1 << v + h
    return _graph(names, (), masks)  # names[v] spells v in binary, so they are sorted


# The k-cube word has k * 2^k letters and about doubles in time per dimension; the k-cube graph's
# masks take 4^k / 8 bytes, so building and verifying it grow about 4x, and cube(k) stops at k = 17.
MAX_CUBE_DIMENSION, _MAX_CUBE_GRAPH = 20, 17
# the largest product graph built: the 17-cube graph's 2^17 nodes and the 20-cube's 20 * 2^19 edges
MAX_PRODUCT_NODES, MAX_PRODUCT_EDGES = 1 << _MAX_CUBE_GRAPH, MAX_CUBE_DIMENSION << MAX_CUBE_DIMENSION - 1


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product on nodes "a@b": edges move along one factor at a time.
    Its size is counted first, and one above either bound is refused."""
    m, n = len(g.names), len(h.names)
    nodes, edges = m * n, m * _edge_count(h) + _edge_count(g) * n
    if nodes > MAX_PRODUCT_NODES or edges > MAX_PRODUCT_EDGES:
        raise ValueError(f"product graph would have {nodes:,} nodes and {edges:,} edges, above the "
                         f"{MAX_PRODUCT_NODES:,} nodes of the {_MAX_CUBE_GRAPH}-cube "
                         f"or the {MAX_PRODUCT_EDGES:,} edges of the {MAX_CUBE_DIMENSION}-cube")
    # "a@b" sorts as a + "@" does, then as b: one block of h's copies per node of g, in key order
    keys = [a + "@" for a in g.names]
    order = sorted(range(m), key=keys.__getitem__)
    offset = [0] * m
    for t, u in enumerate(order):
        offset[u] = t * n
    names = [keys[u] + b for u in order for b in h.names]
    across = [0] * m  # the first copies of each node's neighbours
    for u, mu in enumerate(g.masks):
        for v in _bits(mu):
            across[u] |= 1 << offset[v]
    masks = [across[u] << b | mb << offset[u] for u in order for b, mb in enumerate(h.masks)]
    keys.sort()
    if not any(map(str.startswith, keys[1:], keys)):
        return _graph(names, (), masks)
    # a name of g continues another past '@', so the blocks interleave in name order, and names may collide
    if len(set(names)) < len(names):
        raise NamingConflictError("distinct node pairs collide under '@' naming")
    return _graph(names, [x for i, mi in enumerate(masks) for j in _bits(mi >> i << i) for x in (i, j)])


def _alternation_rows(w: Word, index: dict[str, int]) -> list[int] | None:
    """For each symbol of ``index``, the bitset of the symbols starting later in ``w`` that it alternates
    with, from one sweep that counts as it goes; None unless ``w``'s symbols are exactly ``index``'s.
    ``classes[j]`` holds the symbols seen exactly j times so far; at the i-th occurrence of x, x leaves
    class i-1 and the rest of that class is ANDed into x's row.  So y survives iff exactly i-1 copies of y
    precede the i-th x for every i: y starts after x and one y falls between consecutive x's, and with
    count(y) <= count(x) then x and y alternate.  No symbol occurs over |w| - n + 1 times if all n occur."""
    n = len(index)
    classes = [(1 << n) - 1] + [0] * (len(w) - n + 1)
    seen = [0] * n
    acc = [-1] * n
    try:
        for i in map(index.__getitem__, w.letters):
            j = seen[i]
            bit = 1 << i
            classes[j] ^= bit
            acc[i] &= classes[j]
            classes[j + 1] |= bit
            seen[i] = j + 1
    except (KeyError, IndexError):  # a letter outside index, or more copies than fit
        return None
    if classes[0]:  # a symbol of index that never occurs
        return None
    # at_most[c]: symbols occurring <= c times, up to the top count, as a | 0 would copy a
    at_most = list(accumulate(classes[:max(seen, default=0) + 1], or_))
    for i, c in enumerate(seen):  # in place, so that one list of rows is alive at a time
        acc[i] &= at_most[c]
    return acc


def graph_of_word(w: Word) -> Graph:
    """The graph on alphabet(w) whose edges are the alternating pairs, from one O(|w|) sweep."""
    index = dict(zip(sorted(w.counts), count()))
    rows = _alternation_rows(w, index)
    return _indexed(index, [x for i, row in enumerate(rows) for j in _bits(row) for x in (i, j)])


def represents(w: Word, g: Graph) -> bool:
    """True iff graph_of_word(w) equals g exactly (names and edges), from one O(|w|) sweep: its rows hold
    each alternating pair once, so they are g's edges iff no row holds a non-edge and they are as many."""
    rows = _alternation_rows(w, g.index)
    return (rows is not None and sum(map(int.bit_count, rows)) == _edge_count(g)
            and all(r & m == r for r, m in zip(rows, g.masks)))


def graph_to_edges_text(g: Graph) -> str:
    """Edge-list form: one "u v" line per edge, then one line per isolated node."""
    lines = [f"{u} {v}" for u, v in _edge_pairs(g)] + [v for v, m in zip(g.names, g.masks) if not m]
    return "\n".join(lines) + "\n" if lines else ""


def graph_from_edges_text(text: str) -> Graph:
    lines = text.splitlines()
    if "#" in text:  # comment lines are blanked, so that line i is still lines[i - 1]
        lines = ["" if raw.lstrip().startswith("#") else raw for raw in lines]
        text = " ".join(lines)  # split() takes every line break for whitespace, so text splits as its lines do
    widths = list(map(len, map(str.split, lines)))
    if max(widths, default=0) > 2:
        lineno = next(compress(count(1), map((2).__lt__, widths)))
        raise ValueError(f"line {lineno}: expected 'u v' or 'u', got {lines[lineno - 1].strip()!r}")
    tokens = text.split()  # in input order, so the first bad name is reported
    # the edges' ends are the tokens of the lines of two
    flat = list(compress(tokens, b"".join(map((b"", b"\0", b"\1\1").__getitem__, widths)))) if 1 in widths else tokens
    return _named(tokens, zip(*[iter(flat)] * 2), flat)


def graph_to_json(g: Graph) -> str:
    """JSON form: the object of ``g``'s nodes and edges in name order, indented by two."""
    import json
    return json.dumps({"nodes": g.names, "edges": list(_edge_pairs(g))}, indent=2) + "\n"


def _graph_json(g: Graph) -> str:
    """The same object on one line, as json.dumps writes it without indent: the "graph" value of every
    search outcome on g, so a scan can serialize it once.  It is joined from the names: every name the
    package builds or parses is a validated token (ASCII letters, digits, '_' and '@'), so none needs
    escaping and json writes each one verbatim between quotes."""
    nodes = '", "'.join(g.names)
    edges = '"], ["'.join(map('", "'.join, _edge_pairs(g)))
    nodes = f'"{nodes}"' if nodes else ""
    edges = f'["{edges}"]' if edges else ""
    return f'{{"nodes": [{nodes}], "edges": [{edges}]}}'


def graph_from_json(text: str) -> Graph:
    import json
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad graph JSON: {exc}") from None
    except RecursionError:
        raise ValueError("bad graph JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("graph JSON must be an object with 'nodes' and 'edges'")
    nodes, edges = payload.get("nodes", []), payload.get("edges", [])
    if not isinstance(nodes, list) or not set(map(type, nodes)) <= {str}:
        raise ValueError("'nodes' must be an array of strings")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be an array of 2-arrays of strings")
    # the ends are flattened once, type-checked in one pass and handed on
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
            and set(map(type, flat := list(chain.from_iterable(edges)))) <= {str}):
        e = next(e for e in edges if not (type(e) is list and len(e) == 2 and set(map(type, e)) <= {str}))
        raise ValueError(f"each edge must be a 2-array of strings, got {e!r}")
    return _named(nodes + flat, edges, flat)


def parse_graph(text: str) -> Graph:
    """JSON when the first non-blank character is '{' or '[', else an edge list."""
    return (graph_from_json if text.lstrip().startswith(("{", "[")) else graph_from_edges_text)(text)
