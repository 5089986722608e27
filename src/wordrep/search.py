"""Exhaustive backtracking search for k-uniform representants.

The trusted-because-simple oracle: depth-first over word positions,
branching over symbols in lexicographic order, on an explicit stack so
that the depth is not bounded by Python's recursion limit.  An edge pair
that stops alternating kills the branch immediately, and a non-edge pair
that still alternates kills it as soon as one of its symbols is complete,
since the other's last copy, if any, can only extend the alternation.
The first letter is the smallest node, since a cyclic shift of a uniform
representant is again one.  A first copy of x is placed only if no
automorphism that fixes every placed node maps x to a smaller node: it
would map the smallest representant to a smaller one with the same
prefix (the lex-leader cut of Crawford, Ginsberg, Luks & Roy, KR 1996).
After these two cuts comes the triple cut: restricting a k-representant
to three nodes gives a k-representant of the subgraph they induce
(Kitaev & Lozin, Words and Graphs, 2015), so a prefix whose restriction
to some triple cannot be completed to one is dead (path consistency,
Mackworth 1977).  It follows the triples that induce one or two edges.
Triangles are left out, since a restriction whose three pairs
alternate, as the edge cut keeps them, always completes, and so are
empty triples, which cut next to nothing.  Every leaf reached then
represents the graph, so the first one is the lexicographically
smallest representant.  Every witness is re-checked
with represents() before being returned, so no cut can produce a false
positive.  k = 1 needs no search: a 1-uniform word alternates on every
pair, so only a complete graph has one, and any order of its nodes is
one.  The tests compare the search with a permutation oracle and with a
reference search written from the definition, and the triple cut's memo
with every completion of every prefix.

The state is a few int bitmasks over the positions of the graph's sorted
names.  nbr[x] is x's adjacency mask, read from the graph; non[x], built
once per query, holds x's non-neighbours; brk[x] the partners whose
alternation with x a repeat of x has broken, so that a pair is broken
iff it is in either row; and since[x] the symbols placed after x's last
copy, which for a node not yet placed is the placed set.  since is a new
list at each depth.  A further copy of x repeats with every symbol
outside since[x]: a neighbour there cuts the branch, and the
non-neighbours there not yet in brk[x] are set there and unset when x is
popped.  The non-edge lookahead at x's k-th copy reads a partner's row
only for the non-neighbours still unbroken in x's, and it is decided
before the letter is written, so a rejected letter has nothing to undo.
Without the triple cut it does most of the pruning.  The lex-leader cut
asks _Symmetry, built once per query, and only when a smaller free node
has x's degree; _Symmetry.cuts is the one automorphism search, which
fixes the placed nodes, maps x first and then the other free nodes in
position order.  codes[t] holds triple t's restriction as an int and
member[x] the (triple, role) pairs of x, both built once per query by
triples.build, which also decides whether the query follows any
triple.  The triple cut looks x's new codes up in
triples.memo(k), one memo per k shared by all queries, and stops at the
first dead one; that triple moves to the front of member[x], so the
triple that last cut x is asked first the next time x is tried.  The
check is an AND over x's triples, so their order changes no answer and
no explored count, only the number of lookups.  Each stack frame
holds a placed letter x, the pairs it newly broke, the since list from
before it and the iterator over the candidates at its position; popping
a frame undoes the letter, and the search resumes with the candidate
after x.
"""
from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterator

from .graphs import Graph, _bits, _edge_count, _graph_json, represents
from .words import Word

DEFAULT_BUDGET = 24


class SearchOutcome(namedtuple("SearchOutcome", "graph k result word explored millis")):
    """Result of one k-representability query.

    result is "witness" (word holds a verified representant), "exhausted"
    (the full space was searched, no representant exists), or
    "resource-limit" (the query needs more word positions than its budget
    and was refused without searching, so explored is 0).

    explored counts the letters placed: a placement is counted once it
    passes the edge cut, the lex-leader cut and the triple cut and before
    the non-edge lookahead, so a placement that the lookahead kills still
    counts, and only the smallest node is tried as the first letter.  A
    k = 1 query is answered without search, with explored 0.
    """

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.result == "witness"


def outcome_to_json(outcome: SearchOutcome, timings: bool = False) -> str:
    """Serialize an outcome; millis is 0 unless timings is requested, so
    that identical queries produce byte-identical output."""
    return _outcome_json(_graph_json(outcome.graph), outcome, timings)


def _outcome_json(graph_json: str, outcome: SearchOutcome, timings: bool) -> str:
    """The outcome's JSON with graph_json spliced in as its first field and
    json.dumps's separators: the result is one of three fixed strings and a
    word a run of validated tokens, so neither needs escaping."""
    word = "null" if outcome.word is None else f'"{outcome.word}"'
    millis = repr(round(outcome.millis, 3)) if timings else "0"
    return (f'{{"graph": {graph_json}, "k": {outcome.k}, "result": "{outcome.result}", '
            f'"word": {word}, "explored": {outcome.explored}, "millis": {millis}}}')


class _Symmetry:
    """The lex-leader cut's state for one query on one graph.

    twins[x] holds the nodes before x with x's degree, the only ones an
    automorphism can map x to, and of_degree maps each degree to the mask
    of the nodes with it.  memo maps (placed, x) to whether some
    automorphism that fixes every placed node maps x to a smaller node;
    it lives as long as the query.  cuts is the one automorphism search.
    """

    __slots__ = ("g", "twins", "of_degree", "memo")

    def __init__(self, g: Graph):
        self.g = g
        twins: list[int] = []
        seen: dict[int, int] = {}  # degree -> mask of the nodes so far with it
        for x, m in enumerate(g.masks):
            d = m.bit_count()
            twins.append(seen.get(d, 0))
            seen[d] = twins[x] | 1 << x
        self.twins = twins
        self.of_degree = seen
        self.memo: dict[tuple[int, int], bool] = {}

    def cuts(self, x: int, placed: int) -> bool:
        """Whether an automorphism fixing each node of ``placed`` maps the
        free node x to a smaller one; memoised.

        One backtracking search on an explicit stack.  The placed nodes
        are their own images from the start; x is mapped first, to a
        smaller free node of its degree, and then each other free node in
        position order to a free node of its degree.  Node a may go to an
        unused b iff b's neighbours among the used images are exactly the
        images of a's mapped neighbours: one mask compare,
        nbr[b] & used == want.
        """
        key = (placed, x)
        cut = self.memo.get(key)
        if cut is not None:
            return cut
        nbr, of_degree = self.g.masks, self.of_degree
        n = len(nbr)
        order = [x, *_bits((1 << n) - 1 & ~placed & ~(1 << x))]
        image = list(range(n))  # a placed node is its own image
        done = used = placed  # masks of the mapped nodes and of their images

        def options(a: int, free: int) -> Iterator[int]:
            want = 0
            for a2 in _bits(nbr[a] & done):
                want |= 1 << image[a2]
            return iter([b for b in _bits(free & ~used) if nbr[b] & used == want])

        stack: list[Iterator[int]] = []
        candidates = options(x, self.twins[x])
        while True:
            b = next(candidates, None)
            if b is None:
                # no image left for this node: unmap the one before it
                if not stack:
                    break
                candidates = stack.pop()
                a = order[len(stack)]
                done ^= 1 << a
                used ^= 1 << image[a]
                continue
            a = order[len(stack)]
            image[a] = b
            done |= 1 << a
            used |= 1 << b
            stack.append(candidates)
            if len(stack) == len(order):
                break
            a = order[len(stack)]
            candidates = options(a, of_degree[nbr[a].bit_count()])
        # the stack is full after a whole map is found and empty after none is
        cut = self.memo[key] = bool(stack)
        return cut


def is_k_representable(
    g: Graph,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Search the k-uniform words over the nodes of g for a representant.

    The witness, when there is one, is the lexicographically smallest
    k-uniform representant over the sorted node names.  The search cuts
    branches that cannot alternate correctly, and it fixes the first
    letter to the smallest node: any cyclic shift of a uniform
    representant is again one (Kitaev & Pyatkin 2008), so some
    representant starts with that node, and the smallest one does.  It
    places the first copy of a node only if no automorphism fixing the
    placed nodes maps it to a smaller free node (Crawford et al. 1996),
    which the smallest representant meets at every prefix.  It drops a
    prefix whose restriction to a triple with one or two edges cannot be
    completed (Kitaev & Lozin 2015).  No cut changes an answer
    or a witness, and k = 1 is answered without search: a witness iff g
    is complete.  A query that needs more than budget word positions is
    refused: its outcome is "resource-limit" with nothing explored.
    """
    if k < 1:
        raise ValueError(f"uniformity k must be positive, got {k}")
    if not g.names:
        raise ValueError("search needs a graph with at least one node")
    total = len(g.names) * k
    if total > budget:
        return SearchOutcome(g, k, "resource-limit", None, 0, 0.0)

    names, nbr = g.names, g.masks
    n = len(names)
    if k == 1:
        # a 1-uniform word has every pair alternate: it represents the
        # graph iff the graph is complete, and then any order does
        started = time.perf_counter()
        word = Word._trusted(tuple(names))
        if 2 * _edge_count(g) == n * (n - 1) and represents(word, g):
            return SearchOutcome(g, 1, "witness", word, 0, (time.perf_counter() - started) * 1000)
        return SearchOutcome(g, 1, "exhausted", None, 0, (time.perf_counter() - started) * 1000)
    # imported here, so that a command that never searches does not compile it
    from . import triples

    full = (1 << n) - 1
    non = [full & ~nbr[x] & ~(1 << x) for x in range(n)]
    codes, member = triples.build(nbr)
    live = triples.memo(k)
    sym = _Symmetry(g)
    twins, cuts = sym.twins, sym.cuts

    counts = [0] * n
    brk = [0] * n
    since = [0] * n
    ids = range(n)
    # one frame per placed letter x: (x, the pairs x newly broke, since
    # from before x, the candidates not yet tried at x's position); x's
    # triples get its digit when x is placed and lose it when x is popped
    stack: list[tuple[int, int, list[int], Iterator[int]]] = []

    explored = 0
    witness: Word | None = None
    started = time.perf_counter()
    candidates = iter(range(1))  # the first letter is the smallest node
    while True:
        for x in candidates:
            c = counts[x]
            if c == k:
                continue
            new = 0
            if c:
                # a neighbour not placed since the last x would repeat with it
                if nbr[x] & ~since[x]:
                    continue
                new = non[x] & ~(since[x] | brk[x])
            # a first copy: since[x] is the placed set
            elif twins[x] & ~since[x] and cuts(x, since[x]):
                continue
            roles = member[x]
            for i, (t, r) in enumerate(roles):
                if live[codes[t] << 2 | r] is None:
                    break
            else:
                i = -1
            if i >= 0:
                # this triple's restriction has no completion: ask it first
                # the next time x is tried
                roles.insert(0, roles.pop(i))
                continue
            explored += 1
            # Alternation keeps two counts within one, so a non-edge u that
            # still alternates with the complete x has k - 1 or k copies, and
            # a last u can only follow the last x: the pair would alternate
            # in every completion.  A pair is broken in x's row or in u's.
            if c + 1 == k:
                unbroken = non[x] & ~(brk[x] | new)
                if unbroken and not all([brk[u] >> x & 1 for u in _bits(unbroken)]):
                    continue
            counts[x] = c + 1
            brk[x] |= new
            bit = 1 << x
            for t, r in roles:
                codes[t] = codes[t] << 2 | r
            stack.append((x, new, since, candidates))
            since = [s | bit for s in since]
            since[x] = 0
            break
        else:
            # no candidate left at this position: undo the last letter and
            # go on with the candidates after it
            if not stack:
                break
            x, new, since, candidates = stack.pop()
            counts[x] -= 1
            brk[x] ^= new
            for t, _ in member[x]:
                codes[t] >>= 2
            continue
        if len(stack) < total:
            candidates = iter(ids)
            continue
        cand = Word._trusted(tuple(names[f[0]] for f in stack))
        if represents(cand, g):
            witness = cand
            break
        candidates = iter(())  # a leaf has no children: backtrack

    millis = (time.perf_counter() - started) * 1000
    if witness is not None:
        return SearchOutcome(g, k, "witness", witness, explored, millis)
    return SearchOutcome(g, k, "exhausted", None, explored, millis)


def representation_number(
    g: Graph,
    k_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[SearchOutcome]:
    """Scan k = 1, 2, ..., yielding each k's outcome, and stop after the
    first that is not "exhausted" (the witness at the smallest k, or the
    resource-limit outcome that refused a query) or after k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    for k in range(1, k_max + 1):
        outcome = is_k_representable(g, k, budget=budget)
        yield outcome
        if outcome.result != "exhausted":
            return
