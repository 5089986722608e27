"""The triple cut's tables: which triples of a graph the search follows,
none when a graph has more than MAX_TRIPLES of them, and whether a
triple's restriction of a prefix can still be completed.

Restricted to three nodes, a k-representant of a graph is one of the
subgraph they induce (Kitaev & Lozin, Words and Graphs, 2015), so a
prefix is dead once some triple's restriction cannot be completed.  The
search imports this module on its first query at k >= 2, so that the
commands that never search do not compile it: without cached bytecode,
compiling it with the search made `import wordrep` about 2.5 ms (12%)
slower.  The tests check build() and count() against every triple of
every graph of at most 5 nodes, and the memo against every completion of
every prefix at k <= 3.
"""
from __future__ import annotations


# The two shapes of triple that the triple cut follows, with fixed roles
# 0, 1, 2: an induced path 0 - 1 - 2, and a single edge 0 - 1 with 2 adjacent
# to neither.  A triple's code is its shape followed by one two-bit digit per
# letter of its restriction, the letter's role.  A pair of roles r, s is the
# bit 1 << (r + s - 1): {0, 1} is 1, {0, 2} is 2 and {1, 2} is 4.
PATH, EDGE = 1, 2
_SHAPE_EDGES = {PATH: 0b101, EDGE: 0b001}
# Above this many triples a query runs without the triple cut.  Building
# C600's 358,200 took 0.8 s and about 90 MB, and K700 plus an isolated node's
# 244,650 made its k = 2 query 1.35 s against 0.24 s without them (Python
# 3.11, 2 vCPUs).  Within the default budget a query at k >= 2 has at most
# 12 nodes, so at most 220 triples.
MAX_TRIPLES = 4096


def count(nbr: list[int]) -> int:
    """The number of triples that hold one or two edges, from the degrees
    alone: m(n - 1) - sum(d^2) / 2, in which the triangles cancel."""
    degrees = [m.bit_count() for m in nbr]
    return sum(degrees) // 2 * (len(nbr) - 1) - sum(d * d for d in degrees) // 2


def build(nbr: list[int], non: list[int]) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The initial codes of the induced paths and single-edge triples, and
    for each node its (triple, role) pairs; no triple at all when count()
    is above MAX_TRIPLES, so that the query runs without the triple cut.
    Both shapes are read off the non-neighbours of each node w: a path
    w - v - c through each common neighbour v of w and a later non-neighbour
    c, and a single edge a - b, a < b, between two non-neighbours of w.  The
    loops take the bits off the masks in place: iterating them with a
    generator per mask made the set-up of a 6-node query about twice as
    slow."""
    codes: list[int] = []
    member: list[list[tuple[int, int]]] = [[] for _ in nbr]
    if count(nbr) > MAX_TRIPLES:
        return codes, member
    for w, far in enumerate(non):
        later = far >> w << w
        while later:
            c = (later & -later).bit_length() - 1
            later &= later - 1
            centres = nbr[w] & nbr[c]
            while centres:
                v = (centres & -centres).bit_length() - 1
                centres &= centres - 1
                t = len(codes)
                member[w].append((t, 0))
                member[v].append((t, 1))
                member[c].append((t, 2))
                codes.append(PATH)
        rest = far
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            ends = far & nbr[a] >> a << a
            while ends:
                b = (ends & -ends).bit_length() - 1
                ends &= ends - 1
                t = len(codes)
                member[a].append((t, 0))
                member[b].append((t, 1))
                member[w].append((t, 2))
                codes.append(EDGE)
    return codes, member


def _step(state: tuple, r: int) -> tuple | None:
    """A triple's compressed state after one more letter of role r, or None
    when r has no copy left or the letter repeats with a neighbour.  The
    state is (edges, copies left per role, the placed roles in the order of
    their last copies, broken pairs)."""
    edges, left, order, broken = state
    if not left[r]:
        return None
    new = 0
    if r in order:
        # r repeats with each role whose last copy is before r's, or absent
        after = order[order.index(r) + 1:]
        for s in range(3):
            if s != r and s not in after:
                new |= 1 << (r + s - 1)
        if new & edges:
            return None
        order = tuple(s for s in order if s != r)
    return edges, left[:r] + (left[r] - 1,) + left[r + 1:], order + (r,), broken | new


class _Live(dict):
    """The triple cut's memo for one k, shared by all queries: a triple's
    code maps to its compressed state when some letters of the triple,
    appended to the restriction the code spells, give a k-representant of
    its shape, and to None when none do.

    A miss steps the state of the code without its last letter, which the
    search asked for first, and decides the new state by a depth-first
    search over compressed states on an explicit stack, memoised in states;
    so no completion is ever written out.
    """

    __slots__ = ("states",)

    def __init__(self, k: int):
        super().__init__()
        self.states: dict[tuple, bool] = {}
        for shape, edges in _SHAPE_EDGES.items():
            start = (edges, (k,) * 3, (), 0)
            self[shape] = start if self._completable(start) else None

    def __missing__(self, code: int) -> tuple | None:
        state = self[code >> 2]
        if state is not None:
            state = _step(state, code & 3)
            if state is not None and not self._completable(state):
                state = None
        self[code] = state
        return state

    def _known(self, state: tuple) -> bool | None:
        """Whether a state completes, if that is known without a search."""
        edges, left, _, broken = state
        if not any(left):
            return edges | broken == 0b111  # every non-edge broken
        if edges == _SHAPE_EDGES[EDGE] and left[2] > 1:
            # two copies of role 2, side by side, break both of its pairs,
            # and the edge's pair, alternating so far, can go on alternating
            return True
        return self.states.get(state)

    def _completable(self, start: tuple) -> bool:
        """Whether some letters complete the state: depth first over the
        states, with a state live as soon as one child is, and dead once
        none is."""
        alive = self._known(start)
        if alive is not None:
            return alive
        stack = [(start, iter(range(3)))]
        while stack:
            state, roles = stack[-1]
            for r in roles:
                nxt = _step(state, r)
                if nxt is None:
                    continue
                alive = self._known(nxt)
                if alive is None:
                    stack.append((nxt, iter(range(3))))
                    break
                if alive:
                    # every state on the stack leads to this one
                    for state, _ in stack:
                        self.states[state] = True
                    return True
            else:
                self.states[state] = False
                stack.pop()
        return False


# k -> the triple cut's memo.  It holds facts about the two shapes only,
# never about a graph, so every query in the process shares it.
_MEMOS: dict[int, _Live] = {}


def memo(k: int) -> _Live:
    """The memo for k, shared by all queries."""
    live = _MEMOS.get(k)
    if live is None:
        live = _MEMOS[k] = _Live(k)
    return live
