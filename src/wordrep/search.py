"""Exhaustive backtracking search for k-uniform representants.

The trusted-because-simple oracle: depth-first over word positions,
branching over symbols in lexicographic order.  With pruning on, an edge
pair that stops alternating kills the branch immediately, and a non-edge
pair that still alternates kills it as soon as one of its symbols is
complete, since the other's last copy, if any, can only extend the
alternation.  Every leaf reached then represents the graph,
so the first one is the lexicographically smallest representant.  With
pruning off the search enumerates every k-uniform word and tests each
leaf, which is what the completeness tests compare against.  Every
witness is re-checked with represents() before being returned, so no
reduction can produce a false positive.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .graphs import Graph, represents
from .words import Word

DEFAULT_BUDGET = 24


class BudgetExceededError(RuntimeError):
    """The query needs more word positions than the configured budget."""

    def __init__(self, positions: int, budget: int):
        self.positions = positions
        self.budget = budget
        super().__init__(
            f"query needs {positions} word positions, above the budget of {budget}; "
            "raise the budget explicitly to run it"
        )


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of one k-representability query.

    result is "witness" (word holds a verified representant), "exhausted"
    (the full space was searched, no representant exists), or
    "resource-limit" (query refused or aborted on budget).
    """

    graph: Graph
    k: int
    result: str
    word: Word | None
    explored: int
    millis: float

    @property
    def found(self) -> bool:
        return self.result == "witness"


def outcome_to_json(outcome: SearchOutcome, timings: bool = False) -> str:
    """Serialize an outcome; millis is 0 unless timings is requested, so
    that identical queries produce byte-identical output."""
    payload = {
        "graph": {
            "nodes": sorted(outcome.graph.nodes),
            "edges": [[u, v] for u, v in sorted(outcome.graph.edges)],
        },
        "k": outcome.k,
        "result": outcome.result,
        "word": str(outcome.word) if outcome.word is not None else None,
        "explored": outcome.explored,
        "millis": round(outcome.millis, 3) if timings else 0,
    }
    return json.dumps(payload)


def is_k_representable(
    g: Graph,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune: bool = True,
    use_automorphisms: bool = False,
    use_reversal: bool = False,
) -> SearchOutcome:
    """Search the k-uniform words over the nodes of g for a representant.

    The witness, when there is one, is the lexicographically smallest
    k-uniform representant over the sorted node names.  use_automorphisms
    fixes the first letter to the smallest node: any cyclic shift of a
    uniform representant is again one (Kitaev & Pyatkin 2008), so some
    representant starts with that node, and the smallest one does.  This
    shrinks exhausted searches and changes no answer or witness.
    use_reversal is accepted for compatibility and has no effect: a
    representant's reversal is one too, and the smaller of the two is
    always reached first.
    """
    if k < 1:
        raise ValueError(f"uniformity k must be positive, got {k}")
    if not g.nodes:
        raise ValueError("search needs a graph with at least one node")
    total = len(g.nodes) * k
    if total > budget:
        raise BudgetExceededError(total, budget)

    names = sorted(g.nodes)
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    nbrs = [sorted(index[u] for u in g.neighbors(v)) for v in names]
    non_nbrs = [
        [u for u in range(n) if u != x and u not in set(nbrs[x])] for x in range(n)
    ]

    counts = [0] * n
    last_pos = [-1] * n
    broken = [bytearray(n) for _ in range(n)]
    word = [0] * total
    all_ids = list(range(n))
    first_ids = [0] if use_automorphisms else all_ids

    explored = 0
    witness: Word | None = None
    started = time.perf_counter()

    def descend(p: int) -> bool:
        nonlocal explored, witness
        if p == total:
            cand = Word(names[i] for i in word)
            if represents(cand, g):
                witness = cand
                return True
            return False
        for x in first_ids if p == 0 else all_ids:
            if counts[x] == k:
                continue
            lp = last_pos[x]
            if prune and lp >= 0 and any(last_pos[u] < lp for u in nbrs[x]):
                continue
            newly: list[int] = []
            if prune and lp >= 0:
                bx = broken[x]
                for u in range(n):
                    if u != x and last_pos[u] < lp and not bx[u]:
                        bx[u] = 1
                        broken[u][x] = 1
                        newly.append(u)
            counts[x] += 1
            last_pos[x] = p
            word[p] = x
            explored += 1
            viable = True
            if prune and counts[x] == k:
                # Alternation keeps two counts within one, so a non-edge u
                # that still alternates with the complete x has k - 1 or k
                # copies, and a last u can only follow the last x: the pair
                # would alternate in every completion.
                bx = broken[x]
                for u in non_nbrs[x]:
                    if not bx[u]:
                        viable = False
                        break
            if viable and descend(p + 1):
                return True
            counts[x] -= 1
            last_pos[x] = lp
            bx = broken[x]
            for u in newly:
                bx[u] = 0
                broken[u][x] = 0
        return False

    found = descend(0)
    millis = (time.perf_counter() - started) * 1000
    if found:
        return SearchOutcome(g, k, "witness", witness, explored, millis)
    return SearchOutcome(g, k, "exhausted", None, explored, millis)


def representation_number(
    g: Graph,
    k_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune: bool = True,
    use_automorphisms: bool = False,
    use_reversal: bool = False,
) -> int | None:
    """Smallest k <= k_max admitting a k-uniform representant, else None."""
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    for k in range(1, k_max + 1):
        outcome = is_k_representable(
            g,
            k,
            budget=budget,
            prune=prune,
            use_automorphisms=use_automorphisms,
            use_reversal=use_reversal,
        )
        if outcome.found:
            return k
    return None
