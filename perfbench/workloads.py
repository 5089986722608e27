"""The three workloads: the inputs each writes during set-up, the CLI
commands of one round, and the known answer each command's output is
checked against.

A workload's cost must not depend on its seed, or run-to-run spread
would swamp a real change: the seed picks word contents, mutated pairs
and graph edges, while sizes are fixed per slot.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle


@dataclass
class Op:
    """One CLI command and the known answer for it."""

    argv: list[str]
    exit_code: int
    check: Callable[[str], str | None] = lambda out: None if out == "" else "unexpected output"
    tag: str = ""
    cold_cube: bool = False
    # Untimed work before the timed phase: builds the known answer, or
    # checks a generated input; returns a problem or None.
    prepare: Callable[[], str | None] | None = None
    notes: dict = field(default_factory=dict)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _random_uniform_word(rng: random.Random, m: int, k: int) -> list[str]:
    letters = [f"a{i}" for i in range(1, m + 1)] * k
    rng.shuffle(letters)
    return letters


def _construct_op(argv: list[str], build_expected, k: int, tag: str) -> Op:
    """A `construct --verify` command, whose output must be one k-uniform
    word representing the graph build_expected() returns."""
    expected = []

    def prepare() -> None:
        expected.append(build_expected())

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 1:
            return f"expected one output line, got {len(lines)}"
        tokens = lines[0].split()
        if oracle.uniformity(tokens) != k:
            return f"output word is not {k}-uniform"
        return oracle.sweep_mismatch(tokens, expected[0])

    return Op(argv + ["--verify"], 0, check, tag, cold_cube=True, prepare=prepare)


# ---------------------------------------------------------------- cube-verify

CUBE_KS = range(3, 12)
# Seven prism and seven product commands, each a little dearer than the
# k=8 cube command and far cheaper than k=9, so the median command of a
# round is one of these fourteen and op_p50_ms rests on many samples.
PRISM_NS = (194, 197, 200, 203, 206, 209, 212)
PKN_BASE = (40, 3, 10)  # letters, uniformity, copies


def _base_graph(base: list[str]):
    letters = sorted(set(base))
    edges = [(x, y) for i, x in enumerate(letters) for y in letters[i + 1:]
             if oracle.restriction_alternates(base, x, y)]
    return oracle.graph(letters, edges)


def cube_verify(wr, rng: random.Random, workdir: str) -> list[Op]:
    ops = [_construct_op(["construct", "cube", "-k", str(d)], lambda d=d: oracle.cube(d), d, f"cube-{d}")
           for d in CUBE_KS]
    m, k, n = PKN_BASE
    for i, prism_n in enumerate(PRISM_NS):
        ops.append(_construct_op(["construct", "prism", "-n", str(prism_n)],
                                 lambda prism_n=prism_n: oracle.prism(prism_n), 3, f"prism-{prism_n}"))
        base = _random_uniform_word(rng, m, k)
        path = _write(os.path.join(workdir, f"base{i}.words"), " ".join(base) + "\n")
        ops.append(_construct_op(["construct", "product-kn", "-n", str(n), path],
                                 lambda base=base: oracle.cartesian(_base_graph(base), oracle.complete(n)),
                                 k + n - 1, f"product-{i}"))
    return ops


# ---------------------------------------------------------------- check-mixed

CHECK_CUBES = (7, 8, 9)
CHECK_PRISMS = (70, 85, 100, 120, 150, 180, 220, 260, 300, 350, 400)
# (letters, uniformity, copies) of the seeded product words: 384 to 4,800 letters.
CHECK_PRODUCTS = [
    (8, 3, 6), (10, 2, 8), (12, 2, 10), (14, 3, 6), (16, 2, 8), (18, 3, 7),
    (20, 3, 8), (24, 2, 9), (26, 3, 6), (30, 2, 12), (32, 3, 5), (40, 3, 10),
] * 4
# A rejected check stops at its mutated pair, so where that pair falls in
# the scan sets its cost; a narrow band keeps the round's cost steady.
REJECT_BAND = (0.4, 0.6)


def _pair_at(nodes, rank: int) -> tuple[str, str]:
    """The rank-th pair of combinations(nodes, 2)."""
    n = len(nodes)
    i = 0
    while rank >= n - 1 - i:
        rank -= n - 1 - i
        i += 1
    return nodes[i], nodes[i + 1 + rank]


def _mutate(g, rng: random.Random, add: bool):
    """g with one edge removed (or one non-edge added) near a seeded rank of
    the sorted pair order; returns the new graph."""
    nodes, edges = g
    total = len(nodes) * (len(nodes) - 1) // 2
    if add and len(edges) == total:
        add = False
    rank = int(total * rng.uniform(*REJECT_BAND))
    while True:
        pair = _pair_at(nodes, rank % total)
        if (pair in edges) != add:
            return nodes, (edges | {pair}) if add else (edges - {pair})
        rank += 1


def check_mixed(wr, rng: random.Random, workdir: str) -> list[Op]:
    cases = [(wr.cube_word(d), oracle.cube(d)) for d in CHECK_CUBES]
    cases += [(wr.prism_word(n), oracle.prism(n)) for n in CHECK_PRISMS]
    for m, k, n in CHECK_PRODUCTS:
        base = _random_uniform_word(rng, m, k)
        cases.append((wr.product_kn_word(wr.Word(base), n), oracle.cartesian(_base_graph(base), oracle.complete(n))))
    half = len(cases) // 2
    adds = [True] * half + [False] * (len(cases) - half)
    json_accepts = [True] * half + [False] * (len(cases) - half)
    rng.shuffle(adds)
    rng.shuffle(json_accepts)
    ops = []
    for i, (word, g) in enumerate(cases):
        word_path = _write(os.path.join(workdir, f"w{i}.words"), f"{word}\n")
        bad = _mutate(g, rng, adds[i])
        accept_ext, reject_ext = (".json", ".edges") if json_accepts[i] else (".edges", ".json")
        for tag, graph, ext, code in (("accept", g, accept_ext, 0), ("reject", bad, reject_ext, 1)):
            text = oracle.json_text(graph) if ext == ".json" else oracle.edges_text(graph)
            graph_path = _write(os.path.join(workdir, f"g{i}-{tag}{ext}"), text)
            op = Op(["check", word_path, graph_path], code, tag=f"{tag}-{len(word)}")
            if code == 0:
                op.prepare = lambda tokens=word.letters, g=g: oracle.sweep_mismatch(tokens, g)
            ops.append(op)
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------- repnum

SHALLOW_GRAPHS = 300
REDUCED = ["--use-automorphisms", "--use-reversal"]


def _deep_graphs():
    return {
        "K3xK2": oracle.cartesian(oracle.complete(3), oracle.complete(2)),
        "K4xK2": oracle.cartesian(oracle.complete(4), oracle.complete(2)),
        "Q3": oracle.cube(3),
    }


def _repnum_check(g, deep: bool, op: Op):
    """Checker for `repnum --max-k 3`: one JSON line per k tried, then the
    verdict; the witness is re-checked pair by pair."""
    nodes, edges = g
    complete_graph = len(edges) == len(nodes) * (len(nodes) - 1) // 2

    def check(out: str) -> str | None:
        lines = out.splitlines()
        records = []
        for line in lines:
            if not line.startswith("{"):
                break
            records.append(json.loads(line))
        tail = lines[len(records):]
        for k, rec in enumerate(records, start=1):
            if rec["k"] != k or rec["graph"] != {"nodes": nodes, "edges": [list(e) for e in sorted(edges)]}:
                return f"JSON record {k} does not describe this query"
        op.notes["explored"] = [rec["explored"] for rec in records]
        if oracle.is_wheel5(g):
            if [r["result"] for r in records] != ["exhausted"] * 3 or tail != ["representation number: unknown above k = 3"]:
                return "W5 must exhaust k = 1..3"
            op.notes["repnum"] = None
            return None
        found = len(records)
        if [r["result"] for r in records] != ["exhausted"] * (found - 1) + ["witness"]:
            return "results must be exhausted up to one witness"
        if tail != [f"representation number: {found}", f"witness: {records[-1]['word']}"]:
            return "verdict lines do not match the JSON records"
        if (found == 1) != complete_graph:
            return f"representation number {found}, but 1 iff the graph is complete"
        if deep and found != 3:
            return f"representation number {found}, pinned at 3"
        tokens = records[-1]["word"].split()
        if oracle.uniformity(tokens) != found:
            return f"witness is not {found}-uniform"
        op.notes["repnum"] = found
        return oracle.pairwise_mismatch(tokens, g)
    return check


def repnum(wr, rng: random.Random, workdir: str) -> list[Op]:
    names = [str(i) for i in range(1, 7)]
    pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1:]]
    graphs = [(name, g, True) for name, g in _deep_graphs().items()]
    # W5 is the only 6-node graph with no representant; its k=3 exhaustion
    # costs a hundred shallow queries, so it runs once per round as the
    # known no-instance instead of at a seed-dependent rate.
    w5 = oracle.graph(names, [("6", v) for v in names[:5]] + [(names[i], names[(i + 1) % 5]) for i in range(5)])
    graphs.append(("W5", w5, False))
    while len(graphs) < 4 + SHALLOW_GRAPHS:
        g = oracle.graph(names, [p for p in pairs if rng.random() < 0.5])
        if not oracle.is_wheel5(g):
            graphs.append((f"random-{len(graphs) - 3}", g, False))
    ops = []
    for i, (name, g, deep) in enumerate(graphs):
        path = _write(os.path.join(workdir, f"g{i}.edges"), oracle.edges_text(g))
        for mode, flags in (("plain", []), ("reduced", REDUCED)):
            op = Op(["repnum", path, "--max-k", "3", *flags], 1 if oracle.is_wheel5(g) else 0,
                    tag=f"{'deep' if deep else 'shallow'}:{name}:{mode}")
            op.check = _repnum_check(g, deep, op)
            ops.append(op)
    rng.shuffle(ops)
    return ops


def repnum_agreement(ops: list[Op]) -> list[Op]:
    """Plain and reduced queries on one graph must agree; returns the ops
    that disagree with their partner."""
    by_graph: dict[str, list[Op]] = {}
    for op in ops:
        by_graph.setdefault(op.argv[1], []).append(op)
    bad = []
    for pair in by_graph.values():
        answers = {op.notes.get("repnum", "missing") for op in pair}
        if len(answers) != 1:
            bad.extend(pair)
    return bad


WORKLOADS = {"cube-verify": cube_verify, "check-mixed": check_mixed, "repnum": repnum}
