"""Spans around the package's public functions, and the per-layer metrics
computed from them.

Every public function defined in a layer module is wrapped, and every
``wordrep`` namespace that holds the original (``from .graphs import
represents`` in cli, constructions and search, the package itself) gets
the wrapper, so calls are caught wherever callers look them up.
``Graph.__init__`` is wrapped too, as ``graphs.Graph``.  A span is (name,
start, end, parent, op, sampling), where sampling is the time the clock's
speed samples took inside it.  ``check_symbol`` is only counted: it runs
once per token, too often for a span each.  Spans stay in memory and are
written out once, at the end of the run.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "words", "obf", "constructions", "graphs", "search")


def _letters(args, result):
    return len(args[0])


def _letters_out(args, result):
    return len(result) if hasattr(result, "letters") else 0


def _outcome(args, result):
    return (result.result, result.explored)


# What each span records about its work, beyond its time.
WORK = {
    "graphs.represents": _letters,
    "graphs.graph_of_word": _letters,
    "obf.apply": _letters_out,
    "search.is_k_representable": _outcome,
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.work: dict[int, object] = {}
        self.stack = [-1]
        self.op = -1
        self._check_symbol = [0]
        self.swaps: list | None = None

    @property
    def check_symbol_calls(self) -> int:
        return self._check_symbol[0]

    def _wrap(self, name, fn):
        spans, stack, work, clock = self.spans, self.stack, self.work, self.clock
        measure = WORK.get(name) or (_letters_out if name.startswith("constructions.") else None)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            sampling = clock.sampling_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, clock.sampling_s - sampling)
            if measure is not None:
                work[idx] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        cell = self._check_symbol

        def counted(token):
            cell[0] += 1
            return fn(token)

        return counted

    def _swaps(self) -> list:
        """(owner, attribute, original, wrapper) for every wordrep namespace
        entry that holds a public layer function, plus ``Graph.__init__``."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"wordrep.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                if attr == "check_symbol":
                    wrappers[id(obj)] = self._counted(obj)
                else:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        swaps = []
        for name, module in list(sys.modules.items()):
            if name == "wordrep" or name.startswith("wordrep."):
                for attr, obj in vars(module).items():
                    if id(obj) in wrappers:
                        swaps.append((module, attr, obj, wrappers[id(obj)]))
        graph_cls = sys.modules["wordrep.graphs"].Graph
        swaps.append((graph_cls, "__init__", graph_cls.__init__, self._wrap("graphs.Graph", graph_cls.__init__)))
        return swaps

    def install(self) -> None:
        """Swap the wrappers into every loaded wordrep namespace."""
        if self.swaps is None:
            self.swaps = self._swaps()
        for owner, attr, _, wrapper in self.swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.swaps:
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "sampling"], "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, op_scale: dict[int, float], rounds: int, overhead_s: float) -> dict:
    """Per-layer metrics per round, from the spans of the traced rounds.

    A span's time is its duration less the speed sampling inside it, scaled
    by its command's factor in ``op_scale``, like the end-to-end times.
    Times and counts are summed over the traced rounds and divided by their
    number; every round runs the same commands, so the counts come out
    whole.  Self time is a span's time minus its direct children's.
    """
    spans = tracer.spans
    total = defaultdict(float)
    calls = Counter()
    self_time = defaultdict(float)
    letters = Counter()
    top_construction_s = 0.0
    top_construction_letters = 0
    explored = witnesses = leaf_verifies = 0
    for idx, (name, start, end, parent, op, sampling) in enumerate(spans):
        duration = (end - start - sampling) * op_scale[op]
        total[name] += duration
        calls[name] += 1
        self_time[name.split(".")[0]] += duration
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent >= 0:
            self_time[parent_name.split(".")[0]] -= duration
        work = tracer.work.get(idx)
        if name == "search.is_k_representable" and work is not None:
            witnesses += work[0] == "witness"
            explored += work[1]
        elif isinstance(work, int):
            letters[name] += work
        if name == "graphs.represents" and parent_name.startswith("search."):
            leaf_verifies += 1
        if name.startswith("constructions.") and not parent_name.startswith("constructions."):
            top_construction_s += duration
            top_construction_letters += work or 0

    def rate(num, den):
        return num / den if den > 0 else 0.0

    metrics = {
        "graphs.represents_s": (total["graphs.represents"] / rounds, "s"),
        "graphs.represents_calls": (calls["graphs.represents"] / rounds, "count"),
        "graphs.verify_letters_per_s": (rate(letters["graphs.represents"], total["graphs.represents"]), "1/s"),
        "graphs.graph_of_word_s": (total["graphs.graph_of_word"] / rounds, "s"),
        "graphs.build_s": (total["graphs.Graph"] / rounds, "s"),
        "graphs.load_s": (total["graphs.load_graph"] / rounds, "s"),
        "graphs.orbits_s": (total["graphs.automorphism_orbits"] / rounds, "s"),
        "words.parse_s": (total["words.parse_words"] / rounds, "s"),
        "words.check_symbol_calls": (tracer.check_symbol_calls / rounds, "count"),
        "obf.apply_s": (total["obf.apply"] / rounds, "s"),
        "obf.apply_calls": (calls["obf.apply"] / rounds, "count"),
        "obf.letters_out": (letters["obf.apply"] / rounds, "count"),
        "constructions.letters_per_s": (rate(top_construction_letters, top_construction_s), "1/s"),
        "search.explored": (explored / rounds, "count"),
        "search.explored_per_s": (rate(explored, self_time["search"]), "1/s"),
        "search.queries": (calls["search.is_k_representable"] / rounds, "count"),
        "search.leaf_verifies": (leaf_verifies / rounds, "count"),
        "search.leaf_hit_ratio": (rate(witnesses, leaf_verifies), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_time[layer] / rounds, "s")
    return metrics
