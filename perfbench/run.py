"""wordrep benchmark: drives the package from outside, through
``wordrep.cli.main()``, one command at a time in one process.

    python3 perfbench/run.py --workload cube-verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans
import workloads
from speed import REFERENCE_MS, Clock, OpTimeout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 5  # set-ups per run; setup_s is their median
OP_CAP_S = 60.0  # wall-clock cap on one command, enforced by the clock's SIGALRM
HARD_LIMIT_S = 170.0  # no command starts after this much time in the run


def import_package():
    """Import wordrep afresh from the checkout, as a new CLI process would."""
    for name in [n for n in sys.modules if n == "wordrep" or n.startswith("wordrep.")]:
        del sys.modules[name]
    wr = importlib.import_module("wordrep")
    importlib.import_module("wordrep.cli")
    if Path(wr.__file__).resolve().parent != SRC / "wordrep":
        raise ImportError(f"wordrep imported from {wr.__file__}, not from {SRC}")
    return wr


def setup(name: str, seed: int, run_dir: Path, clock: Clock):
    """Import plus input generation, SETUPS times; keeps the last inputs.
    Returns the commands and each set-up's (start, end, raw seconds)."""
    times = []
    for i in range(SETUPS):
        workdir = run_dir / f"setup{i}"
        workdir.mkdir()
        sampling = clock.sampling_s
        start = perf_counter()
        wr = import_package()
        ops = workloads.WORKLOADS[name](wr, random.Random(seed), str(workdir))
        end = perf_counter()
        times.append((start, end, end - start - (clock.sampling_s - sampling)))
        if i < SETUPS - 1:
            shutil.rmtree(workdir)
    return ops, times


def run_op(main, argv: list[str], clock: Clock, deadline: float):
    """Run one command; returns (status, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        clock.deadline = deadline
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            clock.deadline = None
    except OpTimeout:
        return "resource-limit", None, ""
    except Exception as exc:  # a crash is a result to report, not a reason to stop
        return f"raised {type(exc).__name__}: {exc}", None, ""
    return "ok", code, out.getvalue()


class Runner:
    def __init__(self, name: str, ops, hard_end: float, clock: Clock, tracer):
        self.name = name
        self.ops = ops
        self.hard_end = hard_end
        self.clock = clock
        self.tracer = tracer
        self.rounds = 0
        self.records: list[tuple] = []  # (round, traced, span op id, tag, start, end, raw seconds)
        self.failures: list[dict] = []
        self.explored: dict[str, list[int]] = {}
        self.check_symbol_per_op: dict[str, int] = {}
        self.cube_word = sys.modules["wordrep.constructions"].cube_word

    def _execute(self, op, traced: bool):
        """Run one command; returns (span op id, start, end, raw seconds,
        status, exit code, stdout)."""
        if op.cold_cube:
            self.cube_word.cache_clear()
        op_id = None
        if traced:
            self.tracer.install()
            self.tracer.op += 1
            op_id = self.tracer.op
            calls = self.tracer.check_symbol_calls
        try:
            main = sys.modules["wordrep.cli"].main
            sampling = self.clock.sampling_s
            start = perf_counter()
            deadline = min(start + OP_CAP_S, self.hard_end)
            result = run_op(main, op.argv, self.clock, deadline) if deadline > start else ("resource-limit", None, "")
            end = perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.check_symbol_per_op[op.tag] = self.tracer.check_symbol_calls - calls
        return (op_id, start, end, end - start - (self.clock.sampling_s - sampling), *result)

    def round(self) -> None:
        """One pass over the workload's commands.  In a traced run each
        command runs twice, untraced and traced, in alternating order, so
        that both see the same machine speed.  Outputs are checked after
        the pass, outside the timing."""
        runs = []
        for i, op in enumerate(self.ops):
            op.notes = {}
            modes = (False,) if self.tracer is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in modes:
                runs.append((op, traced, *self._execute(op, traced)))
        for op, traced, op_id, start, end, raw, status, code, out in runs:
            self.records.append((self.rounds, traced, op_id, op.tag, start, end, raw))
            if status != "ok":
                self.fail(op, "resource-limit" if status == "resource-limit" else "raised", status)
            elif code != op.exit_code:
                self.fail(op, "exit", f"exit {code}, expected {op.exit_code}")
            else:
                problem = op.check(out)
                if problem:
                    self.fail(op, "verdict", problem)
            if op.tag.startswith("deep:") and "explored" in op.notes:
                self.explored[op.tag] = op.notes["explored"]
        if self.name == "repnum":
            for op in workloads.repnum_agreement(self.ops):
                self.fail(op, "verdict", "plain and reduced queries disagree")
        self.rounds += 1

    def fail(self, op, kind: str, detail: str) -> None:
        self.failures.append({"op": " ".join(op.argv), "tag": op.tag, "kind": kind, "detail": detail})


def measure(args) -> int:
    hard_end = perf_counter() + max(HARD_LIMIT_S, 3 * args.seconds)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        with Clock() as clock:
            ops, setups = setup(args.workload, args.seed, run_dir, clock)
            runner = Runner(args.workload, ops, hard_end, clock, spans.Tracer(clock) if args.trace else None)
            for op in ops:
                problem = op.prepare and op.prepare()
                if problem:
                    runner.fail(op, "verdict", f"generated input: {problem}")
            phase_start = perf_counter()
            while not runner.rounds or (perf_counter() - phase_start < args.seconds and perf_counter() < hard_end):
                runner.round()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Scale every time once the run is over, so that each interval has
    # speed samples on both sides.
    setup_s = [(raw, raw * clock.scale(start, end)) for start, end, raw in setups]
    round_s = [{False: [0.0, 0.0], True: [0.0, 0.0]} for _ in range(runner.rounds)]
    raw_ms, scaled_ms, by_tag, op_scale = [], [], {}, {}
    for rnd, traced, op_id, tag, start, end, raw in runner.records:
        scale = clock.scale(start, end)
        round_s[rnd][traced][0] += raw
        round_s[rnd][traced][1] += raw * scale
        if traced:
            op_scale[op_id] = scale
        else:
            raw_ms.append(raw * 1000)
            scaled_ms.append(raw * scale * 1000)
            by_tag.setdefault(tag, []).append(raw * scale * 1000)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": f"{platform.platform()} {platform.machine()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    samples = len(scaled_ms)
    attempted = len(runner.records)
    extra = {
        "rounds": runner.rounds,
        "op_samples": samples,
        "op_p90_ms": statistics.quantiles(scaled_ms, n=10)[-1] if samples >= 100 else None,
        "fail_frac": len(runner.failures) / attempted,
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setup_s),
            "run_s": statistics.median(r[False][0] for r in round_s),
            "op_p50_ms": statistics.median(raw_ms),
            "kernel_ms": statistics.median(clock.times) * 1000,
        },
        "setup_s": setup_s,
        "round_s": round_s,
        "failures": runner.failures,
        "deep_explored": runner.explored,
        "op_ms_by_tag": by_tag,
    }
    if args.trace:
        overhead = statistics.median(r[True][1] - r[False][1] for r in round_s)
        metrics = spans.layer_metrics(runner.tracer, op_scale, runner.rounds, overhead)
        extra["check_symbol_per_op"] = runner.check_symbol_per_op
        runner.tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setup_s), "s"),
            "run_s": (statistics.median(r[False][1] for r in round_s), "s"),
            "op_p50_ms": (statistics.median(scaled_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    report = {
        "correct": not any(f["kind"] != "resource-limit" for f in runner.failures),
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **extra, **report}, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds {runner.rounds}, commands {attempted}, op samples {samples}; "
          f"times scaled to a {REFERENCE_MS} ms reference kernel (measured {extra['raw']['kernel_ms']:.3f} ms)")
    for name, (value, unit) in metrics.items():
        raw = extra["raw"].get(name)
        print(f"  {name:30} {value:14.6g} {unit}" + (f"   (raw {raw:.6g} {unit})" if raw is not None else ""))
    if extra["op_p90_ms"] is not None:
        print(f"  {'op_p90_ms':30} {extra['op_p90_ms']:14.6g} ms ({samples} samples)")
    print(f"  {'fail_frac':30} {extra['fail_frac']:14.6g} ({len(runner.failures)} of {attempted})")
    for tag, explored in sorted(runner.explored.items()):
        print(f"  explored {tag}: {explored}")
    for failure in runner.failures[:10]:
        print(f"  FAIL {failure['kind']} {failure['tag']}: {failure['detail']}")
    print(json.dumps(report), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0] if proc.returncode == 0 else proc.stderr, flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wordrep" / "__init__.py").is_file():
        print(f"error: no wordrep package under {SRC}; run from a wordrep checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
