"""Benchmark of davkit on four workloads.

Run from the root of a checkout (the library is imported from ./src):

    python3 davbench/run.py --workload lattice-exact --seed 1 --seconds 28 --trace 0
    python3 davbench/run.py --workload all --seed 1 --seconds 28 --trace 0

A run parses its inputs in several fresh interpreters (set-up), then runs
whole rounds of the workload's jobs until the next round would end after
``--seconds``, then checks round 0 against independent computations and
every later round against round 0.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Result and span files go to davbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join(HERE, "out")
SETUP_STARTS = 11

# set-up: a fresh interpreter imports davkit.cli and parses the workload's inputs
SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import davkit.cli
t1 = time.perf_counter()
from davkit.core import GroupProduct, parse_ground_set, parse_sequence
for ground, seq in json.loads(sys.argv[1]):
    try:
        g = parse_ground_set(ground) if ground else None
        if seq:
            parse_sequence(seq, group=g.group if isinstance(g, GroupProduct) else None)
    except Exception:
        pass  # the input of a kept fault fails in the workload as well
print("ready", t1 - t0, flush=True)
"""
BARE_CHILD = "print('ready', 0.0, flush=True)"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "core.parse_s": "s", "core.enumerate_s": "s", "core.elements": "count",
    "bounds.s": "s", "bounds.depth_sum": "count", "bounds.upper_sum": "count",
    "search.self_s": "s", "search.nodes": "count", "search.prunes": "count",
    "search.closures": "count", "search.nodes_per_s": "1/s", "search.prune_ratio": "ratio",
    "search.atoms": "count", "search.pool_cpu_s": "s", "search.pool_efficiency": "ratio",
    "zerosum.s": "s", "zerosum.certified": "count",
    "constructions.self_s": "s", "inverse.self_s": "s",
    "cli.import_s": "s", "cli.interp_s": "s", "cli.self_s": "s", "cli.render_s": "s",
    "reorder.s": "s", "cli.spawn_overhead_s": "s",
}


@dataclass
class Round:
    walls: list[float]  # per operation
    cpus: list[float]
    outputs: list
    replay_wall: float | None = None
    replay_outputs: list | None = None
    spans: tuple[int, int] | None = None  # [first, end) in the tracer's spans


def load_davkit():
    if not os.path.isfile(os.path.join(SRC, "davkit", "__init__.py")):
        sys.exit(f"davbench: no davkit source at {SRC}; run from the root of a checkout")
    sys.path[:0] = [SRC, HERE]
    import davkit

    if not os.path.abspath(davkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"davbench: davkit was imported from {davkit.__file__}, not from {SRC}")


def cpu_now() -> float:
    """CPU of this process and of its children that have been waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def fresh_start(code: str, args: list[str], env: dict) -> tuple[float, float]:
    """(seconds from spawn to the child's ready line, the child's import time)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                          env=env, text=True) as p:
        line = p.stdout.readline()
        ready = time.perf_counter() - t0
        p.stdout.read()
        p.wait(timeout=60)
    parts = line.split()
    if len(parts) != 2 or parts[0] != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up child failed: {line!r}, exit {p.returncode}")
    return ready, float(parts[1])


def measure(wl, seconds: int, tracer, run_op) -> list[Round]:
    """Whole rounds until the next one would end after ``seconds``."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        root = tracer.begin("round") if tracer else None
        r = Round([], [], [])
        for op in wl.ops:
            w0, c0 = time.perf_counter(), cpu_now()
            r.outputs.append(run_op(op))
            r.walls.append(time.perf_counter() - w0)
            r.cpus.append(cpu_now() - c0)
        if tracer and wl.replay:
            w0 = time.perf_counter()
            r.replay_outputs = [run_op(op) for op in wl.replay]
            r.replay_wall = time.perf_counter() - w0
        if tracer:
            tracer.end(root)
            r.spans = (root, len(tracer.spans))
        rounds.append(r)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(sum(x.walls) + (x.replay_wall or 0) for x in rounds) > seconds:
            return rounds


def judge(wl, rounds: list[Round]) -> tuple[list[str], int]:
    """(problems, failed operations): round 0 against the independent
    checks, later rounds and the in-process replay against round 0."""
    problems = []
    first = rounds[0].outputs
    for op, out in zip(wl.ops, first):
        if op.fault and op.fault(out):
            continue
        try:
            op.check(out)
        except Exception as exc:  # a check that cannot read the output fails too
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    failed = 0
    for i, r in enumerate(rounds):
        for op, out, ref in zip(wl.ops, r.outputs, first):
            failed += bool(op.fault and op.fault(out))
            if out != ref:
                problems.append(f"{op.name}: round {i} differs from round 0")
        for op, out, ref in zip(wl.ops, r.replay_outputs or [], r.outputs):
            if out != ref:
                problems.append(f"{op.name}: in-process replay differs: {out} vs {ref}")
    if wl.after:
        try:
            wl.after(first)
        except Exception as exc:
            problems.append(f"{wl.name}: {type(exc).__name__}: {exc}")
    return problems, failed


def layer_metrics(wl, rounds, tracer, import_s, interp_s, problems) -> dict:
    import tracing

    per_round = [tracing.round_metrics(tracer.spans[a:b], a) for a, b in (r.spans for r in rounds)]
    for key in tracing.COUNTS:
        if len({fig[key] for fig in per_round}) > 1:
            problems.append(f"{key} differs between rounds: {[fig[key] for fig in per_round]}")
    out = {k: statistics.median(fig[k] for fig in per_round) for k in per_round[0]}
    out.update({k: per_round[0][k] for k in tracing.COUNTS})  # equal in every round
    out["cli.import_s"] = import_s
    out["cli.interp_s"] = interp_s
    out["cli.spawn_overhead_s"] = (
        statistics.median((sum(r.walls) - r.replay_wall) / len(wl.ops) for r in rounds) if wl.replay else 0.0
    )
    return out


def output_counts(rounds: list[Round]) -> dict:
    """Search counts that round 0's outputs carry themselves."""
    counts = dict.fromkeys(("nodes", "prunes", "closures"), 0)
    for out in rounds[0].outputs:
        stats = out._asdict() if hasattr(out, "nodes") else None
        if stats is None and hasattr(out, "report") and out.report:
            stats = out.report.get("stats")
        for k in counts:
            counts[k] += (stats or {}).get(k, 0)
    return counts


def run_one(args) -> int:
    load_davkit()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"davbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or all")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    env = workloads.cli_env()

    inputs = json.dumps(wl.inputs)
    fresh_start(SETUP_CHILD, [inputs], env)  # fills the bytecode cache
    starts = [fresh_start(SETUP_CHILD, [inputs], env) for _ in range(SETUP_STARTS)]
    setup_s = statistics.median(s[0] for s in starts)
    import_s = statistics.median(s[1] for s in starts)
    interp_s = statistics.median(fresh_start(BARE_CHILD, [], env)[0] for _ in range(SETUP_STARTS)) if tracer else None

    rounds = measure(wl, args.seconds, tracer, workloads.run_op)
    problems, failed = judge(wl, rounds)
    attempted = len(rounds) * len(wl.ops)
    # the job list's time as the sum of each job's median over the rounds:
    # steadier than the median round on a host whose speed drifts
    e2e = {
        "wall_s": sum(statistics.median(w) for w in zip(*(r.walls for r in rounds))),
        "cpu_s": sum(statistics.median(c) for c in zip(*(r.cpus for r in rounds))),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    if tracer:
        values = layer_metrics(wl, rounds, tracer, import_s, interp_s, problems)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": [{"wall_s": r.walls, "cpu_s": r.cpus, "replay_wall_s": r.replay_wall} for r in rounds],
        "setup_starts_s": [s[0] for s in starts], "end_to_end": e2e, "metrics": metrics,
        "output_counts": output_counts(rounds), "problems": problems,
        "ops": [op.name for op in wl.ops],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.dump(stem + ".spans.jsonl")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    load_davkit()
    import workloads

    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode not in (0, 1) or not lines:
            sys.exit(f"davbench: workload {name} exited {p.returncode}")
        result = json.loads(lines[-1])
        code = max(code, p.returncode)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:18} attempted={result['attempted']} failed={result['failed']}  {cells}")
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
