#!/usr/bin/env python3
"""Layered benchmark for linpois.

Run from the root of a source checkout (the package is imported from
./src, never from site-packages):

    python3 perfbench/run.py --workload line-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a
separate traced run.  Lines before it are for people.  See
perfbench/README.md for the workloads and the metric -> layer map.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from harness import REFERENCE_LOOP_S, Runner, build_models, interleaved_wall_ms, setup_seconds
from tracing import Tracer
from workloads import BUILDERS, E1

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

RUN_SECONDS = 25
SETUP_ROUNDS = 9  # fresh interpreters per set-up measurement
MIN_PASSES = 5  # timed passes per run, even if --seconds runs out first
CLI_ROUNDS = 5  # round-robin rounds of interpreter / import / command timing
# verify calls that stand in for the kernels on workloads without verify
MC_PROBE = (("low", [1.0, 1.0, 1.0], [2, 2]), ("high", [0.5, 2.0, 45.0], [45, 50]))
MC_PROBE_SAMPLES = 20_000

WORKLOADS = [
    {"name": "line-sweep",
     "why": "single-index models reused across b, lines of 1 to 1e4 terms: term evaluation in "
            "pmf does the work, enumeration none"},
    {"name": "lattice-mix",
     "why": "enumerate and invertible models with zero columns, dependent rows and 10% "
            "infeasible b: the DFS in solutions dominates"},
    {"name": "mc-verify",
     "why": "verify on E1 and E2 at 5e4 to 1e5 samples, threads 1 and 2, CDF-inversion and "
            "PTRS rates: the sampling kernels dominate"},
    {"name": "cli-oneshot",
     "why": "pmf, solve and sample --n 1e4 as sequential CLI subprocesses: interpreter start, "
            "import and cold model build block every call"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "query_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]

PER_LAYER = [
    ("model.build_ms", "ms", "lower"),
    ("solutions.preprocess_ms", "ms", "lower"),
    ("intlinalg.snf_ms", "ms", "lower"),
    ("solutions.classify_ms", "ms", "lower"),
    ("solutions.family_ms", "ms", "lower"),
    ("solutions.enumerate_share", "frac", "lower"),
    ("pmf.terms", "count", "lower"),
    ("pmf.eval_ms", "ms", "lower"),
    ("pmf.us_per_term", "us", "lower"),
    ("kernels.hits_block_ms", "ms", "lower"),
    ("kernels.draws", "count", "lower"),
    ("kernels.table_draws_per_s", "1/s", "higher"),
    ("kernels.ptrs_draws_per_s", "1/s", "higher"),
    ("montecarlo.verify_self_ms", "ms", "lower"),
    ("montecarlo.hits", "count", "higher"),
    ("montecarlo.low_samples_per_s", "1/s", "higher"),
    ("montecarlo.high_samples_per_s", "1/s", "higher"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.command_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("defects.known_failing", "count", "lower"),
]

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": RUN_SECONDS,
    "workloads": WORKLOADS,
    "end_to_end": END_TO_END,
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Layered benchmark for linpois.")
    ap.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json in the current directory and exit")
    args = ap.parse_args(argv)
    if not args.write_spec and args.workload is None:
        ap.error("--workload is required")
    return args


def import_package():
    """linpois from ./src of the checkout, or None with a message."""
    src = ROOT / "src"
    if not (src / "linpois" / "__init__.py").is_file():
        print(f"error: no linpois sources under {src}; run from the repository root",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import linpois

    if Path(linpois.__file__).resolve().parent != (src / "linpois").resolve():
        print(f"error: imported {linpois.__file__}, not the checkout's sources", file=sys.stderr)
        return None
    return linpois


def environment(lp, args) -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "backend": lp.default_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "linpois": lp.__version__,
    }


def op_latencies(passes, scaled=True) -> list[float]:
    """Each operation's median latency over the passes of a run, in
    reference-host seconds (see harness) unless scaled is False."""
    return [statistics.median(col) for col in
            zip(*([t * (s if scaled else 1.0) for t, s in zip(p["lat"], p["scale"])]
                  for p in passes))]


def regime_rates(runner, lat) -> dict:
    """Samples checked per second through verify, per rate regime."""
    n = {}
    busy = {}
    for op, dt in zip(runner.wl.ops, lat):
        if op.kind == "verify":
            n[op.regime] = n.get(op.regime, 0) + op.n
            busy[op.regime] = busy.get(op.regime, 0.0) + dt
    return {r: n[r] / busy[r] for r in n}


def run_timed(seconds, step, at_least=MIN_PASSES):
    """Call step(k) for k = 0, 1, ... until `seconds` have passed and
    `at_least` passes are done; a pass always completes."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < at_least or time.perf_counter() < deadline:
        out.append(step(len(out)))
    return out


# ----------------------------------------------------------- untraced

def untraced(runner, args, lines, env) -> tuple[dict, int, int]:
    setup = []

    def step(k):
        p = runner.run_pass()
        if len(setup) < SETUP_ROUNDS:
            setup.append(setup_seconds(runner))
        return p

    warm = runner.warm_up()
    passes = run_timed(args.seconds, step)
    while len(setup) < SETUP_ROUNDS:
        setup.append(setup_seconds(runner))
    lat = op_latencies(passes)
    q = statistics.quantiles(lat, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setup),
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p90_ms": q[8] * 1e3,
    }
    ops = len(runner.wl.ops)
    raw = op_latencies(passes, scaled=False)
    loop = statistics.median(p["loop"] for p in passes)
    lines.append(f"speed loop     {loop * 1e3:.3f} ms median around {len(passes)} passes "
                 f"(reference {REFERENCE_LOOP_S * 1e3:g} ms); times below are scaled by "
                 f"reference / loop")
    lines.append(f"setup_s        {metrics['setup_s']:.6f} s    median of {SETUP_ROUNDS} fresh "
                 f"interpreters (import + build {len(runner.wl.models)} models), one per pass")
    lines.append(f"queries_per_s  {metrics['queries_per_s']:.3f} 1/s  {ops} operations / sum of "
                 f"their median latencies over {len(passes)} passes (unscaled "
                 f"{len(raw) / sum(raw):.3f})")
    lines.append(f"query_p50_ms   {metrics['query_p50_ms']:.4f} ms   percentiles over the {ops} "
                 f"per-operation median latencies")
    lines.append(f"query_p90_ms   {metrics['query_p90_ms']:.4f} ms")
    if args.workload == "cli-oneshot":
        lines.append(f"cli_p50_ms     {metrics['query_p50_ms']:.4f} ms   (= query_p50_ms)")
        lines.append(f"cli_p90_ms     {metrics['query_p90_ms']:.4f} ms   (= query_p90_ms)")
    for regime, rate in sorted(regime_rates(runner, lat).items()):
        lines.append(f"mc_{regime}_samples_per_s  {rate:.1f} 1/s")
    attempted = len(warm["lat"]) + sum(len(p["lat"]) for p in passes)
    failed = warm["failed"] + sum(p["failed"] for p in passes)
    return metrics, attempted, failed


# ------------------------------------------------------------- traced

def probe_layers(runner, tracer, kinds):
    """Measure the layers this workload never calls on fixed probes, the
    same on every seed, so every per-layer metric is a measurement.

    Returns ([(span lo, span hi, verify hits, metric keys)], samples/s
    per rate regime of the verify probe)."""
    lp = runner.lp
    probes = []
    lo = len(tracer.spans)
    if kinds == {"cli"}:
        # the CLI's pmf and solve calls, made in-process
        family = importlib.import_module("linpois.pmf").solution_family
        for i, op in enumerate(runner.wl.ops):
            model = runner.models[op.model]
            if op.command == "pmf":
                with tracer.op("pmf.pmf", 10_000 + i) as box:
                    box["count"] = lp.pmf(model, op.b).terms
            elif op.command == "solve":
                with tracer.op("solutions.solve", 10_000 + i):
                    family(model, op.b)
        probes.append((lo, len(tracer.spans), 0, layers.PMF_KEYS))
    rates = {}
    if "verify" not in kinds:
        lo = len(tracer.spans)
        hits = 0
        for i, (regime, lam, b) in enumerate(MC_PROBE):
            model = lp.PoissonModel(E1, lam)
            with tracer.op("montecarlo.verify", 20_000 + i) as box:
                t0 = time.perf_counter()
                hits += lp.verify(model, b, MC_PROBE_SAMPLES, 7).hits
                rates[regime] = MC_PROBE_SAMPLES / (time.perf_counter() - t0)
                box["count"] = MC_PROBE_SAMPLES * model.n_full
        probes.append((lo, len(tracer.spans), hits, layers.MC_KEYS))
    return probes, rates


def cli_layers(runner, kinds) -> dict:
    """Interpreter start, import and the rest of one CLI call, timed
    round-robin in fresh subprocesses.  The call is the workload's own
    first operation, or pmf on E1 for the library workloads."""
    if "cli" in kinds:
        command = runner.argv(runner.wl.ops[0])
    else:
        probe_file = runner.work_dir / "probe.json"
        probe_file.parent.mkdir(parents=True, exist_ok=True)
        probe_file.write_text(json.dumps({"a": E1, "lambda": [1.0, 1.0, 1.0]}))
        command = [sys.executable, "-m", "linpois.cli", "pmf", str(probe_file), "--b", "2", "2",
                   "--format", "json"]
    interp, imported, cli_ms = interleaved_wall_ms(
        [[sys.executable, "-c", "pass"], [sys.executable, "-c", "import linpois"], command],
        runner.env, ROOT, CLI_ROUNDS)
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp,
            "cli.command_ms": cli_ms - imported}


def traced(runner, args, lines, env) -> tuple[dict, int, int]:
    lp = runner.lp
    tracer = Tracer()
    warm = runner.warm_up()

    tracer.instrument()
    rounds = []
    for r in range(SETUP_ROUNDS):
        lo = len(tracer.spans)
        with tracer.op("model.build", -1 - r):
            build_models(lp, runner.wl.models)
        rounds.append(tracer.finished()[lo:])

    plain, spanned, ranges = [], [], []

    def step(k):
        # untraced and traced passes alternate; their ratio is the
        # tracing overhead
        if k % 2 == 0:
            tracer.restore()
            plain.append(runner.run_pass())
            return plain[-1]
        tracer.instrument()
        lo = len(tracer.spans)
        spanned.append(runner.run_pass(tracer))
        ranges.append((lo, len(tracer.spans)))
        return spanned[-1]

    passes = run_timed(args.seconds, step, at_least=4)
    tracer.instrument()

    kinds = {op.kind for op in runner.wl.ops}
    probes, probe_rates = probe_layers(runner, tracer, kinds)
    tracer.restore()

    # exact counts: every traced pass repeats the same inputs
    counts = [layers.pass_counts(tracer.spans[lo:hi], p["hits"]) for (lo, hi), p in
              zip(ranges, spanned)]
    drift = [c for c in counts[1:] if c != counts[0]]
    if drift:
        runner.failures.append(f"counts differ between passes: {counts[0]} vs {drift[0]}")
    metrics = dict(counts[0])
    metrics.update(layers.op_metrics(tracer.spans, ranges))
    for lo, hi, hits, keys in probes:
        probe = layers.pass_counts(tracer.spans[lo:hi], hits)
        probe.update(layers.op_metrics(tracer.spans, [(lo, hi)]))
        metrics.update({k: probe[k] for k in keys})
    metrics.update(layers.setup_metrics(rounds))

    rates = regime_rates(runner, op_latencies(plain)) if "verify" in kinds else probe_rates
    metrics["montecarlo.low_samples_per_s"] = rates["low"]
    metrics["montecarlo.high_samples_per_s"] = rates["high"]

    metrics.update(cli_layers(runner, kinds))
    metrics["trace.overhead_pct"] = (sum(op_latencies(spanned)) / sum(op_latencies(plain))
                                     - 1.0) * 100.0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {"env": env, "counts": counts[0],
                             "hooks_missing": tracer.missing})
    lines.append(f"spans          {len(tracer.finished())} written to "
                 f"{trace_path.relative_to(ROOT)}")
    if tracer.missing:
        lines.append(f"hooks missing  {', '.join(tracer.missing)}")
    lines.append(f"passes         {len(plain)} untraced, {len(spanned)} traced; counts per pass "
                 f"{'repeat exactly' if not drift else 'DIFFER'}: {counts[0]}")
    attempted = sum(len(p["lat"]) for p in passes) + len(warm["lat"])
    failed = warm["failed"] + sum(p["failed"] for p in passes) + (1 if drift else 0)
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    lp = import_package()
    if lp is None:
        return 2

    env = environment(lp, args)
    lines = [f"linpois benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}",
             "env: " + ", ".join(f"{k} {v}" for k, v in env.items()
                                 if k not in ("workload", "seed", "seconds", "trace"))]
    workload = BUILDERS[args.workload](args.seed)
    work_dir = HERE / "out" / f"work-{os.getpid()}"
    try:
        runner = Runner(lp, workload, ROOT, work_dir)
        mode = traced if args.trace else untraced
        metrics, attempted, failed = mode(runner, args, lines, env)
        defects = runner.run_defects()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    open_defects = [(d, r) for d, r in defects if r is not None]
    lines.append(f"failed_frac    {(failed + len(open_defects)) / (attempted + len(defects)):.6f}"
                 f"  ({failed} of {attempted} workload operations, {len(open_defects)} of "
                 f"{len(defects)} known-defect probes)")
    for desc, reason in defects:
        lines.append(f"known defect   {desc}: {'FAILS: ' + reason if reason else 'passes'}")
    for msg in runner.failures[:20]:
        lines.append(f"FAILED         {msg}")
    if args.trace:
        metrics["defects.known_failing"] = len(open_defects)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        units = {m["name"]: m["unit"] for m in END_TO_END}
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
