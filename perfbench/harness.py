"""Runs and checks workload operations in a closed loop with one client.

Each operation is timed alone; its answer is checked against the
reference after the clock stops.  A wrong answer, an exception or a
wrong exit code counts as failed and never stops the run.

Times are scaled by REFERENCE_LOOP_S / (the time of a fixed pure-Python
loop measured next to them).  The host this was written on (2 vCPUs,
shared) ran that loop in 3.5 ms at quiet times and in up to 5.9 ms in
episodes lasting from seconds to minutes, and the package slowed with
it; scaling took the run-to-run spread of the metrics from up to 52% to
13% at most.  A scaled time reads as seconds on that host when it is
quiet.  perfbench/README.md has the measurements.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import statistics
import subprocess
import sys
import time

from reference import log_close

ROOT_SPAN = {"pmf": "pmf.pmf", "verify": "montecarlo.verify", "cli": "cli.run"}
# |z| above this means Monte Carlo and the exact value disagree
Z_LIMIT = 5.0
SUBPROCESS_TIMEOUT = 60
# the speed loop's time on the reference host when it is quiet
REFERENCE_LOOP_S = 3.5e-3
# operation time between two speed loops in a pass; the host's speed
# changes within seconds
CHUNK_S = 0.05


def speed_loop() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return time.perf_counter() - t0


def _prob_close(got, log_want) -> bool:
    return math.isclose(got, math.exp(log_want), rel_tol=1e-9, abs_tol=0.0)


class Runner:
    """Holds the built models of one workload and runs its operations."""

    def __init__(self, lp, workload, root, work_dir):
        self.lp = lp
        self.wl = workload
        self.root = root
        self.work_dir = work_dir
        self.models = build_models(lp, workload.models)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.files = []
        if any(op.kind == "cli" for op in workload.ops):
            work_dir.mkdir(parents=True, exist_ok=True)
            for i, (name, a, rates) in enumerate(workload.models):
                path = work_dir / f"model{i}.json"
                path.write_text(json.dumps({"a": a, "lambda": rates, "name": name}))
                self.files.append(path)
        self.failures: list[str] = []

    # ------------------------------------------------------------ one op

    def argv(self, op) -> list[str]:
        argv = [sys.executable, "-m", "linpois.cli", op.command, str(self.files[op.model]),
                "--b", *map(str, op.b), "--format", "json"]
        if op.command == "sample":
            argv += ["--n", str(op.n), "--seed", str(op.seed)]
        return argv

    def call(self, op):
        model = self.models[op.model] if op.kind != "cli" else None
        if op.kind == "pmf":
            return self.lp.pmf(model, op.b)
        if op.kind == "verify":
            return self.lp.verify(model, op.b, op.n, op.seed, threads=op.threads)
        return subprocess.run(self.argv(op), env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)

    def check(self, op, out, expect_exit=0) -> str | None:
        """None when the answer is right, else a one-line reason."""
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        if op.kind == "pmf":
            if out.terms != op.count:
                return f"terms {out.terms} != reference {op.count}"
            if not log_close(out.log_prob, op.log_prob):
                return f"log_prob {out.log_prob!r} != reference {op.log_prob!r}"
            return None
        if op.kind == "verify":
            return self._check_report(out.exact_prob, out.z_score, op)
        if out.returncode != expect_exit:
            return f"exit {out.returncode}, expected {expect_exit}"
        if expect_exit != 0:
            return None
        try:
            payload = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if op.command == "pmf":
            if payload["terms"] != op.count:
                return f"terms {payload['terms']} != reference {op.count}"
            if not log_close(payload["log_prob"], op.log_prob):
                return f"log_prob {payload['log_prob']!r} != reference {op.log_prob!r}"
            return None
        if op.command == "solve":
            if payload["count"] != op.count:
                return f"count {payload['count']} != reference {op.count}"
            return None
        return self._check_report(payload["exact_prob"], payload["z_score"], op)

    @staticmethod
    def _check_report(exact, z, op) -> str | None:
        if not _prob_close(exact, op.log_prob):
            return f"exact_prob {exact!r} != reference {math.exp(op.log_prob)!r}"
        if not abs(z) <= Z_LIMIT:
            return f"|z| = {abs(z):.3g} > {Z_LIMIT}"
        return None

    # ----------------------------------------------------------- a pass

    def warm_up(self) -> dict:
        """An untimed, checked first pass, so lazy set-up and caches are
        done before timing.  The CLI only needs each subcommand once to
        write its bytecode cache."""
        if self.files:
            firsts = {op.command: op for op in reversed(self.wl.ops)}
            return self.run_pass(ops=list(firsts.values()))
        return self.run_pass()

    def run_pass(self, tracer=None, ops=None) -> dict:
        """One closed-loop pass over the workload's operations.  The speed
        loop runs before the first operation and after every CHUNK_S of
        operation time; scale[i] turns lat[i] into reference-host seconds."""
        ops = self.wl.ops if ops is None else ops
        loops = [speed_loop()]
        lat = []
        scale = []
        chunk = 0.0
        failed = 0
        hits = 0
        for i, op in enumerate(ops):
            if tracer is None:
                t0 = time.perf_counter()
                try:
                    out = self.call(op)
                except Exception as exc:  # counted, never fatal
                    out = exc
                dt = time.perf_counter() - t0
            else:
                with tracer.op(ROOT_SPAN[op.kind], i) as box:
                    t0 = time.perf_counter()
                    try:
                        out = self.call(op)
                    except Exception as exc:
                        out = exc
                    dt = time.perf_counter() - t0
                    box["count"] = span_count(op, out, self.models)
            lat.append(dt)
            reason = self.check(op, out)
            if reason is not None:
                failed += 1
                self.failures.append(f"op {i} {op.kind} {op.command} b={op.b}: {reason}")
            elif op.kind == "verify":
                hits += out.hits
            chunk += dt
            if chunk >= CHUNK_S or i == len(ops) - 1:
                loops.append(speed_loop())
                s = REFERENCE_LOOP_S / ((loops[-2] + loops[-1]) / 2)
                scale += [s] * (len(lat) - len(scale))
                chunk = 0.0
        return {"lat": lat, "scale": scale, "loop": statistics.median(loops), "failed": failed,
                "hits": hits}

    def run_defects(self) -> list[tuple[str, str | None]]:
        """Known-defect probes: (description, reason it failed or None)."""
        out = []
        for op in self.wl.defects:
            if op.kind == "verify":
                desc = f"verify A={self.wl.models[op.model][1]} b={list(op.b)}"
                try:
                    res = self.call(op)
                except Exception as exc:
                    res = exc
                out.append((desc, self.check(op, res)))
            else:
                desc = f"cli sample --b {' '.join(map(str, op.b))} (expects exit 2)"
                res = self.call(op)
                out.append((desc, self.check(op, res, expect_exit=2)))
        return out


def span_count(op, out, models) -> int:
    """Work count of one root span: terms summed, or draws made."""
    if isinstance(out, BaseException):
        return 0
    if op.kind == "pmf":
        return int(out.terms)
    if op.kind == "verify":
        return op.n * models[op.model].n_full
    return 0


def build_models(lp, specs):
    """PoissonModel per spec, with the cached snf and method filled."""
    models = []
    for name, a, rates in specs:
        m = lp.PoissonModel(a, rates, name=name)
        m.snf
        m.method
        models.append(m)
    return models


# set-up time in a fresh interpreter (import plus model builds), and the
# speed loop's time in that interpreter before and after it
SETUP_CODE = inspect.getsource(speed_loop) + """
import json, sys, time
specs = json.load(sys.stdin)
loop_before = speed_loop()
t0 = time.perf_counter()
import linpois
for name, a, rates in specs:
    m = linpois.PoissonModel(a, rates, name=name)
    m.snf
    m.method
setup = time.perf_counter() - t0
print(setup, loop_before, speed_loop())
"""


def timed_subprocess(argv, env, cwd, stdin=None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, input=stdin, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - t0, proc


def setup_seconds(runner) -> float:
    """Set-up time of one fresh interpreter, in reference-host seconds."""
    _, proc = timed_subprocess([sys.executable, "-c", SETUP_CODE], runner.env, runner.root,
                               stdin=json.dumps(runner.wl.models))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()}")
    setup, loop_before, loop_after = map(float, proc.stdout.split())
    return setup * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)


def interleaved_wall_ms(argvs, env, cwd, rounds: int) -> list[float]:
    """Median wall time in ms of each command.  The commands take turns,
    so a slow spell of the machine hits all of them alike."""
    times = [[] for _ in argvs]
    for _ in range(rounds):
        for argv, out in zip(argvs, times):
            dt, proc = timed_subprocess(argv, env, cwd)
            if proc.returncode != 0:
                raise RuntimeError(f"{argv[1:]} failed: {proc.stderr.strip()}")
            out.append(dt)
    return [statistics.median(t) * 1e3 for t in times]
