"""Seeded inputs for the four workloads.

Every workload is a fixed list of operations (one "pass") that the
runner repeats in a closed loop.  Sizes sit on a fixed grid: the j-th of
N operations of a kind gets the size at quantile (j + 1/2) / N of its
log range.  Cost grows steeply with size, so a pass's time is set by its
few largest operations; drawing sizes at random would let the seed move
every timing.  The seed draws everything else: rates, the free parts of
each b, which b are infeasible and how, Monte Carlo seeds, and the order.

The package receives only the generated inputs.  Expected answers come
from ``reference.Oracle`` and are computed here, outside the timed loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from reference import Oracle, adjugate

E1 = [[1, 0, 1], [0, 2, 1]]
E2 = [[1, 3, 2, 2], [5, 16, 12, 17], [3, 16, 21, 56]]
E3 = [[1, 5, 3], [2, 10, 5], [0, 1, 8]]

# a 2**62 entry wraps int64 in the sampler; b = [0] then gets z of about 234
DEFECT_WRAP = ([[2 ** 62]], [4.0], [0])
# a b entry of 2**63 escapes the CLI's error handler (exit 1, expected 2)
DEFECT_BIG_B = 2 ** 63


@dataclass
class Op:
    kind: str  # "pmf", "verify" or "cli"
    model: int
    b: tuple
    log_prob: float  # reference log P(Y = b)
    count: int  # reference number of lattice points
    n: int = 0
    seed: int = 0
    threads: int = 1
    regime: str = ""
    command: str = ""  # cli subcommand


@dataclass
class Workload:
    models: list  # (name, a, rates)
    ops: list
    defects: list = field(default_factory=list)  # known-defect probes, as Op


def _grid(count, lo, hi):
    """count sizes in [lo, hi], at the midpoints of equal log bands."""
    return [lo * (hi / lo) ** ((j + 0.5) / count) for j in range(count)]


def _rng(seed, stream):
    """The workload's generator; any integer seed, negative ones too."""
    return np.random.default_rng([seed % 2 ** 64, stream])


def _rates(rng, n, lo, hi):
    return [float(x) for x in np.exp(rng.uniform(math.log(lo), math.log(hi), n))]


def _times(a, k):
    return tuple(int(x) for x in np.asarray(a, dtype=np.int64) @ np.asarray(k, dtype=np.int64))


def kernel_direction(a):
    """Primitive integer kernel vector of an m x (m+1) full-rank matrix,
    by cofactors: v_j = (-1)^j det(A without column j)."""
    n = len(a[0])
    v = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in a]
        v.append((-1) ** j * adjugate(minor)[1])
    g = math.gcd(*v)
    return [x // g for x in v]


# ---------------------------------------------------------- line-sweep

LINE_MODELS = (
    ("E1", E1),
    ("E2", E2),
    ("L3", [[1, 1, 2], [0, 1, 1]]),
    ("L4", [[2, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 3]]),
)
LINE_PER_MODEL = 60
LINE_MAX_TERMS = 10_000


def line_sweep(seed: int) -> Workload:
    """Single-index models, one A and many b; line length 1..1e4."""
    rng = _rng(seed, 1)
    models, ops = [], []
    for mi, (name, a) in enumerate(LINE_MODELS):
        rates = _rates(rng, len(a[0]), 0.1, 50.0)
        models.append((name, a, rates))
        oracle = Oracle(a)
        v = kernel_direction(a)
        vneg = [max(-x, 0) for x in v]
        for size in _grid(LINE_PER_MODEL, 1.0, LINE_MAX_TERMS):
            length = max(1, round(size))
            # start of a segment with exactly `length` points: coordinates
            # that move stay below |v_i| so neither end can be extended
            w = [int(rng.integers(0, abs(x))) if x else int(rng.integers(0, 21)) for x in v]
            k = [wi + (length - 1) * ni for wi, ni in zip(w, vneg)]
            b = _times(a, k)
            lp, count = oracle.evaluate(rates, b)
            if count != length:
                raise AssertionError(f"line generator built {count} points, wanted {length}")
            ops.append(Op("pmf", mi, b, lp, count))
    return Workload(models, [ops[i] for i in rng.permutation(len(ops))])


# --------------------------------------------------------- lattice-mix

E3_DEP = E3 + [[1, 6, 11]]  # last row = row 0 + row 2

LATTICE_PER_MODEL = 40
# every tenth query of a model is infeasible, alternating between the
# model's two kinds of infeasible b
INFEASIBLE_EVERY = 10


def _lattice_specs():
    """(name, a, size range, feasible b(size, rng), two infeasible b)."""
    neg1 = lambda s, r: [-1]
    return (
        ("d2", [[2, 2]], (1, 280), lambda s, r: [2 * s],
         (lambda s, r: [2 * s + 1], lambda s, r: [-2])),
        ("d2z", [[2, 4, 0]], (1, 400), lambda s, r: [2 * s],
         (lambda s, r: [2 * s + 1], neg1)),
        ("ones5", [[1] * 5], (1, 15), lambda s, r: [s], (neg1, lambda s, r: [-s])),
        ("ones6", [[1] * 6], (1, 11), lambda s, r: [s], (neg1, lambda s, r: [-s])),
        ("w24", [[1, 1, 1, 0], [0, 1, 2, 1]], (1, 26),
         lambda s, r: [s, s + int(r.integers(-(s // 4), s // 4 + 1))],
         (lambda s, r: [s, -1], lambda s, r: [-1, s])),
        ("dep", [[1, 1, 2, 0], [2, 2, 4, 0]], (1, 80), lambda s, r: [s, 2 * s],
         (lambda s, r: [s, 2 * s + 1], lambda s, r: [-1, -2])),
        ("E3", E3, (1, 300), lambda s, r: _times(E3, r.integers(0, s + 1, 3)),
         (lambda s, r: _times(E3, [s, -1, s]), lambda s, r: [-1, s, s])),
        ("E3dep", E3_DEP, (1, 300), lambda s, r: _times(E3_DEP, r.integers(0, s + 1, 3)),
         (lambda s, r: [x + (i == 3) for i, x in enumerate(_times(E3_DEP, r.integers(0, s + 1, 3)))],
          lambda s, r: [s, -1, s, s])),
    )


def lattice_mix(seed: int) -> Workload:
    """Enumerate and invertible routes, zero columns, dependent rows,
    10% infeasible b (negative, relation-violating, off-lattice)."""
    rng = _rng(seed, 2)
    models, ops = [], []
    for mi, (name, a, (lo, hi), feasible, infeasible) in enumerate(_lattice_specs()):
        rates = _rates(rng, len(a[0]), 0.1, 50.0)
        models.append((name, a, rates))
        oracle = Oracle(a)
        for j, size in enumerate(_grid(LATTICE_PER_MODEL, lo, hi)):
            s = max(lo, round(size))
            bad = j % INFEASIBLE_EVERY == INFEASIBLE_EVERY // 2
            make = infeasible[j // INFEASIBLE_EVERY % 2] if bad else feasible
            b = tuple(int(x) for x in make(s, rng))
            lp, count = oracle.evaluate(rates, b)
            if bad != (count == 0):
                raise AssertionError(f"{name} b={b}: feasibility not as generated")
            ops.append(Op("pmf", mi, b, lp, count))
    return Workload(models, [ops[i] for i in rng.permutation(len(ops))])


# ----------------------------------------------------------- mc-verify

# 28 inversion-only calls and 12 with one PTRS coordinate: the 70/30
# split puts the median well inside the fast group and p90 well inside
# the slow one, away from the jump between them.  A narrow sample range
# keeps neighbouring calls close in cost, so the percentiles do not jump.
MC_CALLS = {"low": 28, "high": 12}
MC_SAMPLES = (50_000, 100_000)
# column that gets the rate >= 30 in the high regime
MC_HIGH_COLUMN = {"E1": 1, "E2": 0}
# z is only meaningful when many hits are expected
MIN_PROB = 2e-3


def _observation(rng, a, rates, oracle, min_prob):
    """b = A x for Poisson draws x, redrawn until P(Y = b) >= min_prob.

    When no draw gets there (one rate of 30 or more and three near 3 can
    keep every b below 2e-3), the most probable of the draws and of the
    image of the mode, x = floor(rates), is used.  That b has P at least
    the product of the per-coordinate mode probabilities: about 6.6e-4
    for E2 with one rate at 45 and three at 3, or 33 expected hits at
    5e4 samples, enough for the |z| check."""
    best = None
    for _ in range(200):
        x = rng.poisson(rates)
        b = _times(a, x)
        lp, count = oracle.evaluate(rates, b)
        if best is None or lp > best[1]:
            best = (b, lp, count)
        if min_prob <= 0 or lp >= math.log(min_prob):
            return best
    b = _times(a, [math.floor(r) for r in rates])
    lp, count = oracle.evaluate(rates, b)
    if lp > best[1]:
        best = (b, lp, count)
    if best[1] < math.log(min_prob / 5):
        raise AssertionError(f"no observation with P >= {min_prob / 5} for rates {rates}")
    return best


def mc_verify(seed: int) -> Workload:
    """verify on E1 and E2, 5e4..1e5 samples, threads 1 and 2, two
    rate regimes (all < 30: CDF inversion; one >= 30: PTRS)."""
    rng = _rng(seed, 3)
    oracles = {"E1": Oracle(E1), "E2": Oracle(E2)}
    mats = {"E1": E1, "E2": E2}
    models, ops = [], []
    for regime, calls in MC_CALLS.items():
        sizes = _grid(calls, *MC_SAMPLES)
        for c in range(calls):
            name = "E1" if c % 2 == 0 else "E2"
            a = mats[name]
            rates = _rates(rng, len(a[0]), 0.3, 3.0)
            if regime == "high":
                rates[MC_HIGH_COLUMN[name]] = float(rng.uniform(30.0, 45.0))
            b, lp, count = _observation(rng, a, rates, oracles[name], MIN_PROB)
            models.append((f"{name}-{regime}{c}", a, rates))
            ops.append(Op("verify", len(models) - 1, b, lp, count,
                          n=round(sizes[c]), seed=int(rng.integers(0, 2 ** 63)),
                          threads=1 + (c // 2) % 2, regime=regime))
    a, rates, b = DEFECT_WRAP
    lp, count = Oracle(a).evaluate(rates, b)
    models.append(("wrap", a, rates))
    defect = Op("verify", len(models) - 1, tuple(b), lp, count, n=20_000,
                seed=int(rng.integers(0, 2 ** 63)), regime="defect")
    return Workload(models, [ops[i] for i in rng.permutation(len(ops))],
                    defects=[defect])


# --------------------------------------------------------- cli-oneshot

CLI_MODELS = (("E1", E1), ("E2", E2), ("d2", [[2, 2]]), ("E3", E3),
              ("dep", [[1, 1, 2, 0], [2, 2, 4, 0]]))
CLI_COMMANDS = ("pmf", "solve", "sample")
CLI_OPS = 6
CLI_SAMPLES = 10_000
CLI_MIN_PROB = 5e-3


def cli_oneshot(seed: int) -> Workload:
    """pmf, solve and sample --n 1e4 through `python -m linpois.cli`
    with --format json, one subprocess after another."""
    rng = _rng(seed, 4)
    models = [(name, a, _rates(rng, len(a[0]), 0.3, 3.0)) for name, a in CLI_MODELS]
    oracles = [Oracle(a) for _, a, _ in models]
    ops = []
    for i in range(CLI_OPS):
        command = CLI_COMMANDS[i % 3]
        mi = i % len(models)
        _, a, rates = models[mi]
        min_prob = CLI_MIN_PROB if command == "sample" else 0.0
        b, lp, count = _observation(rng, a, rates, oracles[mi], min_prob)
        ops.append(Op("cli", mi, b, lp, count, n=CLI_SAMPLES,
                      seed=int(rng.integers(0, 2 ** 63)), command=command))
    big_b = (2, DEFECT_BIG_B)
    defect = Op("cli", 0, big_b, float("nan"), 0, n=CLI_SAMPLES, seed=1, command="sample")
    return Workload(models, [ops[i] for i in rng.permutation(len(ops))],
                    defects=[defect])


BUILDERS = {
    "line-sweep": line_sweep,
    "lattice-mix": lattice_mix,
    "mc-verify": mc_verify,
    "cli-oneshot": cli_oneshot,
}
