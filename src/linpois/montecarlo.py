"""Monte Carlo check of exact probabilities: sample X, count the exact
hits A X == b with kernels.hits_block, and compare their frequency
against pmf via a z-score."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intlinalg import _int_arg
from .kernels import _hit_target, hits_block
from .model import PoissonModel
from .pmf import pmf

__all__ = ["SampleReport", "verify"]

# the most samples one hits_block call draws, as int64 arrays of one
# column each
_SAMPLE_BLOCK = 1 << 20


@dataclass(frozen=True)
class SampleReport:
    """z_score is NaN when the exact probability is 0 or 1 (the normal
    approximation has no spread there).  draws is the number of Poisson
    variates drawn: a column is drawn only for the samples that can
    still hit b, so it is at most n_samples times the number of columns
    that can move Y."""

    b: tuple
    exact_prob: float
    empirical_prob: float
    n_samples: int
    z_score: float
    seed: int
    hits: int
    draws: int


def verify(model: PoissonModel, b, n_samples: int, seed, threads: int = 1) -> SampleReport:
    """Draw n_samples of X, count exact hits Y == b, report the z-score
    of the empirical frequency against pmf(model, b).

    Reproducible: the result depends only on (model, b, n_samples,
    seed).  The samples are counted in the calling thread, in blocks of
    at most _SAMPLE_BLOCK, so memory stays bounded for any n_samples.
    n_samples, seed and threads follow the integer rule
    (intlinalg._int_arg: no bool, float or string); sample indices are
    uint64, so n_samples of 2**64 or more is an InputError before any
    draw.  b is checked once, with the model's drawing plan, by
    kernels._hit_target, before pmf, so a query the sampler refuses is
    an InputError whatever pmf would make of it; the plan is built once
    per model.  threads has no effect and must be >= 1: it is kept only
    because the benchmark's mc-verify workload passes it, and goes once
    that workload drops it (ROADMAP items 2 and 6).
    """
    n_samples = _int_arg(n_samples, "n_samples", 1)
    _int_arg(threads, "threads", 1, u64=False)
    seed = _int_arg(seed, "seed")
    target = tuple(_hit_target(model, b)[0])
    exact = pmf(model, target).prob
    hits = draws = 0
    for lo in range(0, n_samples, _SAMPLE_BLOCK):
        h, d = hits_block(model, target, seed, lo, min(lo + _SAMPLE_BLOCK, n_samples))
        hits += h
        draws += d

    empirical = hits / n_samples
    if 0.0 < exact < 1.0:
        z = (empirical - exact) / math.sqrt(exact * (1.0 - exact) / n_samples)
    else:
        z = math.nan
    return SampleReport(
        b=target,
        exact_prob=exact,
        empirical_prob=empirical,
        n_samples=n_samples,
        z_score=z,
        seed=seed,
        hits=hits,
        draws=draws,
    )
