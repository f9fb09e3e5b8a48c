"""Monte Carlo check of exact probabilities: sample X, count the exact
hits A X == b with kernels.hits_block, and compare their frequency
against pmf via a z-score."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import InputError
from .intlinalg import int_vector
from .kernels import _hit_plan, check_seed, hits_block
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
    at most _SAMPLE_BLOCK, so memory stays bounded for any n_samples;
    sample indices are uint64, so n_samples above 2**64 - 1 is an
    InputError before any draw.  Every check of the sampler
    (kernels._hit_plan) runs before pmf, so a query the sampler refuses
    is an InputError whatever pmf would make of it.  threads has no
    effect and must be >= 1: it is kept only because the benchmark's
    mc-verify workload passes it, and goes once that workload drops it
    (ROADMAP item 1).
    """
    n_samples = operator.index(n_samples)
    if not 1 <= n_samples < 1 << 64:
        raise InputError("n_samples must be >= 1 and fit in an unsigned 64-bit integer")
    threads = operator.index(threads)
    if threads < 1:
        raise InputError("threads must be >= 1")
    seed = check_seed(seed)
    target = tuple(int_vector(b).tolist())
    rates = model.rates_full
    amat = model.a_full
    _hit_plan(amat, target, rates)
    exact = pmf(model, target).prob
    hits = draws = 0
    for lo in range(0, n_samples, _SAMPLE_BLOCK):
        h, d = hits_block(amat, target, rates, seed, lo, min(lo + _SAMPLE_BLOCK, n_samples))
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
