"""Monte Carlo check of exact probabilities: sample X, count the exact
hits A X == b with kernels.hits_block, and compare their frequency
against pmf via a z-score."""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .intlinalg import int_vector
from .kernels import check_seed, hits_block, sample_block
from .model import PoissonModel
from .pmf import pmf

__all__ = ["SampleReport", "sample_many", "verify"]

# the most samples one hits_block call draws, as int64 arrays of one
# column each
_SAMPLE_BLOCK = 1 << 20


def sample_many(rates, seed, n_samples: int, start: int = 0) -> np.ndarray:
    """(n_samples, n) draws with sample indices [start, start + n_samples).

    Row s equals the one-row sample_block(rates, seed, start + s,
    start + s + 1): each sample is a pure function of its index.
    """
    n_samples = operator.index(n_samples)
    if n_samples < 0:
        raise InputError("n_samples must be >= 0")
    return sample_block(rates, seed, start, start + n_samples)


@dataclass(frozen=True)
class SampleReport:
    """z_score is NaN when the exact probability is 0 or 1 (the normal
    approximation has no spread there).  n_shards records the layout of
    contiguous sample blocks; results do not depend on it.  draws is the
    number of Poisson variates drawn: a column is drawn only for the
    samples that can still hit b, so it is at most n_samples times the
    number of columns that can move Y."""

    b: tuple
    exact_prob: float
    empirical_prob: float
    n_samples: int
    z_score: float
    seed: int
    hits: int
    n_shards: int
    draws: int


def _shard_bounds(n: int, shards: int):
    return [(i * n // shards, (i + 1) * n // shards) for i in range(shards)]


def _count_hits(amat, target, rates, seed, lo: int, hi: int) -> tuple[int, int]:
    """(hits, draws) among samples [lo, hi), drawn _SAMPLE_BLOCK at a time."""
    blocks = [hits_block(amat, target, rates, seed, s, min(s + _SAMPLE_BLOCK, hi))
              for s in range(lo, hi, _SAMPLE_BLOCK)]
    return sum(blocks), sum(block.draws for block in blocks)


def verify(model: PoissonModel, b, n_samples: int, seed, threads: int = 1) -> SampleReport:
    """Draw n_samples of X, count exact hits Y == b, report the z-score
    of the empirical frequency against pmf(model, b).

    Reproducible: the result depends only on (model, b, n_samples,
    seed), not on threads, which merely shards the counter range into
    min(threads, n_samples, os.cpu_count()) shards, one thread each.
    Each shard draws its samples in blocks of at most _SAMPLE_BLOCK, so
    memory stays bounded for any n_samples.
    """
    n_samples = operator.index(n_samples)
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    threads = operator.index(threads)
    if threads < 1:
        raise InputError("threads must be >= 1")
    seed = check_seed(seed)
    bv = int_vector(b)
    if bv.shape[0] != model.m_full:
        raise InputError(f"observation length {bv.shape[0]} != row count {model.m_full}")
    target = tuple(int(x) for x in bv)

    exact = pmf(model, target).prob
    rates = model.rates_full
    amat = model.a_full

    shards = _shard_bounds(n_samples, min(threads, n_samples, os.cpu_count() or 1))
    if len(shards) == 1:
        hits, draws = _count_hits(amat, target, rates, seed, 0, n_samples)
    else:
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            futs = [pool.submit(_count_hits, amat, target, rates, seed, lo, hi)
                    for lo, hi in shards]
            counts = [f.result() for f in futs]
        hits, draws = map(sum, zip(*counts))

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
        n_shards=len(shards),
        draws=draws,
    )
