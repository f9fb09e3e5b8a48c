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

__all__ = ["RngState", "SampleReport", "sample_x", "sample_many", "verify"]

# the most samples one hits_block call draws, as a (block, n) int64 array
_SAMPLE_BLOCK = 1 << 20


class RngState:
    """Stream position: a fixed seed plus the index of the next sample.

    Counter-based, so a state at any index can be constructed directly;
    drawing never mutates global state.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed, counter: int = 0):
        self.seed = check_seed(seed)
        counter = operator.index(counter)
        if counter < 0:
            raise InputError("counter must be >= 0")
        self.counter = counter

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, counter={self.counter})"


def sample_x(rates, state: RngState) -> np.ndarray:
    """One vector of independent Poisson(rates) draws; advances state."""
    block = sample_block(rates, state.seed, state.counter, state.counter + 1)
    state.counter += 1
    return block[0]


def sample_many(rates, seed, n_samples: int, start: int = 0) -> np.ndarray:
    """(n_samples, n) draws with sample indices [start, start + n_samples).

    Equals stacking sample_x calls from the same starting state.
    """
    n_samples = operator.index(n_samples)
    if n_samples < 0:
        raise InputError("n_samples must be >= 0")
    return sample_block(rates, seed, start, start + n_samples)


@dataclass(frozen=True)
class SampleReport:
    """z_score is NaN when the exact probability is 0 or 1 (the normal
    approximation has no spread there).  n_shards records the layout of
    contiguous sample blocks; results do not depend on it."""

    b: tuple
    exact_prob: float
    empirical_prob: float
    n_samples: int
    z_score: float
    seed: int
    hits: int
    n_shards: int


def _shard_bounds(n: int, shards: int):
    return [(i * n // shards, (i + 1) * n // shards) for i in range(shards)]


def _count_hits(amat, target, rates, seed, lo: int, hi: int) -> int:
    """Hits among samples [lo, hi), drawn _SAMPLE_BLOCK at a time."""
    return sum(hits_block(amat, target, rates, seed, s, min(s + _SAMPLE_BLOCK, hi))
               for s in range(lo, hi, _SAMPLE_BLOCK))


def verify(model: PoissonModel, b, n_samples: int, seed, threads: int = 1) -> SampleReport:
    """Draw n_samples of X, count exact hits Y == b, report the z-score
    of the empirical frequency against pmf(model, b).

    Reproducible: the result depends only on (model, b, n_samples,
    seed), not on threads, which merely shards the counter range.  The
    shards run on at most os.cpu_count() threads, and each draws its
    samples in blocks of at most _SAMPLE_BLOCK, so memory stays bounded
    for any n_samples.
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

    shards = _shard_bounds(n_samples, min(threads, n_samples))
    if len(shards) == 1:
        hits = _count_hits(amat, target, rates, seed, 0, n_samples)
    else:
        with ThreadPoolExecutor(max_workers=min(len(shards), os.cpu_count() or 1)) as pool:
            futs = [pool.submit(_count_hits, amat, target, rates, seed, lo, hi)
                    for lo, hi in shards]
            hits = sum(f.result() for f in futs)

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
    )
