"""Benchmark the sampling kernels: numba JIT backend vs the pure-numpy
fallback.

Times sample_block (raw Poisson vectors) and hits_block (fused sample,
project, count) on the same workload, reports draws per second, and
cross-checks that both backends return identical draws when every rate
is below the inversion threshold (skipped when only numpy is available).

Usage:
    python3 benchmarks/bench_sampling.py --n 1000000
    python3 benchmarks/bench_sampling.py --rates 0.5 2 45 --repeat 5
"""

import argparse
import time

import numpy as np

from linpois import kernels as K


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1_000_000, help="samples per run")
    ap.add_argument("--rates", type=float, nargs="+", default=[1.0, 1.0, 1.0],
                    help="Poisson rates, one per coordinate")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--repeat", type=int, default=3, help="take best of N runs")
    args = ap.parse_args()

    backends = ["numpy"]
    if K.HAVE_NUMBA:
        backends.insert(0, "numba")
    else:
        print("numba unavailable (package missing or LINPOIS_NO_NUMBA set); "
              "timing numpy only")

    a = [[1] * len(args.rates)]
    b = [max(1, round(sum(args.rates)))]

    print(f"n={args.n}  rates={args.rates}  seed={args.seed}  "
          f"best of {args.repeat}")
    K.warmup()  # JIT compile outside the timed region

    results = {}
    for backend in backends:
        t_sample = best_of(
            lambda: K.sample_block(args.rates, args.seed, 0, args.n, backend=backend),
            args.repeat)
        t_hits = best_of(
            lambda: K.hits_block(a, b, args.rates, args.seed, 0, args.n, backend=backend),
            args.repeat)
        results[backend] = (t_sample, t_hits)
        print(f"{backend:>6}  sample_block {t_sample:8.4f}s "
              f"({args.n / t_sample / 1e6:6.2f} M samples/s)   "
              f"hits_block {t_hits:8.4f}s ({args.n / t_hits / 1e6:6.2f} M/s)")

    if len(results) == 2:
        ts, th = results["numba"]
        us, uh = results["numpy"]
        print(f"speedup  sample_block {us / ts:5.2f}x   hits_block {uh / th:5.2f}x")

    if len(backends) == 1:
        print("bit-identical draws across backends: skipped (one backend)")
    elif all(r < K.PTRS_THRESHOLD for r in args.rates):
        n_check = min(args.n, 100_000)
        ref = K.sample_block(args.rates, args.seed, 0, n_check, backend="numpy")
        ok = all(
            np.array_equal(ref, K.sample_block(args.rates, args.seed, 0, n_check,
                                               backend=be))
            for be in backends)
        print(f"bit-identical draws across backends (n={n_check}): "
              f"{'yes' if ok else 'NO'}")
        if not ok:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
