"""Per-layer metrics derived from the spans of a traced run.

Self time follows one rule: a span's duration minus the part of its
interval that its child spans cover (union, so the two worker threads
of ``verify(threads=2)`` are not counted twice).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import covered


def _children(spans):
    kids = defaultdict(list)
    for sid, s in enumerate(spans):
        if s is not None and s.parent is not None:
            kids[s.parent].append(s)
    return kids


def _cover(kids, names) -> float:
    return covered((k.start, k.end) for k in kids if k.name in names)


def _mean_ms(values) -> float:
    return statistics.fmean(values) * 1e3 if values else 0.0


def _rate(spans, name) -> float:
    sel = [s for s in spans if s.name == name]
    busy = sum(s.end - s.start for s in sel)
    return sum(s.count for s in sel) / busy if busy > 0 else 0.0


def pass_counts(spans, hits: int) -> dict:
    """Exact counts of one pass; every pass of a run must repeat them."""
    done = [s for s in spans if s is not None]
    fam = sum(1 for s in done if s.name == "solutions.family")
    enum = sum(1 for s in done if s.name == "solutions.enumerate")
    draws = sum(s.count for s in done if s.name in ("kernels.draw_table", "kernels.draw_ptrs"))
    if draws == 0:
        draws = sum(s.count for s in done if s.name == "montecarlo.verify")
    return {
        "pmf.terms": sum(s.count for s in done if s.name == "pmf.pmf"),
        "solutions.enumerate_share": enum / fam if fam else 0.0,
        "kernels.draws": draws,
        "montecarlo.hits": hits,
    }


PMF_KEYS = ("pmf.terms", "solutions.enumerate_share", "solutions.family_ms", "pmf.eval_ms",
            "pmf.us_per_term")
MC_KEYS = ("kernels.draws", "montecarlo.hits", "kernels.hits_block_ms",
           "kernels.table_draws_per_s", "kernels.ptrs_draws_per_s", "montecarlo.verify_self_ms")


def op_metrics(spans, ranges) -> dict:
    """Time per layer over the pmf and verify spans whose index lies in
    one of the (lo, hi) ranges; children are looked up in all spans."""
    kids = _children(spans)
    done = [(sid, spans[sid]) for lo, hi in ranges for sid in range(lo, hi)
            if spans[sid] is not None]
    fam, ev, terms = [], [], 0
    hb, vself = [], []
    for sid, s in done:
        dur = s.end - s.start
        if s.name == "pmf.pmf":
            f = _cover(kids[sid], {"solutions.family"})
            fam.append(f)
            ev.append(dur - f)
            terms += s.count
        elif s.name == "montecarlo.verify":
            hb.append(_cover(kids[sid], {"kernels.hits_block"}))
            vself.append(dur - _cover(kids[sid], {"kernels.hits_block", "pmf.pmf"}))
    finished = [s for _, s in done]
    return {
        "solutions.family_ms": _mean_ms(fam),
        "pmf.eval_ms": _mean_ms(ev),
        "pmf.us_per_term": sum(ev) / terms * 1e6 if terms else 0.0,
        "kernels.hits_block_ms": _mean_ms(hb),
        "kernels.table_draws_per_s": _rate(finished, "kernels.draw_table"),
        "kernels.ptrs_draws_per_s": _rate(finished, "kernels.draw_ptrs"),
        "montecarlo.verify_self_ms": _mean_ms(vself),
    }


SETUP_LAYERS = {
    "model.build_ms": "model.build",
    "solutions.preprocess_ms": "solutions.preprocess",
    "intlinalg.snf_ms": "intlinalg.snf",
    "solutions.classify_ms": "solutions.classify",
}


def setup_metrics(rounds) -> dict:
    """Median over set-up rounds of the total time per layer; each
    round is the list of spans of one full model build."""
    out = {}
    for metric, name in SETUP_LAYERS.items():
        per_round = [sum(s.end - s.start for s in r if s.name == name) for r in rounds]
        out[metric] = statistics.median(per_round) * 1e3
    return out
