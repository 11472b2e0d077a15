"""Spans and counts around the public calls of each pipeline layer.

The program is not changed: each layer's functions are replaced, under the
names by which irsplan.runners, irsplan.planner and irsplan.cli call them,
with wrappers that pass *args and **kwargs through untouched.  A counter
that no longer fits a changed signature or return value is dropped (and
counted in ``counter_errors``); the call itself always goes through.  A
target that is gone (renamed, inlined) stops the traced round, so its time
cannot slip unnoticed into a parent span or into ``untraced.s``.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# Largest share of a traced round's wall time that may lie outside every
# span; measured at 0.35-0.9% on the full workloads.
UNTRACED_SHARE = 0.05

# Every per-layer metric, in report order (units in BENCHMARK.json).
LAYERS = ("scene", "spots", "stats_grid", "mc", "kernel", "solve", "report")
COUNTS = (
    "spots.count",
    "stats_grid.legs",
    "mc.entries",
    "mc.element_draws",
    "kernel.calls",
    "kernel.samples",
    "kernel.element_samples",
    "solve.calls",
    "solve.nodes",
    "solve.proven",
    "report.bytes",
)


def _count_spots(c, result, args, kwargs):
    c["spots.count"] += len(result)


def _count_grid(c, result, args, kwargs):
    c["stats_grid.legs"] += (
        len(result.direct) + len(result.ap_irs) + sum(len(r) for r in result.irs_ue)
    )


def _count_matrices(c, result, args, kwargs):
    mats = list(result.values())
    c["mc.entries"] += sum(int(m.rates.size) for m in mats)
    # Both modes of one call share their draws, so a call draws once at
    # its largest element count.
    c["mc.element_draws"] += max(
        int(m.rates.size) * m.n_mc * m.n_elements for m in mats
    )


def _count_direct(c, result, args, kwargs):
    c["mc.entries"] += len(result[0])


def _count_kernel(c, result, args, kwargs):
    n_elements = args[3] if len(args) > 3 else kwargs["n_elements"]
    samples = len(next(iter(result.values())))
    c["kernel.calls"] += 1
    c["kernel.samples"] += samples
    c["kernel.element_samples"] += samples * n_elements


def _count_solve(c, result, args, kwargs):
    c["solve.calls"] += 1
    c["solve.nodes"] += int(result.solve_stats.get("nodes", 0))
    c["solve.proven"] += result.optimality == "proven_optimal"


def _count_write(c, result, args, kwargs):
    c["report.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute, layer, counter, capture key)
TARGETS = (
    ("irsplan.runners", "build_scene", "scene", None, None),
    ("irsplan.runners", "candidate_spots", "spots", _count_spots, None),
    ("irsplan.runners", "link_stats_grid", "stats_grid", _count_grid, None),
    ("irsplan.runners", "build_metric_matrices", "mc", _count_matrices, "matrices"),
    ("irsplan.runners", "direct_only_metrics", "mc", _count_direct, None),
    ("irsplan.planner", "snr_series", "kernel", _count_kernel, None),
    ("irsplan.runners", "snr_series", "kernel", _count_kernel, None),
    ("irsplan.runners", "solve_bnb", "solve", _count_solve, "solves"),
    ("irsplan.runners", "solve_greedy_swap", "solve", _count_solve, "solves"),
    ("irsplan.runners", "solve_exact", "solve", _count_solve, "solves"),
    ("irsplan.runners", "_extend_plan", "solve", _count_solve, "solves"),
    ("irsplan.runners", "evaluate_plan", "report", None, None),
    ("irsplan.cli", "write_json", "report", _count_write, None),
    ("irsplan.cli", "write_csv", "report", _count_write, None),
)


class Tracer:
    """In-memory spans (layer, start, end, parent index) plus counts.

    ``captured`` keeps the metric matrices and (args, result) of every
    solve so the output checks can recompute the plans afterwards.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.captured: dict[str, list] = defaultdict(list)
        self.counter_errors = 0
        self._stack: list[int] = []

    def install(self, modules: dict):
        """Wrap every target in ``modules`` (e.g. sys.modules); all must exist."""
        for mod_name, attr, layer, counter, capture in TARGETS:
            module = modules.get(mod_name)
            if not hasattr(module, attr):
                raise LookupError(f"{mod_name}.{attr} is gone: layer {layer!r} cannot be timed")
            setattr(module, attr, self._wrap(getattr(module, attr), layer, counter, capture))

    def _wrap(self, fn, layer, counter, capture):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((layer, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, spans[idx][3])
            if counter is not None:
                try:
                    counter(self.counts, result, args, kwargs)
                except Exception:  # a changed signature drops the count only
                    self.counter_errors += 1
            if capture is not None:
                self.captured[capture].append((args, kwargs, result))
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], float]:
        """Per-layer self time, and the time covered by top-level spans."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
        return out, covered

    def layer_metrics(self, wall: float) -> dict[str, float]:
        selfs, covered = self.self_times()
        metrics = {f"{layer}.s": selfs[layer] for layer in LAYERS}
        metrics.update({k: float(self.counts[k]) for k in COUNTS})
        metrics["untraced.s"] = wall - covered
        return metrics
