"""Experiment drivers: link-rate sweep, split deployment, coverage study.

Each runner turns a ScenarioConfig into plain rows/dicts ready for CSV or
JSON serialization.  All outputs embed the tool version and the scenario
fingerprint, every random draw goes through seeded substreams, and floats
are emitted with repr precision, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import contextlib
import math
import os
import re

import numpy as np

from . import __version__
from .channel import link_stats
from .config import ConfigError, ScenarioConfig, scenario_fingerprint
from .geometry import filter_candidates_by_ap_los, generate_candidate_spots, link_geometry
from .link import snr_series
from .patterns import ErpModel
from .planner import (
    MetricMatrix,
    PlanProblem,
    PlanSolution,
    build_metric_matrices,
    direct_only_metrics,
    evaluate_plan,
    link_stats_grid,
    solve_bnb,
    solve_exact,
    solve_greedy_swap,
)
from .presets import build_scene
from .seeds import STREAM_DIRECT, STREAM_FADING

_VARIANT_RE = re.compile(r"^(active|passive)(\d+)_q(\d+(?:\.\d+)?)$")


def parse_variant(label: str) -> tuple[str, int, float | None]:
    """Decode a sweep variant label into (mode, n_elements, erp exponent)."""
    if label == "ap_only":
        return "none", 0, None
    m = _VARIANT_RE.match(label)
    if not m:
        raise ValueError(
            f"unknown sweep variant {label!r}; expected e.g. 'active64_q1' or 'ap_only'"
        )
    return m.group(1), int(m.group(2)), float(m.group(3))


def _solve(problem: PlanProblem, solver: str, node_budget: int) -> PlanSolution:
    if solver == "greedy":
        return solve_greedy_swap(problem)
    if solver == "bnb":
        return solve_bnb(problem, node_budget=node_budget)
    if solver == "exact":
        return solve_exact(problem, node_budget=node_budget)
    raise ValueError(f"unknown solver {solver!r}")


def header_meta(cfg: ScenarioConfig) -> dict:
    return {
        "tool": "irsplan",
        "version": __version__,
        "scenario": scenario_fingerprint(cfg),
        "preset": cfg.preset,
    }


def run_link_sweep(cfg: ScenarioConfig) -> dict:
    """Single-link ergodic rate versus the AP-surface ground distance.

    The surface slides along a straight street between the AP and a fixed
    far UE; the AP-surface and surface-UE legs are line-of-sight and the
    direct AP-UE link is not.  All variants at one distance share fading
    draws (and element draws are prefix-consistent across element counts),
    while the no-surface baseline uses a distance-independent stream, so
    its row is constant across the sweep.
    """
    sweep = cfg.sweep
    budget = cfg.budget()
    ap_pattern = cfg.ap_pattern()
    ap = (0.0, 0.0, cfg.ap.height)
    ue = (sweep.ue_x, sweep.ue_y, cfg.layout.ue_height)
    normal = (0.0, -1.0, 0.0)

    geom_d = link_geometry(ap, ue, source_tilt_deg=cfg.ap.tilt_deg)
    stats_d = link_stats(
        "ap_ue",
        dist_3d=geom_d.dist_3d,
        dist_2d=geom_d.dist_2d,
        h_tx=ap[2],
        h_rx=ue[2],
        f_c_ghz=cfg.rf.f_c_ghz,
        los=False,
        ap_pattern=ap_pattern,
        depression_deg=geom_d.depression_deg,
    )

    variants = [(label, *parse_variant(label)) for label in sweep.variants]
    rows = []
    for pi, r_ai in enumerate(sweep.r_ai_m):
        spot = (float(r_ai), sweep.irs_y, sweep.irs_z)
        geom_i = link_geometry(
            ap, spot, source_tilt_deg=cfg.ap.tilt_deg, target_normal=normal
        )
        geom_r = link_geometry(ue, spot, target_normal=normal)
        for label, mode, n_elements, q in variants:
            if mode == "none":
                series = snr_series(
                    stats_d,
                    None,
                    None,
                    0,
                    budget,
                    n_mc=sweep.n_mc,
                    seed_path=(cfg.master_seed, STREAM_DIRECT, 0),
                    modes=("passive",),
                )["passive"]
            else:
                erp = ErpModel(q)
                stats_i = link_stats(
                    "ap_irs",
                    dist_3d=geom_i.dist_3d,
                    dist_2d=geom_i.dist_2d,
                    h_tx=ap[2],
                    h_rx=spot[2],
                    f_c_ghz=cfg.rf.f_c_ghz,
                    los=True,
                    ap_pattern=ap_pattern,
                    erp=erp,
                    depression_deg=geom_i.depression_deg,
                    arrival_polar_deg=geom_i.arrival_polar_deg,
                )
                stats_r = link_stats(
                    "irs_ue",
                    dist_3d=geom_r.dist_3d,
                    dist_2d=geom_r.dist_2d,
                    h_tx=spot[2],
                    h_rx=ue[2],
                    f_c_ghz=cfg.rf.f_c_ghz,
                    los=True,
                    erp=erp,
                    arrival_polar_deg=geom_r.arrival_polar_deg,
                )
                series = snr_series(
                    stats_d,
                    stats_i,
                    stats_r,
                    n_elements,
                    budget,
                    amp_power_max=cfg.amp_power_max_w(),
                    amp_noise_psd=cfg.amp_noise_psd_w(),
                    n_mc=sweep.n_mc,
                    seed_path=(cfg.master_seed, STREAM_FADING, 0, pi),
                    modes=(mode,),
                )[mode]
            mean_gamma = float(np.mean(series))
            rows.append(
                {
                    "r_ai_m": float(r_ai),
                    "variant": label,
                    "mode": mode,
                    "n_elements": n_elements,
                    "erp_exponent": q if q is not None else "",
                    "ergodic_rate_bps_hz": float(np.mean(np.log2(1.0 + series))),
                    "avg_snr_db": (
                        10.0 * math.log10(mean_gamma) if mean_gamma > 0 else -math.inf
                    ),
                }
            )
    return {"meta": header_meta(cfg), "rows": rows}


def candidate_spots(cfg: ScenarioConfig, scene) -> list:
    """Facade grid filtered to spots that see the AP from the front."""
    raw = generate_candidate_spots(
        scene, cfg.layout.grid_w, cfg.layout.grid_h, cfg.layout.min_mount_height
    )
    return filter_candidates_by_ap_los(raw, scene)


def pool_cores() -> int:
    """Cores a fork pool may use: the process's CPU affinity set on Linux.
    Elsewhere fork is unsafe or missing, so runs stay serial (one core)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# Runs with fewer (UE, spot, MC draw) triples than this stay serial: there
# the pool's import, start and shutdown (20-50 ms on a 2-core VM) cost more
# than a second worker saves on the stats grid and the MC matrices.
POOL_MIN_WORK = 8192


def worker_count(num_ues: int, num_spots: int, n_mc: int, cores: int) -> int:
    """Pool size of a run: every usable core, capped at the UE rows there are
    to split, and 1 (serial) for runs too small to pay for a pool."""
    if num_ues * num_spots * n_mc < POOL_MIN_WORK:
        return 1
    return max(1, min(cores, num_ues))


@contextlib.contextmanager
def _fork_pool(workers: int):
    """A process pool of ``workers`` forked workers, or None (serial) below two.

    A worker that dies takes the pool down; that surfaces as a
    ChildProcessError, an OSError like any other failure of the machine.
    """
    if workers < 2:
        yield None
        return
    # Imported here: the pool machinery costs tens of ms that serial runs
    # and the other subcommands should not pay at start-up.  Fork, not
    # spawn: a spawned worker would re-import numpy, scipy and irsplan
    # (about 1 s on a 2-core VM, as much as two workers save on a 3 s run),
    # and the run has started no threads of its own when the pool forks.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
        try:
            yield pool
        except BrokenProcessPool as exc:
            raise ChildProcessError(f"a worker process died: {exc}") from exc


def _check_plan_sizes(path: str, sizes, num_spots: int):
    """Reject plans with more surfaces than spots before any grid or MC work."""
    for size in sizes:
        if size > num_spots:
            raise ConfigError(
                f"{path}: {size} surfaces exceed the {num_spots} candidate spots"
            )


def _spot_entry(spot) -> dict:
    return {
        "id": spot.id,
        "position": [float(c) for c in spot.position],
        "facet_normal": [float(c) for c in spot.facet_normal],
        "building": spot.building_index,
        "face": spot.face_index,
    }


def _plan_entry(
    mode: str,
    split: int,
    n_per_surface: int,
    solution: PlanSolution,
    matrix: MetricMatrix,
    spots,
    thresholds_db,
) -> dict:
    report = evaluate_plan(solution, matrix, thresholds_db)
    by_id = {s.id: s for s in spots}
    return {
        "mode": mode,
        "split": split,
        "n_per_surface": n_per_surface,
        "objective_value": solution.objective_value,
        "optimality": solution.optimality,
        "solver": solution.solve_stats.get("method", ""),
        "chosen_spots": [_spot_entry(by_id[c]) for c in solution.chosen_spots],
        "assignment": list(solution.assignment),
        "mean_rate_bps_hz": report.mean_rate,
        "fairness": report.fairness,
        "coverage": {f"{t:g}": r for t, r in report.coverage.items()},
    }


def run_deployment(cfg: ScenarioConfig, scene=None, spots=None, grid=None) -> dict:
    """Plan deployments that split an element budget across 1..k surfaces.

    For every split k the element budget divides evenly over k surfaces
    (J = k placements) and the plan maximizing the configured objective is
    solved per surface mode.  Precomputed scene/spots/stats can be passed in
    to share work across runs.  The stats grid and the MC matrices run on a
    pool of worker processes (see worker_count); output bytes do not depend
    on its size.
    """
    if scene is None:
        scene = build_scene(cfg)
    if scene is None:
        raise ValueError("deployment needs a scene; layout.kind is 'none'")
    if spots is None:
        spots = candidate_spots(cfg, scene)
    if not spots:
        raise ValueError("no candidate spots survive AP visibility filtering")
    dep = cfg.deploy
    _check_plan_sizes("deploy.splits", dep.splits, len(spots))
    budget = cfg.budget()
    results = []
    worst = "proven_optimal"
    workers = worker_count(scene.num_ues, len(spots), cfg.mc.n_mc, pool_cores())
    with _fork_pool(workers) as pool:
        if grid is None:
            grid = link_stats_grid(
                scene,
                spots,
                cfg.ap_pattern(),
                cfg.erp(),
                cfg.rf.f_c_ghz,
                pool=pool,
                blocks=workers,
            )
        baseline_rates, baseline_snr = direct_only_metrics(
            grid.direct, budget, cfg.mc.n_mc, cfg.master_seed
        )
        for split in dep.splits:
            n_per = cfg.surface.n_total // split
            matrices = build_metric_matrices(
                grid,
                budget,
                n_elements=n_per,
                amp_power_max=cfg.amp_power_max_w(),
                amp_noise_psd=cfg.amp_noise_psd_w(),
                n_mc=cfg.mc.n_mc,
                master_seed=cfg.master_seed,
                modes=dep.modes,
                pool=pool,
                blocks=workers,
            )
            for mode in dep.modes:
                problem = PlanProblem(
                    matrix=matrices[mode],
                    num_surfaces=split,
                    objective=dep.objective,
                    threshold_db=dep.threshold_db,
                )
                solution = _solve(problem, dep.solver, dep.node_budget)
                if solution.optimality != "proven_optimal" and dep.solver != "greedy":
                    worst = "heuristic"
                results.append(
                    _plan_entry(
                        mode,
                        split,
                        n_per,
                        solution,
                        matrices[mode],
                        spots,
                        dep.report_thresholds_db,
                    )
                )
    return {
        "meta": header_meta(cfg),
        "num_spots": len(spots),
        "num_ues": scene.num_ues,
        "n_total": cfg.surface.n_total,
        "objective": dep.objective,
        "no_surface": {
            "mean_rate_bps_hz": float(baseline_rates.mean()),
            "coverage": {
                f"{t:g}": float(np.mean(baseline_snr >= t))
                for t in dep.report_thresholds_db
            },
        },
        "results": results,
        "budget_exhausted": worst != "proven_optimal",
    }


def run_coverage(cfg: ScenarioConfig, scene=None, spots=None, grid=None) -> dict:
    """Covered-UE ratio versus the number of deployed surfaces.

    Every surface keeps the full per-surface element count here (no budget
    split); the planner maximizes the number of UEs whose average SNR meets
    the threshold.  For heuristic solvers each J is additionally warm
    started with the previous J's choice plus its best single extension, so
    the reported ratios are nondecreasing in J by construction.  The stats
    grid and the MC matrices run on a pool of worker processes as in
    run_deployment.
    """
    if scene is None:
        scene = build_scene(cfg)
    if scene is None:
        raise ValueError("coverage study needs a scene; layout.kind is 'none'")
    if spots is None:
        spots = candidate_spots(cfg, scene)
    if not spots:
        raise ValueError("no candidate spots survive AP visibility filtering")
    cov = cfg.coverage
    _check_plan_sizes("coverage.num_surfaces", cov.num_surfaces, len(spots))
    budget = cfg.budget()
    workers = worker_count(scene.num_ues, len(spots), cfg.mc.n_mc, pool_cores())
    with _fork_pool(workers) as pool:
        if grid is None:
            grid = link_stats_grid(
                scene,
                spots,
                cfg.ap_pattern(),
                cfg.erp(),
                cfg.rf.f_c_ghz,
                pool=pool,
                blocks=workers,
            )
        matrices = build_metric_matrices(
            grid,
            budget,
            n_elements=cfg.surface.n_elements,
            amp_power_max=cfg.amp_power_max_w(),
            amp_noise_psd=cfg.amp_noise_psd_w(),
            n_mc=cfg.mc.n_mc,
            master_seed=cfg.master_seed,
            modes=cov.modes,
            pool=pool,
            blocks=workers,
        )
    _, baseline_snr = direct_only_metrics(grid.direct, budget, cfg.mc.n_mc, cfg.master_seed)
    rows = []
    exhausted = False
    for threshold in cov.thresholds_db:
        rows.append(
            {
                "mode": "none",
                "num_surfaces": 0,
                "threshold_db": float(threshold),
                "coverage_ratio": float(np.mean(baseline_snr >= threshold)),
                "optimality": "proven_optimal",
            }
        )
        for mode in cov.modes:
            prev: PlanSolution | None = None
            for j in sorted(cov.num_surfaces):
                problem = PlanProblem(
                    matrix=matrices[mode],
                    num_surfaces=j,
                    objective="coverage_count",
                    threshold_db=float(threshold),
                )
                solution = _solve(problem, cov.solver, cov.node_budget)
                if solution.optimality != "proven_optimal" and cov.solver != "greedy":
                    exhausted = True
                if prev is not None and solution.objective_value < prev.objective_value:
                    extended = _extend_plan(problem, prev)
                    if extended.objective_value > solution.objective_value:
                        solution = extended
                rows.append(
                    {
                        "mode": mode,
                        "num_surfaces": j,
                        "threshold_db": float(threshold),
                        "coverage_ratio": solution.objective_value,
                        "optimality": solution.optimality,
                    }
                )
                prev = solution
    return {
        "meta": header_meta(cfg),
        "num_spots": len(spots),
        "num_ues": scene.num_ues,
        "rows": rows,
        "budget_exhausted": exhausted,
    }


def _extend_plan(problem: PlanProblem, prev: PlanSolution) -> PlanSolution:
    """prev's choice plus its best single additions, as a fallback plan."""
    from .planner import _objective, _solution

    v = problem.values()
    m = v.shape[1]
    chosen = list(prev.chosen_spots)
    while len(chosen) < problem.num_surfaces:
        best_val = -math.inf
        best_c = None
        for c in range(m):
            if c in chosen:
                continue
            val, _ = _objective(v, tuple(chosen + [c]))
            if val > best_val:
                best_val = val
                best_c = c
        chosen.append(best_c)
    return _solution(v, chosen, "heuristic", {"method": "warm_extension"})


def spots_rows(cfg: ScenarioConfig, scene, spots) -> dict:
    """Candidate-spot listing for the spots subcommand."""
    return {
        "meta": header_meta(cfg),
        "num_ues": scene.num_ues,
        "rows": [_spot_entry(s) for s in spots],
    }
