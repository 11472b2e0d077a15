"""Surface placement and UE association on a precomputed metric matrix.

The planning problem: choose J candidate spots and associate every UE with
one chosen spot to maximize the mean per-UE metric.  For a fixed choice of
spots the optimal association is the per-UE argmax, so the search happens
over spot subsets only; the set function is monotone submodular, which
yields an admissible bound (partial value plus the top remaining
single-spot marginal gains) for exact branch-and-bound and makes greedy a
strong warm start.

All solvers score a subset with the identical expression
float(V[:, cols].max(axis=1).mean()), so their optima agree bit-for-bit
with brute-force enumeration.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkStats, link_stats
from .geometry import CandidateSpot, LinkGeometry, Scene, link_geometry, los_clear
from .link import PowerBudget, snr_series
from .patterns import ApArrayPattern, ErpModel
from .seeds import STREAM_DIRECT, STREAM_FADING

OBJECTIVES = ("mean_ergodic_rate", "coverage_count")

# Bounds get this much relative benefit of the doubt before a node is
# pruned, so float noise can only cost extra exploration, never the optimum;
# swaps must improve by the same margin to be accepted.
_BOUND_SLACK = 1e-12
_SWAP_SLACK = 1e-12


@dataclass(frozen=True)
class StatsGrid:
    """Per-link fading statistics of a whole scenario.

    direct[u] is the AP-UE leg, ap_irs[m] the AP-spot leg and irs_ue[u][m]
    the spot-UE leg; the matrix builder combines them per (u, m) pair.
    """

    direct: tuple[LinkStats, ...]
    ap_irs: tuple[LinkStats, ...]
    irs_ue: tuple[tuple[LinkStats, ...], ...]

    @property
    def num_ues(self) -> int:
        return len(self.direct)

    @property
    def num_spots(self) -> int:
        return len(self.ap_irs)


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Per-(UE, spot) link metrics for one surface configuration."""

    rates: np.ndarray       # (U, M) ergodic rates, bps/Hz
    avg_snr_db: np.ndarray  # (U, M) average SNR, dB
    mode: str
    n_elements: int
    n_mc: int
    master_seed: int

    @property
    def num_ues(self) -> int:
        return int(self.rates.shape[0])

    @property
    def num_spots(self) -> int:
        return int(self.rates.shape[1])


@dataclass(frozen=True)
class PlanProblem:
    """Choose num_surfaces spots from a metric matrix."""

    matrix: MetricMatrix
    num_surfaces: int
    objective: str = "mean_ergodic_rate"
    threshold_db: float | None = None

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if not (1 <= self.num_surfaces <= self.matrix.num_spots):
            raise ValueError("num_surfaces must lie in [1, number of spots]")
        if self.objective == "coverage_count" and self.threshold_db is None:
            raise ValueError("coverage_count needs threshold_db")

    def values(self) -> np.ndarray:
        """The (U, M) value matrix the objective averages over."""
        if self.objective == "mean_ergodic_rate":
            v = np.asarray(self.matrix.rates, dtype=float)
        else:
            v = (self.matrix.avg_snr_db >= self.threshold_db).astype(float)
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("metric values must be finite and >= 0")
        return v


@dataclass(frozen=True)
class PlanSolution:
    chosen_spots: tuple[int, ...]
    assignment: tuple[int, ...]      # per-UE chosen spot id
    objective_value: float
    optimality: str                  # "proven_optimal" | "heuristic"
    solve_stats: dict = field(default_factory=dict)


def _objective(v: np.ndarray, cols: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    """Canonical objective and per-UE assignment of a spot subset.

    Ties go to the lowest spot id (argmax over id-sorted columns).
    """
    cols = tuple(sorted(cols))
    sub = v[:, cols]
    idx = np.argmax(sub, axis=1)
    value = float(sub.max(axis=1).mean())
    assignment = tuple(int(cols[i]) for i in idx)
    return value, assignment


def _solution(v, cols, optimality, stats) -> PlanSolution:
    value, assignment = _objective(v, tuple(cols))
    return PlanSolution(
        chosen_spots=tuple(sorted(int(c) for c in cols)),
        assignment=assignment,
        objective_value=value,
        optimality=optimality,
        solve_stats=stats,
    )


def solve_greedy_swap(problem: PlanProblem) -> PlanSolution:
    """Greedy forward selection followed by best-improvement single swaps.

    Deterministic (ties to the lowest id); always labeled heuristic even
    when it happens to hit the optimum.
    """
    v = problem.values()
    u, m = v.shape
    j = problem.num_surfaces
    chosen: list[int] = []
    cur_max = np.zeros(u)
    for _ in range(j):
        partial = np.maximum(cur_max[:, None], v).mean(axis=0)
        partial[chosen] = -np.inf
        pick = int(np.argmax(partial))
        chosen.append(pick)
        cur_max = np.maximum(cur_max, v[:, pick])
    best_val, _ = _objective(v, tuple(chosen))
    swaps = 0
    improved = True
    while improved:
        improved = False
        best_move = None
        for out in sorted(chosen):
            rest = [c for c in chosen if c != out]
            for inc in range(m):
                if inc in chosen:
                    continue
                val, _ = _objective(v, tuple(rest + [inc]))
                if val > best_val + _SWAP_SLACK * (1.0 + abs(best_val)):
                    best_val = val
                    best_move = (out, inc)
        if best_move is not None:
            out, inc = best_move
            chosen = [c for c in chosen if c != out] + [inc]
            swaps += 1
            improved = True
    return _solution(
        v, chosen, "heuristic", {"method": "greedy_swap", "swaps": swaps}
    )


def solve_bnb(problem: PlanProblem, node_budget: int = 2_000_000) -> PlanSolution:
    """Best-first branch-and-bound over spot subsets.

    A partial selection is bounded by the tightest of three admissible
    upper bounds: its value plus the sum of the largest remaining
    single-spot marginal gains (submodularity), its value plus the greedy
    completion gain scaled by the 1 - (1 - 1/k)^k guarantee, and the value
    of covering every user with the best remaining spot ("union" bound).
    Greedy completions double as incumbent candidates, and stored bounds
    are re-tightened against the node's own coverage when popped.
    Elementwise-dominated spots are dropped up front (some optimum avoids
    them), the search stops once the incumbent serves every user as well
    as the best spot overall could, and spots are scanned in descending
    single-spot value from the greedy+swap incumbent.  If the node budget
    runs out the incumbent is returned labeled heuristic together with a
    still-valid upper bound.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    v = problem.values()
    u, m = v.shape
    j = problem.num_surfaces
    if j == m:
        return _solution(v, range(m), "proven_optimal", {"method": "bnb", "nodes": 0})

    warm = solve_greedy_swap(problem)
    inc_cols = warm.chosen_spots
    inc_val = warm.objective_value

    def finished(nodes: int) -> PlanSolution:
        return _solution(
            v,
            inc_cols,
            "proven_optimal",
            {"method": "bnb", "nodes": nodes, "upper_bound": float(inc_val)},
        )

    # No selection beats serving every user with its overall best spot;
    # per-user max is exact and the mean is monotone, so testing the
    # incumbent against this cap is sound in float arithmetic.
    global_ub = float(v.max(axis=1).mean())
    if inc_val >= global_ub:
        return finished(0)

    # Drop spots elementwise-dominated by another (ties keep the lowest
    # id): swapping a dominated spot for its dominator never lowers any
    # user's value, so some optimal selection avoids them entirely.
    ge = (v[:, :, None] >= v[:, None, :]).all(axis=0)
    eq = ge & ge.T
    lower = np.arange(m)[:, None] < np.arange(m)[None, :]
    dominated = (ge & ~eq).any(axis=0) | (eq & lower).any(axis=0)
    keep = np.flatnonzero(~dominated)
    if keep.size < j:
        keep = np.arange(m)  # degenerate: too few survivors to fill a plan

    order = keep[np.argsort(-v[:, keep].mean(axis=0), kind="stable")]
    vo = v[:, order]
    m = order.size

    def slack(x: float) -> float:
        return _BOUND_SLACK * (1.0 + abs(x))

    # Heap entries: (-bound, seq, chosen ordered-index tuple, next index).
    seq = itertools.count()
    heap: list[tuple[float, int, tuple[int, ...], int]] = []
    heapq.heappush(heap, (-math.inf, next(seq), (), 0))
    nodes = 0
    exhausted = False
    while heap:
        if inc_val >= global_ub:
            return finished(nodes)
        neg_bound, _, sel, nxt = heapq.heappop(heap)
        bound = -neg_bound
        if bound + slack(bound) <= inc_val:
            continue  # bound went stale after an incumbent update
        if nodes >= node_budget:
            exhausted = True
            heapq.heappush(heap, (neg_bound, next(seq), sel, nxt))
            break
        nodes += 1
        k_rem = j - len(sel) - 1  # picks left after taking one more spot
        cur_max = vo[:, sel].max(axis=1) if sel else np.zeros(u)
        last = m - k_rem  # children need k_rem further columns after them
        if last <= nxt:
            continue
        block = vo[:, nxt:]
        # Coverage after adding any single remaining column, reused by
        # every bound below.
        mx = np.maximum(cur_max[:, None], block)
        partial = mx.mean(axis=0)
        if k_rem == 0:
            # Children are leaves; score survivors with the canonical
            # objective, best bound first.
            for off in np.argsort(-partial, kind="stable"):
                p = float(partial[off])
                if p + slack(p) <= inc_val:
                    break
                cols = tuple(int(order[c]) for c in (*sel, nxt + int(off)))
                val, _ = _objective(v, cols)
                if val > inc_val:
                    inc_val = val
                    inc_cols = cols
            continue
        base = float(cur_max.mean())
        gains = partial - base  # single-column marginal gains, all >= 0
        k_all = k_rem + 1  # picks left including the child's own column
        # Stored bounds were computed against the parent's coverage;
        # re-tighten against this node's own before expanding.
        kth = gains.size - k_all
        top = gains if kth <= 0 else np.partition(gains, kth)[kth:]
        tight = base + float(top.sum())
        if tight + slack(tight) <= inc_val:
            continue
        # Greedy completion: an incumbent candidate, and an upper bound via
        # the 1 - (1 - 1/k)^k approximation guarantee for greedy maximum
        # coverage.
        g_val = base
        g_cols: list[int] = []
        cand = mx
        for step in range(k_all):
            means = cand.mean(axis=0) if step else partial
            pick = int(np.argmax(means))
            if float(means[pick]) - g_val <= 0.0:
                break  # no single column helps, so no completion does
            g_val = float(means[pick])
            g_cols.append(pick)
            if step + 1 < k_all:
                cand = np.maximum(cand[:, pick][:, None], block)
        if g_val > inc_val:
            taken = set(sel) | {nxt + c for c in g_cols}
            pad = (c for c in range(m) if c not in taken)
            while len(taken) < j:  # zero-gain filler keeps the size exact
                taken.add(next(pad))
            cols = tuple(int(order[c]) for c in taken)
            val, _ = _objective(v, cols)
            if val > inc_val:
                inc_val = val
                inc_cols = cols
        factor = 1.0 - (1.0 - 1.0 / k_all) ** k_all
        nem = base + (g_val - base) / factor
        if nem + slack(nem) <= inc_val:
            continue
        # Per-child "union" bound: every user served by the best column at
        # or past the child, capped at last-1 since children need k_rem
        # further columns after them.
        width = last - nxt
        sfx = np.maximum.accumulate(block[:, ::-1], axis=1)[:, ::-1]
        union = np.maximum(mx[:, :width], sfx[:, 1 : width + 1]).mean(axis=0)
        topk: list[float] = []  # min-heap of the best k_rem gains in the suffix
        top_sum = 0.0

        def absorb(g: float):
            nonlocal top_sum
            if len(topk) < k_rem:
                heapq.heappush(topk, g)
                top_sum += g
            elif g > topk[0]:
                top_sum += g - heapq.heappushpop(topk, g)

        # Columns last..m-1 cannot start a child but do complete one.
        for off in range(gains.size - 1, width - 1, -1):
            absorb(float(gains[off]))
        for off in range(width - 1, -1, -1):
            child_bound = min(float(partial[off]) + top_sum, float(union[off]))
            if child_bound + slack(child_bound) > inc_val:
                child = nxt + off
                heapq.heappush(
                    heap, (-child_bound, next(seq), (*sel, child), child + 1)
                )
            if off > 0:
                absorb(float(gains[off]))
    if exhausted:
        open_bounds = [-b for b, *_ in heap]
        upper = max([inc_val, *open_bounds]) if open_bounds else inc_val
        return _solution(
            v,
            inc_cols,
            "heuristic",
            {"method": "bnb", "nodes": nodes, "upper_bound": float(upper)},
        )
    return finished(nodes)


def solve_exact(
    problem: PlanProblem,
    combination_limit: int = 200_000,
    node_budget: int = 2_000_000,
) -> PlanSolution:
    """Provably optimal spot subset.

    Plain enumeration while C(M, J) stays small, branch-and-bound beyond
    that (which can return a labeled heuristic if its node budget is hit).
    """
    v = problem.values()
    m = problem.matrix.num_spots
    j = problem.num_surfaces
    if math.comb(m, j) > combination_limit:
        return solve_bnb(problem, node_budget=node_budget)
    best_val = -math.inf
    best: tuple[int, ...] = ()
    count = 0
    for cols in itertools.combinations(range(m), j):
        count += 1
        val = float(v[:, cols].max(axis=1).mean())
        if val > best_val:
            best_val = val
            best = cols
    return _solution(
        v, best, "proven_optimal", {"method": "enumeration", "nodes": count}
    )


@dataclass(frozen=True)
class PlanReport:
    """Post-hoc quality figures of a deployment plan."""

    mean_rate: float
    fairness: float
    per_ue_rate: tuple[float, ...]
    coverage: dict

    def as_dict(self) -> dict:
        return {
            "mean_rate": self.mean_rate,
            "fairness": self.fairness,
            "per_ue_rate": list(self.per_ue_rate),
            "coverage": {f"{t:g}": r for t, r in self.coverage.items()},
        }


def evaluate_plan(
    solution: PlanSolution,
    matrix: MetricMatrix,
    thresholds_db: tuple[float, ...] = (20.0, 30.0),
) -> PlanReport:
    """Rates, fairness and coverage of a plan on a metric matrix.

    Rejects infeasible plans (empty choice, wrong assignment length, or a
    UE assigned to an unchosen spot).
    """
    from .link import fairness_index

    u, m = matrix.rates.shape
    chosen = set(solution.chosen_spots)
    if not chosen:
        raise ValueError("plan chooses no spots")
    if any(not (0 <= c < m) for c in chosen):
        raise ValueError("chosen spot id out of range")
    if len(solution.assignment) != u:
        raise ValueError("assignment length must equal the number of UEs")
    if any(a not in chosen for a in solution.assignment):
        raise ValueError("assignment uses an unchosen spot")
    rows = np.arange(u)
    cols = np.asarray(solution.assignment, dtype=int)
    rates = matrix.rates[rows, cols]
    snr = matrix.avg_snr_db[rows, cols]
    coverage = {
        float(t): float(np.mean(snr >= t)) for t in thresholds_db
    }
    return PlanReport(
        mean_rate=float(rates.mean()),
        fairness=fairness_index(rates),
        per_ue_rate=tuple(float(r) for r in rates),
        coverage=coverage,
    )


def _row_blocks(n_rows: int, blocks: int) -> list[tuple[int, int]]:
    """``blocks`` contiguous [lo, hi) row ranges of near-equal size (fewer
    when there are fewer rows)."""
    n = max(1, min(n_rows, blocks))
    edges = [n_rows * i // n for i in range(n + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _map_blocks(pool, fn, arg_tuples: list[tuple]) -> list:
    """fn(*args) for each tuple, in order; in the pool's workers if given."""
    if pool is None:
        return [fn(*args) for args in arg_tuples]
    futures = [pool.submit(fn, *args) for args in arg_tuples]
    return [f.result() for f in futures]


def link_stats_grid(
    scene: Scene,
    spots: list[CandidateSpot],
    ap_pattern: ApArrayPattern,
    erp: ErpModel,
    f_c_ghz: float,
    *,
    pool=None,
    blocks: int = 1,
) -> StatsGrid:
    """Fading statistics of every AP-UE, AP-spot and spot-UE leg.

    LoS is taken from the scene geometry; the direct and incident legs are
    shared across pairs, so they are computed once per UE / per spot.  The
    spot-UE legs run in ``blocks`` contiguous blocks of UE rows, on ``pool``
    (a concurrent.futures executor) when one is given; the result does not
    depend on either.
    """
    ap = scene.ap_position
    tilt = scene.ap_tilt_deg
    direct = []
    for ue in scene.ues:
        geom = link_geometry(ap, ue, source_tilt_deg=tilt)
        direct.append(
            link_stats(
                "ap_ue",
                dist_3d=geom.dist_3d,
                dist_2d=geom.dist_2d,
                h_tx=ap[2],
                h_rx=ue[2],
                f_c_ghz=f_c_ghz,
                los=los_clear(ap, ue, scene),
                ap_pattern=ap_pattern,
                depression_deg=geom.depression_deg,
            )
        )
    ap_irs = []
    for s in spots:
        geom = link_geometry(
            ap, s.position, source_tilt_deg=tilt, target_normal=s.facet_normal
        )
        ap_irs.append(
            link_stats(
                "ap_irs",
                dist_3d=geom.dist_3d,
                dist_2d=geom.dist_2d,
                h_tx=ap[2],
                h_rx=s.position[2],
                f_c_ghz=f_c_ghz,
                los=los_clear(ap, s.position, scene),
                ap_pattern=ap_pattern,
                erp=erp,
                depression_deg=geom.depression_deg,
                arrival_polar_deg=geom.arrival_polar_deg,
            )
        )
    rows = _row_blocks(scene.num_ues, blocks)
    parts = _map_blocks(
        pool, _irs_ue_rows, [(scene, spots, erp, f_c_ghz, lo, hi) for lo, hi in rows]
    )
    irs_ue = tuple(row for part in parts for row in part)
    return StatsGrid(direct=tuple(direct), ap_irs=tuple(ap_irs), irs_ue=irs_ue)


def _irs_ue_rows(
    scene: Scene,
    spots: list[CandidateSpot],
    erp: ErpModel,
    f_c_ghz: float,
    lo: int,
    hi: int,
) -> list[tuple[LinkStats, ...]]:
    """Spot-UE legs of UEs lo..hi-1, one tuple over all spots per UE."""
    irs_ue = []
    for ue in scene.ues[lo:hi]:
        row = []
        for s in spots:
            geom = link_geometry(ue, s.position, target_normal=s.facet_normal)
            row.append(
                link_stats(
                    "irs_ue",
                    dist_3d=geom.dist_3d,
                    dist_2d=geom.dist_2d,
                    h_tx=s.position[2],
                    h_rx=ue[2],
                    f_c_ghz=f_c_ghz,
                    los=los_clear(s.position, ue, scene),
                    erp=erp,
                    arrival_polar_deg=geom.arrival_polar_deg,
                )
            )
        irs_ue.append(tuple(row))
    return irs_ue


def build_metric_matrices(
    grid: StatsGrid,
    budget: PowerBudget,
    *,
    n_elements: int,
    amp_power_max: float,
    amp_noise_psd: float,
    n_mc: int,
    master_seed: int,
    modes: tuple[str, ...] = ("active", "passive"),
    pool=None,
    blocks: int = 1,
) -> dict[str, MetricMatrix]:
    """Monte Carlo metric matrices, one per requested surface mode.

    Both modes reuse the same fading draws per (UE, spot) pair, and the
    per-element draws do not depend on n_elements, so matrices across modes
    and element counts are paired experiments.  Every pair draws from its
    own substream, so building ``blocks`` contiguous blocks of UE rows, on
    ``pool`` (a concurrent.futures executor) when one is given, gives
    bit-identical matrices.
    """
    parts = _map_blocks(
        pool,
        _metric_rows,
        [
            (
                StatsGrid(grid.direct[lo:hi], grid.ap_irs, grid.irs_ue[lo:hi]),
                lo,
                budget,
                n_elements,
                amp_power_max,
                amp_noise_psd,
                n_mc,
                master_seed,
                modes,
            )
            for lo, hi in _row_blocks(grid.num_ues, blocks)
        ],
    )
    return {
        mode: MetricMatrix(
            rates=np.concatenate([part[mode][0] for part in parts]),
            avg_snr_db=np.concatenate([part[mode][1] for part in parts]),
            mode=mode,
            n_elements=n_elements,
            n_mc=n_mc,
            master_seed=master_seed,
        )
        for mode in modes
    }


def _metric_rows(
    grid: StatsGrid,
    first: int,
    budget: PowerBudget,
    n_elements: int,
    amp_power_max: float,
    amp_noise_psd: float,
    n_mc: int,
    master_seed: int,
    modes: tuple[str, ...],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(rates, avg SNR dB) rows per mode of a grid whose UE rows start at
    global UE index ``first``, which keys the fading substreams."""
    u, m = grid.num_ues, grid.num_spots
    rates = {mode: np.empty((u, m)) for mode in modes}
    snr_db = {mode: np.empty((u, m)) for mode in modes}
    for i in range(u):
        ui = first + i
        for mi in range(m):
            series = snr_series(
                grid.direct[i],
                grid.ap_irs[mi],
                grid.irs_ue[i][mi],
                n_elements,
                budget,
                amp_power_max=amp_power_max,
                amp_noise_psd=amp_noise_psd,
                n_mc=n_mc,
                seed_path=(master_seed, STREAM_FADING, ui, mi),
                modes=modes,
            )
            for mode, gamma in series.items():
                rates[mode][i, mi] = np.mean(np.log2(1.0 + gamma))
                mean_gamma = float(np.mean(gamma))
                snr_db[mode][i, mi] = (
                    10.0 * math.log10(mean_gamma) if mean_gamma > 0 else -math.inf
                )
    return {mode: (rates[mode], snr_db[mode]) for mode in modes}


def direct_only_metrics(
    direct: tuple[LinkStats, ...],
    budget: PowerBudget,
    n_mc: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE (rate, avg SNR dB) with no surface deployed at all."""
    u = len(direct)
    rates = np.empty(u)
    snr_db = np.empty(u)
    for ui in range(u):
        series = snr_series(
            direct[ui],
            None,
            None,
            0,
            budget,
            n_mc=n_mc,
            seed_path=(master_seed, STREAM_DIRECT, ui),
            modes=("passive",),
        )
        gamma = series["passive"]
        rates[ui] = np.mean(np.log2(1.0 + gamma))
        mean_gamma = float(np.mean(gamma))
        snr_db[ui] = 10.0 * math.log10(mean_gamma) if mean_gamma > 0 else -math.inf
    return rates, snr_db
