"""Surface placement and UE association on a precomputed metric matrix.

The planning problem: choose J candidate spots and associate every UE with
one chosen spot to maximize the mean per-UE metric.  For a fixed choice of
spots the optimal association is the per-UE argmax, so the search happens
over spot subsets only.  This is the p-median problem, and exact
branch-and-bound bounds it two ways: the set function is monotone
submodular (partial value plus the top remaining single-spot marginal
gains, which also makes greedy a strong warm start), and one Lagrangian
relaxation at the root bounds every J-subset by per-user multipliers plus
per-spot terms.

Every solver scores a spot subset with the one function _value,
float(V[:, cols].max(axis=1).mean()), so their optima agree bit-for-bit
with brute-force enumeration; _pad fills a short subset up to J and
_solution builds the returned plan and its assignment once.  The coverage
study's warm extension, _extend_plan, adds to the previous J's plan its
best single additions, for when a heuristic's plan at J covers fewer UEs.

The matrices come from build_metric_matrices, the one Monte Carlo path of
every study: deploy, coverage, the link sweep and stats.  Its unit of work
is one UE row; it sizes its own workers (worker_count) and maps the rows
over forked children, or in this process, with equal bytes either way.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkStats, leg_stats
from .geometry import CandidateSpot, Scene, los_clear_many
from .link import PowerBudget, fairness_index, rate_and_snr_db, snr_series
from .patterns import ApArrayPattern, ErpModel
from .seeds import STREAM_FADING

OBJECTIVES = ("mean_ergodic_rate", "coverage_count")

# Bounds get this much relative benefit of the doubt before a node is
# pruned, so float noise can only cost extra exploration, never the optimum;
# swaps must improve by the same margin to be accepted.
_BOUND_SLACK = 1e-12


def _slack(x: float) -> float:
    return _BOUND_SLACK * (1.0 + abs(x))


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


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Per-(UE, spot) link metrics for one surface configuration."""

    rates: np.ndarray       # (U, M) ergodic rates, bps/Hz
    avg_snr_db: np.ndarray  # (U, M) average SNR, dB
    mode: str
    n_elements: int
    n_mc: int


@dataclass(frozen=True)
class PlanProblem:
    """Choose num_surfaces spots from a metric matrix.  The values are
    checked by ScenarioConfig and, for num_surfaces <= spots, the runners."""

    matrix: MetricMatrix
    num_surfaces: int
    objective: str = "mean_ergodic_rate"
    threshold_db: float | None = None

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


def _value(v: np.ndarray, cols) -> float:
    """The canonical objective of a spot subset: every user's best chosen
    value, averaged.  Row maxima are exact, so the order of cols does not
    change a bit of it."""
    return float(v[:, cols].max(axis=1).mean())


def _pad(chosen, m: int, j: int) -> list[int]:
    """chosen topped up to j spots with the lowest unchosen of m ids."""
    chosen = list(chosen)
    return chosen + [c for c in range(m) if c not in chosen][: j - len(chosen)]


def _solution(v, cols, optimality: str, stats: dict) -> PlanSolution:
    """The plan of a spot subset: every UE on its best chosen spot, ties to
    the lowest id (argmax over id-sorted columns)."""
    cols = sorted(int(c) for c in cols)
    return PlanSolution(
        chosen_spots=tuple(cols),
        assignment=tuple(cols[i] for i in np.argmax(v[:, cols], axis=1).tolist()),
        objective_value=_value(v, cols),
        optimality=optimality,
        solve_stats=stats,
    )


def _greedy(cand, means, v, value: float, k: int) -> tuple[list[int], float]:
    """Up to k greedy forward picks among the columns of v, and their value.

    cand[:, c] is the per-user coverage with column c added to the current
    selection, means its column means and value the mean coverage now.
    Ties go to the lowest id; picking stops once no column adds anything.
    """
    picks: list[int] = []
    for step in range(k):
        pick = int(np.argmax(means))
        if float(means[pick]) - value <= 0.0:
            break
        value = float(means[pick])
        picks.append(pick)
        if step + 1 < k:
            cand = np.maximum(cand[:, pick][:, None], v)
            means = cand.mean(axis=0)
    return picks, value


def solve_greedy_swap(problem: PlanProblem) -> PlanSolution:
    """Greedy forward selection followed by best-improvement single swaps.

    Deterministic (ties to the lowest id); always labeled heuristic even
    when it happens to hit the optimum.
    """
    v = problem.values()
    m = v.shape[1]
    j = problem.num_surfaces
    picks, _ = _greedy(v, v.mean(axis=0), v, 0.0, j)  # c added to nothing covers v[:, c]
    chosen = _pad(picks, m, j)
    best_val = _value(v, chosen)
    swaps = 0
    while True:
        best_move = None
        for out in sorted(chosen):
            rest = [c for c in chosen if c != out]
            for inc in range(m):
                if inc not in chosen:
                    val = _value(v, rest + [inc])
                    if val > best_val + _slack(best_val):
                        best_val, best_move = val, (out, inc)
        if best_move is None:
            return _solution(v, chosen, "heuristic", {"method": "greedy_swap", "swaps": swaps})
        out, inc = best_move
        chosen = [c for c in chosen if c != out] + [inc]
        swaps += 1


def _column_terms(w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """s_c = sum_u max(0, w_uc - lam_u) of every column c of w.

    For every lam, negative entries included, a column subset S has
    sum_u max_{c in S} w_uc <= lam.sum() + s[S].sum(): a user's best chosen
    value exceeds lam_u by at most the sum of its chosen excesses.  With
    w = v / U the left side is the objective, so this is the Lagrangian
    relaxation of the p-median problem (Cornuejols, Fisher & Nemhauser,
    Management Science 1977).
    """
    return np.maximum(w - lam[:, None], 0.0).sum(axis=0)


# Polyak subgradient steps for the root multipliers: at most _ROOT_STEPS,
# halving the step scale after _ROOT_STALL steps without a lower bound.
_ROOT_STEPS = 300
_ROOT_STALL = 20


def _root_multipliers(w: np.ndarray, j: int, target: float) -> np.ndarray:
    """Multipliers lam whose bound lam.sum() + (top j of s) on any j columns
    of w is low: the best lam seen over Polyak subgradient steps (Held,
    Wolfe & Crowder, Math. Prog. 1974) that aim at target, a plan's value.

    Starts at half the row maxima; stops when the bound is within 1e-14
    of target, when the subgradient vanishes or after _ROOT_STEPS steps.
    """
    lam = w.max(axis=1) / 2.0
    best, best_bound = lam, math.inf
    scale, stall = 2.0, 0
    for _ in range(_ROOT_STEPS):
        s = _column_terms(w, lam)
        top = np.argpartition(s, s.size - j)[s.size - j :]
        bound = float(lam.sum() + s[top].sum())
        if bound < best_bound:
            best, best_bound, stall = lam, bound, 0
        else:
            stall += 1
            if stall == _ROOT_STALL:
                scale, stall = scale / 2.0, 0
        gap = bound - target
        if gap <= 1e-14 * (1.0 + abs(target)):
            break
        # Subgradient: 1 minus the number of top-j columns above lam_u.
        g = 1.0 - (w[:, top] > lam[:, None]).sum(axis=1)
        norm2 = float(g @ g)
        if norm2 == 0.0:
            break
        lam = lam - (scale * gap / norm2) * g
    return best


class _TopSum:
    """The sum of the k largest values added so far (a min-heap of them)."""

    def __init__(self, k: int):
        self.k, self.heap, self.total = k, [], 0.0

    def add(self, x: float):
        if len(self.heap) < self.k:
            heapq.heappush(self.heap, x)
            self.total += x
        elif x > self.heap[0]:
            self.total += x - heapq.heappushpop(self.heap, x)


def solve_bnb(problem: PlanProblem, node_budget: int = 2_000_000) -> PlanSolution:
    """Best-first branch-and-bound over spot subsets.

    A partial selection is bounded by the tighter of two admissible upper
    bounds, which also order the search: its value plus the sum of the
    largest remaining single-spot marginal gains (submodularity), and the
    value of covering every user with the best remaining spot ("union"
    bound); stored bounds are re-tightened against the node's own
    coverage when popped.  A child is not pushed either when the root
    Lagrangian bound of the p-median problem rules it out: multipliers
    lam, found once by subgradient steps for J >= 2, bound every J-subset
    by sum(lam) plus its columns' terms (_column_terms).  Greedy
    completions of every expanded node are incumbent candidates.
    Elementwise-dominated spots are dropped up front (some optimum avoids
    them), the search stops once the incumbent serves every user as well
    as the best spot overall could, and spots are scanned in descending
    single-spot value from the greedy+swap incumbent.  If the node budget
    runs out the incumbent is returned labeled heuristic together with a
    still-valid upper bound.  ScenarioConfig keeps node_budget >= 1.
    """
    v = problem.values()
    u, m = v.shape
    j = problem.num_surfaces
    warm = solve_greedy_swap(problem)
    inc_cols = warm.chosen_spots
    inc_val = warm.objective_value
    nodes = 0

    def finished(optimality: str, upper: float) -> PlanSolution:
        stats = {"method": "bnb", "nodes": nodes, "upper_bound": float(upper)}
        return _solution(v, inc_cols, optimality, stats)

    # No selection beats serving every user with its overall best spot;
    # per-user max is exact and the mean is monotone, so testing the
    # incumbent against this cap is sound in float arithmetic.  For J = M
    # greedy+swap returns every spot, which meets the cap here.
    global_ub = _value(v, range(m))
    if inc_val >= global_ub:
        return finished("proven_optimal", inc_val)

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

    # One root Lagrangian bound prunes children at push: every J-subset S
    # of the columns has value <= lam_sum + s[S].sum().  At J = 1 every
    # child is a leaf, and lam = the row maxima (s = 0) is merely valid.
    w = vo / u
    lam = _root_multipliers(w, j, inc_val) if j >= 2 else w.max(axis=1)
    lam_sum, s = float(lam.sum()), _column_terms(w, lam)

    # Heap entries: (-bound, seq, chosen ordered-index tuple, next index).
    seq = itertools.count()
    heap: list[tuple[float, int, tuple[int, ...], int]] = []
    heapq.heappush(heap, (-math.inf, next(seq), (), 0))
    while heap:
        if inc_val >= global_ub:
            return finished("proven_optimal", inc_val)
        neg_bound, _, sel, nxt = heapq.heappop(heap)
        bound = -neg_bound
        if bound + _slack(bound) <= inc_val:
            continue  # bound went stale after an incumbent update
        if nodes >= node_budget:
            return finished("heuristic", max([inc_val, bound, *(-b for b, *_ in heap)]))
        nodes += 1
        k_rem = j - len(sel) - 1  # picks left after taking one more spot
        cur_max = vo[:, sel].max(axis=1) if sel else np.zeros(u)
        last = m - k_rem  # children need k_rem further columns after them
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
                if p + _slack(p) <= inc_val:
                    break
                cols = [int(order[c]) for c in (*sel, nxt + int(off))]
                val = _value(v, cols)
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
        if tight + _slack(tight) <= inc_val:
            continue
        # Greedy completion: an incumbent candidate.
        g_cols, g_val = _greedy(mx, partial, block, base, k_all)
        if g_val > inc_val:
            # zero-gain filler keeps the size exact
            taken = _pad((*sel, *(nxt + c for c in g_cols)), m, j)
            cols = [int(order[c]) for c in taken]
            val = _value(v, cols)
            if val > inc_val:
                inc_val = val
                inc_cols = cols
        # Per-child "union" bound: every user served by the best column at
        # or past the child, capped at last-1 since children need k_rem
        # further columns after them.
        width = last - nxt
        sfx = np.maximum.accumulate(block[:, ::-1], axis=1)[:, ::-1]
        union = np.maximum(mx[:, :width], sfx[:, 1 : width + 1]).mean(axis=0)
        # The best k_rem marginal gains and Lagrangian column terms past
        # the child; columns last..m-1 cannot start a child but do complete
        # one.
        top_gain, top_lag = _TopSum(k_rem), _TopSum(k_rem)
        for c in range(m - 1, last - 1, -1):
            top_gain.add(float(gains[c - nxt]))
            top_lag.add(float(s[c]))
        lag_sel = lam_sum + float(s[list(sel)].sum())
        for off in range(width - 1, -1, -1):
            child = nxt + off
            child_bound = min(float(partial[off]) + top_gain.total, float(union[off]))
            lag = lag_sel + float(s[child]) + top_lag.total
            if child_bound + _slack(child_bound) > inc_val and lag + _slack(lag) > inc_val:
                heapq.heappush(
                    heap, (-child_bound, next(seq), (*sel, child), child + 1)
                )
            if off > 0:
                top_gain.add(float(gains[off]))
                top_lag.add(float(s[child]))
    return finished("proven_optimal", inc_val)


# solve_exact enumerates up to this many spot subsets, and runs
# branch-and-bound beyond.
COMBINATION_LIMIT = 200_000


def solve_exact(problem: PlanProblem, node_budget: int = 2_000_000) -> PlanSolution:
    """Provably optimal spot subset.

    Plain enumeration while C(M, J) stays within COMBINATION_LIMIT,
    branch-and-bound beyond that (which can return a labeled heuristic if
    its node budget is hit).
    """
    v = problem.values()
    m = v.shape[1]
    j = problem.num_surfaces
    if math.comb(m, j) > COMBINATION_LIMIT:
        return solve_bnb(problem, node_budget=node_budget)
    # max keeps the first of equal values: ties go to the lexicographically
    # first subset
    best = max(itertools.combinations(range(m), j), key=lambda cols: _value(v, cols))
    stats = {"method": "enumeration", "nodes": math.comb(m, j)}
    return _solution(v, best, "proven_optimal", stats)


def _extend_plan(problem: PlanProblem, prev: PlanSolution) -> PlanSolution:
    """prev's choice plus its best single additions, as a fallback plan.

    Coverage values are 0/1, so the column-wise means that pick each
    addition equal the canonical objective exactly.
    """
    v = problem.values()
    j = problem.num_surfaces
    chosen = list(prev.chosen_spots)
    cur = v[:, chosen].max(axis=1)
    cand = np.maximum(cur[:, None], v)
    added, _ = _greedy(cand, cand.mean(axis=0), v, float(cur.mean()), j - len(chosen))
    chosen = _pad(chosen + added, v.shape[1], j)
    return _solution(v, chosen, "heuristic", {"method": "warm_extension"})


@dataclass(frozen=True)
class PlanReport:
    """Post-hoc quality figures of a deployment plan."""

    mean_rate: float
    fairness: float
    coverage: dict


def evaluate_plan(
    solution: PlanSolution,
    matrix: MetricMatrix,
    thresholds_db: tuple[float, ...] = (20.0, 30.0),
) -> PlanReport:
    """Rates, fairness and coverage of a plan on a metric matrix.

    Rejects infeasible plans (empty choice, wrong assignment length, or a
    UE assigned to an unchosen spot).
    """
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
        coverage=coverage,
    )


def link_stats_grid(
    scene: Scene,
    spots: list[CandidateSpot],
    ap_pattern: ApArrayPattern,
    erp: ErpModel,
    f_c_ghz: float,
) -> StatsGrid:
    """Fading statistics of every AP-UE, AP-spot and spot-UE leg.

    LoS is taken from the scene geometry; the direct and incident legs are
    shared across pairs, so they are computed once per UE / per spot.
    """
    ap = scene.ap_position
    pos = np.reshape([s.position for s in spots], (-1, 3))
    direct_los = los_clear_many(ap, np.reshape(scene.ues, (-1, 3)), scene).tolist()
    direct = tuple(
        leg_stats("ap_ue", ap, ue, f_c_ghz, los, ap_pattern=ap_pattern)
        for ue, los in zip(scene.ues, direct_los)
    )
    ap_irs = tuple(
        leg_stats(
            "ap_irs",
            ap,
            s.position,
            f_c_ghz,
            los,
            ap_pattern=ap_pattern,
            erp=erp,
            normal=s.facet_normal,
        )
        for s, los in zip(spots, los_clear_many(ap, pos, scene).tolist())
    )
    # One LoS call per UE row: a single (UE, spot, box) call would hold
    # several MiB of temporaries on the wide scenes.
    irs_ue = tuple(
        tuple(
            leg_stats("irs_ue", ue, s.position, f_c_ghz, los, erp=erp, normal=s.facet_normal)
            for s, los in zip(spots, los_clear_many(pos, ue, scene).tolist())
        )
        for ue in scene.ues
    )
    return StatsGrid(direct=direct, ap_irs=ap_irs, irs_ue=irs_ue)


def build_metric_matrices(
    grid: StatsGrid,
    budget: PowerBudget,
    *,
    n_elements: int,
    n_mc: int,
    master_seed: int,
    modes: tuple[str, ...] = ("active", "passive"),
    origin: tuple[int, int] = (0, 0),
) -> dict[str, MetricMatrix]:
    """Monte Carlo metric matrices, one per requested surface mode.

    Entry [u, m] draws from the substream of the global (UE, spot) pair
    origin + (u, m), so a grid cut out of a larger one gives its entries.
    Both modes reuse the same fading draws per pair, and the per-element
    draws do not depend on n_elements, so matrices across modes and element
    counts are paired experiments.  Each UE row is one task, mapped over
    worker_count forked children (serial below two); the matrices are
    bit-identical for every worker count.
    """
    row = functools.partial(
        _metric_rows, grid.ap_irs, origin[1], budget, n_elements, n_mc, master_seed, modes
    )
    ues = range(origin[0], origin[0] + grid.num_ues)
    workers = worker_count(grid.num_ues, len(grid.ap_irs), n_mc, pool_cores())
    rows = _fork_map(row, list(zip(ues, grid.direct, grid.irs_ue)), workers)
    return {
        mode: MetricMatrix(
            rates=np.array([r[mode][0] for r in rows]),
            avg_snr_db=np.array([r[mode][1] for r in rows]),
            mode=mode,
            n_elements=n_elements,
            n_mc=n_mc,
        )
        for mode in modes
    }


def _metric_rows(
    ap_irs: tuple[LinkStats, ...],
    first_spot: int,
    budget: PowerBudget,
    n_elements: int,
    n_mc: int,
    master_seed: int,
    modes: tuple[str, ...],
    ue: int,
    direct: LinkStats,
    irs_ue: tuple[LinkStats, ...],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(rates, avg SNR dB) rows per mode of global UE ``ue`` against the
    global spots first_spot, first_spot + 1, ...; the global (UE, spot)
    pair keys the fading substream, here and nowhere else."""
    out = {mode: (np.empty(len(ap_irs)), np.empty(len(ap_irs))) for mode in modes}
    for mi, (leg_ai, leg_iu) in enumerate(zip(ap_irs, irs_ue)):
        series = snr_series(
            direct,
            leg_ai,
            leg_iu,
            n_elements,
            budget,
            n_mc=n_mc,
            seed_path=(master_seed, STREAM_FADING, ue, first_spot + mi),
            modes=modes,
        )
        for mode, gamma in series.items():
            out[mode][0][mi], out[mode][1][mi] = rate_and_snr_db(gamma)
    return out


def pool_cores() -> int:
    """Cores the MC workers may use: the process's CPU affinity set on
    Linux.  Elsewhere fork is unsafe or missing, so runs stay serial."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# Builds with fewer (UE, spot, MC draw) triples than this stay serial.  The
# forks of one matrix build cost about 4 ms on a 2-core VM; whether a lower
# threshold pays is unmeasured.
POOL_MIN_WORK = 8192


def worker_count(num_ues: int, num_spots: int, n_mc: int, cores: int) -> int:
    """Workers of one matrix build: every usable core, capped at the UE rows
    (one task each), and 1 (serial) for builds too small to pay for forks."""
    if num_ues * num_spots * n_mc < POOL_MIN_WORK:
        return 1
    return max(1, min(cores, num_ues))


def _fork_map(fn, items: list, workers: int) -> list:
    """[fn(*args) for args in items], over ``workers`` children forked for
    this call, or in this process below two workers.

    Child w computes items w, w + workers, ... and sends its results back
    pickled through a pipe; the parent puts them back in input order.  Rows
    of one matrix cost the same, so the stripes balance.  No pool machinery
    is imported (concurrent.futures and multiprocessing take about 12 ms
    to import on a 2-core VM) and no child outlives the call.  Fork, not
    spawn: a spawned worker would start a new interpreter and re-import
    numpy and irsplan (about 0.3 s each on a 2-core VM), and the run has
    started no threads of its own when it forks.  An exception raised in a
    child is raised again here; a child that dies without sending its
    results surfaces as a ChildProcessError, an OSError like any other
    failure of the machine.
    """
    if workers < 2:
        return [fn(*args) for args in items]
    n = min(workers, len(items))
    children, data, statuses = [], [], []
    try:
        for w in range(n):
            children.append(_fork_child(fn, items[w::n]))
        data = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            if len(data) < len(children):  # stopped by an error: kill the rest
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    results = [None] * len(items)
    for w, (status, raw) in enumerate(zip(statuses, data)):
        if status or not raw:
            raise ChildProcessError(f"a worker process died (wait status {status})")
        ok, payload = pickle.loads(raw)
        if not ok:
            raise payload
        results[w::n] = payload
    return results


def _fork_child(fn, items: list):
    """Fork a child that maps ``fn`` over ``items`` and pickles the outcome,
    (True, results) or (False, exception), into a pipe: (pid, read end)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:  # the child: never returns, and runs none of the parent's exit code
        os.close(read_fd)
        try:
            outcome = (True, [fn(*args) for args in items])
        except Exception as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)
