"""Spot-selection solvers, plan evaluation, and metric-matrix assembly."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from irsplan.channel import LinkStats
from irsplan.link import PowerBudget, snr_series
from irsplan.planner import (
    MetricMatrix,
    PlanProblem,
    PlanSolution,
    StatsGrid,
    _column_terms,
    _root_multipliers,
    _slack,
    _value,
    build_metric_matrices,
    evaluate_plan,
    solve_bnb,
    solve_exact,
    solve_greedy_swap,
)
from irsplan.runners import _extend_plan, direct_only_metrics
from irsplan.seeds import STREAM_DIRECT

from oracles import IrsUnit, best_assignment_value, brute_force_plan, snr_optimal

BUDGET = PowerBudget(
    p_total=0.01,
    p_tx_max=0.005,
    bandwidth=200e3,
    noise_psd=10.0 ** (-17.4) * 1e-3,
)

# A 6x8 instance (one decimal digit per entry) where greedy+swap stalls in a
# local optimum: it returns 6.8 on spots (2, 5, 7) while the true optimum is
# 6.866... on (0, 3, 7).  Frozen to pin solver and budget-exhaustion behavior.
STALL_MATRIX = np.array(
    [
        [4.3, 3.6, 3.6, 6.2, 1.1, 7.3, 0.3, 0.4],
        [0.2, 5.4, 5.1, 6.1, 3.3, 2.3, 0.0, 4.6],
        [2.3, 3.5, 7.6, 0.0, 6.4, 0.5, 2.7, 7.6],
        [7.0, 0.9, 6.5, 0.2, 4.6, 1.8, 3.2, 1.2],
        [1.9, 5.9, 5.0, 0.8, 2.9, 4.8, 6.0, 8.1],
        [0.9, 0.6, 0.9, 2.9, 7.0, 5.3, 6.2, 6.2],
    ]
)


def mat(values, snr_db=None) -> MetricMatrix:
    v = np.asarray(values, dtype=float)
    if snr_db is None:
        with np.errstate(divide="ignore"):
            snr_db = 10.0 * np.log10(np.maximum(v, 1e-300))
    return MetricMatrix(
        rates=v,
        avg_snr_db=np.asarray(snr_db, dtype=float),
        mode="passive",
        n_elements=1,
        n_mc=1,
    )


def rate_problem(values, j) -> PlanProblem:
    return PlanProblem(matrix=mat(values), num_surfaces=j)


# --- solver agreement -------------------------------------------------------

def test_toy_matrix_all_solvers():
    v = [[1.0, 5.0, 2.0], [2.0, 1.0, 2.0]]
    for solve in (solve_exact, solve_bnb, solve_greedy_swap):
        sol = solve(rate_problem(v, 1))
        assert sol.chosen_spots == (1,)
        assert sol.assignment == (1, 1)
        assert sol.objective_value == 3.0
    assert solve_exact(rate_problem(v, 1)).optimality == "proven_optimal"
    assert solve_bnb(rate_problem(v, 1)).optimality == "proven_optimal"
    assert solve_greedy_swap(rate_problem(v, 1)).optimality == "heuristic"


def test_choosing_every_spot_serves_row_maxima():
    rng = np.random.default_rng(0)
    v = rng.uniform(0.0, 5.0, size=(7, 4))
    sol = solve_bnb(rate_problem(v, 4))
    assert sol.chosen_spots == (0, 1, 2, 3)
    assert sol.assignment == tuple(np.argmax(v, axis=1).tolist())
    assert sol.objective_value == float(v.max(axis=1).mean())
    assert sol.solve_stats["nodes"] == 0
    assert sol.solve_stats["upper_bound"] == sol.objective_value


def test_exact_and_bnb_match_enumeration_continuous():
    rng = np.random.default_rng(101)
    for _ in range(20):
        v = rng.uniform(0.0, 10.0, size=(12, 12))
        b_val, b_cols = brute_force_plan(v, 3)
        ex = solve_exact(rate_problem(v, 3))
        bb = solve_bnb(rate_problem(v, 3))
        gr = solve_greedy_swap(rate_problem(v, 3))
        assert ex.objective_value == b_val and ex.chosen_spots == b_cols
        assert bb.objective_value == b_val and bb.chosen_spots == b_cols
        assert bb.optimality == "proven_optimal"
        assert gr.objective_value <= b_val


def test_solvers_agree_on_binary_matrices():
    # 0/1 values (coverage-style) are riddled with ties; optima may differ
    # in the chosen columns but never in value
    rng = np.random.default_rng(7)
    for _ in range(15):
        v = (rng.uniform(size=(10, 9)) < 0.3).astype(float)
        j = int(rng.integers(1, 5))
        b_val, _ = brute_force_plan(v, j)
        ex = solve_exact(rate_problem(v, j))
        bb = solve_bnb(rate_problem(v, j))
        assert ex.objective_value == b_val
        assert bb.objective_value == b_val
        assert bb.optimality == "proven_optimal"
        check = float(v[:, bb.chosen_spots].max(axis=1).mean())
        assert bb.objective_value == check
        assert solve_greedy_swap(rate_problem(v, j)).objective_value <= b_val


def test_greedy_is_exact_on_identical_rows():
    v = np.tile([[3.0, 1.0, 4.0, 1.0, 5.0]], (6, 1))
    g = solve_greedy_swap(rate_problem(v, 2))
    e = solve_exact(rate_problem(v, 2))
    assert g.objective_value == e.objective_value == 5.0
    # every pair holding spot 4 ties; enumeration keeps the first in
    # lexicographic order
    assert e.chosen_spots == (0, 4) and e.solve_stats["nodes"] == 10


def test_greedy_quality_regression():
    # frozen quality figure over 100 random 50x15 instances: greedy+swap
    # loses 0.118% on average to enumeration and never more than 2%
    rng = np.random.default_rng(2024)
    gaps = []
    for _ in range(100):
        v = rng.uniform(0.0, 10.0, size=(50, 15))
        j = int(rng.integers(2, 5))
        g = solve_greedy_swap(rate_problem(v, j))
        b, _ = brute_force_plan(v, j)
        assert g.objective_value <= b + 1e-12
        gaps.append((b - g.objective_value) / b)
    assert_allclose(float(np.mean(gaps)), 0.0011761208076224983, rtol=1e-9)
    assert float(np.max(gaps)) < 0.02


def test_subset_search_equals_assignment_enumeration():
    # maximizing over (subset, per-UE assignment) jointly equals the
    # implemented decomposition: per-UE argmax within the chosen subset
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        j = int(rng.integers(1, min(3, m) + 1))
        v = rng.uniform(0.0, 4.0, size=(u, m))
        ex = solve_exact(rate_problem(v, j))
        assert_allclose(ex.objective_value, best_assignment_value(v, j), rtol=1e-12)


def test_objective_monotone_in_surface_count():
    rng = np.random.default_rng(23)
    v = rng.uniform(0.0, 10.0, size=(20, 8))
    vals = [solve_exact(rate_problem(v, j)).objective_value for j in range(1, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_scaling_by_power_of_two_is_exact():
    rng = np.random.default_rng(3)
    v = rng.uniform(0.0, 10.0, size=(15, 10))
    base = solve_exact(rate_problem(v, 3))
    scaled = solve_exact(rate_problem(v * 8.0, 3))
    assert scaled.chosen_spots == base.chosen_spots
    assert scaled.assignment == base.assignment
    assert scaled.objective_value == 8.0 * base.objective_value


# --- coverage objective -----------------------------------------------------

def test_coverage_objective_counts_covered_users():
    rng = np.random.default_rng(40)
    rates = rng.uniform(0.0, 10.0, size=(12, 6))
    snr = rng.uniform(10.0, 40.0, size=(12, 6))
    problem = PlanProblem(
        matrix=mat(rates, snr), num_surfaces=2,
        objective="coverage_count", threshold_db=25.0,
    )
    sol = solve_exact(problem)
    served = np.array([snr[u, sol.assignment[u]] >= 25.0 for u in range(12)])
    assert sol.objective_value == float(served.mean())
    b_val, _ = brute_force_plan((snr >= 25.0).astype(float), 2)
    assert sol.objective_value == b_val


# --- frozen stall instance --------------------------------------------------

def test_stall_matrix_greedy_and_exact():
    greedy = solve_greedy_swap(rate_problem(STALL_MATRIX, 3))
    assert greedy.chosen_spots == (2, 5, 7)
    assert greedy.objective_value == 6.800000000000001
    exact = solve_exact(rate_problem(STALL_MATRIX, 3))
    assert exact.chosen_spots == (0, 3, 7)
    assert exact.objective_value == 6.866666666666667


def test_stall_matrix_bnb_proves_optimality():
    sol = solve_bnb(rate_problem(STALL_MATRIX, 3))
    assert sol.chosen_spots == (0, 3, 7)
    assert sol.objective_value == 6.866666666666667
    assert sol.optimality == "proven_optimal"
    assert sol.solve_stats["nodes"] == 4
    assert sol.solve_stats["upper_bound"] == sol.objective_value


def test_stall_matrix_bnb_budget_exhaustion():
    # one node is not enough to escape the greedy incumbent; the result is
    # labeled heuristic and carries an upper bound that brackets the optimum
    b1 = solve_bnb(rate_problem(STALL_MATRIX, 3), node_budget=1)
    assert b1.optimality == "heuristic"
    assert b1.chosen_spots == (2, 5, 7)
    assert b1.objective_value == 6.800000000000001
    assert b1.solve_stats["upper_bound"] == 7.183333333333334
    assert b1.solve_stats["upper_bound"] >= 6.866666666666667

    b2 = solve_bnb(rate_problem(STALL_MATRIX, 3), node_budget=2)
    assert b2.optimality == "heuristic"
    assert b2.objective_value == 6.866666666666667
    assert b2.solve_stats["upper_bound"] >= b2.objective_value


def test_bnb_single_surface_is_cheap():
    rng = np.random.default_rng(8)
    v = rng.uniform(0.0, 10.0, size=(30, 12))
    sol = solve_bnb(rate_problem(v, 1))
    assert sol.optimality == "proven_optimal"
    assert sol.solve_stats["nodes"] <= 1
    b_val, b_cols = brute_force_plan(v, 1)
    assert sol.objective_value == b_val and sol.chosen_spots == b_cols


# --- the root Lagrangian bound of branch-and-bound --------------------------

def test_lagrangian_bound_holds_for_every_multiplier():
    # sum(lam) + s[S].sum() bounds the objective of every subset S, for
    # any lam: negative, zero, inside and above the value range
    rng = np.random.default_rng(23)
    for _ in range(30):
        u, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        v = rng.uniform(0.0, 5.0, size=(u, m))
        lam = rng.uniform(-3.0, 6.0, size=u) * (rng.uniform(size=u) < 0.8)
        s = _column_terms(v / u, lam)
        for j in range(1, m + 1):
            top_j = float(lam.sum() + np.sort(s)[m - j :].sum())
            for cols in itertools.combinations(range(m), j):
                val = _value(v, cols)
                own = float(lam.sum() + s[list(cols)].sum())
                assert val <= own + _slack(own)
                assert val <= top_j + _slack(top_j)


def test_root_multipliers_bound_the_optimum():
    rng = np.random.default_rng(29)
    for _ in range(20):
        v = rng.uniform(0.0, 10.0, size=(9, 8))
        j = int(rng.integers(2, 6))
        opt, _ = brute_force_plan(v, j)
        lam = _root_multipliers(v / 9, j, solve_greedy_swap(rate_problem(v, j)).objective_value)
        s = _column_terms(v / 9, lam)
        bound = float(lam.sum() + np.sort(s)[8 - j :].sum())
        assert opt <= bound + _slack(bound)


def _tied_matrix(rng, kind: str, u: int, m: int) -> np.ndarray:
    if kind == "binary":
        return (rng.uniform(size=(u, m)) < 0.35).astype(float)
    if kind == "tenths":
        return np.round(rng.uniform(0.0, 1.0, size=(u, m)), 1)
    if kind == "integers":
        return rng.integers(0, 4, size=(u, m)).astype(float)
    v = rng.uniform(0.0, 10.0, size=(u, m))
    v[:, rng.integers(0, m, size=m // 2)] = v[:, rng.integers(0, m, size=m // 2)]
    return v


@pytest.mark.parametrize("kind", ["binary", "tenths", "integers", "duplicated"])
def test_bnb_equals_enumeration_on_tied_values(kind):
    rng = np.random.default_rng(["binary", "tenths", "integers", "duplicated"].index(kind))
    for _ in range(25):
        u, m = int(rng.integers(2, 11)), int(rng.integers(2, 10))
        j = int(rng.integers(1, min(5, m) + 1))
        v = _tied_matrix(rng, kind, u, m)
        b_val, _ = brute_force_plan(v, j)
        sol = solve_bnb(rate_problem(v, j))
        assert sol.objective_value == b_val
        assert sol.optimality == "proven_optimal"
        assert len(sol.chosen_spots) == j
        assert _value(v, sol.chosen_spots) == b_val


def test_bnb_hard_instance_node_count():
    # 16 x 40 at J = 5 needed 2 822 nodes with the submodular bounds
    # alone; the root Lagrangian bound proves the same optimum (checked
    # against all 658 008 subsets) in 103
    v = np.random.default_rng(1).uniform(0.0, 10.0, size=(16, 40))
    sol = solve_bnb(rate_problem(v, 5))
    assert sol.chosen_spots == (16, 26, 28, 29, 33)
    assert sol.objective_value == 9.29169939669321
    assert sol.optimality == "proven_optimal"
    assert sol.solve_stats["nodes"] == 103


# --- coverage-only shortcuts of branch-and-bound ----------------------------

def test_bnb_stops_when_greedy_covers_every_coverable_user():
    # greedy takes spots 0 and 1 and so serves users 0, 1 and 3; no spot
    # serves user 2, so no plan can do better and no node is expanded
    v = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 1]], dtype=float)
    sol = solve_bnb(rate_problem(v, 2))
    assert sol.chosen_spots == (0, 1)
    assert sol.objective_value == 0.75
    assert sol.optimality == "proven_optimal"
    assert sol.solve_stats["nodes"] == 0


def test_bnb_drops_duplicated_spots():
    # spot 2 repeats spot 1 and spot 4 repeats spot 0; the dominance
    # pre-pass searches each pair once (4 nodes without it)
    v = np.array(
        [[0, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 0, 0],
         [1, 0, 0, 1, 1], [0, 0, 0, 1, 0], [1, 0, 0, 0, 1]],
        dtype=float,
    )
    sol = solve_bnb(rate_problem(v, 2))
    assert sol.objective_value == 0.5 == brute_force_plan(v, 2)[0]
    assert sol.optimality == "proven_optimal"
    assert sol.solve_stats["nodes"] == 3


# --- warm extension of coverage plans ---------------------------------------

# 9 users x 6 spots where greedy+swap covers 8 users with two spots (it
# swaps 0 -> 3, then 1 -> 4) but only 7 with three: its greedy start
# (0, 1, 2) is already a swap-local optimum.
COVERAGE_DROP = np.array(
    [
        [1, 0, 0, 1, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [1, 1, 0, 0, 1, 0],
        [1, 1, 0, 0, 1, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)


def coverage_problem(values, j) -> PlanProblem:
    v = np.asarray(values, dtype=float)
    return PlanProblem(
        matrix=mat(v, 40.0 * v), num_surfaces=j,
        objective="coverage_count", threshold_db=20.0,
    )


def test_warm_extension_recovers_a_coverage_drop():
    two = solve_greedy_swap(coverage_problem(COVERAGE_DROP, 2))
    three = solve_greedy_swap(coverage_problem(COVERAGE_DROP, 3))
    assert two.chosen_spots == (3, 4) and two.objective_value == 8 / 9
    assert three.chosen_spots == (0, 1, 2) and three.objective_value == 7 / 9
    # one best addition to the two-spot plan
    ext = _extend_plan(coverage_problem(COVERAGE_DROP, 3), two)
    assert ext.chosen_spots == (3, 4, 5)
    assert ext.objective_value == 1.0
    assert ext.assignment == (3, 3, 4, 4, 3, 4, 3, 4, 5)
    assert ext.optimality == "heuristic"
    # past full coverage no spot adds anything: the lowest free id fills in
    ext = _extend_plan(coverage_problem(COVERAGE_DROP, 4), two)
    assert ext.chosen_spots == (0, 3, 4, 5)
    assert ext.assignment == (0, 0, 0, 0, 3, 4, 3, 4, 5)


# --- problem validation -----------------------------------------------------

def test_plan_problem_validation():
    v = STALL_MATRIX
    with pytest.raises(ValueError):
        solve_exact(rate_problem(-v, 2))
    bad = v.copy()
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        solve_exact(rate_problem(bad, 2))


# --- plan evaluation --------------------------------------------------------

def test_evaluate_plan_report_values():
    rates = np.array([[2.0, 4.0], [6.0, 4.0], [1.0, 4.0]])
    snr = np.array([[18.0, 25.0], [33.0, 25.0], [10.0, 25.0]])
    sol = solve_exact(
        PlanProblem(matrix=mat(rates, snr), num_surfaces=2)
    )
    report = evaluate_plan(sol, mat(rates, snr), thresholds_db=(20.0, 30.0))
    picked = rates[np.arange(3), list(sol.assignment)]
    assert report.mean_rate == float(picked.mean())
    served_snr = snr[np.arange(3), list(sol.assignment)]
    assert report.coverage[20.0] == float(np.mean(served_snr >= 20.0))
    assert report.coverage[30.0] == float(np.mean(served_snr >= 30.0))


def test_evaluate_plan_equal_rates_are_perfectly_fair():
    rates = np.full((4, 2), 3.0)
    sol = solve_exact(PlanProblem(matrix=mat(rates), num_surfaces=1))
    report = evaluate_plan(sol, mat(rates))
    assert report.fairness == 1.0


def test_evaluate_plan_rejects_infeasible_plans():
    m = mat(np.ones((3, 4)))

    def plan(chosen, assignment):
        return PlanSolution(
            chosen_spots=chosen,
            assignment=assignment,
            objective_value=1.0,
            optimality="heuristic",
        )

    with pytest.raises(ValueError):
        evaluate_plan(plan((), ()), m)
    with pytest.raises(ValueError):
        evaluate_plan(plan((0,), (0, 0)), m)
    with pytest.raises(ValueError):
        evaluate_plan(plan((0,), (0, 1, 0)), m)
    with pytest.raises(ValueError):
        evaluate_plan(plan((7,), (7, 7, 7)), m)


# --- metric-matrix assembly -------------------------------------------------

def det_stats(g: float, rho: float) -> LinkStats:
    return LinkStats(g=g, k_factor=math.inf, g_k=1.0, rho=rho, los=True)


def test_metric_matrices_deterministic_single_pair():
    grid = StatsGrid(
        direct=(det_stats(1.2e-8, 1.2),),
        ap_irs=(det_stats(1e-6, 2.0),),
        irs_ue=((det_stats(1.5e-7, 1.5),),),
    )
    out = build_metric_matrices(
        grid,
        dataclasses.replace(BUDGET, amp_power_max=0.005, amp_noise_psd=1e-19),
        n_elements=4,
        n_mc=3,
        master_seed=0,
    )
    h_i = np.full(4, math.sqrt(1e-6 * 2.0))
    h_r = np.full(4, math.sqrt(1.5e-7 * 1.5))
    d = math.sqrt(1.2e-8 * 1.2)
    for mode in ("active", "passive"):
        unit = IrsUnit(
            n_elements=4, mode=mode,
            amp_power_max=0.005 if mode == "active" else 0.0,
            amp_noise_psd=1e-19 if mode == "active" else 0.0,
        )
        gamma = snr_optimal(h_i, h_r, d, unit, BUDGET)
        assert_allclose(out[mode].rates[0, 0], math.log2(1.0 + gamma), rtol=1e-12)
        assert_allclose(
            out[mode].avg_snr_db[0, 0], 10.0 * math.log10(gamma), rtol=1e-12
        )
        assert out[mode].mode == mode
        assert out[mode].n_elements == 4 and out[mode].n_mc == 3


def test_direct_only_metrics_match_series():
    direct = (
        LinkStats(g=1e-9, k_factor=0.0, g_k=1.0, rho=1.0, los=False),
        LinkStats(g=2e-9, k_factor=3.0, g_k=1.0, rho=1.1, los=True),
    )
    rates, snr_db = direct_only_metrics(direct, BUDGET, 32, 9)
    for ui in range(2):
        series = snr_series(
            direct[ui], None, None, 0, BUDGET,
            n_mc=32, seed_path=(9, STREAM_DIRECT, ui), modes=("passive",),
        )["passive"]
        assert rates[ui] == float(np.mean(np.log2(1.0 + series)))
        assert snr_db[ui] == 10.0 * math.log10(float(np.mean(series)))
