"""Output checks that recompute results instead of comparing stored output.

Each ``check_*`` returns a list of faults (empty when the output passes),
each an ``(entry, message)`` pair: ``entry`` is the index of the plan or row
at fault, or None when the output as a whole is wrong.  ``captured`` is what
the tracer kept in a traced run: the metric matrices and the solver calls;
without it only the checks that need no intermediate data run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DEFAULT_MODES = ["active", "passive"]


def read_csv(path: str) -> tuple[dict, list[dict]]:
    """irsplan CSV: '# key: value' lines, a header, then rows of strings."""
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def expected_ops(command: str, full: dict) -> int:
    """Result entries an irsplan subcommand must write for the config."""
    if command == "deploy":
        return len(full["deploy"]["splits"]) * len(full["deploy"]["modes"])
    if command == "coverage":
        cov = full["coverage"]
        return len(cov["thresholds_db"]) * (1 + len(cov["modes"]) * len(cov["num_surfaces"]))
    return len(full["sweep"]["r_ai_m"]) * len(full["sweep"]["variants"])


def failed_entries(faults: list, produced: int) -> int:
    """How many of the ``produced`` entries the faults condemn."""
    bad = {entry for entry, _ in faults}
    return produced if None in bad else len(bad)


def canonical(v: np.ndarray, cols) -> float:
    """The planner's objective of a spot subset, evaluated the same way."""
    return float(v[:, tuple(sorted(cols))].max(axis=1).mean())


def brute_force(v: np.ndarray, j: int) -> float:
    return max(canonical(v, c) for c in itertools.combinations(range(v.shape[1]), j))


def greedy_value(v: np.ndarray, j: int) -> float:
    """Plain greedy forward selection (no swaps), canonically scored."""
    chosen: list[int] = []
    cur = np.zeros(v.shape[0])
    for _ in range(j):
        gain = np.maximum(cur[:, None], v).mean(axis=0)
        gain[chosen] = -np.inf
        pick = int(np.argmax(gain))
        chosen.append(pick)
        cur = np.maximum(cur, v[:, pick])
    return canonical(v, chosen)


def lp_bound(v: np.ndarray, j: int) -> float:
    """LP relaxation of choosing j columns with per-row assignment."""
    from scipy import sparse
    from scipy.optimize import linprog

    u, m = v.shape
    n_x = u * m
    x_idx = np.arange(n_x)
    col = np.tile(np.arange(m), u)
    # x[i*m + k]: UE i's share of spot k; y[k]: how far spot k is open.
    one_spot_each = sparse.csr_matrix((np.ones(n_x), (x_idx // m, x_idx)), shape=(u, n_x))
    a_eq = sparse.vstack([
        sparse.hstack([one_spot_each, sparse.csr_matrix((u, m))]),
        sparse.hstack([sparse.csr_matrix((1, n_x)), sparse.csr_matrix(np.ones((1, m)))]),
    ])
    only_open = sparse.hstack([
        sparse.identity(n_x), -sparse.csr_matrix((np.ones(n_x), (x_idx, col)), shape=(n_x, m))
    ])
    res = linprog(
        np.concatenate([-v.ravel() / u, np.zeros(m)]),
        A_ub=only_open, b_ub=np.zeros(n_x), A_eq=a_eq,
        b_eq=np.concatenate([np.ones(u), [j]]), bounds=(0.0, 1.0), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"LP relaxation failed: {res.message}")
    return -float(res.fun)


def check_deploy(full: dict, doc: dict, captured=None) -> list[tuple]:
    dep = full["deploy"]
    errors = []
    expect = [(s, m) for s in dep["splits"] for m in dep["modes"]]
    got = [(r["split"], r["mode"]) for r in doc["results"]]
    if got != expect:
        errors.append((None, f"plans {got} != expected {expect}"))
    if doc["budget_exhausted"]:
        errors.append((None, "budget_exhausted is set"))
    mats = {}
    if captured is not None:
        for _, _, result in captured.get("matrices", []):
            for mode, mat in result.items():
                mats[(mat.n_elements, mode)] = mat
    for i, r in enumerate(doc["results"]):
        tag = f"{r['mode']} split {r['split']}"
        ids = [c["id"] for c in r["chosen_spots"]]
        if len(ids) != r["split"] or len(set(ids)) != len(ids):
            errors.append((i, f"{tag}: {len(ids)} chosen spots"))
        if len(r["assignment"]) != doc["num_ues"]:
            errors.append((i, f"{tag}: assignment length {len(r['assignment'])}"))
        if not set(r["assignment"]) <= set(ids):
            errors.append((i, f"{tag}: assignment uses an unchosen spot"))
        if dep["solver"] != "greedy" and r["optimality"] != "proven_optimal":
            errors.append((i, f"{tag}: optimality {r['optimality']}"))
        rate = dep["objective"] == "mean_ergodic_rate"
        if rate and r["objective_value"] != r["mean_rate_bps_hz"]:
            errors.append((i, f"{tag}: objective {r['objective_value']} != mean rate"))
        if captured is None or not rate:  # re-scoring covers the rate objective
            continue
        mat = mats.get((r["n_per_surface"], r["mode"]))
        if mat is None:
            errors.append((i, f"{tag}: no captured matrix"))
            continue
        v = np.asarray(mat.rates, dtype=float)
        score = canonical(v, ids)
        if score != r["objective_value"]:
            errors.append((i, f"{tag}: re-scored {score} != {r['objective_value']}"))
        j = r["split"]
        if j <= 2:
            best = brute_force(v, j)
            if score != best:
                errors.append((i, f"{tag}: {score} != brute force {best}"))
        else:
            low, high = greedy_value(v, j), lp_bound(v, j)
            # The LP is often tight here; 1e-6 covers HiGHS's 1e-7 tolerances.
            if not low <= score <= high + 1e-6 * (1.0 + abs(high)):
                errors.append((i, f"{tag}: {score} outside [greedy {low}, LP {high}]"))
    return errors


def check_coverage(full: dict, meta: dict, rows: list[dict], captured=None) -> list[tuple]:
    cov = full["coverage"]
    errors = []
    js = sorted(cov["num_surfaces"])
    expect = []
    for t in cov["thresholds_db"]:
        expect.append(("none", 0, float(t)))
        expect += [(m, j, float(t)) for m in cov["modes"] for j in js]
    got = [(r["mode"], int(r["num_surfaces"]), float(r["threshold_db"])) for r in rows]
    if got != expect:
        errors.append((None, f"rows {got} != expected {expect}"))
    u = int(meta["num_ues"])
    ratio, index = {}, {}
    for i, (r, key) in enumerate(zip(rows, got)):
        value = float(r["coverage_ratio"])
        ratio[key], index[key] = value, i
        if abs(value * u - round(value * u)) > 1e-9:
            errors.append((i, f"{key}: ratio {value} is not a multiple of 1/{u}"))
    for t in cov["thresholds_db"]:
        for m in cov["modes"]:
            keys = [(m, j, float(t)) for j in js]
            seq = [ratio.get(k) for k in keys]
            for a, b, key in zip(seq, seq[1:], keys[1:]):
                if a is not None and b is not None and b < a:
                    errors.append((index[key], f"{m} at {t} dB: ratio drops with J: {seq}"))
    if captured is None:
        return errors
    mats = {}
    for _, _, result in captured.get("matrices", []):
        mats.update(result)
    plans: dict = {}
    for args, kwargs, result in captured.get("solves", []):
        problem = args[0] if args else kwargs["problem"]
        key = (problem.matrix.mode, problem.num_surfaces, float(problem.threshold_db))
        best = plans.get(key)
        if best is None or result.objective_value > best.objective_value:
            plans[key] = result  # the runner keeps a warm extension only if better
    for key, value in ratio.items():
        mode, j, t = key
        if mode == "none":
            continue
        if mode not in mats or key not in plans:
            errors.append((index[key], f"{key}: nothing captured"))
            continue
        covered = np.asarray(mats[mode].avg_snr_db) >= t
        recount = float(covered[:, tuple(sorted(plans[key].chosen_spots))].max(axis=1).mean())
        if recount != value:
            errors.append((index[key], f"{key}: ratio {value} != recount {recount}"))
        cap = float(covered.any(axis=1).mean())
        if value > cap:
            errors.append((index[key], f"{key}: ratio {value} above reachable {cap}"))
        if j == 1:
            single = max(float(covered[:, c].mean()) for c in range(covered.shape[1]))
            if value != single:
                errors.append(
                    (index[key], f"{key}: J = 1 ratio {value} != best single spot {single}")
                )
    return errors


def _rice_moments(k_tilde: float) -> list[float]:
    """E[R^k], k = 0..4, of a unit-power Rician amplitude, by quadrature."""
    from scipy.integrate import quad
    from scipy.special import i0e

    nu = math.sqrt(k_tilde / (k_tilde + 1.0))
    s2 = 0.5 / (k_tilde + 1.0)
    s = math.sqrt(s2)

    def pdf(r):
        return r / s2 * math.exp(-((r - nu) ** 2) / (2.0 * s2)) * i0e(r * nu / s2)

    top = nu + 40.0 * s
    return [quad(lambda r: r**k * pdf(r), 0.0, top, points=[nu], limit=200)[0] for k in range(5)]


def _sum_moments(mom: list[float], n: int) -> list[float]:
    """Raw moments 0..4 of a sum of n iid copies, via cumulants."""
    m1, m2, m3, m4 = mom[1:5]
    k1 = n * m1
    k2 = n * (m2 - m1**2)
    k3 = n * (m3 - 3 * m2 * m1 + 2 * m1**3)
    k4 = n * (m4 - 4 * m3 * m1 - 3 * m2**2 + 12 * m2 * m1**2 - 6 * m1**4)
    return [
        1.0,
        k1,
        k2 + k1**2,
        k3 + 3 * k2 * k1 + k1**3,
        k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4,
    ]


def snr_moments(stats_d, stats_i, stats_r, n: int) -> tuple[float, float]:
    """Mean and standard deviation of (A + d)^2 for a passive surface.

    A = sum of n iid |h_i||h_r| products, d the direct amplitude; with
    n = 0 this is d^2 alone.
    """
    def amp_moments(st):
        scale = math.sqrt(st.g * st.rho)
        return [scale**k * e for k, e in enumerate(_rice_moments(st.g_k * st.k_factor))]

    d = amp_moments(stats_d)
    if n > 0:
        hi, hr = amp_moments(stats_i), amp_moments(stats_r)
        a = _sum_moments([x * y for x, y in zip(hi, hr)], n)
    else:
        a = [1.0, 0.0, 0.0, 0.0, 0.0]
    x = [sum(math.comb(k, i) * a[i] * d[k - i] for i in range(k + 1)) for k in range(5)]
    return x[2], math.sqrt(max(x[4] - x[2] ** 2, 0.0))


def sweep_expectations(cfg) -> dict:
    """(r_ai_m, variant) -> (E{gamma}, sd of gamma) for passive and ap_only.

    Rebuilds each leg's statistics with irsplan.channel.link_stats on the
    sweep geometry (surface on a facade with normal -y between the AP and a
    fixed far UE; the direct leg is NLoS, the surface legs LoS).
    """
    from irsplan.channel import link_stats
    from irsplan.geometry import link_geometry
    from irsplan.patterns import ErpModel

    sw = cfg.sweep
    p_total = cfg.power.p_total_mw * 1e-3
    noise = 1e-3 * 10.0 ** (cfg.rf.noise_psd_dbm_hz / 10.0) * cfg.rf.bandwidth_hz
    ap = (0.0, 0.0, cfg.ap.height)
    ue = (sw.ue_x, sw.ue_y, cfg.layout.ue_height)
    common = {"f_c_ghz": cfg.rf.f_c_ghz}
    gd = link_geometry(ap, ue, source_tilt_deg=cfg.ap.tilt_deg)
    st_d = link_stats(
        "ap_ue", dist_3d=gd.dist_3d, dist_2d=gd.dist_2d, h_tx=ap[2], h_rx=ue[2],
        los=False, ap_pattern=cfg.ap_pattern(), depression_deg=gd.depression_deg, **common,
    )
    out = {}
    for r_ai in sw.r_ai_m:
        spot = (float(r_ai), sw.irs_y, sw.irs_z)
        facade = (0.0, -1.0, 0.0)
        gi = link_geometry(ap, spot, source_tilt_deg=cfg.ap.tilt_deg, target_normal=facade)
        gr = link_geometry(ue, spot, target_normal=facade)
        for label in sw.variants:
            if label == "ap_only":
                mean, sd = snr_moments(st_d, None, None, 0)
            elif label.startswith("passive"):
                n_text, q_text = label[len("passive"):].split("_q")
                erp = ErpModel(float(q_text))
                st_i = link_stats(
                    "ap_irs", dist_3d=gi.dist_3d, dist_2d=gi.dist_2d, h_tx=ap[2],
                    h_rx=spot[2], los=True, ap_pattern=cfg.ap_pattern(), erp=erp,
                    depression_deg=gi.depression_deg, arrival_polar_deg=gi.arrival_polar_deg,
                    **common,
                )
                st_r = link_stats(
                    "irs_ue", dist_3d=gr.dist_3d, dist_2d=gr.dist_2d, h_tx=spot[2],
                    h_rx=ue[2], los=True, erp=erp, arrival_polar_deg=gr.arrival_polar_deg,
                    **common,
                )
                mean, sd = snr_moments(st_d, st_i, st_r, int(n_text))
            else:
                continue
            out[(float(r_ai), label)] = (p_total * mean / noise, p_total * sd / noise)
    return out


def _variant_key(label: str):
    """('passive', 256, 1.0) for 'passive256_q1'; None for ap_only."""
    if label == "ap_only":
        return None
    head, q = label.split("_q")
    mode = head.rstrip("0123456789")
    return mode, int(head[len(mode):]), float(q)


def _ordered_pairs(variants):
    """(weaker, stronger) variant pairs whose order the model fixes.

    More passive elements at the same pattern, and the wider pattern (lower
    q) of the same surface on this grazing street geometry.
    """
    keys = {v: _variant_key(v) for v in variants}
    for x, y in itertools.permutations(variants, 2):
        a, b = keys[x], keys[y]
        if a is None or b is None:
            continue
        if a[0] == b[0] == "passive" and a[2] == b[2] and a[1] < b[1]:
            yield x, y
        elif a[:2] == b[:2] and a[2] > b[2]:
            yield x, y


def check_sweep(full: dict, cfg, rows: list[dict], z: float = 6.0) -> list[tuple]:
    sw = full["sweep"]
    errors = []
    expect = [(float(r), v) for r in sw["r_ai_m"] for v in sw["variants"]]
    got = [(float(r["r_ai_m"]), r["variant"]) for r in rows]
    if got != expect:
        errors.append((None, f"rows {got} != expected {expect}"))
    by = {k: (float(r["ergodic_rate_bps_hz"]), float(r["avg_snr_db"])) for k, r in zip(got, rows)}
    index = {k: i for i, k in enumerate(got)}
    base = [k for k in got if k[1] == "ap_only"]
    for k in base[1:]:
        if by[k] != by[base[0]]:
            errors.append((index[k], f"r={k[0]}: ap_only {by[k]} != {by[base[0]]}"))
    for weak, strong in _ordered_pairs(sw["variants"]):
        for r in sw["r_ai_m"]:
            lo, hi = by.get((float(r), weak)), by.get((float(r), strong))
            if lo and hi and not (hi[0] >= lo[0] and hi[1] >= lo[1]):
                msg = f"r={r}: {strong} {hi} below {weak} {lo}"
                errors.append((index[(float(r), strong)], msg))
    n_mc = sw["n_mc"]
    for key, (mean, sd) in sweep_expectations(cfg).items():
        if key not in by:
            continue
        sample_mean = 10.0 ** (by[key][1] / 10.0)
        if abs(sample_mean - mean) > z * sd / math.sqrt(n_mc):
            errors.append((index[key], f"{key}: avg SNR {by[key][1]} dB off the closed form"
                           f" {10.0 * math.log10(mean)} dB (tolerance {z} sd / sqrt({n_mc}))"))
    return errors
