"""Command-line entry point.

Subcommands
-----------
validate      parse a config and print its normalized form
spots         list AP-visible candidate mounting spots (CSV)
link-sweep    single-link rate vs AP-surface distance (CSV)
deploy        plan split deployments (JSON)
coverage      covered-UE ratio vs number of surfaces (CSV)
pattern-dump  AP array and element pattern curves (CSV)
stats         fading statistics and metrics of one UE-spot pair (JSON)

Exit codes: 0 on success, 2 on configuration, I/O or out-of-memory errors
(a worker process that died included), 3 when an exact solver hit its
node budget and returned an incumbent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .config import (
    PRESETS,
    ConfigError,
    ScenarioConfig,
    config_to_dict,
    experiment_preset,
    load_config,
)
from .patterns import ap_pattern_value, erp_value
from .planner import build_metric_matrices, link_stats_grid
from .runners import (
    header_meta,
    run_coverage,
    run_deployment,
    run_link_sweep,
    scene_and_spots,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_csv(path: str, meta: dict, rows: list[dict]):
    """CSV with leading '# key: value' metadata comment lines."""
    cols = list(rows[0].keys())
    lines = [f"# {k}: {v}" for k, v in meta.items()] + [",".join(cols)]
    lines += [",".join(_fmt(row[c]) for c in cols) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_text(path, text)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load(args: argparse.Namespace) -> ScenarioConfig:
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = experiment_preset(args.preset)
    else:
        raise ConfigError("either --config or --preset is required")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _cmd_validate(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    payload = {"meta": header_meta(cfg), "config": config_to_dict(cfg)}
    write_json(args.out, payload)
    return EXIT_OK


def _cmd_spots(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    _, spots = scene_and_spots(cfg)
    rows = [
        {
            "id": s.id,
            **dict(zip(("x", "y", "z"), map(float, s.position))),
            **dict(zip(("nx", "ny", "nz"), map(float, s.facet_normal))),
            "building": s.building_index,
            "face": s.face_index,
        }
        for s in spots
    ]
    write_csv(args.out, header_meta(cfg) | {"num_spots": len(rows)}, rows)
    return EXIT_OK


def _cmd_link_sweep(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    result = run_link_sweep(cfg)
    write_csv(args.out, result["meta"], result["rows"])
    return EXIT_OK


def _cmd_deploy(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    result = run_deployment(cfg)
    write_json(args.out, result)
    return EXIT_BUDGET if result["budget_exhausted"] else EXIT_OK


def _cmd_coverage(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    result = run_coverage(cfg)
    write_csv(
        args.out,
        result["meta"]
        | {"num_spots": result["num_spots"], "num_ues": result["num_ues"]},
        result["rows"],
    )
    return EXIT_BUDGET if result["budget_exhausted"] else EXIT_OK


def _cmd_pattern_dump(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    ap = cfg.ap_pattern()
    erp = cfg.erp()
    rows = []
    for theta in np.arange(-89.5, 90.0, 0.5):
        rows.append(
            {
                "theta_deg": float(theta),
                "ap_pattern": float(ap_pattern_value(ap, float(theta))),
                "erp": float(erp_value(erp, abs(float(theta)))),
            }
        )
    meta = header_meta(cfg) | {
        "ap_peak_gain": ap.peak_gain,
        "erp_peak_gain": erp.max_gain,
    }
    write_csv(args.out, meta, rows)
    return EXIT_OK


def _cmd_stats(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    scene, spots = scene_and_spots(cfg)
    if not (0 <= args.ue < scene.num_ues):
        raise ConfigError(f"--ue: must lie in [0, {scene.num_ues - 1}]")
    if not (0 <= args.spot < len(spots)):
        raise ConfigError(f"--spot: must lie in [0, {len(spots) - 1}]")
    # the 1 x 1 grid of the pair; origin keys its draws as in the full matrices
    one_ue = dataclasses.replace(scene, ues=scene.ues[args.ue : args.ue + 1])
    pair = link_stats_grid(one_ue, [spots[args.spot]], cfg.ap_pattern(), cfg.erp(), cfg.rf.f_c_ghz)
    matrices = build_metric_matrices(
        pair,
        cfg.budget(),
        n_elements=cfg.surface.n_elements,
        n_mc=cfg.mc.n_mc,
        master_seed=cfg.master_seed,
        origin=(args.ue, args.spot),
    )

    def stats_dict(s):
        return {
            "path_gain_db": 10.0 * math.log10(s.g),
            "k_factor": s.k_factor,
            "k_tilde": s.k_tilde,
            "rho": s.rho,
            "los": s.los,
        }

    payload = {
        "meta": header_meta(cfg),
        "ue": args.ue,
        "spot": args.spot,
        "legs": {
            "ap_ue": stats_dict(pair.direct[0]),
            "ap_irs": stats_dict(pair.ap_irs[0]),
            "irs_ue": stats_dict(pair.irs_ue[0][0]),
        },
        "metrics": {
            mode: {
                "ergodic_rate_bps_hz": float(m.rates[0, 0]),
                "avg_snr_db": float(m.avg_snr_db[0, 0]),
            }
            for mode, m in matrices.items()
        },
    }
    write_json(args.out, payload)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "spots": _cmd_spots,
    "link-sweep": _cmd_link_sweep,
    "deploy": _cmd_deploy,
    "coverage": _cmd_coverage,
    "pattern-dump": _cmd_pattern_dump,
    "stats": _cmd_stats,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsplan",
        description="coverage simulation and deployment planning for IRS-assisted links",
    )
    parser.add_argument("--version", action="version", version=f"irsplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", help="YAML configuration file")
        p.add_argument(
            "--preset",
            choices=[preset for preset in PRESETS if preset != "custom"],
            help="use a canned experiment configuration instead of --config",
        )
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("-o", "--out", default="-", help="output file ('-' = stdout)")
        if name == "stats":
            p.add_argument("--ue", type=int, default=0, help="UE index")
            p.add_argument("--spot", type=int, default=0, help="candidate spot id")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_load(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
