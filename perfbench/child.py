"""One measured round in a fresh process: set up, run the CLI, check.

Run by run.py, never by hand:

    python3 perfbench/child.py WORKLOAD CONFIG OUT SRC_DIR [--trace SPANS_FILE]

Prints one JSON object on stdout with the round's figures.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MiB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("config")
    ap.add_argument("out")
    ap.add_argument("src")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args()

    import irsplan.cli
    import irsplan.config

    cfg = irsplan.config.load_config(args.config)
    setup_s = time.perf_counter() - T0
    if not os.path.abspath(irsplan.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"irsplan imported from {irsplan.__file__}, not {args.src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}

    import workloads

    command = workloads.WORKLOADS[args.workload][0]
    tracer = None
    if args.trace:
        import irsplan.planner
        import irsplan.runners
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(sys.modules)
    cpu0, _ = _usage()
    start = time.perf_counter()
    try:
        rc = irsplan.cli.main([command, "-c", args.config, "-o", args.out])
    except Exception as exc:  # the round fails; the harness keeps going
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu1, peak_rss = _usage()
    result.update(wall_s=wall, peak_rss_mib=peak_rss, cpu_s=cpu1 - cpu0, rc=rc)

    # Everything below is outside the measured region.
    import checks

    full = irsplan.config.config_to_dict(cfg)
    attempted = checks.expected_ops(command, full)
    faults: list = []
    produced = 0
    if rc == 0:
        captured = tracer.captured if tracer else None
        with open(args.out, "rb") as fh:
            result["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        if command == "deploy":
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
            produced = len(doc["results"])
            faults = checks.check_deploy(full, doc, captured)
        elif command == "coverage":
            meta, rows = checks.read_csv(args.out)
            produced = len(rows)
            faults = checks.check_coverage(full, meta, rows, captured)
        else:
            _, rows = checks.read_csv(args.out)
            produced = len(rows)
            faults = checks.check_sweep(full, cfg, rows)
    else:
        faults = [(None, f"exit {rc}")]
    # Missing entries fail, and so does every entry a check condemns.
    result.update(
        attempted=attempted,
        failed=max(attempted - produced, 0) + checks.failed_entries(faults, produced),
        errors=[msg for _, msg in faults],
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall)
        result["counter_errors"] = tracer.counter_errors
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "config": args.config,
                    "wall_s": wall,
                    "metrics": result["layers"],
                    "spans": [
                        [name, s - start, e - start, parent]
                        for name, s, e, parent in tracer.spans
                    ],
                },
                fh,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
