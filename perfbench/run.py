"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload lenet-cold --seed 1 --seconds 10 --trace 0

Prints the workload's metrics by name with units (``#`` lines), then, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.

Nothing runs on import: the attack engine's spawn pool re-imports the main
module of the process that crafts, and this file is that module.
"""

import argparse
import json
import sys

WORKLOADS = ("lenet-cold", "alexnet-warm-eval", "service-query")

#: end-to-end metrics and their units, printed by every workload
END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one lenet-cold repetition in a fresh process, started by the parent run
    parser.add_argument("--child", choices=("panel", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--check", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def report(workload: str, outcome: dict, trace: bool) -> dict:
    from benchkit.layers import LAYER_METRICS
    from benchkit.stats import summarize

    failures = outcome["failures"]
    latency = summarize(outcome["latencies_ms"])
    end_to_end = {
        "setup_s": outcome["setup_s"],
        "latency_p50_ms": latency.p50,
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    print(f"# {workload}: latency {latency.describe('ms')}")
    if workload == "service-query":
        print(f"# query_p50_ms={latency.p50:.4f} query_tail_ms={latency.tail:.4f}")
    else:
        print(f"# panel_s={latency.p50 / 1000.0:.4f} (median of {latency.count})")
    print(f"# failed_ratio={failures.ratio:.4f} ({failures.failed}/{failures.attempted})")
    for reason, count in sorted(failures.reasons.items()):
        print(f"# failure x{count}: {reason}")
    for name, value in sorted(outcome.get("detail", {}).items()):
        print(f"# {name}={value:.4f}")
    if trace:
        metrics = {
            name: {"value": float((outcome["layers"] or {}).get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": float(end_to_end[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    from benchkit import hermetic

    if not hermetic.source_present():
        print(f"perfbench: no program source under {hermetic.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(hermetic.SRC))

    if args.child is not None:
        from benchkit import panels

        if args.child == "setup":
            return panels.child_setup_probe(args.seed, args.store, args.out)
        return panels.child_panel(
            args.seed, args.store, bool(args.trace), bool(args.check), args.out
        )

    work_dir = hermetic.make_work_dir()
    try:
        hermetic.scrub_environment(work_dir)
        from benchkit import panels, service
        from repro.axnn import native

        native.get_backend()  # compile the kernel library before any timing
        print("# runtime: " + json.dumps(hermetic.runtime_record(), sort_keys=True))
        runner = {
            "lenet-cold": panels.run_lenet_cold,
            "alexnet-warm-eval": panels.run_alexnet_warm,
            "service-query": service.run_service_query,
        }[args.workload]
        try:
            outcome = runner(args.seed, args.seconds, bool(args.trace), work_dir)
        except service.InvalidRun as exc:
            print(f"perfbench: invalid run: {exc}", file=sys.stderr)
            return 3
        finally:
            panels.shutdown_pools()
        result = report(args.workload, outcome, bool(args.trace))
    finally:
        hermetic.remove_work_dir(work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
