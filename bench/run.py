"""Seeded benchmark of botmatch; one workload per run.

    python3 bench/run.py --workload {align,lex,queries} [--seed N] [--seconds S] [--trace 0|1]

Runs from any directory; imports botmatch from the ``src`` directory next to
this one. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. The same object is
also written to ``bench/results/``, and a traced run writes its spans there.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 2  # fresh processes that repeat the set-up, besides this one


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("align", "lex", "queries"))
    p.add_argument("--seed", type=int, default=0, help="frame of the instances; 0 shows them untransformed")
    p.add_argument("--seconds", type=float, default=10.0, help="measure whole rounds for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args):
    """Import botmatch, generate the seeded units and warm up: set-up time."""
    sys.path.insert(0, SRC)
    import botmatch

    if os.path.dirname(os.path.abspath(botmatch.__file__)) != os.path.join(SRC, "botmatch"):
        raise SystemExit(f"botmatch imported from {botmatch.__file__}, not from {SRC}")
    import workloads

    units = workloads.make_units(args.workload, args.seed)
    workloads.warm_up(args.workload)
    return workloads, units


def run_rounds(workloads, units, seed, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed; returns stats and per-round layer metrics."""
    stats = workloads.RoundStats(len(units))
    layer_rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset_counts()
            first = len(tracer.spans)
        workloads.run_round(units, stats, seed, tracer)
        if tracer is not None:
            layer_rounds.append(tracer.round_metrics(first))
        if time.perf_counter() - start >= seconds:
            return stats, layer_rounds


def median_sum(per_unit: list[list[float]]) -> float:
    """Sum over units of each unit's median call time across the rounds."""
    return sum(statistics.median(t) for t in per_unit)


def setup_probe_seconds(args) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, units = set_up(args)
    seed = args.seed
    setup_raw = time.perf_counter() - PROCESS_START
    setup_s = speed.at_reference(setup_raw, speed.loop_seconds())
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    for unit in units:
        unit.prepare()

    if args.trace:
        import tracing

        plain, _ = run_rounds(workloads, units, seed, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(workloads)
        traced, layer_rounds = run_rounds(workloads, units, seed, args.seconds / 2, tracer)
        tracer.uninstall()
        metrics = tracing.median_metrics(layer_rounds)
        metrics["trace.overhead_s"] = median_sum(traced.scaled) - median_sum(plain.scaled)
        stats_list = [plain, traced]
        result_metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics.items()}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.dump(os.path.join(RESULTS, f"spans-{args.workload}-{seed}.json"))
    else:
        stats, _ = run_rounds(workloads, units, seed, args.seconds)
        stats_list = [stats]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result_metrics = {
            "wall_s": {"value": median_sum(stats.scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median([setup_s, *setup_probe_seconds(args)]), "unit": "s"},
        }

    result = {
        "correct": all(s.wrong == 0 for s in stats_list),
        "attempted": sum(s.attempted for s in stats_list),
        "failed": sum(s.failed for s in stats_list),
        "metrics": result_metrics,
    }
    rounds = [
        {
            "wall_s_raw": [sum(t[r] for t in s.times) for r in range(s.rounds)],
            "wall_s_scaled": [sum(t[r] for t in s.scaled) for r in range(s.rounds)],
        }
        for s in stats_list
    ]
    for s, r in zip(stats_list, rounds):
        print(
            f"workload {args.workload} seed {seed}: {s.rounds} round(s) of {len(units)} unit(s); "
            f"raw wall {median_sum(s.times):.4f} s, per round {[round(x, 3) for x in r['wall_s_raw']]}, "
            f"scaled {[round(x, 3) for x in r['wall_s_scaled']]}",
            file=sys.stderr,
        )
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-{seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "setup_s_raw": setup_raw, "rounds": rounds}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
