"""condrec benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed and repeats one unit of work (a
reconstruction cell, or the criterion-8 condition report) until S seconds have
passed, checking every output; the first repetition is a warm-up and is not
measured.  With --trace 0 it reports the end-to-end metrics as medians over
the repetitions, with every time scaled to a reference machine speed by
``speed.SpeedProbe`` (the unscaled medians are printed too).  With --trace 1
it alternates
untraced and traced repetitions, and reports the per-layer metrics of the
traced ones plus the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import environment

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "s_per_iter": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seed, seconds, reference, tracer=None, probe=None):
    """Repeat the workload until ``seconds`` have passed, checking every output.

    The first run warms caches and lazy imports and is not measured.  With a
    tracer, the runs after it alternate between untraced and traced (at least
    one of each), so that both see the same drift of the machine.  Returns
    the completed measured runs as (outcome, spans or None), the number of
    failed runs and the number of attempted runs.
    """
    runs, failed, attempted = [], 0, 0
    first = None
    least = 2 if tracer is None else 3
    deadline = time.perf_counter() + seconds
    while attempted < least or time.perf_counter() < deadline:
        traced = tracer is not None and attempted % 2 == 0 and attempted > 0
        attempted += 1
        try:
            if traced:
                with tracer:
                    out = workload.run(seed)
            else:
                out = workload.run(seed)
        except Exception:  # a run that raises is a failed run; keep measuring
            traceback.print_exc(file=sys.stderr)
            failed += 1
            if traced:
                tracer.take()
            continue
        errors = workload.check(out.result, reference)
        if first is None:
            first = out.result
        elif out.result != first:
            errors.append("output differs from the first run with the same seed")
        if errors:
            failed += 1
            print(f"run {attempted} failed its check: {'; '.join(errors)}", file=sys.stderr)
        if attempted > 1:
            runs.append((out, tracer.take() if traced else None))
    return runs, failed, attempted


def end_to_end(outcomes, probe):
    """Medians over the runs, in seconds at the probe's reference speed."""
    med = statistics.median
    return {
        "wall_s": med(probe.scaled(o.start, o.end) for o in outcomes),
        "setup_s": med(probe.scaled(o.start, o.solve_start) for o in outcomes),
        "s_per_iter": med(probe.scaled(o.solve_start, o.solve_end) / o.iterations for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_times(outcomes, probe):
    """Medians of the unscaled times (probe time left in) and of the slowdown."""
    med = statistics.median
    return {
        "wall_s": med(o.wall_s for o in outcomes),
        "setup_s": med(o.setup_s for o in outcomes),
        "s_per_iter": med(o.solve_s / o.iterations for o in outcomes),
        "slowdown": med(probe.slowdown(o.start, o.end) for o in outcomes),
    }


def main(argv=None):
    try:
        environment.prepare()
    except environment.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    reference = (workloads.load_references().get(workload.name, {})
                 .get(str(workload.reference_seed(args.seed))))

    tracer = tracing.Tracer() if args.trace else None
    raw = {}
    if tracer is None:
        with speed.SpeedProbe() as probe:
            runs, failed, attempted = measure(workload, args.seed, args.seconds, reference)
    else:
        runs, failed, attempted = measure(workload, args.seed, args.seconds, reference, tracer)
    plain = [out for out, spans in runs if spans is None]
    if tracer is None:
        units = END_TO_END
        metrics = end_to_end(plain, probe) if plain else {}
        raw = raw_times(plain, probe) if plain else {}
    else:
        if tracer.missing:
            print(f"not traced (attribute missing): {', '.join(tracer.missing)}", file=sys.stderr)
        units = tracing.PER_LAYER
        traced = [(out, spans) for out, spans in runs if spans is not None]
        metrics = {}
        if plain and traced:
            layers = [tracing.layer_metrics(spans, out.iterations) for out, spans in traced]
            metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
            metrics["trace.overhead_s"] = (statistics.median(out.wall_s for out, _ in traced)
                                           - statistics.median(out.wall_s for out in plain))
            for name, row in sorted(tracing.span_table(traced[-1][1]).items()):
                print(f"span {name:40s} calls {row['calls']:7d} total {row['total_s']:10.4f} s "
                      f"self {row['self_s']:10.4f} s")

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "reference_checked": reference is not None,
        "failed_frac": failed / attempted,
        "unscaled": raw,
        "runs": [{"traced": spans is not None, "setup_s": out.setup_s, "solve_s": out.solve_s,
                  "wall_s": out.wall_s, "iterations": out.iterations} for out, spans in runs],
        "machine": environment.machine_info(),
    }
    print(json.dumps({"info": info}))
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    for name, value in raw.items():
        print(f"{'unscaled ' + name:45s} {value:14.6g}")
    print(f"{'failed_frac':45s} {failed / attempted:14.6g} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
