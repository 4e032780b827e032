"""One measured process of the benchmark: set up, run one workload once,
check its output, and print one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        --spawned-at T [--probe] [--trace]

--spawned-at is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so setup_s covers the
interpreter start, `import stablegap` and building the config.  --probe stops
there.  Otherwise the run_* call is timed from its start to a checked result,
CSV write included; CPU seconds and peak RSS come from getrusage of this
process.  --trace wraps stablegap's public functions (see tracing.py) and
adds per-layer metrics; the untraced path installs nothing.
"""
import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    import stablegap  # noqa: F401  (part of the set-up being timed)
    import workloads

    out_csv = os.path.join(args.out, f"{args.workload}.csv")
    cfg = workloads.make_config(args.workload, args.seed, out_csv)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource
    import traceback
    from contextlib import nullcontext

    import provenance
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    record = None
    failures = []
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with tracing.installed(tracer) if tracer else nullcontext():
            with tracer.span("run") if tracer else nullcontext():
                result = workloads.run_workload(args.workload, cfg)
        record = workloads.build_record(args.workload, cfg, result)
        failures = workloads.check(record)
    except Exception:
        failures = ["run raised:\n" + traceback.format_exc()]
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,  # Linux reports KiB
        "failures": failures,
        "controls": workloads.run_controls(record) if record else {},
        "provenance": provenance.runtime(cfg),
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        spans_path = os.path.join(args.out, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracing.spans_as_json(tracer.spans), fh)
        out["spans_path"] = spans_path
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
