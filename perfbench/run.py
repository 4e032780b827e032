"""stablegap benchmark: three workloads, four end-to-end metrics, and a traced
run that gives per-layer numbers.

    python3 perfbench/run.py --workload rate-1d|transient-ou|dim-nd|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its src/.
Every measurement is a fresh process (child.py), one at a time, with
STABLEGAP_THREADS set to the CPU count and the BLAS/OpenMP pools capped at one
thread.  A run of the harness measures for --seconds seconds, warm-up
included: it starts no process that the median process so far says would end
past that window.  With --trace 0 it times a few set-up-only processes and
then whole workload runs, and reports medians of

  setup_s      process start until the run_* call can begin
  wall_s       run_* call to a checked result, CSV write included
  cpu_s        user + system CPU seconds of that call

and the highest peak_rss_mb, the peak resident memory of a process: it
depends on how the worker threads' largest tasks happen to overlap, and the
worst case is what a memory cap has to allow for.

With --trace 1 it alternates untraced and traced runs and reports the
per-layer metrics of tracing.py (medians over the traced runs) plus
tracing.overhead_s, the traced minus the untraced median wall_s.

Each run's output is checked against an exact handle (workloads.check), and
each negative control (a tampered copy of the output) must fail that check.
A run that raises, fails its check or has a control that does not trip
counts as failed.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; provenance and every run's record go
to .bench_out/report-*.json.  The exit code is 0 when a result was printed,
and nonzero, with no result, when the program cannot be started at all.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import provenance  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up-only processes per run; every workload process also reports its
# set-up, so setup_s is the median over these and those.
SETUP_PROBES = 3
# Untraced runs are medians of at least two; a traced measurement alternates
# untraced and traced runs, so two give one of each (layer metrics have no bound).
MIN_RUNS = 2
DEADLINE_S = 170.0  # the harness must exit within 180 s


class CannotStart(Exception):
    """The program could not even be imported and configured."""


def _spawn(root, env, out_dir, name, seed, extra, timeout):
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", name,
           "--seed", str(seed), "--out", out_dir]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(t_spawn)] + extra, cwd=root,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failures": [f"killed after {timeout:.0f} s"], "killed": True}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"exit code {proc.returncode}: {stderr[-2000:]}"]}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"failures": [f"unreadable output: {lines[-1][:200]!r}"]}


def _failed(run) -> bool:
    controls = run.get("controls", {})
    return bool(run.get("failures")) or not controls or not all(controls.values())


def _median(values):
    return statistics.median(values) if values else float("nan")


def _max(values):
    return max(values, default=float("nan"))


def measure(name, seed, seconds, trace, root, env, out_root, deadline):
    """All runs of one workload, summarised as a report."""
    tmp = os.path.join(out_root, f"tmp-{name}")

    def probe():
        rec = _spawn(root, env, tmp, name, seed, ["--probe"], deadline - time.monotonic())
        if "setup_s" not in rec:
            raise CannotStart("\n".join(rec.get("failures", [])))
        return rec["setup_s"]

    start = time.monotonic()
    probe()  # warm-up: byte-compiles the sources, fills the file cache
    setups = [] if trace else [probe() for _ in range(SETUP_PROBES)]
    runs, durations, spans_kept = [], [], None
    while True:
        traced = trace and len(runs) % 2 == 1
        # a traced run repeats the inputs of the untraced run before it
        inputs = workloads.program_seed(seed, len(runs) // 2 if trace else len(runs))
        t_run = time.monotonic()
        run = _spawn(root, env, tmp, name, inputs, ["--trace"] if traced else [],
                     deadline - time.monotonic())
        durations.append(time.monotonic() - t_run)
        run["traced"] = traced
        run["program_seed"] = inputs
        runs.append(run)
        if run.get("spans_path") and os.path.exists(run["spans_path"]):
            spans_kept = os.path.join(out_root, f"spans-{name}-seed{seed}.json")
            os.replace(run["spans_path"], spans_kept)
        shutil.rmtree(tmp, ignore_errors=True)
        enough = len(runs) >= MIN_RUNS
        if run.get("killed") or time.monotonic() > deadline:
            break
        if enough and time.monotonic() - start + _median(durations) > seconds:
            break

    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    samples = {}  # metric -> (unit, values, how they are summarised)
    if trace:
        traced_runs = [r for r in runs if r["traced"] and "layers" in r]
        for key, unit in tracing.PER_LAYER.items():
            if key != "tracing.overhead_s":
                samples[key] = (unit, [r["layers"][key] for r in traced_runs], _median)
        samples["tracing.overhead_s"] = (
            "s", [_median([r["wall_s"] for r in traced_runs])
                  - _median([r["wall_s"] for r in plain])], _median)
    else:
        samples["setup_s"] = ("s", setups + [r["setup_s"] for r in plain], _median)
        samples["wall_s"] = ("s", [r["wall_s"] for r in plain], _median)
        samples["cpu_s"] = ("s", [r["cpu_s"] for r in plain], _median)
        samples["peak_rss_mb"] = ("MB", [r["peak_rss_mb"] for r in plain], _max)
    metrics = {k: {"value": how(v), "unit": u, "samples": v} for k, (u, v, how) in samples.items()}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "source": provenance.source(root),
        "runtime": next((r["provenance"] for r in runs if "provenance" in r), None),
        "setup_probes_s": setups,
        "runs": [{k: v for k, v in r.items() if k != "provenance"} for r in runs],
        "attempted": len(runs),
        "failed": sum(_failed(r) for r in runs),
        "metrics": metrics,
        "spans": spans_kept,
    }
    return report


def _print_report(rep):
    print(f"{rep['workload']}: seed {rep['seed']}, {rep['attempted']} runs attempted, "
          f"{rep['failed']} failed")
    for run in rep["runs"]:
        for msg in run.get("failures", []):
            print(f"  FAILED: {msg}")
        bad = [k for k, tripped in run.get("controls", {}).items() if not tripped]
        if bad:
            print(f"  FAILED: negative control(s) did not trip: {', '.join(bad)}")
    for key, m in rep["metrics"].items():
        v = m["samples"]
        spread = f"  (of {len(v)}: {min(v):.6g} to {max(v):.6g})" if len(v) > 1 else ""
        print(f"  {key:45s} {m['value']:14.6g} {m['unit']:8s}{spread}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stablegap", "__init__.py")):
        print(f"no stablegap sources under {os.path.join(root, 'src')}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    env = provenance.child_env(root)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            rep = measure(name, args.seed, args.seconds, bool(args.trace), root, env,
                          out_root, deadline)
        except CannotStart as exc:
            print(f"{name}: the program cannot be started:\n{exc}", file=sys.stderr)
            return 1
        path = os.path.join(out_root, f"report-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rep, fh, indent=1, sort_keys=True)
        _print_report(rep)
        reports.append(rep)

    metrics = {}
    for rep in reports:
        for key, m in rep["metrics"].items():
            name = key if len(reports) == 1 else f"{rep['workload']}.{key}"
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
