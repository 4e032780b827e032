"""Compare benchmark reports of two commits, workload by workload.

    python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]

Each file is a .bench_out/report-*.json written by run.py.  For every
workload and metric it prints the median over the given reports of each side
and the change as a share of the base median.  A comparison across different
Python/numpy/scipy version sets is flagged: numpy does not promise the same
Generator streams across releases, so such runs need not compute the same
thing.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import provenance  # noqa: E402


def _load(paths):
    by_workload = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        by_workload.setdefault(rep["workload"], []).append(rep)
    return by_workload


def _versions(reports):
    return {provenance.version_set(r["runtime"]) for r in reports if r.get("runtime")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    mismatched = False
    for workload in sorted(set(base) & set(new)):
        versions = _versions(base[workload]) | _versions(new[workload])
        print(f"{workload}: {len(base[workload])} base, {len(new[workload])} new reports")
        if len(versions) > 1:
            mismatched = True
            print(f"  WARNING: different version sets (python, numpy, scipy): "
                  f"{sorted(versions)}; the runs need not compute the same thing")
        for key in base[workload][0]["metrics"]:
            b = statistics.median(r["metrics"][key]["value"] for r in base[workload])
            n = statistics.median(r["metrics"][key]["value"] for r in new[workload]
                                  if key in r["metrics"])
            share = f"{(n - b) / b:+.1%}" if b else "n/a"
            unit = base[workload][0]["metrics"][key]["unit"]
            print(f"  {key:45s} {b:12.6g} -> {n:12.6g} {unit:8s} {share}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
