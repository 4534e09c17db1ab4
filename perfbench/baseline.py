#!/usr/bin/env python3
"""Re-records perfbench/baseline.json: the end-to-end metrics of every
workload over several seeds (median and quartiles), the same for the
figures run.py prints but does not gate, and one traced run per workload,
on the host it runs on.

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 20]

Run from the root of a Clock-RSM source tree, after the change it
describes has landed; it takes about (seeds x workloads x 30 s).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    """One run's host block and result (with the ungated figures from its
    result.json), or None when it failed or its outputs did not pass the
    checks."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, None
    host = json.loads(next(l for l in lines if l.startswith("host: "))[6:])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, None
    saved = json.loads((ROOT / ".bench_build" / "run" / "result.json").read_text())
    result["ungated"] = saved.get("ungated", {})
    return host, result


def summarize(values):
    """Median, quartiles and quartile spread (as a share of the median) of
    each metric's values over the seeds."""
    summary = {}
    for metric, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(v),
                           "spread": (q3 - q1) / med if med else None}
    return summary


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    path = HERE / "baseline.json"
    doc = json.loads(path.read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    doc["seeds"] = [args.seeds[0], args.seeds[-1]]
    doc["run_seconds"] = args.seconds
    doc["end_to_end"], doc["ungated"], doc["per_layer"], doc["failed_runs"] = {}, {}, {}, []
    for name in workloads:
        values, ungated = {}, {}
        for seed in args.seeds:
            host, result = run(name, seed, args.seconds, 0)
            if result is None:
                doc["failed_runs"].append("%s seed %d" % (name, seed))
                print(name, seed, "FAILED", flush=True)
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            for metric, v in result["ungated"].items():
                ungated.setdefault(metric, []).append(v)
            print(name, seed, {k: round(v[-1], 4) for k, v in (values | ungated).items()},
                  flush=True)
        doc["end_to_end"][name] = summarize(values)
        doc["ungated"][name] = summarize(ungated)
        _, traced = run(name, args.seeds[0], args.seconds, 1)
        if traced is None:
            doc["failed_runs"].append("%s seed %d traced" % (name, args.seeds[0]))
        else:
            doc["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    host.pop("seed")
    doc["host"] = host
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if doc["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
