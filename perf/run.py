#!/usr/bin/env python3
"""Build and run the Resilix benchmark.

One workload (the command BENCHMARK.json names):

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perf/main.exe from source with dune, runs the workload in a child
process and prints, as its last line, one JSON object: whether every
output check passed, the operations attempted and failed, and the
metrics BENCHMARK.json declares with their units, the end-to-end ones
with --trace 0 and the per-layer ones with --trace 1.  The exit status
is 1 when a check fails.

The whole suite:

    python3 perf/run.py --suite [--seed 42] [--seconds 15] [--smoke]
                        [--out RECORD] [--trace SPANS] [--exe PATH]

runs every workload in its own child process, one at a time, with
tracing on; prints every metric; checks the merged record against
BENCHMARK.json (see validate.py); writes the record to RECORD and the
spans, one JSON object per line, to SPANS.  --exe runs an already built
program instead of building one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import validate  # noqa: E402

ROOT = validate.ROOT
EXE = os.path.join(ROOT, "_build", "default", "perf", "main.exe")


def build():
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", "perf/main.exe"]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("build failed")
    return EXE


def run_workload(exe, name, seed, seconds, trace, smoke):
    """Run one workload in a child process and return its record."""
    cmd = [exe, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"{name}: exited {proc.returncode} without a record")
    for line in lines[:-1]:
        print(line)
    rec = json.loads(lines[-1])
    for dist in rec["end_to_end"].values():
        add_stats(dist)
    return rec


def add_stats(dist):
    """Median, quartiles, minimum and maximum of a metric's samples, the
    quartiles as statistics.quantiles gives them."""
    xs = dist["samples"]
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    dist.update(median=statistics.median(xs), q1=q1, q3=q3, min=min(xs), max=max(xs))


def value(kind, reported):
    return reported["median"] if kind == "end_to_end" else reported["value"]


def print_metrics(name, rec, spec, kinds):
    for kind in kinds:
        for m in spec[kind]:
            print(f"  {name:<10} {m['name']:<28} {value(kind, rec[kind][m['name']]):>18.9g} {m['unit']}")


def one(args, spec):
    rec = run_workload(args.exe or build(), args.workload, args.seed, args.seconds, args.trace, args.smoke)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        reported = rec[kind].get(m["name"])
        if reported is None or reported["unit"] != m["unit"]:
            sys.exit(f"{args.workload}: {m['name']} not reported in {m['unit']}")
        metrics[m["name"]] = {"value": value(kind, reported), "unit": m["unit"]}
    print_metrics(args.workload, rec, spec, [kind])
    correct = all(rec["checks"].values())
    print(json.dumps({"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def trace_summary(spans):
    """Count, total and self seconds per span name, trials pooled.  Self
    time is a span's duration minus its children's, which run one after
    another inside it."""
    children = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
    summary = {}
    for s in spans:
        key = "trial" if s["name"].startswith("trial:") else s["name"]
        d = s["end_s"] - s["start_s"]
        e = summary.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        e["count"] += 1
        e["total_s"] += d
        e["self_s"] += d - children.get(s["id"], 0.0)
    return summary


def suite(args, spec, spans_out):
    exe = args.exe or build()
    record = {"commit": commit(), "cores": os.cpu_count(), "jobs": 1, "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    spans = []
    for w in spec["workloads"]:
        rec = run_workload(exe, w["name"], args.seed, args.seconds, True, args.smoke)
        own = rec.pop("spans")
        rec["trace_summary"] = trace_summary(own)
        spans += [dict(s, workload=w["name"]) for s in own]
        record["workloads"][w["name"]] = rec
    problems = validate.check_record(record, spec)
    for w in spec["workloads"]:
        print_metrics(w["name"], record["workloads"][w["name"]], spec, ["end_to_end", "per_layer"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    if spans_out:
        with open(spans_out, "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in spans)
    for p in problems:
        print(p, file=sys.stderr)
    print("suite ok" if not problems else "SUITE FAILED")
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description="Build and run the Resilix benchmark.")
    p.add_argument("--suite", action="store_true", help="run every workload")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", default="0", help="0|1 with --workload; the spans file with --suite")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    p.add_argument("--out", help="with --suite: write the record here")
    p.add_argument("--exe", help="run this built program instead of building one")
    args = p.parse_args()
    spec = validate.load_spec()
    if args.suite:
        return suite(args, spec, spans_out=None if args.trace == "0" else args.trace)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.trace not in ("0", "1"):
        p.error(f"--workload must be one of {', '.join(names)} and --trace 0 or 1")
    args.trace = args.trace == "1"
    return one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
