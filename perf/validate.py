#!/usr/bin/env python3
"""Check benchmark records against BENCHMARK.json, and compare them.

    python3 perf/validate.py RECORD... [--check-against OLD...]

A RECORD is a suite record written by `run.py --suite --out RECORD`.
The check fails when a workload, a declared metric or its unit is
missing, or when any output check is false.  With --check-against, it
prints one row per workload and end-to-end metric: both medians, both
spreads (the distance between the quartiles as a share of the median),
the bound and a verdict:

  within      no worse than OLD by more than the bound
  worse       worse than OLD by more than the bound
  unresolved  a spread is wider than the bound, so the runs cannot tell

With several records on a side, its median and spread are taken over
the records' medians: the spread between runs.  With one, they are
taken over that run's repeats, which work on different inputs, so that
spread is wider than the spread between runs.  Exact per-layer metrics
(counts, ratios and simulated values) and the simulation fingerprint
must be identical when the records ran the same seed at the same scale.
The exit status is 1 when a check fails, a metric is worse, or an exact
value differs.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def exact(unit):
    """Simulated values and counts repeat exactly for a given seed."""
    return unit in ("count", "ratio") or unit.endswith("_virtual")


def check_record(record, spec):
    """Problems with one suite record, as a list of messages."""
    problems = []
    workloads = record.get("workloads", {})
    for w in spec["workloads"]:
        rec = workloads.get(w["name"])
        if rec is None:
            problems.append(f"{w['name']}: missing")
            continue
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                got = rec.get(kind, {}).get(m["name"])
                if got is None:
                    problems.append(f"{w['name']}: {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{w['name']}: {m['name']} in {got['unit']}, declared {m['unit']}")
        problems += [f"{w['name']}: check {k} failed" for k, ok in rec["checks"].items() if not ok]
        if rec["attempted"] < 1:
            problems.append(f"{w['name']}: no operation attempted")
    return problems


def side(records, workload, metric):
    """Median, spread and samples of one metric on one side."""
    dists = [r["workloads"][workload]["end_to_end"][metric] for r in records]
    if len(dists) == 1:
        d = dists[0]
        q1, med, q3, xs = d["q1"], d["median"], d["q3"], d["samples"]
    else:
        xs = [d["median"] for d in dists]
        (q1, _, q3), med = statistics.quantiles(xs, n=4), statistics.median(xs)
    return med, (q3 - q1) / med, xs


def verdict(new, old, metric):
    """within / worse / unresolved for one end-to-end metric."""
    (n_med, n_spread, n_xs), (o_med, o_spread, o_xs) = new, old
    if metric["better"] == "lower":
        worse_by, all_better = (n_med - o_med) / o_med, max(n_xs) < min(o_xs)
    else:
        worse_by, all_better = (o_med - n_med) / o_med, min(n_xs) > max(o_xs)
    if max(n_spread, o_spread) > metric["bound"] and not all_better:
        return "unresolved"
    return "worse" if worse_by > metric["bound"] else "within"


def compare(news, olds, spec):
    """Print the comparison table; return False on a regression."""
    ok = True
    inputs = {(r["seed"], r["smoke"]) for r in news + olds}
    print(f"{'workload':<10} {'metric':<12} {'old':>12} {'new':>12} {'spread':>15} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            new, old = side(news, name, m["name"]), side(olds, name, m["name"])
            v = verdict(new, old, m)
            ok &= v != "worse"
            print(f"{name:<10} {m['name']:<12} {old[0]:>12.6g} {new[0]:>12.6g} "
                  f"{old[1]:>7.3f}/{new[1]:<7.3f} {m['bound']:>6.2f}  {v}")
        if len(inputs) > 1:
            continue
        first = olds[0]["workloads"][name]
        differs = sorted({m["name"] for r in news + olds for m in spec["per_layer"] if exact(m["unit"])
                          and r["workloads"][name]["per_layer"][m["name"]]["value"]
                          != first["per_layer"][m["name"]]["value"]})
        if any(r["workloads"][name]["sim_fingerprint"] != first["sim_fingerprint"] for r in news + olds):
            differs.append("sim_fingerprint")
        ok &= not differs
        print(f"{name:<10} exact metrics {'identical' if not differs else 'DIFFER: ' + ', '.join(differs)}")
    return ok


def main(argv):
    cut = argv.index("--check-against") if "--check-against" in argv else len(argv)
    new_paths, old_paths = argv[:cut], argv[cut + 1:]
    if not new_paths or (cut < len(argv) and not old_paths):
        sys.exit("usage: validate.py RECORD... [--check-against OLD...]")
    spec = load_spec()
    records = {}
    for path in new_paths + old_paths:
        with open(path) as f:
            records[path] = json.load(f)
    problems = [f"{path}: {p}" for path, r in records.items() for p in check_record(r, spec)]
    for p in problems:
        print(p, file=sys.stderr)
    ok = not problems
    if ok and old_paths:
        ok = compare([records[p] for p in new_paths], [records[p] for p in old_paths], spec)
    if ok:
        print("no regression" if old_paths else "records ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
