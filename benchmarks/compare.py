#!/usr/bin/env python3
"""Compare two commits with the benchmark, by paired runs.

    python3 benchmarks/compare.py collect PARENT CHANGE OUT
    python3 benchmarks/compare.py report OUT/parent.jsonl OUT/change.jsonl

``collect`` runs ``benchmarks/run.py`` inside the two source checkouts
PARENT and CHANGE for every workload of BENCHMARK.json: 10 pairs on seeds
1000-1009, alternating which side goes first. It appends each result to
OUT/parent.jsonl and OUT/change.jsonl. Both sides run the same seeds and
the same run length; it refuses to run if the two checkouts' benchmark
files differ.

``report`` prints one row per workload. For each end-to-end metric:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: otherwise, when the runs spread (interquartile range
  over median, on either side) wider than the metric's bound and not every
  change run is better than every parent run;
* ``same`` otherwise.

The row also shows each side's share of failed operations and in how
many runs acceptance criterion 5 failed, which the benchmark reports
without gating. The exit code is 1 when a regression, a wrong output or a
larger failed share is found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
# the rule needs at least 10 pairs to ask for 9 wins in 10
PAIRS = 10
FIRST_SEED = 1000


def load_spec(root=None) -> dict:
    with open(os.path.join(root, "BENCHMARK.json") if root else SPEC,
              encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_digest(root) -> str:
    h = hashlib.sha256()
    for top in load_spec(root)["paths"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_once(root, spec, workload, seed):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{root}: {' '.join(argv)} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["criterion_5"]


def collect(args) -> int:
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    if benchmark_digest(sides["parent"]) != benchmark_digest(sides["change"]):
        raise SystemExit("the two checkouts hold different benchmark files")
    spec = load_spec(sides["parent"])
    os.makedirs(args.out, exist_ok=True)
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                result, crit5 = run_once(sides[side], spec, workload, seed)
                with open(os.path.join(args.out, f"{side}.jsonl"), "a",
                          encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "pair": pair,
                                         "seed": seed, "first": order[0],
                                         "result": result,
                                         "criterion_5": crit5}) + "\n")
                print(f"pair {pair} {workload} {side}: "
                      f"{result['metrics']['wall_s']['value']:.4f} s",
                      file=sys.stderr, flush=True)
    return 0


def read_results(path) -> dict:
    """{workload: {pair: record}}"""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.setdefault(rec["workload"], {})[rec["pair"]] = rec
    return out


def rel_spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(p, c, bound, lower_is_better):
    """(verdict, parent median, change median, wins) for paired values."""
    sign = -1.0 if lower_is_better else 1.0
    mp, mc = statistics.median(p), statistics.median(c)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    iqr = rel_spread(p) * abs(mp)
    if wins >= 0.9 * len(p) and sign * (mc - mp) > iqr:
        return "gain", mp, mc, wins
    if -sign * (mc - mp) > bound * abs(mp):
        return "REGRESSION", mp, mc, wins
    all_better = all(sign * (b - a) > 0 for a in p for b in c)
    if max(rel_spread(p), rel_spread(c)) > bound and not all_better:
        return "unresolved", mp, mc, wins
    return "same", mp, mc, wins


def report(args) -> int:
    spec = load_spec()
    parent, change = read_results(args.parent), read_results(args.change)
    bad = False
    for workload in sorted(set(parent) & set(change)):
        pairs = sorted(set(parent[workload]) & set(change[workload]))
        ps = [parent[workload][i]["result"] for i in pairs]
        cs = [change[workload][i]["result"] for i in pairs]

        def failed_share(results):
            return (sum(r["failed"] for r in results)
                    / sum(r["attempted"] for r in results))

        def criterion_5_failures(side):
            recs = [side[workload][i]["criterion_5"] for i in pairs]
            return sum(1 for c in recs if not (c and c["ok"]))

        fp, fc = failed_share(ps), failed_share(cs)
        cells = [f"{workload} ({len(pairs)} pairs)",
                 f"failed {fp:.2%} -> {fc:.2%}",
                 f"criterion 5 failed in {criterion_5_failures(parent)} -> "
                 f"{criterion_5_failures(change)} runs"]
        if not all(r["correct"] for r in ps + cs):
            cells.append("WRONG OUTPUT")
            bad = True
        bad |= fc > fp
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in ps]
            c = [r["metrics"][name]["value"] for r in cs]
            v, mp, mc, wins = verdict(p, c, m["bound"], m["better"] == "lower")
            bad |= v == "REGRESSION"
            cells.append(f"{name} {v} {mp:.4g} -> {mc:.4g} "
                         f"({(mc - mp) / mp:+.1%}, {wins}/{len(pairs)} won)")
        print(" | ".join(cells))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run paired benchmark runs")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("out")
    c.set_defaults(func=collect)
    r = sub.add_parser("report", help="apply the comparison rule")
    r.add_argument("parent")
    r.add_argument("change")
    r.set_defaults(func=report)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
