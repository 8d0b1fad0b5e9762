#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository's benchmark.

    scripts/bench_pairs.py PARENT [N] [WORKLOAD...]      (make bench-pairs PARENT=<rev> N=10 WORKLOAD=...)

Builds ./bench at PARENT (from `git archive`, in a scratch directory) and at
the working tree, runs N pairs per workload with the order flipped each pair
(`-trace 0`: the end-to-end metrics only), and prints, per workload and
end-to-end metric of BENCHMARK.json, each side's median and quartiles, the
change of the median, and how many pairs the working tree won (ties count
for neither). One more row, marked ungated, is bench.txn_p99_us, which the
run prints but leaves out of its JSON line. Extra arguments for the benchmark go in BENCH_FLAGS, e.g.
BENCH_FLAGS="-seed 7".

With TRACE=1 the pairs are traced runs (`-trace 1`) and the rows are the
per-layer metrics named in METRICS (default: what a transaction allocates,
node.alloc_kb_per_txn and node.allocs_per_txn), in the same layout:

    TRACE=1 METRICS="pagestore.fix_per_txn node.allocs_per_txn" scripts/bench_pairs.py HEAD~1 3 cold_jump
"""
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile


def build(src, out):
    subprocess.run(["go", "build", "-o", out, "./bench"], cwd=src, check=True)


# P99 is the tail latency an untraced run prints but leaves out of its JSON
# line; the pairs report it as one more row, marked ungated.
P99 = {"name": "bench.txn_p99_us", "better": "lower", "ungated": True}


def run(binary, cwd, workload, flags, trace):
    cmd = [binary, "-workload", workload, "-trace", trace] + flags
    out = subprocess.run(cmd, cwd=cwd, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{cwd}: {workload}: correct={res['correct']} failed={res['failed']} of {res['attempted']}")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if trace == "0":
        for line in lines:
            if line.split()[:1] == [P99["name"]]:
                values[P99["name"]] = float(line.split()[1])
    return values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    parent, n = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 10
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    workloads = sys.argv[3:] or [w["name"] for w in spec["workloads"]]
    flags = shlex.split(os.environ.get("BENCH_FLAGS", ""))
    trace = "1" if os.environ.get("TRACE", "0") not in ("", "0") else "0"
    metrics = spec["end_to_end"] + [P99]
    if trace == "1":
        layer = {m["name"]: m for m in spec["per_layer"]}
        names = os.environ.get("METRICS", "").split() or ["node.alloc_kb_per_txn", "node.allocs_per_txn"]
        metrics = [layer.get(name) or sys.exit(f"METRICS: {name} is not a per-layer metric of BENCHMARK.json")
                   for name in names]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        src = os.path.join(tmp, "parent")
        os.mkdir(src)
        archive = subprocess.Popen(["git", "archive", parent], cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {parent} failed")
        sides = {"parent": (os.path.join(tmp, "bench-parent"), src), "change": (os.path.join(tmp, "bench-change"), root)}
        for binary, cwd in sides.values():
            build(cwd, binary)

        width = max(len(m["name"]) + 10 * m.get("ungated", False) for m in metrics) + 2
        print(f"parent {parent}, {n} alternating {'traced ' if trace == '1' else ''}pairs, flags {flags or '-'}")
        print(f"{'workload':<11}{'metric':<{width}}{'parent med [q1, q3]':>34}{'change med [q1, q3]':>34}{'delta':>9}{'wins':>7}")
        for w in workloads:
            runs = {"parent": [], "change": []}
            for i in range(n):
                for side in (("parent", "change"), ("change", "parent"))[i % 2]:
                    runs[side].append(run(*sides[side], w, flags, trace))
                print(f"  {w}: pair {i + 1}/{n}", file=sys.stderr)
            for m in metrics:
                name, sign = m["name"], 1 if m["better"] == "higher" else -1
                label = name + (" (ungated)" if m.get("ungated") else "")
                if any(name not in r for r in runs["parent"] + runs["change"]):
                    print(f"{w:<11}{label:<{width}}{'not reported on this workload':>34}", flush=True)
                    continue
                p = [r[name] for r in runs["parent"]]
                c = [r[name] for r in runs["change"]]
                wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
                ties = sum(a == b for a, b in zip(p, c))
                cell = lambda xs: "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(xs))
                delta = (statistics.median(c) / statistics.median(p) - 1) * 100 if statistics.median(p) else float("nan")
                print(f"{w:<11}{label:<{width}}{cell(p):>34}{cell(c):>34}{delta:>+8.1f}%{wins:>4}/{n - ties}", flush=True)


if __name__ == "__main__":
    main()
