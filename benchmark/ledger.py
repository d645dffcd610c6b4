#!/usr/bin/env python3
"""Collect runs of the benchmark and judge them by the bounds in BENCHMARK.json.

  python3 benchmark/ledger.py collect OUT.jsonl [--runs 10] [--workloads a,b] [--trace 0|1]
  python3 benchmark/ledger.py spread A.jsonl
  python3 benchmark/ledger.py compare A.jsonl B.jsonl

Run from the repo root. `collect` runs BENCHMARK.json's command once per
(workload, seed 1..runs) and appends each result line to OUT.jsonl. `spread`
prints, per (metric, workload), the interquartile range as a share of the
median beside the metric's bound. `compare` prints regressed / unchanged /
unresolved per (metric, workload) for B against A and exits 1 unless every
row is unchanged; it is what "two sets of runs agree" means.
"""

import json
import statistics
import subprocess
import sys


def manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def collect(out_path, runs, workloads, trace):
    spec = manifest()
    names = workloads or [w["name"] for w in spec["workloads"]]
    with open(out_path, "a") as out:
        for name in names:
            for seed in range(1, runs + 1):
                cmd = spec["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                ]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
                if done.returncode != 0:
                    sys.exit(f"{name} seed {seed}: exit code {done.returncode}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                row = {"workload": name, "seed": seed, "trace": trace, **result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)


def load(path):
    """{(workload, metric): [values]} plus the rows that failed a gate."""
    values, bad = {}, []
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if not row["correct"] or row["failed"]:
                bad.append((row["workload"], row["seed"]))
            for metric, m in row["metrics"].items():
                values.setdefault((row["workload"], metric), []).append(m["value"])
    return values, bad


def quartile_spread(vals):
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / abs(med)


def bounded_metrics():
    return {m["name"]: m for m in manifest()["end_to_end"]}


def spread(path):
    values, bad = load(path)
    metrics = bounded_metrics()
    print(f"{'metric':<20} {'workload':<14} {'runs':>4} {'median':>16} {'iqr/median':>11} "
          f"{'bound':>6}  verdict")
    worst = 0
    for (workload, metric), vals in sorted(values.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if metric not in metrics:
            continue
        bound = metrics[metric]["bound"]
        med, share = quartile_spread(vals)
        if metric == "setup_s":
            verdict = "exempt"
        elif share <= bound / 3:
            verdict = "steady"
        elif share <= bound:
            verdict = "within bound"
            worst = max(worst, 1)
        else:
            verdict = "WIDER THAN BOUND"
            worst = 2
        print(f"{metric:<20} {workload:<14} {len(vals):>4} {med:>16.6g} {share:>11.4f} "
              f"{bound:>6}  {verdict}")
    for workload, seed in bad:
        print(f"FAILED GATE: {workload} seed {seed}")
    return 1 if bad or worst == 2 else 0


def compare(path_a, path_b):
    a, bad_a = load(path_a)
    b, bad_b = load(path_b)
    metrics = bounded_metrics()
    print(f"{'metric':<20} {'workload':<14} {'median A':>14} {'median B':>14} {'worse by':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    rows_bad = 0
    for key in sorted(a.keys() & b.keys(), key=lambda k: (k[1], k[0])):
        workload, metric = key
        if metric not in metrics:
            continue
        m = metrics[metric]
        sign = 1.0 if m["better"] == "lower" else -1.0
        med_a, share_a = quartile_spread(a[key])
        med_b, share_b = quartile_spread(b[key])
        worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
        wide = max(share_a, share_b)
        b_always_better = all(sign * (y - x) < 0 for x in a[key] for y in b[key])
        if worse > m["bound"]:
            verdict = "regressed"
        elif wide > m["bound"] and metric != "setup_s" and not b_always_better:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        rows_bad += verdict != "unchanged"
        print(f"{metric:<20} {workload:<14} {med_a:>14.6g} {med_b:>14.6g} {worse:>+9.4f} "
              f"{wide:>7.4f} {m['bound']:>6}  {verdict}")
    for name, bad in (("A", bad_a), ("B", bad_b)):
        for workload, seed in bad:
            print(f"FAILED GATE in {name}: {workload} seed {seed}")
    return 1 if rows_bad or bad_a or bad_b else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "collect":
        runs, workloads, trace = 10, None, 0
        rest = argv[2:]
        while rest:
            flag, value, rest = rest[0], rest[1], rest[2:]
            if flag == "--runs":
                runs = int(value)
            elif flag == "--workloads":
                workloads = value.split(",")
            elif flag == "--trace":
                trace = int(value)
            else:
                sys.exit(__doc__)
        collect(argv[1], runs, workloads, trace)
        return 0
    if len(argv) == 2 and argv[0] == "spread":
        return spread(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
