"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1]

Runs perfbench/run.py ten times per workload of BENCHMARK.json, each time
with the next seed, interleaving the workloads so that a slow spell of the
machine hits all of them alike.  For each workload and end-to-end metric
it prints the median and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound in BENCHMARK.json, flagged when it exceeds a third
of the bound.  Every result line, with its machine and load-average
context, is saved to .perfbench_work/spread-<first seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCHMARK, ROOT, WORK

RUNS = 10


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    names = [w["name"] for w in BENCHMARK["workloads"]]
    records = []
    for i in range(RUNS):
        seed = args.first_seed + i
        for name in names:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(seed),
                   "--seconds", str(BENCHMARK["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, check=True)
            lines = proc.stdout.strip().splitlines()
            record = {"workload": name, "seed": seed,
                      "context": json.loads(lines[-2])["context"],
                      "result": json.loads(lines[-1])}
            records.append(record)
            metrics = record["result"]["metrics"]
            print(f"{name:7s} seed {seed:3d} failed "
                  f"{record['result']['failed']}/"
                  f"{record['result']['attempted']} "
                  + " ".join(f"{k}={v['value']:.4f}"
                             for k, v in metrics.items()), flush=True)
    WORK.mkdir(exist_ok=True)
    (WORK / f"spread-{args.first_seed}.json").write_text(
        json.dumps(records, indent=1))
    print(f"{'workload':8s} {'metric':12s} {'median':>10s} {'spread':>7s} "
          f"{'bound':>6s}")
    worst = 0.0
    for name in names:
        for metric in BENCHMARK["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in records if r["workload"] == name]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / metric["bound"])
            flag = "  > bound/3" if spread > metric["bound"] / 3 else ""
            print(f"{name:8s} {metric['name']:12s} {med:10.4f} "
                  f"{spread:7.3f} {metric['bound']:6.2f}{flag}")
    print(f"largest spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
