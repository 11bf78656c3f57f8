"""Run the benchmark several times per workload and report each
end-to-end metric's median and its spread: the distance between the
first and third quartile of the runs' values, as a share of their
median. Spreads above a third of the metric's bound in BENCHMARK.json
are flagged, as are failed or incorrect runs.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--out FILE] [WORKLOAD ...]

With --out, every run's result line is appended to FILE as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {k: [] for k in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if p.returncode != 0 or res is None or not res["correct"] or res["failed"]:
                print(f"{name} seed {seed}: run failed (exit {p.returncode})\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
                ok = False
                continue
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": name, "seed": seed, "result": res}) + "\n")
            for k in values:
                values[k].append(res["metrics"][k]["value"])
        for k, v in values.items():
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = ""
            if spread > bounds[k] / 3:
                flag = "  above a third of the bound"
            print(f"{name:16s} {k:15s} median {med:10.5g}  spread {spread:7.4f}  bound {bounds[k]}{flag}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
