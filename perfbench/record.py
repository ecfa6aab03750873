#!/usr/bin/env python3
"""Records one point of the benchmark trajectory: two sets of seeded runs of
every workload (--trace 0) and two traced runs (--trace 1) per workload.

    python3 perfbench/record.py --label <commit>

Run from the repository root. Writes perfbench/trajectory/<label>.json with
every run's result line, and per set and metric the median, the quartiles and
the spread (interquartile distance over the median). It also checks the
figures against BENCHMARK.json:

* each spread is within the metric's bound;
* the second set's median is no worse than the first's by more than the
  bound;
* the two traced runs give identical count metrics.

Set 1 uses seeds 1..10 and set 2 uses seeds 101..110. Both traced runs use
seed 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results):
    out = {}
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
    return out


def worse_by(metric, first, second):
    """How much worse the second median is, as a share of the first."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    doc = {"label": args.label, "run_seconds": SPEC["run_seconds"],
           "workloads": {}}
    problems = []
    for w in (w["name"] for w in SPEC["workloads"]):
        sets = []
        for base in (0, 100):
            results = []
            for seed in range(base + 1, base + RUNS + 1):
                res = run(w, seed, 0)
                res["seed"] = seed
                results.append(res)
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                    flush=True)
            sets.append({"runs": results, "summary": summarize(results)})
        traced = [run(w, 1, 1), run(w, 1, 1)]
        doc["workloads"][w] = {"sets": sets, "traced": traced}

        for m in SPEC["end_to_end"]:
            name = m["name"]
            s1, s2 = (s["summary"][name] for s in sets)
            for i, s in enumerate((s1, s2), 1):
                if s["spread"] > m["bound"]:
                    problems.append(f"{w} {name}: set {i} spread "
                                    f"{s['spread']:.3f} > bound {m['bound']}")
            worse = worse_by(m, s1["median"], s2["median"])
            if worse > m["bound"]:
                problems.append(f"{w} {name}: second median worse by "
                                f"{worse:.3f} > bound {m['bound']}")
            print(f"{w:12} {name:18} medians {s1['median']:.6g} / "
                  f"{s2['median']:.6g}  spreads {s1['spread']:.4f} / "
                  f"{s2['spread']:.4f}  (bound {m['bound']})", flush=True)
        for m in SPEC["per_layer"]:
            a, b = (t["metrics"][m["name"]]["value"] for t in traced)
            if m["unit"] == "count" and a != b:
                problems.append(f"{w} {m['name']}: traced counts differ "
                                f"({a} vs {b})")

    doc["problems"] = problems
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
