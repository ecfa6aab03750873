#!/usr/bin/env python3
"""The repository benchmark: builds the simulator, runs one workload, checks
its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json (telemetry off);
with --trace 1 they are its per-layer metrics, taken from one untraced and
one traced pass over the start of the workload.

A run's work is fixed: each workload is a fixed list of simulations
(WORKLOADS), sized so that a run takes about BENCHMARK.json's run_seconds on
the reference machine, and every run does all of it whatever the host's
speed. --seconds is accepted for the benchmark interface but does not change
the work. Each simulation runs in its own perfbench_cell process under a
deadline of DEADLINE_FACTOR times the workload's reference time; a
simulation that is killed, throws, or fails its output check counts as one
failed operation.
See perfbench/README.md for the workloads, metrics and known defects.
"""

import argparse
import fcntl
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CELL = BUILD / "perfbench_cell"
REFERENCE = HERE / "reference"

# The seed the reference documents were recorded at. 42 is the engine seed
# of the table3 presets, so at this seed the experiment documents match
# what opus_run prints for the same cell.
DEFAULT_SEED = 42
DEADLINE_FACTOR = 10
# Every simulation of a run must end within this many seconds of the build,
# so even a run in which several simulations hit their deadline exits well
# inside 180 s. A simulation with no time left is not started and counts as
# failed.
RUN_BUDGET_S = 150

# Per size: the number of simulations a run does, how many of them (from
# index 0) a traced run covers, and the reference seconds per simulation that
# deadlines scale from (measured on a 4-core x86 container, Release build).
WORKLOADS = {
    "opus_512": {"full": (2, 1, 10.0), "tiny": (2, 1, 0.05)},
    "rotor_512": {"full": (3, 1, 6.0), "tiny": (2, 1, 0.05)},
    "ring_256": {"full": (3, 1, 6.0), "tiny": (2, 1, 0.05)},
    "fleet_churn": {"full": (96, 48, 0.3), "tiny": (2, 2, 0.1)},
}
FLEET = "fleet_churn"

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_cell from the checkout's sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout; concurrent runs wait here.
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "perfbench_cell"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def simulate(args, index, mode, deadline_s):
    """Runs one simulation in its own process; returns its parsed report.

    A report with ok == False is a failed operation (threw, was killed at its
    deadline, exited non-zero or printed garbage)."""
    cmd = [str(CELL), "--workload", args.workload, "--size", args.size,
           "--seed", str(args.seed), "--index", str(index), "--mode", mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": f"killed at its {deadline_s:.3g} s deadline",
                "elapsed_ns": int((time.monotonic() - t0) * 1e9)}
    elapsed_ns = int((time.monotonic() - t0) * 1e9)
    report = None
    if proc.returncode == 0 and out.strip():
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except json.JSONDecodeError:
            report = None
    if report is None:
        return {"ok": False, "elapsed_ns": elapsed_ns,
                "error": f"exit {proc.returncode}: {err.strip()[-300:]}"}
    report["elapsed_ns"] = elapsed_ns
    return report


def reference_path(args):
    return Path(args.reference) / args.size / f"{args.workload}.jsonl.gz"


def load_reference(args):
    """Reference documents at DEFAULT_SEED, one JSON line per simulation
    (null where the simulation failed when they were recorded)."""
    path = reference_path(args)
    if not path.is_file():
        raise RuntimeError(f"missing reference documents {path}")
    with gzip.open(path, "rt") as f:
        return [json.loads(line) for line in f]


class Tally:
    """Counts attempted and failed simulations and whether every completed
    one produced a correct output."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, index, report, timed=None):
        """Marks the report failed when an output check does not hold.

        `timed` is the untraced report at the same index, whose iteration
        times a traced report must repeat."""
        self.attempted += 1
        problems = list(report.get("violations", []))
        if report.get("ok") and self.reference is not None \
                and "document" in report:
            want = self.reference[index]
            if want is not None and report["document"] != want:
                problems.append("result document differs from the reference")
        if report.get("ok") and timed is not None and timed.get("ok") \
                and report["iteration_ns"] != timed["iteration_ns"]:
            problems.append("traced iteration times differ from the timed "
                            "simulation's")
        if problems:
            # A completed simulation with a wrong output.
            self.correct = False
            report["ok"] = False
            report["error"] = "; ".join(problems)
        if not report.get("ok"):
            self.failed += 1
            log(f"  simulation {index} failed: {report.get('error')}")
        return report


def deadline(args, ref_s):
    """Seconds a simulation may take before it is killed (at least 1 s, so
    process start-up never trips it)."""
    return max(1.0, DEADLINE_FACTOR * ref_s) * args.deadline_scale


def run_sims(args, tally, mode, count, timed=None):
    """Runs simulations 0..count-1 of the workload in order and returns their
    reports. `timed` holds the untraced reports a traced pass must repeat."""
    limit = deadline(args, WORKLOADS[args.workload][args.size][2])
    reports = []
    for index in range(count):
        left = args.stop_at - time.monotonic()
        if left > 0:
            report = simulate(args, index, mode, min(limit, left))
        else:
            report = {"ok": False, "elapsed_ns": 0, "error": "not started: "
                      f"the run's {RUN_BUDGET_S} s budget is used up"}
        reports.append(tally.check(index, report,
                                   timed[index] if timed else None))
    return reports


def wall_ns(report):
    """Host time of one simulation: run + result dump when it completed,
    else what the failure cost as seen from outside."""
    if report.get("ok"):
        return report["run_ns"] + report.get("dump_ns", 0)
    return report.get("run_ns", report["elapsed_ns"])


def median_of(reports, key):
    values = [v for r in reports for v in r.get(key, [])]
    return statistics.median(values) if values else 0.0


def end_to_end(args, reports):
    completed = [r for r in reports if r.get("ok")]
    # Every set-up of the run: the median over them repeats within a few
    # percent, where a per-process minimum swings with the host.
    setups = [t for r in reports for t in r.get("setup_ns", [])]
    values = {
        # The mean, because inputs differ in cost: fleet timelines by up to
        # 10x.
        "wall_s": statistics.fmean(wall_ns(r) for r in reports) / 1e9,
        "setup_s": statistics.median(setups or [0]) / 1e9,
        "peak_rss_mb": max(r.get("max_rss_kb", 0) for r in reports) / 1024,
        "ok_frac": len(completed) / len(reports),
        "sim_iter_ms": 0.0,
        # A single job runs alone and fault-free: slowdown and availability
        # are the constant 1 on the experiment workloads.
        "p95_slowdown": 1.0,
        "mean_availability": 1.0,
    }
    if args.workload == FLEET:
        jobs = [j for r in completed for j in r["summary"]["jobs"]]
        if jobs:
            slowdowns = sorted(j["slowdown"] for j in jobs)
            rank = -(-95 * len(slowdowns) // 100)  # nearest rank, ceil
            values["p95_slowdown"] = slowdowns[rank - 1]
            values["mean_availability"] = statistics.fmean(
                j["availability"] for j in jobs)
            values["sim_iter_ms"] = statistics.fmean(
                j["steady_iteration_ns"] for j in jobs) / 1e6
    elif completed:
        values["sim_iter_ms"] = statistics.fmean(
            r["summary"]["steady_iteration_ns"] for r in completed) / 1e6
    return values


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(args, untraced, traced):
    """Per-layer metrics: counters summed over the workload's simulations."""
    counted = [r for r in traced if r.get("ok")]
    completed = [r for r in untraced if r.get("ok")]
    c = {}
    for r in counted:
        for key, value in r["counters"].items():
            c[key] = c.get(key, 0) + value
    get = lambda key: c.get(key, 0)
    setups = completed + counted
    run_ms = get("sim_run_ns") / 1e6
    recompute_ms = get("fluid_recompute_ns") / 1e6
    batch_ms = get("ocs_batch_ns") / 1e6
    untraced_ns = sum(r["run_ns"] for r in completed)
    traced_ns = sum(r["run_ns"] for r in counted)
    return {
        "sim.events": get("sim_events"),
        "sim.run_ms": run_ms,
        "sim.ns_per_event": ratio(get("sim_run_ns"), get("sim_events")),
        "sim.other_ms": run_ms - recompute_ms - batch_ms,
        "net.fluid.solves": get("fluid_solves"),
        "net.fluid.solve_rounds": get("fluid_solve_rounds"),
        "net.fluid.flows_completed": get("fluid_flows_completed"),
        "net.fluid.solves_per_flow": ratio(get("fluid_solves"),
                                           get("fluid_flows_completed")),
        "net.fluid.recompute_ms": recompute_ms,
        "net.fluid.us_per_solve": ratio(get("fluid_recompute_ns") / 1e3,
                                        get("fluid_solves")),
        "net.ocs.reconfigurations": get("ocs_reconfigurations"),
        "net.ocs.circuits_established": get("ocs_circuits_established"),
        "net.ocs.batch_calls": get("ocs_batch_calls"),
        "net.ocs.batch_ms": batch_ms,
        "net.ocs.batch_fallbacks": get("ocs_batch_fallbacks"),
        "net.ocs.links_retired": get("ocs_links_retired"),
        "net.ocs.dark_ms": get("ocs_dark_ns") / 1e6,
        "net.cluster.multihop_share": ratio(get("multihop_bytes"),
                                            get("rail_bytes")),
        "net.cluster.rescued_flows": get("rescued_flows"),
        "net.cluster.parked_at_end": get("parked_at_end"),
        "net.cluster.construct_ms": median_of(setups, "construct_ns") / 1e6,
        "workload.build_tenant_ms": median_of(setups, "build_tenant_ns") / 1e6,
        "collective.ops": get("collective_ops"),
        "collective.comm_ms": get("collective_comm_ns") / 1e6,
        "core.opus.requests": get("opus_requests"),
        "core.opus.hit_ratio": ratio(get("opus_hits"), get("opus_requests")),
        "core.opus.queued": get("opus_queued"),
        "core.opus.wait_ms": get("opus_wait_ns") / 1e6,
        "core.opus.wait_max_ms": max(
            (r["counters"].get("opus_wait_max_ns", 0) for r in counted),
            default=0) / 1e6,
        "core.opus.spec_requests": get("opus_spec_requests"),
        "core.opus.mispredict_ratio": ratio(get("opus_mispredictions"),
                                            get("opus_spec_requests")),
        "core.rotor.rotations": get("rotor_rotations"),
        "core.rotor.deferred_sends": get("rotor_deferred_sends"),
        "core.faults.injected": get("faults_injected"),
        "core.faults.repaired": get("faults_repaired"),
        "core.faults.skipped": get("faults_skipped"),
        "fleet.timelines_ok": (len(completed)
                               if args.workload == FLEET else 0),
        "fleet.baseline_sweep_ms": get("fleet_baseline_sweep_ns") / 1e6,
        "fleet.replacements": get("fleet_replacements"),
        "fleet.ports_lost": get("fleet_ports_lost"),
        "config.resolve_ms": median_of(setups, "resolve_ns") / 1e6,
        "config.dump_ms": statistics.median(
            [r["dump_ns"] for r in completed] or [0]) / 1e6,
        "obs.overhead_pct": 100.0 * (ratio(traced_ns, untraced_ns) - 1.0)
                            if untraced_ns and traced_ns else 0.0,
    }


def update_reference(args):
    """Records the reference documents of one workload at DEFAULT_SEED."""
    args.seed = DEFAULT_SEED
    n_sims, _, ref_s = WORKLOADS[args.workload][args.size]
    lines = []
    for index in range(n_sims):
        report = simulate(args, index, "run", deadline(args, ref_s))
        ok = report.get("ok") and not report.get("violations")
        if not ok:
            log(f"  simulation {index} failed: {report.get('error')}")
        lines.append(json.dumps(report["document"] if ok else None))
    path = reference_path(args)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical when the documents are.
    with open(path, "wb") as raw, gzip.GzipFile(
            filename="", mode="wb", fileobj=raw, mtime=0) as f:
        f.write(("\n".join(lines) + "\n").encode())
    log(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="accepted for the benchmark interface; a run's "
                             "work is fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: 8-node cells and 2 small fleet timelines "
                             "(self-test)")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="directory of reference documents")
    parser.add_argument("--deadline-scale", type=float, default=1.0,
                        help="multiplies every simulation deadline (self-test)")
    parser.add_argument("--update-reference", action="store_true",
                        help="record the reference documents and exit")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")

    try:
        build()
        args.stop_at = time.monotonic() + RUN_BUDGET_S
        if args.update_reference:
            update_reference(args)
            return 0
        reference = load_reference(args) if args.seed == DEFAULT_SEED else None
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1

    tally = Tally(reference)
    n_sims, traced_sims, _ = WORKLOADS[args.workload][args.size]
    if args.trace:
        untraced = run_sims(args, tally, "run", traced_sims)
        traced = run_sims(args, tally, "count", traced_sims, timed=untraced)
        metrics, kind = per_layer(args, untraced, traced), "per_layer"
    else:
        reports = run_sims(args, tally, "run", n_sims)
        metrics, kind = end_to_end(args, reports), "end_to_end"

    # BENCHMARK.json names every metric and its unit, in print order.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    for name, unit in units.items():
        print(f"{args.workload:12} {name:30} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
