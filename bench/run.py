"""The hatgame benchmark.

    python3 bench/run.py --workload {optimize,enumerate,analysis,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/hatgame``).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones.  See
``bench/README.md`` for what each workload does and why.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("optimize", "enumerate", "analysis", "cli")

#: Fresh interpreters that only set up, half before and half after the
#: measuring worker, so that they span the run; with the measuring
#: worker's own set-up they give the median ``setup_s``.
SETUP_SAMPLES = 8

#: Every run ends within this many seconds, or fails.
RUN_LIMIT_S = 170

CLI_SUBCOMMANDS = ("solve", "evaluate", "sweep", "enumerate", "psi", "dominance", "covering", "complexity", "brute")

#: Per-layer metrics, as listed in BENCHMARK.json.  A layer the workload
#: does not reach reads 0.
PER_LAYER = (
    ["adequate.min_cover_optimize.calls", "adequate.min_cover_optimize.s"]
    + ["adequate.size_sweep.calls", "adequate.size_sweep.s", "adequate.size_sweep.rows"]
    + ["adequate.enumerate_adequate.s", "adequate.enumerate_adequate.sets"]
    + ["adequate.min_cover_size.s", "adequate.adequate_sets_cached.s", "adequate.optimal_sets.s"]
    + ["strategy.matrix_from_set.s", "core.evaluate_matrix.calls", "core.evaluate_matrix.s"]
    + ["strategy.brute_force_optimal.s", "strategy.dedupe_player_permutation.s"]
    + ["polys.%s.%s" % (f, k) for f in ("sturm_chain", "count_roots_open", "isolate_roots_open", "refine_root") for k in ("calls", "s")]
    + ["analysis.%s.s" % f for f in ("dominance", "dominance_graph", "count_optimal_sets", "optimal_signature_classes", "psi_curve")]
    + ["cli.import_ms"]
    + ["cli.%s_ms" % c for c in CLI_SUBCOMMANDS]
    + ["cli.stdout_bytes"]
    + ["%s.self_s" % m for m in ("core", "adequate", "strategy", "polys", "analysis", "cli")]
    + ["trace.overhead_s"]
)


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class BenchError(Exception):
    pass


def worker(args: list, deadline: float) -> dict:
    """Run one worker to its end and return its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, WORKER] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any child it has
        proc.communicate()
        raise BenchError("worker %s ran past the time limit" % " ".join(args))
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d" % (" ".join(args), proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setup_only = common + ["--seconds", "0", "--setup-only"]
    setups = [worker(setup_only, deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    run = worker(common + ["--seconds", str(seconds)], deadline)
    setups += [worker(setup_only, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    setups.append(run["setup_s"])
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            "wall_s": statistics.median(run["passes"]),
            "op_p50_ms": statistics.median(run["latencies"]) * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        },
    }


def per_layer(name: str, seed: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", "0"]
    plain = worker(common, deadline)
    traced = worker(common + ["--trace"], deadline)
    values = dict.fromkeys(PER_LAYER, 0)
    spans = [traced["trace"]] + traced.get("child_traces", [])
    for metrics in spans:
        for key, value in metrics.items():
            if key in values and key != "cli.import_ms":
                values[key] += value
    if name == "cli":
        values["cli.import_ms"] = statistics.median(t["import_ms"] for t in traced["child_traces"])
        for sub in CLI_SUBCOMMANDS:
            walls = [s for label, s in plain["timings"].items() if label.split("-")[0] == sub]
            values["cli.%s_ms" % sub] = statistics.mean(walls) * 1000
        values["cli.stdout_bytes"] = plain["stdout_bytes"]
    values["trace.overhead_s"] = traced["passes"][0] - plain["passes"][0]
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hatgame", "__init__.py")):
        print("bench: no src/hatgame under %s; run from a source checkout" % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
            result["metrics"] = {
                k: {"value": v, "unit": {"wall_s": "s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}[k]}
                for k, v in result["metrics"].items()
            }
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
