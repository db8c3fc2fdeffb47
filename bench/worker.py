"""One fresh interpreter that sets up a workload and runs timed passes.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--setup-only] [--trace]

Prints one JSON line.  ``setup_s`` runs from the first line of this file
to the end of the workload's set-up, so process spawn is excluded.
Without ``--trace`` it runs whole passes until the next one would end
after ``--seconds`` (at least one); with ``--trace`` it installs the
spans before set-up and runs exactly one pass.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(HERE, "_out")


def make_workload(name: str, seed: int, traced: bool):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        child = [sys.executable, os.path.join(HERE, "clitrace.py")] if traced else None
        return cls(seed, ROOT, OUT_DIR, child)
    return cls(seed)


def run_pass(workload, ops) -> tuple[float, list, dict, int]:
    """One closed-loop pass: each operation starts when the previous ends."""
    latencies, results, failed = [], {}, 0
    start = time.perf_counter()
    for label, op in ops:
        t = time.perf_counter()
        try:
            results[label] = op()
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            traceback.print_exc()
        latencies.append(time.perf_counter() - t)
    return time.perf_counter() - start, latencies, results, failed


def check_pass(workload, results: dict, tracer=None) -> tuple[bool, int]:
    """(answers correct, operations failed through a known fault)."""
    if tracer is not None:
        tracer.enabled = False
    try:
        return True, len(workload.check(results))
    except checks.CheckError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
    except Exception:
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.enabled = True
    return False, 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, [vars(workloads)])
    workload = make_workload(args.workload, args.seed, args.trace)
    workload.setup()
    setup_s = time.perf_counter() - START
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    ops = workload.operations()
    passes, latencies = [], []
    attempted = failed = 0
    correct = True
    begin = time.perf_counter()
    while True:
        # every pass starts from the same heap: the previous pass's garbage
        # is collected here, outside the timed region
        results = None
        gc.collect()
        wall, lat, results, pass_failed = run_pass(workload, ops)
        passes.append(wall)
        latencies += lat
        attempted += len(ops)
        if pass_failed:
            correct = False  # the checks need every result
        else:
            ok, known = check_pass(workload, results, tracer)
            correct = correct and ok
            pass_failed = known
        failed += pass_failed
        if args.trace or time.perf_counter() - begin + wall > args.seconds:
            break

    who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.Cli) else resource.RUSAGE_SELF
    out.update(
        passes=passes,
        latencies=latencies,
        attempted=attempted,
        failed=failed,
        correct=correct,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
    )
    if isinstance(workload, workloads.Cli):
        out.update(timings=workload.timings, stdout_bytes=workload.stdout_bytes, child_traces=workload.child_traces)
    if tracer is not None:
        out["trace"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
