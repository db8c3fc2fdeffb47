"""``python -m hatgame`` with spans: the cli workload's child in traced runs.

    python3 bench/clitrace.py <hatgame arguments>

Imports the CLI, installs the spans, runs ``hatgame.cli.main`` and writes
its span totals, plus the import time in ms, as the last line of stderr.
"""

import time

START = time.perf_counter()

import hatgame.cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - START) * 1000

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
from workloads import TRACE_PREFIX  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    code = hatgame.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(dict(tracer.metrics(), import_ms=IMPORT_MS)), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
