"""One timed execution of one item, in a fresh process.

    python3 bench/worker.py JOB_JSON

JOB_JSON holds root (the checkout), argv (CLI arguments), out (where to
write this worker's measurements), item (its name) and trace (bool).
The worker imports relfix from root/src and nowhere else, times that
import, calls relfix.cli.main(argv) in-process and times it, and writes
its measurements as JSON.  The CLI writes its own report to the file the
argv names.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def calibrate() -> float:
    """Time a fixed kernel of set and tuple work, independent of relfix."""
    t0 = time.perf_counter()
    for k in range(2):
        a = frozenset((i, (i * 7 + k) % 300) for i in range(30000))
        b = frozenset((i, (i * 11 + k) % 300) for i in range(30000))
        len(a & b)
    return time.perf_counter() - t0


def main(job: dict) -> None:
    src = os.path.join(job["root"], "src")
    if not os.path.isfile(os.path.join(src, "relfix", "cli.py")):
        raise SystemExit(f"no relfix sources under {src}")
    sys.path.insert(0, src)
    calib_s = calibrate()
    t0 = time.perf_counter()
    import relfix.cli

    setup_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(relfix.cli.__file__))
    if where != os.path.join(os.path.abspath(src), "relfix"):
        raise SystemExit(f"imported relfix from {where}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["item"])
        tracer.install()
    error = None
    t1 = time.perf_counter()
    try:
        if tracer is None:
            code = relfix.cli.main(job["argv"])
        else:
            code = tracer.call("cli.main", True, relfix.cli.main, job["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # recorded and counted as a failed execution
        code = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.restore()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "calib_s": calib_s,
        "wall_s": wall_s,
        "exit": code,
        "error": error,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
