"""relfix benchmark: times the CLI end to end, or each layer when traced.

    python3 bench/run.py --workload relate_deep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; relfix is imported from its src/.
Every execution of an item is a fresh worker process (bench/worker.py)
that calls relfix.cli.main in-process, one worker at a time, under
PYTHONHASHSEED=0.  Items repeat in round-robin order until the next round
would overrun --seconds, with at least MIN_ROUNDS rounds.  Each report is
checked by bench/oracles.py.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics,
or with --trace 1 the per-layer ones).  The exit code is 1 when any
execution failed and 2 when the checkout has no relfix sources.
See bench/README.md for the metrics and how to compare runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
MIN_ROUNDS = 2
# A run stops starting rounds after this long whatever --seconds says, so
# that it ends well within the three minutes a run may take.
HARD_STOP_S = 120.0
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def median(values) -> float:
    return statistics.median(values)


def iqr_frac(values) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def _timed(samples: list[dict]) -> list[dict]:
    """The samples whose worker reported measurements."""
    return [s for s in samples if "wall_s" in s]


def wall_sum(samples: list[dict]) -> float:
    """Sum over items of each item's median main() time."""
    by_item: dict[str, list] = {}
    for s in _timed(samples):
        by_item.setdefault(s["item"], []).append(s["wall_s"])
    return sum(median(v) for v in by_item.values())


def end_to_end(samples: list[dict]) -> dict:
    failed = sum(1 for s in samples if s["problems"])
    timed = _timed(samples) or [{"setup_s": 0.0, "maxrss_mb": 0.0}]
    values = {
        "setup_s": median([s["setup_s"] for s in timed]),
        "wall_s": wall_sum(samples),
        "peak_rss_mb": max(s["maxrss_mb"] for s in timed),
        "pass_frac": 1.0 - failed / len(samples),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# running items
# ---------------------------------------------------------------------------


def _argv(item: workloads.Item, run_dir: str, report: str) -> list[str]:
    if item.kind == "suite":
        return ["check", "--suite", item.suite, "--report", report]
    if item.kind == "golden":
        spec = os.path.join(ROOT, "tests", "specs", f"{item.name}.spec")
    else:
        spec = os.path.join(run_dir, f"{item.name}.spec")
    return ["relate", "--spec", spec, "--method", "all", "--report", report]


class Runner:
    """Executes items in workers and checks every report."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.samples: list[dict] = []
        self.dumps: list[dict] = []
        self._reference: dict[str, str] = {}
        self._env = dict(os.environ, PYTHONHASHSEED="0")

    def write_specs(self, items) -> None:
        for item in items:
            if item.spec is not None:
                with open(os.path.join(self.run_dir, f"{item.name}.spec"), "w", encoding="utf-8") as fh:
                    fh.write(item.spec)

    def _failed(self, sample: dict, problem: str) -> dict:
        sample["problems"] = [problem]
        self.samples.append(sample)
        return sample

    def execute(self, item: workloads.Item, round_no: int, trace: bool) -> dict:
        report = os.path.join(self.run_dir, "report.json")
        out = os.path.join(self.run_dir, "worker.json")
        for path in (report, out):
            if os.path.exists(path):
                os.remove(path)
        job = {
            "root": ROOT,
            "argv": _argv(item, self.run_dir, report),
            "out": out,
            "item": item.name,
            "trace": trace,
        }
        sample = {"item": item.name, "round": round_no, "traced": trace}
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(job)],
                cwd=ROOT,
                env=self._env,
                capture_output=True,
                text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._failed(sample, f"worker timed out after {WORKER_TIMEOUT_S:.0f} s")
        try:
            with open(out, encoding="utf-8") as fh:
                measured = json.load(fh)
        except (OSError, ValueError):
            return self._failed(
                sample, f"worker exited {proc.returncode} without a result: {proc.stderr[-400:]}"
            )
        trace_dump = measured.pop("trace")
        if trace_dump is not None:
            self.dumps.append(trace_dump)
        sample.update(measured)
        report_bytes = None
        if os.path.exists(report):
            with open(report, "rb") as fh:
                report_bytes = fh.read()
        problems = []
        if measured["error"]:
            problems.append("raised: " + measured["error"].strip().splitlines()[-1])
        problems += oracles.problems(item, measured["exit"], report_bytes, ROOT)
        if report_bytes is not None:
            digest = hashlib.sha256(report_bytes).hexdigest()
            ref = self._reference.setdefault(item.name, digest)
            if digest != ref:
                problems.append("report bytes differ from the item's first execution")
        sample["problems"] = problems
        self.samples.append(sample)
        return sample


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = workloads.items(workload, seed)
    run_dir = tempfile.mkdtemp(prefix=".bench_run_", dir=ROOT)
    try:
        runner = Runner(run_dir)
        runner.write_specs(items)
        start = time.perf_counter()
        rounds = 0
        while True:
            for item in items:
                runner.execute(item, rounds, trace=False)
                if trace:
                    runner.execute(item, rounds, trace=True)
            rounds += 1
            elapsed = time.perf_counter() - start
            if trace or elapsed >= HARD_STOP_S:
                break
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
                break
        return {
            "workload": workload,
            "seed": seed,
            "items": items,
            "rounds": rounds,
            "elapsed_s": time.perf_counter() - start,
            "samples": runner.samples,
            "dumps": runner.dumps,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# diagnostics and output
# ---------------------------------------------------------------------------


def _read_proc(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_times() -> list[int] | None:
    text = _read_proc("/proc/stat")
    if not text or not text.startswith("cpu "):
        return None
    return [int(v) for v in text.splitlines()[0].split()[1:]]


def _steal_frac(before, after) -> float | None:
    if before is None or after is None or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return delta[7] / total if total else None


def diagnostics(run: dict, steal) -> dict:
    untraced = [s for s in _timed(run["samples"]) if not s["traced"]]
    by_item: dict[str, list] = {}
    for s in untraced:
        by_item.setdefault(s["item"], []).append(s)
    load = _read_proc("/proc/loadavg")
    out = {
        "rounds": run["rounds"],
        "elapsed_s": run["elapsed_s"],
        "proc.calib_s": median([s["calib_s"] for s in untraced] or [0.0]),
        "proc.cpu_s": sum(median([s["cpu_s"] for s in v]) for v in by_item.values()),
        "proc.steal_frac": steal,
        "proc.loadavg": float(load.split()[0]) if load else None,
        "items": {
            name: {
                "median_s": median([s["wall_s"] for s in v]),
                "iqr_frac": iqr_frac([s["wall_s"] for s in v]),
                "samples": len(v),
            }
            for name, v in by_item.items()
        },
    }
    traced = [s for s in _timed(run["samples"]) if s["traced"]]
    if traced and untraced:
        out["trace.overhead_frac"] = wall_sum(traced) / wall_sum(untraced) - 1.0
    return out


def _print_block(run: dict, metrics: dict, diag: dict) -> None:
    seeded = next((i for i in run["items"] if i.name == "seeded"), None)
    print(f"== {run['workload']} (seed {run['seed']}, {diag['rounds']} rounds, "
          f"{diag['elapsed_s']:.1f} s)")
    if seeded is not None:
        print(f"   seeded item: {seeded.spec.strip().replace(chr(10), '; ')}")
    for name, m in metrics.items():
        print(f"   {name:<36} {m['value']:>14.6g} {m['unit']}")
    for key in ("proc.calib_s", "proc.cpu_s", "proc.steal_frac", "proc.loadavg", "trace.overhead_frac"):
        if key in diag and diag[key] is not None:
            print(f"   {key:<36} {diag[key]:>14.6g} (diagnostic)")
    for name, d in diag["items"].items():
        print(f"   item {name:<31} {d['median_s']:>10.4f} s  iqr {d['iqr_frac']:.3f}  n={d['samples']}")
    for s in run["samples"]:
        for p in s["problems"]:
            print(f"   FAILED {s['item']} round {s['round']}: {p}")


def _write_spans(run: dict) -> None:
    """Keep the traced run's spans: one JSON object per span."""
    out_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{run['workload']}_seed{run['seed']}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for dump in run["dumps"]:
            for name, start, end, parent, item in dump["spans"]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
    print(f"   spans written to {os.path.relpath(path, ROOT)}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    before = _cpu_times()
    run = run_workload(workload, seed, seconds, trace)
    diag = diagnostics(run, _steal_frac(before, _cpu_times()))
    if trace:
        metrics = tracing.layer_metrics(run["dumps"])
    else:
        metrics = end_to_end(run["samples"])
    _print_block(run, metrics, diag)
    if trace:
        _write_spans(run)
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/relfix/cli.py", "tests/golden", "tests/specs")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a relfix checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        run, m = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += len(run["samples"])
        failed += sum(1 for s in run["samples"] if s["problems"])
        if args.workload == "all":
            m = {f"{name}/{k}": v for k, v in m.items()}
        metrics.update(m)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
