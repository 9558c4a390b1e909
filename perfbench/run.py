"""outerpath benchmark: one workload, timed end to end or traced per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (rep.py), because outerpath
keeps per-process caches (``search._census_cache`` and the ``lru_cache``
on ``canonical_form``) that one-shot CLI users never see warm.
Repetitions of the same seeded inputs start until the next one would end
after ``--seconds``; at least one always runs.  ``setup_s`` is the median
over several import-only interpreters plus every repetition's own import.

With ``--trace 0`` the result line carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` one more repetition runs with the span
tracer installed and the line carries the per-layer metrics instead.  The
last line of stdout is the JSON result; the lines before it restate the
metrics for a reader, together with the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
REP_TIMEOUT_S = 150


def _spawn(root: Path, workdir: Path, workload: str, seed: int, *flags: str) -> tuple[dict, float]:
    """Run rep.py in a fresh interpreter; return its JSON result and its duration."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), repr(started), workload, str(seed), str(workdir), *flags]
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1]), time.monotonic() - started


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(root: Path, workdir: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    _spawn(root, workdir, workload, seed, "--setup-only")  # writes bytecode caches
    setups = [_spawn(root, workdir, workload, seed, "--setup-only")[0]["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start + statistics.median(durations) <= seconds:
        rep, duration = _spawn(root, workdir, workload, seed)
        reps.append(rep)
        durations.append(duration)
        setups.append(rep["setup_s"])
    latencies_ms = [1000 * t for rep in reps for t in rep["latencies_s"]]
    wall = statistics.median(rep["wall_s"] for rep in reps)
    result = {
        "reps": len(reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "extra": reps[0]["extra"],
        "end_to_end": {
            "wall_s": wall,
            "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        },
        "per_layer": {
            "query_p50_ms": statistics.median(latencies_ms),
            "query_p99_ms": _percentile(latencies_ms, 99),
        },
    }
    if traced:
        rep, _ = _spawn(root, workdir, workload, seed, "--trace")
        result["attempted"] += rep["attempted"]
        result["failed"] += rep["failed"]
        result["per_layer"].update(rep["layers"], trace_overhead_ratio=rep["wall_s"] / wall)
    return result


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (root / "src" / "outerpath" / "__init__.py").is_file():
        print(f"no outerpath source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"

    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    try:
        result = measure(root, workdir, args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result[section]
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {result['reps']} untraced repetitions")
    shown = {name: m for name, m in metrics.items() if m["value"] or not args.trace}
    for name, m in shown.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  ({len(metrics) - len(shown)} per-layer metrics read 0 on this workload)")
        self_times = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s") and v), reverse=True)
        print("  largest self times: " + ", ".join(f"{k} {v:.3g} s" for v, k in self_times[:6]))
    print(f"  error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    for name, value in result["extra"].items():
        print(f"  {name} = {value:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
