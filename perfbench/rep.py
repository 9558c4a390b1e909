"""One repetition of one workload, in the fresh interpreter run.py starts.

Usage: python3 rep.py SPAWNED WORKLOAD SEED WORKDIR [--trace | --setup-only]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
interpreter, so ``setup_s`` covers interpreter start-up plus ``import
outerpath`` (numpy included), the cost every CLI call pays.  The wall and
CPU clocks start after all imports and stop once the last result has been
checked.  Prints one JSON object on stdout; a traced repetition also
writes its spans to .perfbench_traces/ under the working directory.
"""

import sys
import time

import outerpath

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


TRACES = Path.cwd() / ".perfbench_traces"


def _cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest child.
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024


def main(argv: list[str]) -> int:
    spawned, name, seed, workdir = float(argv[0]), argv[1], int(argv[2]), Path(argv[3])
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(outerpath.__file__).resolve().parents:
        print(f"outerpath was imported from {outerpath.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": IMPORTED - spawned}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return 0

    run = workloads.WORKLOADS[name](seed, workdir)
    tracer = None
    if "--trace" in argv:
        canonical_form = outerpath.graph.canonical_form
        tracer = spans.Tracer()
        spans.install(tracer, outerpath)
    self0, children0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outcome = run()
    wall = time.perf_counter() - t0
    children = _cpu_s(resource.RUSAGE_CHILDREN) - children0
    result.update(
        wall_s=wall,
        cpu_s=_cpu_s(resource.RUSAGE_SELF) - self0 + children,
        peak_rss_mb=_peak_rss_mb(),
        attempted=outcome.attempted,
        failed=outcome.failed,
        latencies_s=outcome.latencies_s,
        extra=outcome.extra,
    )
    if tracer is not None:
        tracer.dump(TRACES / f"{name}-seed{seed}.json")
        layers = {"search.children_cpu_s": children}
        layers.update(tracer.counts)
        for span, row in tracer.summary().items():
            for field, value in row.items():
                layers[f"{span}.{field}"] = value
        info = canonical_form.cache_info()
        lookups = info.hits + info.misses
        layers["graph.canonical_form.hits"] = info.hits
        layers["graph.canonical_form.misses"] = info.misses
        layers["graph.canonical_form.hit_ratio"] = info.hits / lookups if lookups else 0.0
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
