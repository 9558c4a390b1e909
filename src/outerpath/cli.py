"""Command-line interface.

Subcommands: ``count`` (induced path counts for a file, literal graph6
string or named construction), ``search`` (exhaustive extremal search),
``construct`` (emit a named construction), ``dual`` (weak dual export)
and ``verify-paper`` (the full check suite).  Output is JSON with a
stable field order; identical invocations produce byte-identical bytes
unless ``--timing`` is given.  Exit codes: 0 success / all checks pass,
1 check failures, 2 usage or input errors.  ``search`` and ``verify``
are imported only by the two commands that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import KINDS, ConstructionSpec, build
from .dual import weak_dual
from .graph import SCHEMA, Graph, to_dot
from .graph6 import from_graph6, to_graph6
from .outerplanar import OuterEmbedding, maximal_completion, outer_cycle
from .paths import count_induced_paths


def _emit(payload: dict | list | str, path: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(args: argparse.Namespace) -> tuple[Graph, OuterEmbedding | None]:
    sources = [s for s in (args.g6, args.infile, args.kind) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one of --g6, --in, --kind")
    if args.g6:
        return from_graph6(args.g6), None
    if args.infile:
        with open(args.infile) as fh:
            return from_graph6(fh.read().strip()), None
    spec = ConstructionSpec(args.kind, n=args.n, t=args.t)
    g, emb = build(spec)
    return g, emb


def _cmd_count(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    result = count_induced_paths(g, args.k)
    _emit({"schema": SCHEMA, "n": g.n, "k": result.k, "copies": result.copies}, args.json)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import extremal_value

    reports = [extremal_value(n, args.k, jobs=args.jobs) for n in args.n]
    if args.csv:
        lines = ["n,k,max_copies"] + [f"{r.n},{r.k},{r.max_copies}" for r in reports]
        _emit("\n".join(lines) + "\n", args.json)
        return 0
    payloads = [
        r.to_json_dict(include_witnesses=args.witnesses, timing=args.timing) for r in reports
    ]
    _emit(payloads[0] if len(payloads) == 1 else payloads, args.json)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = ConstructionSpec(args.kind, n=args.n, t=args.t)
    g, emb = build(spec)
    if args.out == "g6":
        sys.stdout.write(to_graph6(g) + "\n")
    elif args.out == "dot":
        sys.stdout.write(to_dot(g))
    else:
        _emit(
            {
                "schema": SCHEMA,
                "kind": args.kind,
                "n": g.n,
                "edges": g.edge_count(),
                "graph6": to_graph6(g),
                "order": emb.to_string(),
            },
            args.json,
        )
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    g, emb = _load_graph(args)
    if args.order:
        emb = OuterEmbedding.from_string(args.order)
    elif emb is None:
        emb = outer_cycle(g)
    if args.complete:
        g = maximal_completion(g, emb)
    dual = weak_dual(g, emb)
    if args.out == "dot":
        sys.stdout.write(dual.to_dot())
    else:
        _emit(
            {
                "schema": SCHEMA,
                "faces": [list(face) for face in dual.nodes],
                "dual_edges": [list(e) for e in dual.edges],
                "shared_edges": [
                    {"dual": list(d), "host": list(h)} for d, h in sorted(dual.shared_edge.items())
                ],
            },
            args.json,
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verify

    report = run_verify(only=args.only, jobs=args.jobs)
    if not report.checks:
        print(f"no check matches --only {args.only!r}", file=sys.stderr)
        return 2
    _emit(report.to_json_dict(timing=args.timing), args.json)
    return 0 if report.all_passed else 1


def _jobs(text: str) -> int:
    """The ``--jobs`` type of ``search`` and ``verify-paper``: a worker count of at least 1."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g6", help="graph6 string")
    p.add_argument("--in", dest="infile", help="path to a graph6 file")
    p.add_argument("--kind", choices=KINDS, help="named construction")
    p.add_argument("--n", type=int, help="vertex count for --kind")
    p.add_argument("--t", type=int, help="parameter t for --kind")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outerpath",
        description="Induced-path extremal toolkit for outerplanar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count induced k-vertex paths")
    _add_graph_source(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", help="write the JSON payload to this file")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("search", help="exhaustive extremal search")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    p.add_argument("--witnesses", action="store_true", help="include witness graph6 strings")
    p.add_argument("--csv", action="store_true", help="emit a flat n,k,max table")
    p.add_argument("--timing", action="store_true", help="include elapsed seconds")
    p.add_argument("--json", help="write the JSON payload to this file")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--out", choices=("g6", "dot", "json"), default="g6")
    p.add_argument("--json", help="write the JSON payload to this file")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("dual", help="weak dual of a maximal outerplanar graph")
    _add_graph_source(p)
    p.add_argument("--order", help="comma-separated outer-cycle order")
    p.add_argument("--complete", action="store_true", help="triangulate first")
    p.add_argument("--out", choices=("dot", "json"), default="json")
    p.add_argument("--json", help="write the JSON payload to this file")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("verify-paper", help="run the whole verification suite")
    p.add_argument("--only", help="run only checks whose name contains this substring")
    p.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    p.add_argument("--timing", action="store_true", help="include elapsed seconds")
    p.add_argument("--json", help="write the JSON payload to this file")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
