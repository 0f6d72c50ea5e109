"""Command-line interface.

Subcommands: enumerate, canonical, dim, graph, minimal, desing, verify.
All structured output is JSON (one object per line for streams); graphs
can also be exported as DOT.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canonical import canonical_datum
from .poset import (
    build_graph,
    desingularization,
    enumerate_orbits,
    minimal_orbits,
)
from .serialize import (
    datum_from_json,
    datum_to_json,
    desing_to_json,
    graph_to_dot,
    graph_to_json,
    parse_matrix_text,
)
from .verify import run_suites
from .young import strata, stratum


def _add_nkl(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgorbits",
        description="B-orbits in a product of two Grassmannians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all orbit data for (n, k, l)")
    _add_nkl(p)
    p.add_argument("--d", type=int, default=None,
                   help="restrict to the stratum dim(U cap W) = d")
    p.add_argument("--derived", action="store_true",
                   help="attach dim/rank/stratum to every record")

    p = sub.add_parser("canonical",
                       help="orbit datum of an explicit subspace pair")
    p.add_argument("file", help="matrix text file, or - for stdin")

    p = sub.add_parser("dim", help="derived invariants of a datum (JSON in)")
    p.add_argument("file", nargs="?", default="-",
                   help="orbit datum JSON file, or - for stdin")

    p = sub.add_parser("graph", help="weak-order raising graph")
    _add_nkl(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = sub.add_parser("minimal", help="minimal orbits per stratum")
    _add_nkl(p)
    p.add_argument("--d", type=int, default=None)

    p = sub.add_parser("desing",
                       help="desingularization data for a datum (JSON in)")
    p.add_argument("file", nargs="?", default="-",
                   help="orbit datum JSON file, or - for stdin")

    p = sub.add_parser("verify", help="run the cross-check suites")
    _add_nkl(p)
    p.add_argument("--prime", type=int, default=1009,
                   help="prime for the B-invariance trials")
    p.add_argument("--trials", type=int, default=1000)
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_datum(path: str):
    try:
        obj = json.loads(_read_text(path))
    except RecursionError as exc:
        raise ValueError("the JSON is nested too deeply") from exc
    return datum_from_json(obj)


def _cmd_enumerate(args) -> int:
    for datum in enumerate_orbits(args.n, args.k, args.l):
        if args.d is not None and stratum(datum) != args.d:
            continue
        print(json.dumps(datum_to_json(datum, derived=args.derived)))
    return 0


def _cmd_canonical(args) -> int:
    U, W = parse_matrix_text(_read_text(args.file))
    datum = canonical_datum(U, W)
    print(json.dumps(datum_to_json(datum, derived=True)))
    return 0


def _cmd_dim(args) -> int:
    datum = _read_datum(args.file)
    print(json.dumps(datum_to_json(datum, derived=True)["derived"]))
    return 0


def _cmd_graph(args) -> int:
    graph = build_graph(args.n, args.k, args.l)
    if args.format == "dot":
        sys.stdout.write(graph_to_dot(graph))
    else:
        print(json.dumps(graph_to_json(graph)))
    return 0


def _cmd_minimal(args) -> int:
    ds = strata(args.n, args.k, args.l) if args.d is None else [args.d]
    for d in ds:
        mins = minimal_orbits(args.n, args.k, args.l, d)
        print(json.dumps({
            "d": d,
            "count": len(mins),
            "orbit_dim": (args.k - d) * (args.l - d),
            "data": [datum_to_json(m) for m in mins],
        }))
    return 0


def _cmd_desing(args) -> int:
    datum = _read_datum(args.file)
    print(json.dumps(desing_to_json(desingularization(datum))))
    return 0


def _cmd_verify(args) -> int:
    results = run_suites(
        args.n, args.k, args.l,
        prime=args.prime,
        trials=args.trials,
    )
    for res in results:
        print(json.dumps(res.as_dict()))
    return 0 if all(res.passed for res in results) else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "canonical": _cmd_canonical,
    "dim": _cmd_dim,
    "graph": _cmd_graph,
    "minimal": _cmd_minimal,
    "desing": _cmd_desing,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
