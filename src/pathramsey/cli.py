"""Command-line surface: orient, verify, witness.

Exit codes: 0 = verified/pass, 1 = counterexample or violation found,
2 = indeterminate (budget exhausted), 3 = input error.  Graph corpora stream
as one graph6 string per line; results stream as line-delimited JSON.  Set
RAMSEY_ORIENT_LOG=debug (or info/warning) to control log verbosity; at debug
every orientation logs its longest-cycle case and winning strategy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from typing import IO, Iterable

from . import decompose, goodness, hypergraphs, orientation
from .graphs import (
    Graph,
    GraphError,
    colored_from_json,
    colored_to_json,
    graph6_decode,
    graph6_encode,
    orientation_from_json,
    orientation_to_json,
    path_graph,
    star_graph,
    complete_graph,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT_ERROR = 3

log = logging.getLogger("pathramsey")


def _configure_logging() -> None:
    level = os.environ.get("RAMSEY_ORIENT_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def parse_target(token: str) -> Graph:
    """P<n> path, S<n> star, K<n> clique; e.g. P5, S4, K3."""
    token = token.strip().upper()
    if len(token) < 2 or token[0] not in "PSK" or not token[1:].isdigit():
        raise GraphError(f"cannot parse target {token!r}; use P<n>, S<n>, or K<n>")
    n = int(token[1:])
    if n < 1:
        raise GraphError(f"target {token!r} needs a positive order")
    return {"P": path_graph, "S": star_graph, "K": complete_graph}[token[0]](n)


def parse_targets(spec: str, colors: int | None) -> list[Graph]:
    targets = [parse_target(t) for t in spec.split(",") if t.strip()]
    if not targets:
        raise GraphError("no targets given")
    if colors is not None:
        if len(targets) == 1:
            targets = targets * colors
        elif len(targets) != colors:
            raise GraphError(f"{len(targets)} targets given but --colors {colors}")
    return targets


def _open_input(path: str | None):
    """Context manager for an input stream; never closes stdin."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdin)
    return open(path)


def _open_output(path: str | None):
    """Context manager for an output stream; never closes stdout."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _budget(args) -> goodness.Budget:
    return goodness.Budget(
        max_nodes=args.budget_colorings, max_seconds=args.budget_seconds
    )


def _read_graphs(stream: IO[str]) -> Iterable[Graph]:
    """One graph per nonempty line: graph6, or a JSON graph document."""
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if line.startswith("{"):
            yield colored_from_json(line).graph
        else:
            yield graph6_decode(line)


def cmd_orient(args) -> int:
    orienter = orientation.ORIENTERS[args.family]
    worst = EXIT_PASS
    with _open_input(args.input) as src, _open_output(args.output) as dst:
        for g in _read_graphs(src):
            record: dict = {"n": g.n, "graph6": graph6_encode(g)}
            try:
                # the constructors return only marks the checker has passed
                po = orientation.oriented_part(g, orienter(g))
                record["orientation"] = json.loads(orientation_to_json(po))
                record["passed"] = True
                record["violations"] = []
            except GraphError as exc:
                # no strategy passed: a violation; anything else is bad input
                record["passed"] = False
                record["error"] = str(exc)
                if isinstance(exc, orientation.NotPNFreeError):
                    record["witness_path"] = exc.witness
                failed = isinstance(exc, orientation.OrientationError)
                worst = max(worst, EXIT_VIOLATION if failed else EXIT_INPUT_ERROR)
            print(json.dumps(record), file=dst)
    return worst


def _report_ramsey(report: goodness.RamseyReport, dst: IO[str]) -> int:
    doc = {
        "outcome": report.outcome.value,
        "colorings_checked": report.colorings_checked,
        "elapsed_seconds": round(report.elapsed, 3),
    }
    if report.witness is not None:
        doc["witness"] = json.loads(colored_to_json(report.witness))
    print(json.dumps(doc), file=dst)
    if report.outcome is goodness.RamseyOutcome.IS_RAMSEY:
        return EXIT_PASS
    if report.outcome is goodness.RamseyOutcome.INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_VIOLATION


def cmd_verify_ramsey(args) -> int:
    targets = parse_targets(args.targets, args.colors)
    report = goodness.verify_ramsey_value(
        args.N, targets, _budget(args), workers=args.workers
    )
    with _open_output(args.output) as dst:
        return _report_ramsey(report, dst)


def cmd_verify_goodness(args) -> int:
    targets = parse_targets(args.targets, args.colors)
    with _open_input(args.input) as src:
        graphs = list(_read_graphs(src))
    worst = EXIT_PASS
    with _open_output(args.output) as dst:
        for g in graphs:
            cert = goodness.verify_goodness(g, targets, _budget(args), workers=args.workers)
            doc = {
                "graph6": graph6_encode(g),
                "verdict": cert.verdict.value,
                "colorings_checked": cert.colorings_checked,
            }
            if cert.witness is not None:
                doc["witness"] = json.loads(colored_to_json(cert.witness))
            print(json.dumps(doc), file=dst)
            if cert.verdict is goodness.GoodnessVerdict.COUNTEREXAMPLE_COLORING:
                worst = max(worst, EXIT_VIOLATION)
            elif cert.verdict is goodness.GoodnessVerdict.INDETERMINATE:
                worst = max(worst, EXIT_INDETERMINATE)
    return worst


def cmd_verify_lemma(args) -> int:
    params = orientation.BoundParams(args.n, args.s, args.t)
    with _open_input(args.input) as src:
        po = orientation_from_json(src.read())
    verdict = decompose.validate_technical_lemma(po, params)
    with _open_output(args.output) as dst:
        print(
            json.dumps({"status": verdict.status.value, "details": list(verdict.details)}),
            file=dst,
        )
    return EXIT_PASS if verdict.status is decompose.LemmaStatus.PASS else EXIT_VIOLATION


def cmd_verify_pipeline(args) -> int:
    with _open_input(args.input) as src:
        cg = colored_from_json(src.read())
    report = decompose.run_pipeline(cg)
    with _open_output(args.output) as dst:
        print(json.dumps(report.to_jsonable()), file=dst)
    return EXIT_PASS


def cmd_verify_chi_index(args) -> int:
    with _open_input(args.input) as src:
        h = hypergraphs.Hypergraph3.from_json(src.read())
    chi = hypergraphs.chromatic_index(h, _budget(args))
    doc = {
        "hyperedges": len(h.edges),
        "chi_index": chi,
        "indeterminate": chi is None,
    }
    with _open_output(args.output) as dst:
        print(json.dumps(doc), file=dst)
    return EXIT_INDETERMINATE if chi is None else EXIT_PASS


def cmd_witness(args) -> int:
    po = orientation.build_witness(args.N)
    with _open_output(args.output) as dst:
        if args.format == "graph6":
            print(graph6_encode(po.base.graph), file=dst)
        else:
            print(orientation_to_json(po), file=dst)
    return EXIT_PASS


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-colorings", type=int, default=None,
                   help="abort after this many search states (Indeterminate)")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="abort after this much wall-clock time (Indeterminate)")
    p.add_argument("--workers", type=int, default=1, help="worker process count")


def _add_io_flags(p: argparse.ArgumentParser, need_input: bool) -> None:
    if need_input:
        p.add_argument("--input", default=None, help="input path, - or absent for stdin")
    p.add_argument("--output", default=None, help="output path, - or absent for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathramsey",
        description="Orientation construction and exhaustive Ramsey verification "
        "for path targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orient = sub.add_parser("orient", help="orient a stream of path-free graphs")
    p_orient.add_argument("--family", choices=("p5", "p6", "p7"), required=True)
    _add_io_flags(p_orient, need_input=True)
    p_orient.set_defaults(fn=cmd_orient)

    p_verify = sub.add_parser("verify", help="run a verification job")
    vsub = p_verify.add_subparsers(dest="kind", required=True)

    p_ram = vsub.add_parser("ramsey", help="confirm a Ramsey number by exhaustion")
    p_ram.add_argument("--N", type=int, required=True)
    p_ram.add_argument("--targets", required=True, help="e.g. P5,P5 or P4 with --colors 3")
    p_ram.add_argument("--colors", type=int, default=None)
    _add_budget_flags(p_ram)
    _add_io_flags(p_ram, need_input=False)
    p_ram.set_defaults(fn=cmd_verify_ramsey)

    p_good = vsub.add_parser("goodness", help="check every coloring of given hosts hits a target")
    p_good.add_argument("--targets", required=True)
    p_good.add_argument("--colors", type=int, default=None)
    _add_budget_flags(p_good)
    _add_io_flags(p_good, need_input=True)
    p_good.set_defaults(fn=cmd_verify_goodness)

    p_lem = vsub.add_parser("lemma", help="bounded parts + high degree force main parts")
    p_lem.add_argument("--n", type=int, required=True)
    p_lem.add_argument("--s", type=int, required=True)
    p_lem.add_argument("--t", type=int, required=True)
    _add_io_flags(p_lem, need_input=True)
    p_lem.set_defaults(fn=cmd_verify_lemma)

    p_pipe = vsub.add_parser("pipeline", help="main-part multigraph coloring pipeline")
    _add_io_flags(p_pipe, need_input=True)
    p_pipe.set_defaults(fn=cmd_verify_pipeline)

    p_chi = vsub.add_parser("chi-index", help="exact chromatic index of a 3-uniform hypergraph")
    _add_budget_flags(p_chi)
    _add_io_flags(p_chi, need_input=True)
    p_chi.set_defaults(fn=cmd_verify_chi_index)

    p_wit = sub.add_parser("witness", help="emit the two-colored path-avoiding witness")
    p_wit.add_argument("--N", type=int, required=True)
    p_wit.add_argument("--format", choices=("json", "graph6"), default="json")
    _add_io_flags(p_wit, need_input=False)
    p_wit.set_defaults(fn=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphError as exc:
        log.error("%s", exc)
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
