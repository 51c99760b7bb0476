"""Command line interface: enumerate, graph, counts, verify, reflect-scan.

All outputs are byte-deterministic for fixed inputs: nodes, arrows and JSON
fields are emitted in fixed order.  Exit codes: 0 success, 1 verification
failure, 2 usage error, and 141 (EXIT_CLOSED_STDOUT, 128 + SIGPIPE, as a
shell reports a writer killed by a closed pipe) when the reader closes stdout
before the output ends.  The last is `run`'s: every entry point (`python -m
tiltquiver`, `python -m tiltquiver.cli` and the `tiltquiver` script) goes
through it, while `main` leaves a closed stdout to its caller.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .models import FAMILIES, all_orientations, builder_param, guard
from .quiver import twins
from .tilting import (
    closed_form_counts,
    tilting_modules_json_chunks,
    tilting_quiver_dot_chunks,
    tilting_quiver_json_chunks,
    transient_counts,
    transient_quiver,
)

EXIT_CLOSED_STDOUT = 141


def _parse_bits(text, needed, parser):
    if len(text) != needed or any(c not in "01" for c in text):
        bits = "bit" if needed == 1 else "bits"
        parser.error(f"orientation must be {needed} {bits} of 0/1, got {text!r}")
    return [c == "1" for c in text]


def _param(kind, rank, parser):
    try:
        param = builder_param(kind, rank)
    except ValueError as exc:
        parser.error(str(exc))
    # before any quiver is built, so a rank far past the guard exits 2 at once
    guard(kind, rank)
    return param


def _build_quiver(kind, rank, orientation, parser):
    param = _param(kind, rank, parser)
    bits = None if orientation == "reference" else _parse_bits(orientation, rank - 1, parser)
    return FAMILIES[kind].reference(param, bits)


def _cmd_enumerate(args, parser, out):
    q = _build_quiver(args.type, args.rank, args.orientation, parser)
    tq = transient_quiver(q)
    if args.format == "csv":
        # labels hold commas and never a double quote, so their field is quoted
        labels = tq.table.labels()
        out.write("index,ids,labels\n")
        out.writelines(
            f"{i},{'|'.join(map(str, t))},\"{'|'.join([labels[s] for s in t])}\"\n"
            for i, t in enumerate(tq.nodes)
        )
    else:
        fields = {"type": args.type, "rank": args.rank, "orientation": args.orientation}
        out.writelines(tilting_modules_json_chunks(tq, fields))
    return 0


def _cmd_graph(args, parser, out):
    q = _build_quiver(args.type, args.rank, args.orientation, parser)
    tq = transient_quiver(q)
    if args.format == "json":
        out.writelines(tilting_quiver_json_chunks(tq))
    else:
        out.writelines(tilting_quiver_dot_chunks(tq))
    return 0


@contextmanager
def _every_digit():
    """Let ints of any length be written in decimal inside the block.

    Python 3.11, and 3.10 from 3.10.7, refuse to convert an int of more than
    4300 digits to decimal; the closed-form counts pass that length near
    rank 7,100.  Earlier Pythons have no limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_counts(args, parser, out):
    rows = []
    if args.source in ("closed-form", "both"):
        try:
            v, a = closed_form_counts(args.type, args.rank)
        except ValueError as exc:
            parser.error(str(exc))
        rows.append((v, a, "closed-form"))
    if args.source in ("enumeration", "both"):
        # a rank past the guard raises here and is reported like any other command's
        q = _build_quiver(args.type, args.rank, "reference", parser)
        rows.append((*transient_counts(q), "enumeration"))
    if args.type == "D" and args.rank == 3:
        sys.stderr.write("note: rank 3 of type D coincides with type A rank 3\n")
    with _every_digit():
        if args.format == "csv":
            out.write("type,rank,vertices,arrows,source\n")
            for v, a, src in rows:
                out.write(f"{args.type},{args.rank},{v},{a},{src}\n")
        elif args.format == "json":
            payload = [
                {"type": args.type, "rank": args.rank, "vertices": v, "arrows": a, "source": src}
                for v, a, src in rows
            ]
            out.write(json.dumps(payload) + "\n")
        else:
            for v, a, src in rows:
                suffix = "" if len(rows) == 1 else f" source={src}"
                out.write(f"vertices={v} arrows={a}{suffix}\n")
    return 0


def _cmd_verify(args, parser, out):
    # imported here, so that the other commands do not load the checks
    from .verify import run_suite

    try:
        results = run_suite(args.suite, args.max_rank)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "suite": args.suite,
        "max_rank": args.max_rank,
        "checks": [
            {"check": r.check, "instance": r.instance, "status": r.status}
            | ({"counterexample": r.detail} if r.detail else {})
            for r in results
        ],
        "failures": sum(1 for r in results if r.status != "pass"),
    }
    out.write(json.dumps(payload) + "\n")
    if payload["failures"]:
        failing = [c for c in payload["checks"] if c["status"] != "pass"]
        sys.stderr.write(json.dumps({"failures": failing}) + "\n")
        return 1
    return 0


def _cmd_reflect_scan(args, parser, out):
    oriented = all_orientations(args.type, _param(args.type, args.rank, parser))
    counts = {}  # quiver -> (vertices, arrows)
    lines = []
    for bits, q in oriented:
        # an orbit shares its counts (`tilting_quiver`), so each is counted once
        key = next((counts[t] for t, _, _ in twins(q) if t in counts), None)
        if key is None:
            key = transient_counts(q)
        counts[q] = key
        text = "".join("1" if b else "0" for b in bits)
        lines.append((text, key))
    if args.format == "csv":
        out.write("orientation,vertices,arrows\n")
        for text, (v, a) in sorted(lines):
            out.write(f"{text},{v},{a}\n")
    else:
        for text, (v, a) in sorted(lines):
            out.write(f"orientation={text} vertices={v} arrows={a}\n")
        out.write(f"distinct={len(set(counts.values()))}\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tiltquiver",
        description="Exact tilting-module enumeration over type A/D path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--type", choices=("A", "D"), required=True)
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--orientation", default="reference")

    p_enum = sub.add_parser("enumerate", help="list all basic tilting modules")
    add_common(p_enum)
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")

    p_graph = sub.add_parser("graph", help="export the tilting quiver")
    add_common(p_graph)
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")

    p_counts = sub.add_parser("counts", help="closed-form vertex/arrow counts")
    p_counts.add_argument("--type", choices=("A", "D"), required=True)
    p_counts.add_argument("--rank", type=int, required=True)
    p_counts.add_argument(
        "--source", choices=("closed-form", "enumeration", "both"), default="closed-form"
    )
    p_counts.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--max-rank", type=int, default=5, dest="max_rank")

    p_scan = sub.add_parser("reflect-scan", help="counts across all orientations")
    p_scan.add_argument("--type", choices=("A", "D"), required=True)
    p_scan.add_argument("--rank", type=int, required=True)
    p_scan.add_argument("--format", choices=("text", "csv"), default="text")

    return parser


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "graph": _cmd_graph,
    "counts": _cmd_counts,
    "verify": _cmd_verify,
    "reflect-scan": _cmd_reflect_scan,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser, sys.stdout)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run(argv=None):
    """Run `main` as a process and return its exit status.

    A reader that closes stdout early (`... | head`) ends the run with
    EXIT_CLOSED_STDOUT and nothing on stderr.
    """
    try:
        status = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at /dev/null so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CLOSED_STDOUT
    return status


if __name__ == "__main__":
    sys.exit(run())
