"""Command-line front end.

    miniscp specialize --pattern aab [--program FILE] [--out FILE]
                       [--dot FILE] [--report] [--stats]
    miniscp run --program FILE --entry NAME --input WORD [--steps] [--fuel N]
    miniscp failure --pattern ababa
    miniscp verify [--pattern aab | --corpus default] [--seed N] [--timings]
    miniscp tree --pattern aab --dot FILE

Exit codes: 0 success, 1 semantic failure (failed check, evaluation error,
a file that cannot be read or written), 2 usage error, 141 (128 + SIGPIPE,
as a shell reports it) when the reader of the output closes it early, as
`| head` does.
"""

from __future__ import annotations

import argparse
import os
import sys

from .configs import config_text
from .driving import DriveError
from .interpreter import EvalError, Outcome, eval_call, naive_matcher
from .kmp import table_rows
from .residual import (
    ResidualError, render_residual, residual_lines, residualize,
)
from .scp import ScpError, export_dot, graph_lines, specialize_pattern
from .syntax import (
    Call, ParseError, Program, ValidationError, parse_program, render_expr,
    word,
)


def _load_program(path: str | None) -> Program:
    if path is None or path == "builtin":
        return naive_matcher()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, leaving the bytes that
    `open(path, "w", encoding="utf-8")` leaves, but without truncating
    first: a rewrite no shorter than the old file overwrites its blocks in
    place, where truncating frees them (30-70 ms on a 2-core ext4 box
    mounted with `discard`).  The file is cut to the new length only when
    the old one was longer; a pipe, a tty or /dev/null reports size 0 and
    is never cut."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = data
        while rest:
            rest = rest[os.write(fd, rest):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _word_arg(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("pattern words must be nonempty")
    return text


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a whole number of at least 1, not {text!r}")
    return n


def _cmd_specialize(args, out, err) -> int:
    program = _load_program(args.program)
    graph, report = specialize_pattern(args.pattern, program,
                                       node_budget=args.node_budget)
    rp = residualize(graph)
    text = render_residual(rp)
    if args.out:
        _write_text(args.out, text)
    else:
        out.write(text)
    if args.dot:
        _write_text(args.dot, export_dot(graph))
    if args.report:
        out.write(f"pattern: {args.pattern}\n")
        out.write(f"pivots: {len(report.pivots)}\n")
        for k, cfg in enumerate(report.pivots):
            out.write(f"  pivot {k}: {config_text(cfg)}\n")
        out.write(f"nodes: {report.node_count}\n")
        out.write(f"folds: {report.fold_count}\n")
        out.write(
            f"generalizations_attempted: {report.generalizations_attempted}\n")
        for line in residual_lines(rp):
            out.write(line + "\n")
    if args.stats:
        err.write(f"nodes: {report.node_count}\n"
                  f"folds: {report.fold_count}\n"
                  f"drive_steps: {report.drive_steps}\n"
                  f"ground_steps: {report.ground_steps}\n"
                  f"transient_steps: {report.transient_steps}\n"
                  f"whistle_fires: {report.generalizations_attempted}\n"
                  f"whistle_checks: {report.whistle_checks}\n"
                  f"ground_runs: {report.ground_runs}\n")
    return 0


def _cmd_run(args, out, err) -> int:
    program = _load_program(args.program)
    call = Call(args.entry, tuple(word(w) for w in args.input))
    outcome: Outcome = eval_call(program, call, fuel=args.fuel)
    out.write(f"{render_expr(outcome.value)}\n")
    if args.steps:
        out.write(f"steps={outcome.steps}\n")
    return 0


def _cmd_failure(args, out, err) -> int:
    rows = table_rows(args.pattern)
    width = max(len(p) for _, p, _, _ in rows) + 2
    out.write(f"pattern: {args.pattern}\n")
    for k, prefix, f, jtext in rows:
        shown = f"'{prefix}'" if prefix else "ε"
        out.write(f"  len {k:>2}  {shown:<{width}} f={f}  {jtext}\n")
    out.write("values: " + ",".join(str(f) for _, _, f, _ in rows) + "\n")
    return 0


def _cmd_verify(args, out, err) -> int:
    # imported here, so that the other commands do not pay for it
    from .harness import (
        Corpus, default_corpus, record_line, summary_lines, verify_corpus,
    )
    if args.pattern:
        corpus = Corpus((args.pattern,), seed=args.seed)
    else:
        corpus = default_corpus(seed=args.seed)
    seconds = {}
    reports = verify_corpus(corpus, seconds)
    for r in reports:
        out.write(record_line(r) + "\n")
    for line in summary_lines(reports):
        out.write(line + "\n")
    if args.timings:
        err.write("seconds per phase, summed over the patterns:\n")
        for phase, t in seconds.items():
            err.write(f"  {phase:<12}{t:8.3f}\n")
        err.write(f"  {'total':<12}{sum(seconds.values()):8.3f}\n")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_tree(args, out, err) -> int:
    graph, _ = specialize_pattern(args.pattern, node_budget=args.node_budget)
    dot = export_dot(graph)
    if args.dot:
        _write_text(args.dot, dot)
    else:
        out.write(dot)
    if args.lines:
        for line in graph_lines(graph):
            out.write(line + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniscp",
        description="Specialize the naive substring matcher to a pattern, "
                    "run programs, and verify the generated code.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("specialize",
                        help="build the process graph and residual program")
    sp.add_argument("--pattern", required=True, type=_word_arg)
    sp.add_argument("--program", default=None,
                    help="program file ('builtin' or omitted: the naive "
                         "matcher)")
    sp.add_argument("--out", default=None, help="write the residual here")
    sp.add_argument("--dot", default=None, help="write the process graph DOT")
    sp.add_argument("--report", action="store_true")
    sp.add_argument("--stats", action="store_true",
                    help="write the specializer's counters to stderr")
    sp.add_argument("--node-budget", type=_positive_int, default=10_000)
    sp.set_defaults(fn=_cmd_specialize)

    rn = sub.add_parser("run", help="evaluate a call on ground words")
    rn.add_argument("--program", required=True)
    rn.add_argument("--entry", required=True)
    rn.add_argument("--input", action="append", required=True,
                    help="one word per argument (repeatable)")
    rn.add_argument("--steps", action="store_true")
    rn.add_argument("--fuel", type=_positive_int, default=None,
                    help="most rule applications to run (at least 1)")
    rn.set_defaults(fn=_cmd_run)

    fl = sub.add_parser("failure", help="print the failure table")
    fl.add_argument("--pattern", required=True, type=_word_arg)
    fl.set_defaults(fn=_cmd_failure)

    vf = sub.add_parser("verify", help="run the verification harness")
    group = vf.add_mutually_exclusive_group()
    group.add_argument("--pattern", default=None, type=_word_arg)
    group.add_argument("--corpus", choices=["default"], default=None)
    vf.add_argument("--seed", type=int, default=7)
    vf.add_argument("--timings", action="store_true",
                    help="write the seconds of each phase (specialize, "
                         "compile, each facet, string_pool for the random "
                         "draws, sweep, which makes the exhaustive strings "
                         "as it reads them), summed over the patterns, to "
                         "stderr; for the split between the naive and "
                         "residual engines, use perfbench/run.py --trace 1")
    vf.set_defaults(fn=_cmd_verify)

    tr = sub.add_parser("tree", help="export the process graph only")
    tr.add_argument("--pattern", required=True, type=_word_arg)
    tr.add_argument("--dot", default=None)
    tr.add_argument("--lines", action="store_true",
                    help="also print the line-oriented dump")
    tr.add_argument("--node-budget", type=_positive_int, default=10_000)
    tr.set_defaults(fn=_cmd_tree)
    return parser


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = args.fn(args, out, err)
        out.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stop quietly; the output then goes to os.devnull, so that the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141
    except (ParseError, ValidationError, EvalError, ScpError, DriveError,
            ResidualError, ValueError, OSError) as e:
        err.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
