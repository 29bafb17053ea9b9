"""One benchmark operation in a fresh interpreter.

    child.py probe                         import the CLI, parse the matcher
    child.py cli [--trace F] -- ARGS...    miniscp.cli.main(ARGS)
    child.py long --seed N --out F [--trace F]

`cli` is what a user of the console script pays for each command (the
script is not installed where the benchmark runs, and `python -m
miniscp.cli` warns).  `long` times its set-up (imports, specializing the
run-long patterns, generating the inputs and converting each to a word),
then times eval_call on each residual and on the naive matcher.
With --trace the layer wrappers are installed before any miniscp work and
their totals are written to F when the process ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import inputs
import speed


def probe() -> int:
    import miniscp.cli  # noqa: F401  (the import is the measured work)
    from miniscp.interpreter import naive_matcher
    naive_matcher()
    return 0


def cli(argv: list[str]) -> int:
    import miniscp.cli
    return miniscp.cli.main(argv)


def timed(rec: dict, fn, *args):
    """Call fn between two calibrations, recording both and its wall time
    in rec."""
    rec["before"] = speed.calibrate()
    t0 = perf_counter()
    try:
        return fn(*args)
    finally:
        rec["seconds"] = perf_counter() - t0
        rec["after"] = speed.calibrate()


def long_setup(seed: int):
    from miniscp import residual, scp, syntax
    residuals = {}
    for p in inputs.long_patterns(seed):
        graph, _ = scp.specialize_pattern(p)
        residuals[p] = residual.residualize(graph)
    cases = inputs.long_cases(seed)
    for _, _, y in cases:
        syntax.word(y)  # converted again, untimed, just before its use
    return residuals, cases


def run_long(seed: int, out_path: str) -> int:
    setup = {}
    residuals, cases = timed(setup, long_setup, seed)
    from miniscp import interpreter, syntax
    naive = interpreter.naive_matcher()
    records = []
    for p, kind, y in cases:
        w = syntax.word(y)
        rp = residuals[p]
        runs = (("residual", rp.program, syntax.Call(rp.entry, (w,))),
                ("naive", naive, syntax.Call("S", (syntax.word(p), w))))
        for engine, program, call in runs:
            rec = {"pattern": p, "kind": kind, "n": len(y), "engine": engine}
            try:
                out = timed(rec, interpreter.eval_call, program, call,
                            inputs.long_fuel(p, y))
            except Exception as e:  # recorded and counted as a failed op
                rec["error"] = repr(e)
            else:
                rec["value"] = syntax.render_expr(out.value)
                rec["steps"] = out.steps
            records.append(rec)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"setup": setup, "records": records}, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "cli", "long"])
    parser.add_argument("--trace", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None)
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cli_argv = own[own.index("--") + 1:]
        own = own[:own.index("--")]
    args = parser.parse_args(own)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    try:
        if args.mode == "probe":
            return probe()
        if args.mode == "cli":
            return cli(cli_argv)
        return run_long(args.seed, args.out)
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
