"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_expected.py

Writes perfbench/expected.json from the checkout it runs in: the residual
text digest of every specialize-ladder rung, the residual step count of
every run-long input, for workload seeds 0-20, and the stdout digest of
`miniscp verify --corpus default --seed 7`.  Run it only at a commit whose
outputs are trusted; the benchmark then fails any later commit whose
residual text, step counts or verify output differ.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile

import inputs

SEEDS = range(0, 21)
VERIFY_SEEDS = (7,)


def main() -> int:
    from miniscp import cli, interpreter, residual, scp, syntax

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.scl")
        for seed in SEEDS:
            for p in inputs.ladder_patterns(seed):
                if p in digests:
                    continue
                if cli.main(["specialize", "--pattern", p, "--out", out]):
                    raise SystemExit(f"specialize failed on {p}")
                with open(out, "rb") as fh:
                    digests[p] = hashlib.sha256(fh.read()).hexdigest()

    steps = {}
    for seed in SEEDS:
        residuals = {}
        for p, kind, y in inputs.long_cases(seed):
            key = f"{p}|{kind}|{len(y)}"
            if key in steps:
                continue
            if p not in residuals:
                residuals[p] = residual.residualize(
                    scp.specialize_pattern(p)[0])
            rp = residuals[p]
            steps[key] = interpreter.eval_call(
                rp.program, syntax.Call(rp.entry, (syntax.word(y),)),
                fuel=inputs.long_fuel(p, y)).steps

    verify = {}
    for seed in VERIFY_SEEDS:
        buf = io.StringIO()
        if cli.main(["verify", "--corpus", "default", "--seed", str(seed)],
                    out=buf):
            raise SystemExit(f"verify failed at seed {seed}")
        verify[str(seed)] = hashlib.sha256(
            buf.getvalue().encode("utf-8")).hexdigest()

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"verify_stdout_sha256": verify,
                   "residual_sha256": dict(sorted(digests.items())),
                   "residual_steps": dict(sorted(steps.items()))},
                  fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
