"""miniscp benchmark: three workloads, end-to-end metrics or a layer trace.

    python3 perfbench/run.py --workload specialize-ladder --seed 7 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program is loaded from its `src`
(PYTHONPATH=<checkout>/src, never an installed copy).  Every operation runs
in a fresh interpreter started by this script, one process at a time, and
is checked; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  See README.md beside this
file for the workloads, the metrics and the layer-to-metric table.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

FACETS = ("first_path", "restart", "covering", "structural", "equivalence",
          "linearity", "automaton")
CORPUS_SIZE = 128

# Wrappers that must record calls on each workload; a silent one means the
# trace no longer reaches that layer.
SPECIALIZER_SPANS = (
    "syntax.parse_program", "syntax.substitute", "syntax.params_of",
    "configs.covers", "driving.drive_step", "driving.compress",
    "scp.supercompile", "scp.embeds", "residual.residualize")
EXERCISED = {
    "specialize-ladder": SPECIALIZER_SPANS + ("cli.main",),
    "verify-corpus": SPECIALIZER_SPANS + (
        "cli.main", "interpreter.compile", "interpreter.engine.residual",
        "interpreter.engine.naive", "kmp.kmp_search", "harness.artifacts",
        "harness.string_pool", "harness.verify_pattern"),
    "run-long": SPECIALIZER_SPANS + (
        "interpreter.eval_call", "interpreter.compile",
        "interpreter.engine.residual", "interpreter.engine.naive"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- child processes ---------------------------------------------------------

@dataclass
class Exit:
    code: int
    seconds: float  # reference seconds (see speed.py)
    raw: float  # wall seconds
    rss_mb: float
    stderr: str


def spawn(args: list[str], stdout_path: str, tmp: str,
          segment: float = 0.0) -> Exit:
    """Run child.py to completion, from spawn to reaped exit, between two
    calibrations; peak resident memory from wait4.

    With a segment length, a long child is also stopped every `segment`
    seconds for a calibration, so that each stretch of its run is
    normalized by the machine's speed at that time; the child never runs
    alongside the calibration."""
    # The caller's PYTHON* settings are dropped, so that bytecode caching
    # and buffering do not depend on who runs the benchmark.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    err_path = os.path.join(tmp, "stderr.txt")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        cal = speed.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD] + args, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        try:
            seconds, raw, status, usage = follow(proc, start, cal, segment)
        except BaseException:
            proc.kill()  # the child never outlives the benchmark
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Exit(proc.returncode, seconds, raw, usage.ru_maxrss / 1024,
                stderr)


def follow(proc, start: float, cal: float, segment: float):
    """Wait for the child's exit, stopping it for a calibration every
    `segment` seconds if given; (reference s, wall s, status, rusage)."""
    raw = seconds = 0.0
    while True:
        if segment:
            pid, status, usage = wait_until(proc.pid, start + segment)
        else:
            pid, status, usage = os.wait4(proc.pid, 0)
        stretch = time.perf_counter() - start
        if pid:
            break
        os.kill(proc.pid, signal.SIGSTOP)
        stretch = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            break  # exited before the stop arrived
        after = speed.calibrate()
        raw += stretch
        seconds += speed.normalized(stretch, cal, after)
        cal = after
        start = time.perf_counter()
        os.kill(proc.pid, signal.SIGCONT)
    raw += stretch
    seconds += speed.normalized(stretch, cal, speed.calibrate())
    return seconds, raw, status, usage


def wait_until(pid: int, deadline: float):
    """wait4 without blocking past the deadline; pid 0 on time-out."""
    while True:
        got = os.wait4(pid, os.WNOHANG)
        if got[0] or time.perf_counter() >= deadline:
            return got
        time.sleep(0.005)


@dataclass
class Pass:
    """One pass over a workload's operations."""
    op_seconds: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    raw_s: float = 0.0  # summed wall seconds, for the summary line
    failed: int = 0
    rss_mb: float = 0.0
    traces: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def op(self, seconds: float, raw: float, problems: list,
           rss_mb: float) -> None:
        """Record one operation: reference seconds, wall seconds, checks."""
        self.op_seconds.append(seconds)
        self.raw_s += raw
        self.rss_mb = max(self.rss_mb, rss_mb)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def probe(ctx) -> float:
    """Start an interpreter, import the CLI and parse the built-in matcher:
    what every CLI process pays before its command runs."""
    ex = spawn(["probe"], os.devnull, ctx.tmp)
    if ex.code != 0:
        raise SystemExit(f"set-up probe failed:\n{ex.stderr}")
    return ex.seconds


# --- output checks -----------------------------------------------------------

def check_residual(pattern: str, path: str, seed: int, expected: dict) -> list:
    """The residual text is unchanged where recorded, has one consuming
    function per pattern letter, and agrees with `in` and kmp_search."""
    from miniscp.interpreter import CompiledProgram
    from miniscp.kmp import kmp_search
    from miniscp.syntax import parse_program

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    problems = []
    want = expected["residual_sha256"].get(pattern)
    if want is not None and sha256(text.encode()) != want:
        problems.append(f"{pattern}: residual text changed")
    program = parse_program(text)
    consuming = sum(1 for _, rules in program.functions
                    if len(rules[0].lhs) == 1)
    if consuming != len(pattern):
        problems.append(f"{pattern}: {consuming} consuming functions")
    entry = program.functions[0][0]
    runner = CompiledProgram(program)
    for y in inputs.agreement_strings(pattern, seed):
        got = runner.run(entry, (y,))[0]
        if not got == (pattern in y) == kmp_search(pattern, y)[0]:
            problems.append(f"{pattern}: wrong answer on {y!r}")
            break
    return problems


def check_verify(code: int, stdout: bytes, seed: int, expected: dict) -> list:
    problems = [] if code == 0 else [f"verify exited with {code}"]
    lines = stdout.decode("utf-8", errors="replace").splitlines()
    records = [line.split() for line in lines if line.startswith("pattern=")]
    ok = [r for r in records if all(f"{f}=ok" in r for f in FACETS)]
    if len(records) != CORPUS_SIZE or len(ok) != CORPUS_SIZE:
        problems.append(f"{len(ok)} of {len(records)} records ok, "
                        f"expected {CORPUS_SIZE}")
    if "result: PASS" not in lines:
        problems.append("no 'result: PASS' line")
    want = expected["verify_stdout_sha256"].get(str(seed))
    if want is not None and sha256(stdout) != want:
        problems.append(f"verify stdout differs from the seed-{seed} record")
    return problems


@functools.lru_cache(maxsize=1)
def long_cases(seed: int) -> list:
    """run-long's inputs, each with the naive matcher's step count."""
    return [(p, kind, y, inputs.naive_steps(p, y))
            for p, kind, y in inputs.long_cases(seed)]


def check_long(rec: dict, y: str, naive_steps: int, expected: dict) -> list:
    p, engine = rec["pattern"], rec["engine"]
    where = f"{engine} {p} on {rec['kind']} n={len(y)}"
    if "error" in rec:
        return [f"{where}: {rec['error']}"]
    problems = []
    if rec["value"] != ("T" if p in y else "F"):
        problems.append(f"{where}: value {rec['value']}")
    steps = rec["steps"]
    if engine == "naive":
        want = naive_steps
    else:
        want = expected["residual_steps"].get(f"{p}|{rec['kind']}|{len(y)}")
        if steps > 2 * len(y) + len(p) + 2:
            problems.append(f"{where}: {steps} steps exceed 2|y|+|p|+2")
    if want is not None and steps != want:
        problems.append(f"{where}: {steps} steps, recorded {want}")
    return problems


def guarded(check, *args) -> list:
    """A check that raises (unparsable residual, evaluator error) is a
    failed operation, not a crashed benchmark."""
    try:
        return check(*args)
    except Exception as e:
        return [f"{check.__name__}: {e!r}"]


# --- workloads ---------------------------------------------------------------

class SpecializeLadder:
    """One `miniscp specialize` process per rung; three passes, so that each
    rung's median is taken over samples a pass (about 10 s) apart."""
    name = "specialize-ladder"
    min_passes = 3
    probes = 3

    def run_pass(self, ctx, trace: bool) -> Pass:
        result = Pass()
        outs = []
        for i, p in enumerate(inputs.ladder_patterns(ctx.seed)):
            out = os.path.join(ctx.tmp, f"rung{i}.scl")
            args = ["cli"]
            if trace:
                args += ["--trace", os.path.join(ctx.tmp, f"trace{i}.json")]
                result.traces.append(args[-1])
            ex = spawn(args + ["--", "specialize", "--pattern", p,
                               "--out", out], os.devnull, ctx.tmp)
            outs.append((p, out, ex))
        for p, out, ex in outs:  # checked after the timed processes
            if ex.code != 0:
                problems = [f"{p}: exit {ex.code}: {ex.stderr[-300:]}"]
            else:
                problems = guarded(check_residual, p, out, ctx.seed,
                                   ctx.expected)
            result.op(ex.seconds, ex.raw, problems, ex.rss_mb)
        return result


class VerifyCorpus:
    """`miniscp verify --corpus default --seed S`, one process per pass."""
    name = "verify-corpus"
    min_passes = 1
    probes = 9

    def run_pass(self, ctx, trace: bool) -> Pass:
        result = Pass()
        out = os.path.join(ctx.tmp, "verify.out")
        args = ["cli"]
        if trace:
            args += ["--trace", os.path.join(ctx.tmp, "trace.json")]
            result.traces.append(args[-1])
        ex = spawn(args + ["--", "verify", "--corpus", "default", "--seed",
                           str(ctx.seed)], out, ctx.tmp, segment=0.5)
        with open(out, "rb") as fh:
            stdout = fh.read()
        problems = check_verify(ex.code, stdout, ctx.seed, ctx.expected)
        if ex.code != 0:
            problems.append(ex.stderr[-300:])
        result.op(ex.seconds, ex.raw, problems, ex.rss_mb)
        return result


class RunLong:
    """eval_call on residual and naive matcher over long no-match inputs,
    timed inside one child per pass, which also times its own set-up."""
    name = "run-long"
    min_passes = 3
    probes = 0

    def run_pass(self, ctx, trace: bool) -> Pass:
        result = Pass()
        out = os.path.join(ctx.tmp, "long.json")
        args = ["long", "--seed", str(ctx.seed), "--out", out]
        if trace:
            args += ["--trace", os.path.join(ctx.tmp, "trace.json")]
            result.traces.append(args[-1])
        ex = spawn(args, os.devnull, ctx.tmp)
        cases = long_cases(ctx.seed)
        if ex.code != 0:
            result.setups.append(ex.seconds)  # keeps setup_s defined
            for _ in range(2 * len(cases)):
                result.op(ex.seconds, ex.raw,
                          [f"run-long child exit {ex.code}: "
                           f"{ex.stderr[-300:]}"], ex.rss_mb)
            return result
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        records = data["records"]
        result.setups.append(norm(data["setup"]))
        ops = [case for case in cases for _engine in (0, 1)]
        if len(records) != len(ops):
            raise SystemExit("run-long child wrote an incomplete record")
        for rec, (_, _, y, steps) in zip(records, ops):
            problems = check_long(rec, y, steps, ctx.expected)
            result.op(norm(rec), rec["seconds"], problems, ex.rss_mb)
        for engine in ("residual", "naive"):
            mine = [(norm(r), len(op[2])) for r, op in zip(records, ops)
                    if r["engine"] == engine]
            result.notes[f"{engine}_ns_per_symbol"] = (
                1e9 * sum(s for s, _ in mine) / sum(n for _, n in mine))
        return result


def norm(rec: dict) -> float:
    """Reference seconds of a record timed inside a child."""
    return speed.normalized(rec["seconds"], rec["before"], rec["after"])


WORKLOADS = {w.name: w for w in (SpecializeLadder(), VerifyCorpus(),
                                 RunLong())}


# --- metrics -----------------------------------------------------------------

def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def end_to_end(passes: list) -> dict:
    """Each operation's median over passes; their sum and their p50 and
    p75; the median set-up sample; the peak RSS of any child."""
    per_op = [statistics.median(col)
              for col in zip(*(p.op_seconds for p in passes))]
    p50, p75 = quartiles(per_op)
    return {
        "setup_s": (statistics.median(s for p in passes for s in p.setups),
                    "s"),
        "total_s": (sum(per_op), "s"),
        "op_p50_s": (p50, "s"),
        "op_p75_s": (p75, "s"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
    }


def load_traces(paths: list) -> dict:
    calls = dict.fromkeys(tracing.SPAN_NAMES, 0)
    self_s = dict.fromkeys(tracing.SPAN_NAMES, 0.0)
    counters = dict.fromkeys(tracing.COUNTERS, 0)
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for name in tracing.SPAN_NAMES:
            calls[name] += data["calls"][name]
            self_s[name] += data["self_s"][name]
        for name in tracing.COUNTERS:
            counters[name] += data["counters"][name]
        spans.append({"span_count": data["span_count"],
                      "spans": data["spans"]})
    return {"calls": calls, "self_s": self_s, "counters": counters,
            "spans": spans}


def per_layer(trace: dict, untraced_s: float, traced_s: float) -> dict:
    calls, self_s, c = trace["calls"], trace["self_s"], trace["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in tracing.COUNTERS:
        out[name] = (c[name], "count")
    for kind in ("residual", "naive"):
        out[f"interpreter.ns_per_step.{kind}"] = (
            1e9 * ratio(self_s[f"interpreter.engine.{kind}"],
                        c[f"interpreter.steps.{kind}"]), "ns")
    out["configs.covers.hit_ratio"] = (
        ratio(c["scp.folds"], calls["configs.covers"]), "ratio")
    out["driving.drive_steps_per_node"] = (
        ratio(calls["driving.drive_step"], c["scp.nodes"]), "ratio")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.overhead_frac"] = (ratio(traced_s - untraced_s, untraced_s),
                                  "ratio")
    out["trace.spans"] = (sum(s["span_count"] for s in trace["spans"]),
                          "count")
    return out


# --- entry point -------------------------------------------------------------

@dataclass
class Context:
    seed: int
    tmp: str
    expected: dict


def measure(workload, ctx, seconds: float):
    """Whole passes until `seconds` have passed and at least the workload's
    minimum; set-up probes run before each pass, so that they too are
    spread over the run."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - start < seconds):
        setups = [probe(ctx) for _ in range(workload.probes)]
        passes.append(workload.run_pass(ctx, trace=False))
        passes[-1].setups += setups
    return end_to_end(passes), passes


def trace_run(workload, ctx):
    """An untraced pass, then the same pass traced; per-layer totals come
    from the traced pass, the overhead from the difference."""
    untraced = workload.run_pass(ctx, trace=False)
    traced = workload.run_pass(ctx, trace=True)
    trace = load_traces(traced.traces)
    silent = [n for n in EXERCISED[workload.name] if trace["calls"][n] == 0]
    if silent:
        raise SystemExit(f"trace: no calls recorded on {workload.name} for "
                         + ", ".join(silent))
    with open(os.path.join(WORK_DIR, f"trace-{workload.name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(trace, fh)
    metrics = per_layer(trace, sum(untraced.op_seconds),
                        sum(traced.op_seconds))
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "miniscp", "__init__.py")):
        print(f"no miniscp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import miniscp
    if not os.path.abspath(miniscp.__file__).startswith(SRC + os.sep):
        print(f"miniscp imported from {miniscp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)

    workload = WORKLOADS[args.workload]
    tmp = os.path.join(WORK_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        ctx = Context(args.seed, tmp, expected)
        if args.trace:
            metrics, passes = trace_run(workload, ctx)
        else:
            metrics, passes = measure(workload, ctx, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(p.op_seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in [q for p in passes for q in p.problems][:20]:
        print(f"FAILED: {problem}")
    print(f"{workload.name} seed={args.seed}: {len(passes)} pass(es), "
          f"{attempted} operations, failed_frac={failed / attempted:.4f}")
    print(f"  wall seconds per pass: "
          f"{', '.join(f'{p.raw_s:.3f}' for p in passes)}")
    for name in passes[0].notes:
        value = statistics.median(p.notes[name] for p in passes)
        print(f"  {name} = {value:.6g} (not a BENCHMARK.json metric)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
