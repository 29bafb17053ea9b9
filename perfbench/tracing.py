"""Layer trace recorded from outside the program.

`install()` wraps the public functions of each miniscp module named in
`TARGETS`, rebinding every module-level name that refers to the same
function object (so `drive_step` is wrapped both in `driving` and where
`scp` imported it), plus `CompiledProgram.__init__` and `.run` on the class.
Each wrapped call is a span: name, start, end, parent span and operation
id, where an operation is one outermost span.  Self time is the span's
duration minus the durations of its child spans, accumulated as spans
close; the first `KEEP_SPANS` spans are kept whole for inspection, the rest
only in the per-name totals, so a verify run of millions of calls stays
small in memory.  Counters read off return values (steps, nodes, folds, ...)
are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

KEEP_SPANS = 2_000

# (module, attribute, span name).  Module-level functions only; the two
# CompiledProgram methods are wrapped separately in install().
TARGETS = (
    ("syntax", "parse_program", "syntax.parse_program"),
    ("syntax", "substitute", "syntax.substitute"),
    ("syntax", "params_of", "syntax.params_of"),
    ("interpreter", "eval_call", "interpreter.eval_call"),
    ("configs", "covers", "configs.covers"),
    ("driving", "drive_step", "driving.drive_step"),
    ("driving", "compress", "driving.compress"),
    ("scp", "supercompile", "scp.supercompile"),
    ("scp", "embeds", "scp.embeds"),
    ("residual", "residualize", "residual.residualize"),
    ("kmp", "kmp_search", "kmp.kmp_search"),
    ("harness", "artifacts", "harness.artifacts"),
    ("harness", "string_pool", "harness.string_pool"),
    ("harness", "verify_pattern", "harness.verify_pattern"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS) + (
    "interpreter.compile", "interpreter.engine.residual",
    "interpreter.engine.naive")
COUNTERS = ("interpreter.steps.residual", "interpreter.steps.naive",
            "driving.transient_steps", "scp.nodes", "scp.folds",
            "scp.whistle_fires", "residual.functions", "residual.rules",
            "kmp.comparisons", "harness.strings_checked")


class Tracer:
    def __init__(self):
        self.index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack = []  # open spans: [child seconds, span id]
        self.spans = []  # (name, start, end, parent span id, operation id)
        self.span_count = 0
        self.op = -1

    def call(self, nid, fn, args, kwargs):
        stack = self.stack
        sid = self.span_count
        self.span_count += 1
        if stack:
            parent = stack[-1][1]
        else:
            parent = -1
            self.op += 1
        frame = [0.0, sid]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
            self.calls[nid] += 1
            self.self_s[nid] += t1 - t0 - frame[0]
            if sid < KEEP_SPANS:
                self.spans.append((SPAN_NAMES[nid], t0, t1, parent, self.op))

    def wrap(self, name, fn, count=None):
        nid = self.index[name]
        call = self.call

        def traced(*args, **kwargs):
            result = call(nid, fn, args, kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        data = {
            "calls": dict(zip(SPAN_NAMES, self.calls)),
            "self_s": dict(zip(SPAN_NAMES, self.self_s)),
            "counters": self.counters,
            "span_count": self.span_count,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# --- counters read off return values -----------------------------------------

def _count_supercompile(c, args, result):
    report = result[1]
    c["scp.nodes"] += report.node_count
    c["scp.folds"] += report.fold_count
    c["scp.whistle_fires"] += report.generalizations_attempted


def _count_residualize(c, args, rp):
    c["residual.functions"] += len(rp.program.functions)
    c["residual.rules"] += sum(len(rules) for _, rules in rp.program.functions)


def _count_compress(c, args, branch):
    c["driving.transient_steps"] += branch.steps - args[1].steps


def _count_kmp(c, args, result):
    c["kmp.comparisons"] += result[1]


def _count_pool(c, args, pool):
    c["harness.strings_checked"] += len(pool)


COUNT_HOOKS = {
    "scp.supercompile": _count_supercompile,
    "residual.residualize": _count_residualize,
    "driving.compress": _count_compress,
    "kmp.kmp_search": _count_kmp,
    "harness.string_pool": _count_pool,
}


def install() -> Tracer:
    """Import every miniscp module and wrap the traced functions in place."""
    tracer = Tracer()
    for mod_name in sorted({m for m, _, _ in TARGETS}):
        importlib.import_module(f"miniscp.{mod_name}")
    modules = [mod for key, mod in sys.modules.items()
               if key == "miniscp" or key.startswith("miniscp.")]
    for mod_name, attr, name in TARGETS:
        original = getattr(sys.modules[f"miniscp.{mod_name}"], attr)
        wrapped = tracer.wrap(name, original, COUNT_HOOKS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    compiled = sys.modules["miniscp.interpreter"].CompiledProgram
    compiled.__init__ = tracer.wrap("interpreter.compile", compiled.__init__)
    run = compiled.run
    engine = {"naive": tracer.index["interpreter.engine.naive"],
              "residual": tracer.index["interpreter.engine.residual"]}
    counters = tracer.counters
    call = tracer.call

    def traced_run(self, entry, *args, **kwargs):
        # The naive matcher's entry is S; every residual program's is F_0.
        kind = "naive" if entry == "S" else "residual"
        result = call(engine[kind], run, (self, entry) + args, kwargs)
        counters[f"interpreter.steps.{kind}"] += result[1]
        return result

    traced_run.__wrapped__ = run
    compiled.run = traced_run
    return tracer
