"""Golden outputs of the specializer.

For each pattern of the specialize ladder (seed 7) and of the default
corpus, `tests/data/specializer_golden.json` holds the SHA-256 of the
rendered residual program, of the process-graph dump (`graph_lines`:
node kinds, configurations with their parameter names, edge labels with
`steps=`, fold renamings), of the Graphviz export (`export_dot`) and of
the Python source the compiled engine generates for the residual.  Under
the key `naive-matcher` it holds the digest of the source generated for
the naive matcher.  A speed-up or a refactoring of the specializer must
leave every one of them byte for byte as it was.  A change to the code the
compiled engine generates changes only the compiled-source digests; its
step counts and outcomes are held by the engine's differential tests.

The residual and graph digests were recorded with a specializer that, as
now, drives every transient step afresh with no drive cache; the DOT
digests before `export_dot` and `graph_lines` were made to share one graph
walk.  The compiled-source digests were re-recorded, and only they, when
the compiled engine began to hold list arguments as tuples of letters and
to run a fused callee passed only slots and letters on its caller's slots,
and again when the generated loop began to count steps with its own range
iterator (`for _steps in _it`) instead of an add and a fuel test per step,
and again when the engine began to generate one `_run` per entry, whose
slots share tuple, length and offset locals along the calls (the digests
are of the residual's entry and of the naive matcher's `S`), and a fourth
time when the dispatch began to test the arms that jump to themselves
first and the loop began to draw its steps from one range built for the
default fuel, and a fifth time, for `naive-matcher` alone, when a call
whose callee's step it decides began to take that step at the call site
(the naive matcher's S -> L; no residual has such a call): each time a
change of the generated code alone, made for speed.
`python tests/test_specializer_golden.py --record` rewrites the file from
the current code, so record only from code known to be right.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from miniscp.harness import default_corpus
from miniscp.interpreter import naive_matcher
from miniscp.residual import render_residual, residualize
from miniscp.scp import export_dot, graph_lines, specialize_pattern

DATA = Path(__file__).parent / "data" / "specializer_golden.json"
NAIVE = "naive-matcher"  # no pattern: patterns are lowercase letters

# The 40 rungs of the specialize ladder at seed 7: (ab)^1..10, a^1..17 and
# seeded random words over 2, 3 and 4 letters.
LADDER_SEED_7 = (
    ["ab" * k for k in range(1, 11)] + ["a" * n for n in range(1, 18)] + [
        "bbbaaa", "bbbbbbabaa", "bbbbababbaaaba", "abbbabaabababbaaaa",
        "bacaccbb", "bbababaabaaa", "aaccbbbbbaacbcaa",
        "bbbacabbbcccccbcbbcb", "ddcababb", "dacaacccabab",
        "cdabcaaaaddbdccc", "cdbbacbcbcdcdaaadcdb",
        "ddaadabdbcbdadcbbdadcdcd",
    ])


def _patterns() -> list[str]:
    out = list(LADDER_SEED_7)
    out += [p for p in default_corpus(7).patterns if p not in out]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(pattern: str) -> dict:
    graph, _ = specialize_pattern(pattern)
    rp = residualize(graph)
    return {"residual": _sha(render_residual(rp)),
            "graph": _sha("\n".join(graph_lines(graph)) + "\n"),
            "dot": _sha(export_dot(graph)),
            "compiled": _sha(rp.program.compiled.source(rp.entry))}


def naive_digests() -> dict:
    return {"compiled": _sha(naive_matcher().compiled.source("S"))}


def test_golden_covers_ladder_and_corpus():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert len(LADDER_SEED_7) == 40
    assert len(default_corpus(7).patterns) == 128
    assert sorted(golden) == sorted(_patterns() + [NAIVE])


@pytest.mark.parametrize("pattern", _patterns())
def test_specializer_output_unchanged(pattern):
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert digests(pattern) == golden[pattern]


def test_naive_matcher_compiled_source_unchanged():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert naive_digests() == golden[NAIVE]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_specializer_golden.py --record")
    DATA.parent.mkdir(exist_ok=True)
    golden = {p: digests(p) for p in _patterns()}
    golden[NAIVE] = naive_digests()
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
