"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured runtime.  The whole module runs against the default corpus
(the 126 binary patterns up to length 6 plus aab, ababa, abcabcaca,
abcabcacab) at the tolerances stated below; nothing is loosened at run time.
"""

import hashlib
import os
import subprocess
import sys
import time

import pytest

from miniscp.configs import alpha_equivalent, covers
from miniscp.harness import (
    artifacts, binary_patterns, default_corpus, expected_path_pivots,
    step_contrast, verify_pattern,
)
from miniscp.kmp import failure_table
from miniscp.residual import structural_report
from miniscp.scp import first_path, first_path_pivots
from miniscp.syntax import TRUE, parse_expression


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(seed=7)


@pytest.fixture(scope="module")
def reports(corpus):
    t0 = time.perf_counter()
    out = {p: verify_pattern(p, corpus) for p in corpus.patterns}
    out["_elapsed"] = time.perf_counter() - t0
    return out


def _say(capsys, text):
    with capsys.disabled():
        print(text)


def test_criterion_1_failure_tables(capsys):
    t0 = time.perf_counter()
    assert failure_table("aab").values[:3] == (0, 0, 1)
    assert failure_table("ababa").values[:5] == (0, 0, 0, 1, 2)
    _say(capsys, f"ACCEPTANCE 1 PASS failure tables exact "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_2_first_path_reproduction(corpus, capsys):
    t0 = time.perf_counter()
    for pattern in corpus.patterns:
        art = artifacts(pattern)
        actual = first_path_pivots(art.graph)
        expected = expected_path_pivots(pattern)
        assert len(actual) == len(expected), pattern
        for a, e in zip(actual, expected):
            assert alpha_equivalent(a, e), (pattern, a, e)
        leaf = art.graph.nodes[first_path(art.graph)[-1]]
        assert leaf.config.expr == TRUE, pattern
    art = artifacts("abcabcaca")
    want = parse_expression("L(\"bcaca\", #y, \"abcabcaca\", 'b':'c':'a':#y)")
    from miniscp.configs import make_config
    assert any(alpha_equivalent(p, make_config(want))
               for p in art.report.pivots)
    _say(capsys, f"ACCEPTANCE 2 PASS first-path pivot sequences exact for "
                 f"{len(corpus.patterns)} patterns "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_3_no_generalization_sweep(corpus, capsys):
    t0 = time.perf_counter()
    assert len(binary_patterns(6)) == 126
    for pattern in corpus.patterns:
        art = artifacts(pattern)
        assert art.report.generalizations_attempted == 0, pattern
        for i, node in enumerate(art.graph.nodes):
            if node.fold is not None:
                target, sigma = node.fold
                assert covers(art.graph.nodes[target].config,
                              node.config) == sigma, (pattern, i)
    _say(capsys, f"ACCEPTANCE 3 PASS zero generalizations, all folds "
                 f"re-verified, {len(corpus.patterns)} patterns "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_4_four_way_equivalence(corpus, reports, capsys):
    t0 = time.perf_counter()
    for pattern in corpus.patterns:
        r = reports[pattern]
        assert r.equivalence_ok, (pattern, r.failures)
    _say(capsys, f"ACCEPTANCE 4 PASS four-way equivalence, zero mismatches "
                 f"(exhaustive |y|<=8 plus 1000 random per pattern; "
                 f"corpus build {reports['_elapsed']:.1f}s, "
                 f"check {time.perf_counter() - t0:.2f}s)")


def test_criterion_5_structural_claims(corpus, capsys):
    t0 = time.perf_counter()
    for pattern in corpus.patterns:
        rep = structural_report(artifacts(pattern).residual.program)
        assert rep.constants_in_rhs == 0, pattern
        assert rep.repeated_params_in_rhs == 0, pattern
        assert rep.max_lhs_cons_depth <= 1, pattern
    _say(capsys, f"ACCEPTANCE 5 PASS no constants, no repeated variables, "
                 f"one-symbol rules ({time.perf_counter() - t0:.2f}s)")


def test_criterion_6_complexity_contrast(corpus, reports, capsys):
    t0 = time.perf_counter()
    for pattern in corpus.patterns:
        assert reports[pattern].linearity_ok, pattern
    rows = step_contrast("aaab", (50, 100, 200))
    naive, residual = rows[200]
    assert naive >= 2 * residual, rows
    gap = {m: n - r for m, (n, r) in rows.items()}
    assert gap[100] >= 1.8 * gap[50], gap
    assert gap[200] >= 1.8 * gap[100], gap
    _say(capsys, f"ACCEPTANCE 6 PASS step bound 2|y|+|p|+2 everywhere; "
                 f"naive/residual on a^200 = {naive}/{residual} "
                 f"(factor {naive / residual:.2f}), gap doubles with |y| "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_7_automaton_isomorphism(corpus, reports, capsys):
    t0 = time.perf_counter()
    for pattern in corpus.patterns:
        assert reports[pattern].automaton_ok, pattern
    _say(capsys, f"ACCEPTANCE 7 PASS residual states bijective with "
                 f"failure-automaton states ({time.perf_counter() - t0:.2f}s)")


# SHA-256 of `miniscp verify --corpus default --seed 7` stdout, the same
# digest the benchmark checks (perfbench/expected.json).  Any change to a
# record line, a metric or the summary changes it.
VERIFY_SEED_7_SHA256 = (
    "2933f8a2b1f92865b1275e813f6503dbe94be9c9d0091755a6ff937042c09145")


def test_criterion_8_verify_is_deterministic(capsys):
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "miniscp.cli", "verify",
           "--corpus", "default", "--seed", "7"]
    # different hash seeds rule out any dependence on set/dict iteration;
    # the two runs are independent, so they run side by side
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
             for seed in ("1", "2")]
    (out1, err1), (out2, _) = [proc.communicate() for proc in procs]
    assert procs[0].returncode == 0, err1.decode()[:500]
    assert procs[1].returncode == 0
    assert out1 == out2
    assert hashlib.sha256(out1).hexdigest() == VERIFY_SEED_7_SHA256
    _say(capsys, f"ACCEPTANCE 8 PASS verify output byte-identical across "
                 f"runs and to the pinned digest "
                 f"({time.perf_counter() - t0:.2f}s)")
