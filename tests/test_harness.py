import itertools
import random

import pytest

from miniscp.harness import (
    Corpus, _automaton_facts, artifacts, binary_patterns, default_corpus,
    expected_path_pivots, record_line, step_contrast, string_pool,
    summary_lines, sweep_alphabet, verify_pattern,
)
from miniscp.kmp import automaton


def test_default_corpus_contents():
    corpus = default_corpus()
    assert len(binary_patterns(6)) == 126
    assert len(corpus.patterns) == 128  # binary sweep plus two longer ones
    for extra in ("aab", "ababa", "abcabcaca", "abcabcacab"):
        assert extra in corpus.patterns
    assert len(set(corpus.patterns)) == len(corpus.patterns)


def test_string_pool_deterministic():
    corpus = Corpus(("ab",), exhaustive_len=3, random_count=10,
                    random_max_len=20, seed=7)
    assert string_pool("ab", corpus) == string_pool("ab", corpus)
    other = Corpus(("ab",), exhaustive_len=3, random_count=10,
                   random_max_len=20, seed=8)
    assert string_pool("ab", corpus) != string_pool("ab", other)


def _string_pool_by_choice(pattern, corpus):
    """string_pool drawing each random letter with rng.choice, kept as the
    reference for the inlined draw."""
    alpha = sweep_alphabet(pattern)
    pool = []
    for n in range(corpus.exhaustive_len + 1):
        pool.extend("".join(t) for t in itertools.product(alpha, repeat=n))
    rng = random.Random(f"{corpus.seed}:{pattern}")
    for _ in range(corpus.random_count):
        n = rng.randint(0, corpus.random_max_len)
        pool.append("".join(rng.choice(alpha) for _ in range(n)))
    return pool


# sweep alphabets of 2, 3, 4 and 5 letters
@pytest.mark.parametrize("pattern", ["aa", "aba", "abcab", "abcda"])
def test_string_pool_draws_as_random_choice(pattern):
    assert len(sweep_alphabet(pattern)) == len(set(pattern)) + 1
    for seed, count in zip(range(6), (1000, 200, 37, 1, 0, 5)):
        for max_len in (0, 1, 200, 300):
            corpus = Corpus((pattern,), exhaustive_len=2, random_count=count,
                            random_max_len=max_len, seed=seed)
            pool = string_pool(pattern, corpus)
            assert pool == _string_pool_by_choice(pattern, corpus), \
                (seed, count, max_len)


def test_sweep_alphabet_adds_fresh_letter():
    assert sweep_alphabet("aab") == "abc"
    assert sweep_alphabet("aaaa") == "ab"
    assert sweep_alphabet("abcabcaca") == "abcd"


def test_expected_path_pivots_match_structure():
    pivots = expected_path_pivots("aab")
    texts = [repr(c) for c in pivots]
    assert texts == [
        '⟨S("aab", #y)⟩',
        '⟨L("ab", #y, "aab", #y)⟩',
        '⟨L("b", #y, "aab", \'a\':#y)⟩',
    ]


def test_all_facets_pass_for_named_patterns(small_corpus):
    # "b" exercises the single-letter vacuous case of the restart checks;
    # ok is the conjunction of all seven facets
    for pattern in ("a", "b", "aa", "ab", "aab", "ababa") \
            + small_corpus.patterns:
        report = verify_pattern(pattern, small_corpus)
        assert report.ok, (pattern, report.failures)


def test_automaton_mapping_is_state_bijection(aab):
    mapping = _automaton_facts(aab)
    assert mapping == {"F_0": 0, "F_1": 1, "F_2": 2}
    auto = automaton("aab")
    assert auto.accept == 3


def test_verify_pattern_report(small_corpus):
    report = verify_pattern("aab", small_corpus)
    assert report.ok
    assert report.metrics["pivot_count"] == 4
    assert report.metrics["residual_function_count"] == 4
    assert report.metrics["consuming_function_count"] == 3
    assert report.failures == ()


def test_report_determinism(small_corpus):
    a = verify_pattern("ababa", small_corpus)
    b = verify_pattern("ababa", small_corpus)
    assert record_line(a) == record_line(b)


def test_record_line_format(small_corpus):
    line = record_line(verify_pattern("a", small_corpus))
    assert line.startswith("pattern=a first_path=ok restart=ok covering=ok "
                           "structural=ok equivalence=ok linearity=ok "
                           "automaton=ok")
    assert "max_ratio=" in line


def test_summary_lines(small_corpus):
    reports = [verify_pattern(p, small_corpus)
               for p in ("a", "ab")]
    lines = summary_lines(reports)
    assert lines[0] == "patterns checked: 2"
    assert lines[-1] == "result: PASS"


def test_adversarial_steps_for_aab():
    art = artifacts("aab")
    y = "a" * 100
    _, naive_steps = art.naive_runner.run("S", ("aab", y))
    _, residual_steps = art.runner.run(art.residual.entry, (y,))
    assert residual_steps <= 202
    assert naive_steps >= 290


def test_summary_reports_failures():
    from miniscp.harness import VerificationReport
    broken = VerificationReport("xy", True, True, False, True, True, True,
                                True, {}, ("covering: whistle fired",))
    lines = summary_lines([broken])
    assert lines[-1] == "result: FAIL"
    assert any("whistle fired" in l for l in lines)


def test_step_contrast_shows_linear_vs_quadratic():
    rows = step_contrast("aaab", (50, 100, 200))
    naive200, residual200 = rows[200]
    assert naive200 >= 2 * residual200
    gap = {m: rows[m][0] - rows[m][1] for m in rows}
    assert gap[100] >= 1.8 * gap[50]
    assert gap[200] >= 1.8 * gap[100]


def test_pivot_counts_stay_small(small_corpus):
    for pattern in small_corpus.patterns:
        art = artifacts(pattern)
        cap = (len(pattern) + 1) ** 2
        assert len(art.report.pivots) <= cap
        assert len(art.residual.program.functions) <= cap
