import itertools
import random

import pytest

from miniscp.harness import (
    POOL_BUDGET, Corpus, _automaton_facts, artifacts, binary_patterns,
    check_pool_budget, default_corpus, exhaustive_count, expected_path_pivots,
    oracle_levels, record_line, string_pool, summary_lines, sweep_alphabet,
    verify_pattern,
)
from miniscp.interpreter import naive_matcher
from miniscp.kmp import automaton, kmp_search


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


# sweep alphabets of 2, 3, 4, 5, 9 and 17 letters: draws of 2, 2, 3, 3, 4
# and 5 bits, each read off the top byte of a 32-bit word that
# getrandbits(32 * k) returns, which depends on CPython's word order
@pytest.mark.parametrize("pattern", ["aa", "aba", "abcab", "abcda",
                                     "abcdefgh", "abcdefghijklmnop"])
def test_string_pool_draws_as_random_choice(pattern):
    assert len(sweep_alphabet(pattern)) == len(set(pattern)) + 1
    for seed, count in zip(range(6), (1000, 200, 37, 1, 0, 5)):
        for max_len in (0, 1, 200, 300):
            corpus = Corpus((pattern,), exhaustive_len=2, random_count=count,
                            random_max_len=max_len, seed=seed)
            pool = string_pool(pattern, corpus)
            assert pool == _string_pool_by_choice(pattern, corpus), \
                (seed, count, max_len)


@pytest.mark.parametrize("alpha", ["ab", "bac", "abcd"])
def test_oracle_levels_equal_kmp_search_on_every_exhaustive_string(alpha):
    # the pool's exhaustive strings for alphabets of 2-4 letters, and
    # patterns that share letters with it, take one letter outside it, or
    # repeat a border
    words = ["".join(t) for n in range(9)
             for t in itertools.product(alpha, repeat=n)]
    for pattern in ("a", "b", "ab", "ba", "aab", "abab", "bbabab", "ababa",
                    "abcabcaca", "abcabcacab", "ad"):
        want = [kmp_search(pattern, y) for y in words]
        assert list(oracle_levels(pattern, alpha, 8)) == want, pattern
        for depth in range(8):
            count = exhaustive_count(len(alpha), depth)
            got = list(oracle_levels(pattern, alpha, depth))
            assert got == want[:count], (pattern, depth)


def test_pool_budget_is_a_six_letter_sweep_alphabet():
    corpus = default_corpus()
    assert exhaustive_count(6, 8) == POOL_BUDGET
    check_pool_budget("abcde", corpus)  # 6 letters: at the budget
    with pytest.raises(ValueError, match="6,725,601 exhaustive strings"):
        check_pool_budget("abcdef", corpus)
    # a smaller exhaustive length admits more letters
    check_pool_budget("abcdefghij", Corpus(("abcdefghij",), exhaustive_len=5))


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


@pytest.mark.parametrize("pattern", ["a" * 45, "a" * 44 + "b",
                                     "ab" * 31 + "c"])
def test_periodic_patterns_with_long_transient_chains_verify(pattern):
    # the longest edge of each takes over 1,000 steps (1,034, 1,034 and
    # 1,023): every facet still passes at the CLI's corpus sizes
    report = verify_pattern(pattern, Corpus((pattern,), seed=7))
    assert report.ok, report.failures


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
    _, naive_steps = naive_matcher().compiled.run("S", ("aab", y))
    _, residual_steps = art.residual.program.compiled.run(
        art.residual.entry, (y,))
    assert residual_steps <= 202
    assert naive_steps >= 290


def test_summary_reports_failures():
    from miniscp.harness import VerificationReport
    broken = VerificationReport("xy", True, True, False, True, True, True,
                                True, {}, ("covering: whistle fired",))
    lines = summary_lines([broken])
    assert lines[-1] == "result: FAIL"
    assert any("whistle fired" in l for l in lines)


def test_pivot_counts_stay_small(small_corpus):
    for pattern in small_corpus.patterns:
        art = artifacts(pattern)
        cap = (len(pattern) + 1) ** 2
        assert len(art.report.pivots) <= cap
        assert len(art.residual.program.functions) <= cap
