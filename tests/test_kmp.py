import itertools
import random

import pytest

from miniscp.interpreter import EmptyPatternError
from miniscp.kmp import (
    _prefix_function, failure, failure_table, jump, kmp_resume,
    kmp_search, table_rows,
)


def brute_failure(q: str) -> int:
    for k in range(len(q) - 1, 0, -1):
        if q[:k] == q[-k:]:
            return k
    return 0


def test_failure_values_for_aab():
    assert failure("") == 0
    assert failure("a") == 0
    assert failure("aa") == 1
    assert failure("aab") == 0


def test_failure_values_for_ababa_prefixes():
    assert [failure("ababa"[:k]) for k in range(5)] == [0, 0, 0, 1, 2]


def test_failure_table_slices():
    assert failure_table("aab")[:3] == (0, 0, 1)
    assert failure_table("ababa")[:5] == (0, 0, 0, 1, 2)


def test_failure_matches_brute_force_up_to_len_10():
    for n in range(11):
        for tup in itertools.product("abc", repeat=n):
            q = "".join(tup)
            assert failure(q) == brute_failure(q), q


def test_proper_border_invariant():
    for n in range(9):
        for tup in itertools.product("ab", repeat=n):
            q = "".join(tup)
            table = failure_table(q)
            assert table[0] == 0
            for k in range(1, len(q) + 1):
                assert 0 <= table[k] < k


def test_jump_examples():
    assert jump(5, "aa") == 4
    assert jump(3, "") == 3
    assert jump(10, "abab") == 8


def test_jump_requires_pointer_past_prefix():
    with pytest.raises(ValueError):
        jump(1, "ab")


def test_kmp_search_examples():
    found, comparisons = kmp_search("aab", "aaab")
    assert found and comparisons <= 8
    assert kmp_search("a", "a") == (True, 1)
    found, comparisons = kmp_search("ab", "b")
    assert not found and comparisons <= 2


def test_kmp_search_empty_pattern_rejected():
    with pytest.raises(EmptyPatternError):
        kmp_search("", "abc")


def test_kmp_agrees_with_containment():
    for p_len in range(1, 5):
        for p_tup in itertools.product("ab", repeat=p_len):
            p = "".join(p_tup)
            for n in range(9):
                for y_tup in itertools.product("ab", repeat=n):
                    y = "".join(y_tup)
                    found, comparisons = kmp_search(p, y)
                    assert found == (p in y), (p, y)
                    assert comparisons <= 2 * len(y)


def _kmp_search_per_call(p, y):
    """kmp_search with its failure links rebuilt on every call, kept as the
    reference for the cached table."""
    pi = [0] * len(p)
    k = 0
    for i in range(1, len(p)):
        while k > 0 and p[i] != p[k]:
            k = pi[k - 1]
        if p[i] == p[k]:
            k += 1
        pi[i] = k
    j = 0
    comparisons = 0
    for ch in y:
        while True:
            comparisons += 1
            if ch == p[j]:
                j += 1
                break
            if j == 0:
                break
            j = pi[j - 1]
        if j == len(p):
            return True, comparisons
    return False, comparisons


def test_kmp_search_matches_per_call_definition():
    rng = random.Random(3)
    for _ in range(3000):
        alpha = "abcd"[:rng.randint(1, 4)]
        p = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 8)))
        y = "".join(rng.choice(alpha + "e") for _ in range(rng.randint(0, 60)))
        if rng.random() < 0.3:
            cut = rng.randint(0, len(y))
            y = y[:cut] + p + y[cut:]
        assert kmp_search(p, y) == _kmp_search_per_call(p, y), (p, y)
    table = _prefix_function("abcabcacab")
    assert isinstance(table, tuple)
    assert table == (0, 0, 0, 1, 2, 3, 4, 0, 1, 2)
    assert _prefix_function("abcabcacab") is table
    assert failure_table("abcabcacab") == (0,) + table


def _delta(p):
    """The automaton's move: the search resumed in a state on one letter."""
    return lambda state, ch: kmp_resume(p, ch, state)[0]


def test_automaton_for_aab():
    d = _delta("aab")
    assert d(0, "a") == 1
    assert d(1, "a") == 2
    assert d(2, "b") == 3
    assert d(2, "a") == 2
    assert d(1, "b") == 0
    assert d(0, "x") == 0


def test_automaton_single_letter():
    d = _delta("a")
    assert d(0, "a") == 1
    assert d(0, "q") == 0
    assert d(1, "a") == 1  # accept sink


def test_automaton_for_ababa():
    d = _delta("ababa")
    assert d(3, "b") == 4
    assert d(4, "a") == 5
    assert d(4, "b") == 0   # failure chain 4 -> 2 -> 0 on 'b'
    assert d(4, "z") == 0
    assert d(3, "a") == 1   # failure chain keeps the matched 'a'


def test_automaton_agrees_with_search():
    for p in ("aab", "ababa", "abcabcacab"):
        delta = _delta(p)
        alphabet = sorted(set(p)) + ["z"]
        for n in range(7):
            for tup in itertools.product(alphabet, repeat=n):
                y = "".join(tup)
                state = 0
                for ch in y:
                    state = delta(state, ch)
                assert (state == len(p)) == (p in y), (p, y)


def test_automaton_delta_follows_long_failure_chains():
    # one loop step per failure link (RecursionError when delta recursed)
    assert _delta("a" * 3000)(2999, "b") == 0
    assert _delta("a" * 3000)(2999, "a") == 3000
    assert _delta("a" * 2999 + "b")(2999, "a") == 2999
    # against the definition: the longest prefix of p that is a suffix of
    # the matched prefix extended by ch
    rng = random.Random(8)
    for _ in range(300):
        p = "".join(rng.choice("ab") for _ in range(rng.randint(1, 9)))
        delta = _delta(p)
        for state in range(len(p)):
            for ch in "abz":
                read = p[:state] + ch
                best = max(k for k in range(len(read) + 1)
                           if read.endswith(p[:k]))
                assert delta(state, ch) == best, (p, state, ch)
        assert delta(len(p), "a") == len(p)


def test_table_rows_cover_mismatchable_prefixes():
    rows = table_rows("ababa")
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
    assert [r[2] for r in rows] == [0, 0, 0, 1, 2]
    assert rows[3][3] == "j(i) = i-1"


def test_kmp_resume_continues_the_search_where_it_stopped():
    rng = random.Random(11)
    for _ in range(2000):
        p = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        y = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 30)))
        whole = kmp_resume(p, y)
        assert (whole[0] == len(p), whole[1]) == kmp_search(p, y)
        cut = rng.randint(0, len(y))
        assert kmp_resume(p, y[cut:], *kmp_resume(p, y[:cut])) == whole
    # once found, the search stops: no further comparisons
    assert kmp_resume("ab", "ab") == (2, 2)
    assert kmp_resume("ab", "bbbb", 2, 2) == (2, 2)
