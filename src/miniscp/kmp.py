"""Independent linear-time matching oracle: failure function, pointer jump,
and a failure-link searcher that counts comparisons and can resume in any
state.

This module never touches the rewriting machinery; it exists to validate
generated programs against textbook machinery built only from the pattern.
"""

from __future__ import annotations

from functools import lru_cache

from .interpreter import EmptyPatternError


@lru_cache(maxsize=1024)
def _prefix_function(p: str) -> tuple[int, ...]:
    """pi[i] = length of the longest proper border of p[:i+1].

    Computed once per word while it is in use (the verify sweep searches
    for one pattern many times) and shared, hence a tuple; bounded because
    `failure` takes arbitrary words."""
    pi = [0] * len(p)
    k = 0
    for i in range(1, len(p)):
        while k > 0 and p[i] != p[k]:
            k = pi[k - 1]
        if p[i] == p[k]:
            k += 1
        pi[i] = k
    return tuple(pi)


def failure(q: str) -> int:
    """Length of the longest proper border of q (a word that is both a
    prefix and a suffix); 0 for the empty word."""
    if not q:
        return 0
    return _prefix_function(q)[-1]


def failure_table(p: str) -> tuple[int, ...]:
    """Entry k is the failure value of the length-k prefix, 0 <= k <= |p|."""
    return (0,) + _prefix_function(p)


def jump(i: int, q: str) -> int:
    """Next pointer position after the prefix q stopped matching at index i."""
    if i < len(q):
        raise ValueError(f"pointer {i} precedes the matched prefix |q|={len(q)}")
    return i - failure(q)


def kmp_resume(p: str, y: str, j: int = 0,
               comparisons: int = 0) -> tuple[int, int]:
    """The failure-link search of p over y, resumed in state j (letters of
    p matched) with `comparisons` made so far.  Returns the state and the
    comparisons; state len(p) means an occurrence was found, and the search
    stops there."""
    pi = _prefix_function(p)
    m = len(p)
    if j == m:
        return j, comparisons
    for ch in y:
        while True:
            comparisons += 1
            if ch == p[j]:
                j += 1
                if j == m:
                    return j, comparisons
                break
            if j == 0:
                break
            j = pi[j - 1]
    return j, comparisons


def kmp_search(p: str, y: str) -> tuple[bool, int]:
    """Failure-link search; returns (occurrence found, symbol comparisons).

    Comparisons are amortized: at most 2*len(y) on every input.
    """
    if not p:
        raise EmptyPatternError("pattern must be nonempty")
    j, comparisons = kmp_resume(p, y)
    return j == len(p), comparisons


def table_rows(p: str) -> list[tuple[int, str, int, str]]:
    """Rows (k, prefix, f, jump text) for prefixes of lengths 0..|p|-1,
    the prefixes a mismatch can leave behind."""
    if not p:
        raise EmptyPatternError("pattern must be nonempty")
    values = failure_table(p)
    rows = []
    for k in range(len(p)):
        f = values[k]
        jtext = "j(i) = i" if f == 0 else f"j(i) = i-{f}"
        rows.append((k, p[:k], f, jtext))
    return rows
