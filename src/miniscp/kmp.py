"""Independent linear-time matching oracle: failure function, pointer jump,
failure-chain automaton, and a comparison-counting searcher.

This module never touches the rewriting machinery; it exists to validate
generated programs against textbook machinery built only from the pattern.
"""

from __future__ import annotations

from functools import lru_cache

from .interpreter import EmptyPatternError
from .record import Record


@lru_cache(maxsize=1024)
def _prefix_function(p: str) -> tuple[int, ...]:
    """pi[i] = length of the longest proper border of p[:i+1].

    Computed once per word while it is in use (kmp_search runs once per
    swept string of a pattern) and shared, hence a tuple; bounded because
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


def kmp_search(p: str, y: str) -> tuple[bool, int]:
    """Failure-link search; returns (occurrence found, symbol comparisons).

    Comparisons are amortized: at most 2*len(y) on every input.
    """
    if not p:
        raise EmptyPatternError("pattern must be nonempty")
    pi = _prefix_function(p)
    m = len(p)
    j = 0
    comparisons = 0
    for ch in y:
        while True:
            comparisons += 1
            if ch == p[j]:
                j += 1
                if j == m:
                    return True, comparisons
                break
            if j == 0:
                break
            j = pi[j - 1]
    return False, comparisons


class Automaton(Record):
    """Deterministic matcher with states 0..|p| and accept sink |p|.

    Transitions follow failure chains; symbols outside the pattern's
    alphabet fall through the chain to state 0.
    """
    __slots__ = ("pattern",)

    @property
    def accept(self) -> int:
        return len(self.pattern)

    def delta(self, state: int, ch: str) -> int:
        """One loop step per failure link, so long chains are safe."""
        p = self.pattern
        if not 0 <= state <= len(p):
            raise ValueError(f"state {state} out of range")
        if state == len(p):
            return state  # accept is a sink
        pi = _prefix_function(p)
        while ch != p[state]:
            if state == 0:
                return 0
            state = pi[state - 1]
        return state + 1


def automaton(p: str) -> Automaton:
    if not p:
        raise EmptyPatternError("pattern must be nonempty")
    return Automaton(p)


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
