"""Independent linear-time matching oracle: failure function, pointer jump,
failure-chain automaton, and a comparison-counting searcher.

This module never touches the rewriting machinery; it exists to validate
generated programs against textbook machinery built only from the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .interpreter import EmptyPatternError


def _prefix_function(p: str) -> list[int]:
    """pi[i] = length of the longest proper border of p[:i+1]."""
    pi = [0] * len(p)
    k = 0
    for i in range(1, len(p)):
        while k > 0 and p[i] != p[k]:
            k = pi[k - 1]
        if p[i] == p[k]:
            k += 1
        pi[i] = k
    return pi


def failure(q: str) -> int:
    """Length of the longest proper border of q (a word that is both a
    prefix and a suffix); 0 for the empty word."""
    if not q:
        return 0
    return _prefix_function(q)[-1]


@dataclass(frozen=True, slots=True)
class FailureTable:
    """values[k] is the failure value of the length-k prefix, 0 <= k <= |p|."""
    pattern: str
    values: tuple[int, ...]


def failure_table(p: str) -> FailureTable:
    pi = _prefix_function(p)
    return FailureTable(p, (0,) + tuple(pi))


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


@dataclass
class Automaton:
    """Deterministic matcher with states 0..|p| and accept sink |p|.

    Transitions follow failure chains; symbols outside the pattern's
    alphabet fall through the chain to state 0.
    """
    pattern: str
    _table: dict = field(default_factory=dict, repr=False)

    @property
    def accept(self) -> int:
        return len(self.pattern)

    def delta(self, state: int, ch: str) -> int:
        if not 0 <= state <= len(self.pattern):
            raise ValueError(f"state {state} out of range")
        key = (state, ch)
        if key in self._table:
            return self._table[key]
        if state == self.accept:
            nxt = state  # accept is a sink
        elif ch == self.pattern[state]:
            nxt = state + 1
        elif state == 0:
            nxt = 0
        else:
            nxt = self.delta(failure_table(self.pattern).values[state], ch)
        self._table[key] = nxt
        return nxt


def automaton(p: str) -> Automaton:
    if not p:
        raise EmptyPatternError("pattern must be nonempty")
    return Automaton(p)


@dataclass(frozen=True, slots=True)
class PatternDecomposition:
    """Letters, suffixes, and the staggered prefixes of a pattern.

    With n = |p|: letter(i) is the i-th letter (1-based); suffix(i) drops the
    first i letters (0 <= i < n); stagger(i) is the prefix of suffix(1) of
    length i-1 (1 <= i < n), so suffix(i-1) = letter(i) + suffix(i) and
    suffix(1) = stagger(i) + suffix(i).
    """
    pattern: str

    def letter(self, i: int) -> str:
        if not 1 <= i <= len(self.pattern):
            raise ValueError(f"letter index {i} out of range")
        return self.pattern[i - 1]

    def suffix(self, i: int) -> str:
        if not 0 <= i < len(self.pattern):
            raise ValueError(f"suffix index {i} out of range")
        return self.pattern[i:]

    def stagger(self, i: int) -> str:
        if not 1 <= i < len(self.pattern):
            raise ValueError(f"stagger index {i} out of range")
        return self.pattern[1:i]

    def check(self) -> bool:
        n = len(self.pattern)
        for i in range(1, n):
            if self.suffix(i - 1) != self.letter(i) + self.suffix(i):
                return False
            if self.suffix(1) != self.stagger(i) + self.suffix(i):
                return False
        return True


def table_rows(p: str) -> list[tuple[int, str, int, str]]:
    """Rows (k, prefix, f, jump text) for prefixes of lengths 0..|p|-1,
    the prefixes a mismatch can leave behind."""
    if not p:
        raise EmptyPatternError("pattern must be nonempty")
    values = failure_table(p).values
    rows = []
    for k in range(len(p)):
        f = values[k]
        jtext = "j(i) = i" if f == 0 else f"j(i) = i-{f}"
        rows.append((k, p[:k], f, jtext))
    return rows
