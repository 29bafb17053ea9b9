"""Seeded inputs for the three workloads, and the benchmark's own oracles.

Nothing here imports miniscp: the program under test receives only the
generated patterns and strings, and the naive matcher's step count is
computed here independently of its interpreter.
"""

from __future__ import annotations

import random

# specialize-ladder: (ab)^k and a^n stop where one pattern takes about
# 0.75 s at the seed code, so that three passes of 40 processes fit in a
# run; (ab)^16 takes 14 s and a^26 109 s there (the whistle is exponential
# on repetitive words).  The random rungs are kept short enough that their
# summed cost moves by only a few percent from seed to seed.
AB_RUNGS = range(1, 11)
A_RUNGS = range(1, 18)
RANDOM_RUNGS = ((2, (6, 10, 14, 18)), (3, (8, 12, 16, 20)),
                (4, (8, 12, 16, 20, 24)))

# run-long: no-match inputs of 10^4 and 4*10^4 symbols, and 8*10^4 for the
# all-first-letter string (the naive matcher's worst case).  The residual's
# slicing (each step copies the rest of the string) makes its time per
# symbol grow already over this range; at 1.6*10^5 and beyond, where wall
# time is quadratic at the seed code, single runs on the reference machine
# varied by a third from one run to the next, too much to compare commits.
LONG_FIXED_PATTERNS = ("aab", "abcabcacab")
LONG_RANDOM_PATTERN = (3, 8)  # alphabet size, length
LONG_SIZES = (10_000, 40_000)
FIRST_LETTER_TOP = 80_000

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def ladder_patterns(seed: int) -> list[str]:
    rungs = ["ab" * k for k in AB_RUNGS] + ["a" * n for n in A_RUNGS]
    rng = random.Random(f"ladder:{seed}")
    for k, lengths in RANDOM_RUNGS:
        for n in lengths:
            rungs.append("".join(rng.choice(LETTERS[:k]) for _ in range(n)))
    return rungs


def agreement_strings(pattern: str, seed: int) -> list[str]:
    """Seeded strings over the pattern's letters plus one fresh letter,
    a quarter of them with the pattern planted at a random position."""
    rng = random.Random(f"agree:{seed}:{pattern}")
    base = sorted(set(pattern))
    alpha = "".join(base) + next(c for c in LETTERS if c not in base)
    out = []
    for k in range(64):
        y = "".join(rng.choice(alpha)
                    for _ in range(rng.randint(0, 3 * len(pattern) + 4)))
        if k % 4 == 0:
            cut = rng.randint(0, len(y))
            y = y[:cut] + pattern + y[cut:]
        out.append(y)
    return out


def long_patterns(seed: int) -> list[str]:
    """The fixed patterns and one seeded word that uses every letter (so no
    input over its alphabet is forced to match) and does not repeat its
    first letter (so the naive matcher's work on the all-first-letter
    input, three steps a symbol, is the same for every seed)."""
    rng = random.Random(f"long:{seed}")
    k, n = LONG_RANDOM_PATTERN
    while True:
        p = "".join(rng.choice(LETTERS[:k]) for _ in range(n))
        if len(set(p)) == k and p[1] != p[0]:
            return list(LONG_FIXED_PATTERNS) + [p]


def _automaton(pattern: str, alphabet: str) -> list[dict]:
    """KMP transition table: delta[state][letter] for state < len(pattern)."""
    fail = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    delta = []
    for j in range(len(pattern)):
        row = {}
        for c in alphabet:
            if pattern[j] == c:
                row[c] = j + 1
            else:
                row[c] = delta[fail[j - 1]][c] if j else 0
        delta.append(row)
    return delta


def avoiding_string(pattern: str, n: int, rng: random.Random) -> str:
    """n seeded letters over the pattern's alphabet that never contain the
    pattern: a letter that would complete it is drawn again."""
    alphabet = "".join(sorted(set(pattern)))
    delta = _automaton(pattern, alphabet)
    done = len(pattern)
    out = []
    state = 0
    while len(out) < n:
        c = rng.choice(alphabet)
        nxt = delta[state][c]
        if nxt != done:
            out.append(c)
            state = nxt
    return "".join(out)


def long_cases(seed: int) -> list[tuple[str, str, str]]:
    """(pattern, input kind, input) for every run-long operation pair."""
    cases = []
    for p in long_patterns(seed):
        rng = random.Random(f"long:{seed}:{p}")
        for n in LONG_SIZES:
            cases.append((p, "first", p[0] * n))
            cases.append((p, f"random{seed}", avoiding_string(p, n, rng)))
        cases.append((p, "first", p[0] * FIRST_LETTER_TOP))
    return cases


def long_fuel(pattern: str, y: str) -> int:
    """Explicit fuel: the naive matcher needs up to about |p|*|y| steps,
    past the interpreter's default of 10^6 on these inputs."""
    return (len(pattern) + 2) * (len(y) + 2)


def naive_steps(pattern: str, y: str) -> int:
    """Rule applications of the built-in naive matcher on an input that does
    not contain the pattern: one per non-matching scan step, and at each
    occurrence of the first letter one for entering L, one per matched
    symbol and one for falling back to S; one more for S on Nil."""
    steps = 1
    first = pattern[0]
    m, n = len(pattern), len(y)
    for i, ch in enumerate(y):
        if ch != first:
            steps += 1
            continue
        k = 1
        while k < m and i + k < n and y[i + k] == pattern[k]:
            k += 1
        steps += 2 + k
    return steps
