#!/usr/bin/env python3
# The classical linear-time machinery this package uses as an oracle: the
# failure function (longest proper border), the pointer jump it licenses,
# and the deterministic automaton grown from it.

from miniscp import jump, kmp_resume, kmp_search, table_rows

for pattern in ("aab", "ababa"):
    print(f"pattern {pattern!r}:")
    for k, prefix, f, jtext in table_rows(pattern):
        shown = f"'{prefix}'" if prefix else "ε"
        print(f"  matched {shown:<8} f={f}  {jtext}")
    print()

# After matching 'aa' and hitting a mismatch, the pointer only moves back by
# one: the border 'a' of 'aa' may still start an occurrence.
print("jump(5, 'aa') =", jump(5, "aa"))
print("jump(3, '')   =", jump(3, ""))
print("jump(10, 'abab') =", jump(10, "abab"))
print()

# The same information as a transition table: the search resumed in a state
# on one letter.  Symbols outside the pattern fall through the failure chain
# to state 0.
pattern = "aab"
accept = len(pattern)
print(f"automaton for {pattern!r} (accept = {accept}):")
for state in range(accept):
    row = {ch: kmp_resume(pattern, ch, state)[0] for ch in "abz"}
    print(f"  state {state}: {row}")
print()

# The searcher driven by the failure table stays within 2|y| comparisons.
for y in ("aaab", "abababab", "b" * 20 + "aab"):
    found, comparisons = kmp_search(pattern, y)
    print(f"search {pattern!r} in {y!r}: {found} "
          f"({comparisons} comparisons, bound {2 * len(y)})")
