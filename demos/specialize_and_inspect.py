#!/usr/bin/env python3
# Walk through one specialization end to end: drive the naive matcher over a
# static pattern and a dynamic string, fold the process graph, and read the
# residual program off the pivots.

from miniscp import (
    config_text, first_path_pivots, graph_lines, render_residual, residualize,
    specialize_pattern, structural_report,
)

pattern = "aab"
graph, report = specialize_pattern(pattern)

# Every node of the folded graph.  Pivots are genuine branch points (one
# residual function each); transient chains were compressed into the edges;
# folded leaves point back at a covering ancestor.
print(f"process graph for pattern {pattern!r}:")
for line in graph_lines(graph):
    print(" ", line)

print()
print("pivots in first-encounter order:")
for k, cfg in enumerate(report.pivots):
    print(f"  {k}: {config_text(cfg)}")
print("generalizations attempted:", report.generalizations_attempted)

# The first path (always taking the lowest-numbered rule) visits the entry
# and then one comparison state per matched prefix -- the matcher's loop
# invariant, spelled out as configurations.
print()
print("first-path pivots:")
for cfg in first_path_pivots(graph):
    print(" ", config_text(cfg))

# The residual program: one function per pivot, first-match rule order
# encoding the recorded disequalities, every call in tail position.
rp = residualize(graph)
print()
print(render_residual(rp))

# No constants, no repeated variables in call arguments, one symbol
# inspected per rule: nothing is left for the matcher to backtrack over.
print("structure:", structural_report(rp.program))
