"""A miniature supercompiler for a first-order string-rewriting language.

Specializes a naive substring matcher to any fixed pattern by driving and
folding, producing a residual program with the structure and running time of
a failure-function matcher, and verifies the generated code per pattern.

The package root exports the names the demos use; everything else is
imported from its module (`miniscp.scp`, `miniscp.harness`, ...).
"""

from .syntax import Call, word
from .interpreter import NAIVE_MATCHER_SOURCE, eval_call, naive_outcome
from .configs import config_text
from .scp import first_path_pivots, graph_lines, specialize_pattern
from .residual import render_residual, residualize, structural_report
from .kmp import jump, kmp_resume, kmp_search, table_rows
from .cli import main

__version__ = "0.1.0"
