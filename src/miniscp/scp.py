"""Process-graph construction: iterated driving with covering-based folding
and a homeomorphic-embedding whistle.

At each active node the builder first scans the ancestors with the same
shape key (`configs.shape`: equal up to renaming), nearest first, for one
whose restriction the node's entails, which makes it cover the node (fold
edge on success); failing that it checks whether any ancestor with the same
head function embeds into the node (whistle: the path stops with a
diagnostic leaf and a counter tick, no generalization operator is
provided); otherwise the node is driven, transient steps are compressed into
the edges, and the children are visited depth-first in branch order.

The embedding ignores restrictions, couples equal constructors and literals,
dives into subterms, and relates a parameter only to parameters of the same
kind, so it is preserved under renaming and never fires on a node whose shape
differs from the ancestor only at parameter positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .configs import (
    Config, Renaming, config_text, covers, make_config, renaming_text, shape,
)
from .driving import Branch, NameGen, compress, drive_step
from .interpreter import EmptyPatternError, naive_matcher
from .syntax import (
    Call, Cons, Expr, ListParam, Nil, Program, Sym, SymParam, spine, word,
)


class ScpError(Exception):
    pass


class NodeBudgetError(ScpError):
    pass


class FirstPathError(ScpError):
    """The lowest-rule-index path failed to end at a passive leaf."""


KIND_PASSIVE = "passive"
KIND_TRANSIENT = "transient"
KIND_PIVOT = "pivot"
KIND_FOLDED = "folded"
KIND_DIAGNOSTIC = "diagnostic"


@dataclass
class Node:
    config: Config
    kind: str = ""
    parent: Optional[int] = None
    branch: Optional[Branch] = None  # edge label from parent
    children: list = field(default_factory=list)
    fold: Optional[tuple[int, Renaming]] = None


@dataclass
class ProcessGraph:
    nodes: list[Node]
    root: int = 0

    def ancestors(self, i: int) -> Iterator[int]:
        """Strict ancestors on the root path, nearest first."""
        p = self.nodes[i].parent
        while p is not None:
            yield p
            p = self.nodes[p].parent

    def chain_configs(self) -> Iterator[tuple[int, Config]]:
        """All compressed-away transient configurations, tagged with the
        child node whose incoming edge absorbed them."""
        for i, n in enumerate(self.nodes):
            if n.branch is not None:
                for c in n.branch.chain:
                    yield i, c


@dataclass
class ScpReport:
    """Outcome counts of one supercompile session.

    `drive_steps` counts every drive_step call of the session, and
    `transient_steps` the steps compressed into edges (the summed lengths
    of the edges' chains)."""
    generalizations_attempted: int
    pivots: list[Config]
    node_count: int
    fold_count: int
    whistle_pairs: list[tuple[int, int]] = field(default_factory=list)
    drive_steps: int = 0
    transient_steps: int = 0


def head_fn(cfg: Config) -> Optional[str]:
    return cfg.expr.fn if isinstance(cfg.expr, Call) else None


# --- homeomorphic embedding --------------------------------------------------

def _couple(s: Expr, t: Expr) -> bool:
    """Embedding of s in a t that is not a list cell, so that t offers
    nothing to dive into."""
    if isinstance(s, SymParam):
        return isinstance(t, SymParam)
    if isinstance(s, ListParam):
        return isinstance(t, ListParam)
    if isinstance(s, Sym):
        return isinstance(t, Sym) and s.ch == t.ch
    if isinstance(s, Nil):
        return isinstance(t, Nil)
    return not isinstance(s, Cons) and s == t


def _embed(s: Expr, t: Expr) -> bool:
    """Homeomorphic embedding of passive s in passive t, by dynamic
    programming over the suffixes of the two list spines (heads are atoms):
    O(|s|·|t|) steps and no recursion, where diving into both head and tail
    without a memo is exponential on repetitive words.

    With s_i, t_j the suffixes from the i-th and j-th cell, a cell s_i
    embeds in a cell t_j by coupling (heads couple and s_{i+1} embeds in
    t_{j+1}) or by diving into t_{j+1}; it never embeds in an atom.  A
    spine end e embeds in t_j by coupling with t_j, or -- unless e is a
    parameter, which relates only to a parameter of its kind -- by diving
    into any later head or the end of t.
    """
    s_heads, s_end = spine(s)
    t_heads, t_end = spine(t)
    n = len(t_heads)
    # row[j]: does the current suffix of s embed in t_j (t_n is t's end)?
    row = [False] * (n + 1)
    row[n] = _couple(s_end, t_end)
    if not isinstance(s_end, (SymParam, ListParam)):
        for j in range(n - 1, -1, -1):
            row[j] = row[j + 1] or _couple(s_end, t_heads[j])
    for h in reversed(s_heads):
        nxt = row
        row = [False] * (n + 1)
        for j in range(n - 1, -1, -1):
            row[j] = row[j + 1] or (nxt[j + 1] and _couple(h, t_heads[j]))
    return row[0]


def embeds(c1: Config, c2: Config) -> bool:
    """Does c1 homeomorphically embed in c2?

    Calls couple only with the same head function, argument-wise; a parameter
    embeds in any parameter of the same kind and in nothing else; a literal
    embeds in an equal literal; restrictions are ignored.
    """
    e1, e2 = c1.expr, c2.expr
    if isinstance(e1, Call) and isinstance(e2, Call):
        return (e1.fn == e2.fn and len(e1.args) == len(e2.args)
                and all(_embed(a, b) for a, b in zip(e1.args, e2.args)))
    if isinstance(e1, Call) or isinstance(e2, Call):
        return False
    return _embed(e1, e2)


# --- graph construction ------------------------------------------------------

def supercompile(program: Program, entry: Config,
                 node_budget: int = 10_000) -> tuple[ProcessGraph, ScpReport]:
    """Build the folded process graph of the program for the given entry.

    Terminates with every leaf passive, folded, or diagnostic; raises
    NodeBudgetError past `node_budget` nodes.
    """
    if not entry.is_active():
        raise ScpError("entry configuration must be active")
    names = NameGen.for_exprs(entry.expr)
    graph = ProcessGraph([Node(entry)])
    report = ScpReport(0, [], 0, 0)
    keys: dict = {}  # active node -> its shape key
    stack = [0]
    while stack:
        i = stack.pop()
        node = graph.nodes[i]
        cfg = node.config
        if not cfg.is_active():
            node.kind = KIND_PASSIVE
            continue
        key = keys[i] = shape(cfg.expr)[0]
        folded = False
        for a in graph.ancestors(i):
            if keys[a] != key:
                continue
            sigma = covers(graph.nodes[a].config, cfg)
            if sigma is not None:
                node.fold = (a, sigma)
                node.kind = KIND_FOLDED
                report.fold_count += 1
                folded = True
                break
        if folded:
            continue
        fn = head_fn(cfg)
        whistled = False
        for a in graph.ancestors(i):
            anc = graph.nodes[a].config
            if head_fn(anc) != fn:
                continue
            if embeds(anc, cfg):
                node.kind = KIND_DIAGNOSTIC
                report.generalizations_attempted += 1
                report.whistle_pairs.append((a, i))
                whistled = True
                break
        if whistled:
            continue
        branches = [compress(program, b, names)
                    for b in drive_step(program, cfg, names)]
        chained = sum(len(b.chain) for b in branches)
        report.transient_steps += chained
        # this node's drive, one per compressed step, and one per active
        # child whose drive ended its chain
        report.drive_steps += 1 + chained + sum(b.child.is_active()
                                                for b in branches)
        node.kind = KIND_PIVOT if len(branches) >= 2 else KIND_TRANSIENT
        if node.kind == KIND_PIVOT:
            report.pivots.append(cfg)
        child_ids = []
        for b in branches:
            if len(graph.nodes) >= node_budget:
                raise NodeBudgetError(
                    f"process graph exceeded {node_budget} nodes")
            graph.nodes.append(Node(b.child, parent=i, branch=b))
            child_ids.append(len(graph.nodes) - 1)
        node.children = child_ids
        stack.extend(reversed(child_ids))
    report.node_count = len(graph.nodes)
    return graph, report


def first_path(graph: ProcessGraph) -> list[int]:
    """Node indices along the lowest-rule-index path from the root to its
    passive leaf; raises FirstPathError if the path hits a fold or
    diagnostic."""
    path = [graph.root]
    while True:
        node = graph.nodes[path[-1]]
        if node.kind == KIND_PASSIVE:
            return path
        if node.kind in (KIND_FOLDED, KIND_DIAGNOSTIC) or not node.children:
            raise FirstPathError(
                f"first path blocked at node {path[-1]} ({node.kind})")
        path.append(node.children[0])


def first_path_pivots(graph: ProcessGraph) -> list[Config]:
    """Pivot configurations along the first path, in order."""
    return [graph.nodes[i].config for i in first_path(graph)
            if graph.nodes[i].kind == KIND_PIVOT]


# --- entries and exports -----------------------------------------------------

def matcher_entry(pattern: str, program: Optional[Program] = None
                  ) -> tuple[Program, Config]:
    """A matcher applied to a static pattern and a dynamic string: the
    entry S(pattern, #y) of `program`, the built-in naive matcher when it
    is not given."""
    if not pattern:
        raise EmptyPatternError("pattern must be nonempty")
    entry = make_config(Call("S", (word(pattern), ListParam("y"))))
    return naive_matcher() if program is None else program, entry


def specialize_pattern(pattern: str, program: Optional[Program] = None,
                       node_budget: int = 10_000
                       ) -> tuple[ProcessGraph, ScpReport]:
    return supercompile(*matcher_entry(pattern, program), node_budget)


def _graph_text(graph: ProcessGraph, node, edge, fold) -> list[str]:
    """The one walk both exports share: a line per node, then per tree edge,
    then per fold edge, each formatted by the given function."""
    nodes = graph.nodes
    out = [node(i, n) for i, n in enumerate(nodes)]
    out += [edge(i, c, nodes[c].branch)
            for i, n in enumerate(nodes) for c in n.children]
    out += [fold(i, *n.fold) for i, n in enumerate(nodes)
            if n.fold is not None]
    return out


def graph_lines(graph: ProcessGraph) -> list[str]:
    """Line-oriented dump: one node per line, then tree and fold edges."""
    def node(i, n):
        mark = " root" if i == graph.root else ""
        return f"node {i} {n.kind}{mark} {config_text(n.config)}"

    def edge(i, c, b):
        return (f"edge {i} -> {c} rule {b.narrowing.rule_index} "
                f"[{b.narrowing!r}] steps={b.steps}")

    def fold(i, t, sigma):
        return f"fold {i} ..> {t} [{renaming_text(sigma)}]"

    return _graph_text(graph, node, edge, fold)


def export_dot(graph: ProcessGraph) -> str:
    """Graphviz rendering: solid narrowing-labeled tree edges, dashed
    renaming-labeled fold edges, root with doubled border."""
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    def node(i, n):
        label = esc(f"{i}: {n.kind}") + "\\n" + esc(config_text(n.config))
        extra = ", peripheries=2" if i == graph.root else ""
        return f'  n{i} [label="{label}"{extra}];'

    def edge(i, c, b):
        lab = esc(f"rule {b.narrowing.rule_index}: {b.narrowing!r}")
        return f'  n{i} -> n{c} [label="{lab}"];'

    def fold(i, t, sigma):
        lab = esc(renaming_text(sigma))
        return f'  n{i} -> n{t} [style=dashed, label="{lab}"];'

    lines = ["digraph process {", "  node [shape=box, fontname=monospace];",
             *_graph_text(graph, node, edge, fold), "}"]
    return "\n".join(lines) + "\n"
