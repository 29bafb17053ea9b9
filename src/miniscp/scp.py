"""Process-graph construction: iterated driving with covering-based folding
and a homeomorphic-embedding whistle.

At each active node the builder first scans the ancestors with the same
shape key (`configs.shape`: equal up to renaming), nearest first, for one
whose restriction the node's entails, which makes it cover the node (fold
edge on success); failing that it checks whether any ancestor with the same
head function embeds into the node (whistle: the path stops with a
diagnostic leaf and a counter tick, no generalization operator is
provided), skipping, by their shape keys, the ancestors with an argument
of more spine heads than the node's, which cannot embed; otherwise the
node is driven, transient steps are compressed into the edges, and the
children are visited depth-first in branch order.

The embedding ignores restrictions, couples equal constructors and literals,
dives into subterms, and relates a parameter only to parameters of the same
kind, so it is preserved under renaming and never fires on a node whose shape
differs from the ancestor only at parameter positions.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import le

from .configs import (
    Config, config_text, covers, make_config, renaming_text, shape,
)
from .driving import Branch, GroundFirst, NameGen, compress, drive_step
from .interpreter import EmptyPatternError, naive_matcher
from .record import Record
from .syntax import (
    Call, Cons, Expr, ListParam, Nil, Program, SymParam, is_passive,
    render_expr, spine, word_cells,
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


class Node(Record):
    """A process-graph node: its configuration, its kind, its parent and
    the branch (edge label) from it, its children, and its fold target
    with the renaming, if it folds (tuple[int, Renaming])."""
    __slots__ = ("config", "kind", "parent", "branch", "children", "fold")
    _defaults = {"kind": "", "parent": None, "branch": None, "children": [],
                 "fold": None}


class ProcessGraph(Record):
    __slots__ = ("nodes", "root")  # list[Node], int
    _defaults = {"root": 0}

    def ancestors(self, i: int) -> Iterator[int]:
        """Strict ancestors on the root path, nearest first."""
        p = self.nodes[i].parent
        while p is not None:
            yield p
            p = self.nodes[p].parent


class ScpReport(Record):
    """Outcome counts of one supercompile session.

    `drive_steps` counts every configuration driven in the session, by
    drive_step or as a ground step; `ground_steps` counts the transient
    steps `compress` took as ground steps, one at a time by
    `driving.ground_step` or in runs by `driving.ground_run`, and
    `ground_runs` those runs; `transient_steps` counts all the steps
    compressed into edges (each edge's `Branch.steps` less the one step of
    the drive that made it), ground or not.  `whistle_checks` counts the
    (ancestor, node) pairs `embeds` decided, those the head-count filter
    let through.  `pivots` is a list[Config], `whistle_pairs` a
    list[tuple[int, int]]."""
    __slots__ = ("generalizations_attempted", "pivots", "node_count",
                 "fold_count", "whistle_pairs", "drive_steps", "ground_steps",
                 "transient_steps", "whistle_checks", "ground_runs")
    _defaults = {"whistle_pairs": [], "drive_steps": 0, "ground_steps": 0,
                 "transient_steps": 0, "whistle_checks": 0, "ground_runs": 0}


def head_fn(cfg: Config) -> str | None:
    return cfg.expr.fn if isinstance(cfg.expr, Call) else None


# --- homeomorphic embedding --------------------------------------------------

def _couple(s: Expr, t: Expr) -> bool:
    """Embedding of s in a t that is not a list cell, so that t offers
    nothing to dive into.  A symbol couples only with itself."""
    if isinstance(s, SymParam):
        return isinstance(t, SymParam)
    if isinstance(s, ListParam):
        return isinstance(t, ListParam)
    if isinstance(s, Nil):
        return isinstance(t, Nil)
    return not isinstance(s, Cons) and s == t


def _embed(s: Expr, t: Expr) -> bool:
    """Homeomorphic embedding of passive s in passive t, in one greedy
    left-to-right scan of the two list spines (heads are atoms): O(|s|+|t|)
    steps and no recursion.

    A cell of s embeds in a cell of t by coupling heads (and tails) or by
    diving into t's tail, and never in an atom, so along the spines the
    embedding is a subsequence test: the heads of s couple, in order, with
    heads of t, and the earliest such choice leaves the most of t for the
    rest.  The end e of s then embeds in what is left of t, by coupling with
    t's end or with one of the heads left.  A parameter relates only to a
    parameter of its kind and cannot dive: it must couple with t's end, so
    the last head of s couples with the last head of t, and an s without
    heads embeds only in a t without heads.
    """
    s_heads, s_end = spine(s)
    t_heads, t_end = spine(t)
    param_end = s_end.__class__ is SymParam or s_end.__class__ is ListParam
    if param_end:
        if not _couple(s_end, t_end):
            return False
        if not s_heads or not t_heads:
            return not s_heads and not t_heads
        if not _couple(s_heads.pop(), t_heads.pop()):
            return False
    rest = iter(t_heads)
    for h in s_heads:
        if not any(_couple(h, x) for x in rest):
            return False
    return (param_end or _couple(s_end, t_end)
            or any(_couple(s_end, x) for x in rest))


def heads_fit(k1: tuple, k2: tuple) -> bool:
    """Whether no argument of a call with shape key k1 (see
    `configs.shape`) has more spine heads than the same argument of a call
    of the same function with key k2.  When one has, the first cannot
    embed in the second, since along a spine the embedding is a
    subsequence test (see `_embed`).  A key holds the function's name,
    then each argument's heads and end."""
    return all(map(le, map(len, k1), map(len, k2)))


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
    NodeBudgetError past `node_budget` nodes.  The entry is checked here,
    once: it must be a call with passive arguments (else ScpError) of a
    defined function (else ValidationError), with as many arguments as
    the function's patterns (else ScpError), under a satisfiable
    restriction (else ScpError).  Every configuration driven from it keeps
    all four, the program being valid (see `syntax.validate`), so driving
    checks none of them again.
    """
    if not entry.is_active() or not all(map(is_passive, entry.expr.args)):
        raise ScpError("entry configuration must be a call with passive "
                       "arguments")
    call = entry.expr
    arity = len(program.rules(call.fn)[0].lhs)
    if arity != len(call.args):
        raise ScpError(f"entry configuration calls {call.fn}/{arity} with "
                       f"{len(call.args)} arguments")
    if entry.restriction.unsat:
        raise ScpError("entry configuration has an unsatisfiable "
                       "restriction")
    names = NameGen.for_exprs(entry.expr)
    step = GroundFirst(names)
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
            if head_fn(anc) != fn or not heads_fit(keys[a], key):
                continue
            report.whistle_checks += 1
            if embeds(anc, cfg):
                node.kind = KIND_DIAGNOSTIC
                report.generalizations_attempted += 1
                report.whistle_pairs.append((a, i))
                whistled = True
                break
        if whistled:
            continue
        branches = [compress(program, b, step)
                    for b in drive_step(program, cfg, names)]
        chained = sum(b.steps - 1 for b in branches)
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
    report.ground_steps = step.ground
    report.ground_runs = step.runs
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

def matcher_entry(pattern: str, program: Program | None = None
                  ) -> tuple[Program, Config]:
    """A matcher applied to a static pattern and a dynamic string: the
    entry S(pattern, #y) of `program`, the built-in naive matcher when it
    is not given."""
    if not pattern:
        raise EmptyPatternError("pattern must be nonempty")
    entry = make_config(Call("S", (word_cells(pattern), ListParam("y"))))
    return naive_matcher() if program is None else program, entry


def specialize_pattern(pattern: str, program: Program | None = None,
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


def _edge_label(b: Branch) -> str:
    """An edge's narrowing as both exports print it: each parameter's
    image, then the disequalities the edge adds; ε when there are none."""
    parts = [f"{p!r}↦{render_expr(e)}" for p, e in b.subst]
    if b.added.diseqs:
        parts.append(repr(b.added))
    return "; ".join(parts) if parts else "ε"


def graph_lines(graph: ProcessGraph) -> list[str]:
    """Line-oriented dump: one node per line, then tree and fold edges."""
    def node(i, n):
        mark = " root" if i == graph.root else ""
        return f"node {i} {n.kind}{mark} {config_text(n.config)}"

    def edge(i, c, b):
        return (f"edge {i} -> {c} rule {b.rule_index} "
                f"[{_edge_label(b)}] steps={b.steps}")

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
        lab = esc(f"rule {b.rule_index}: {_edge_label(b)}")
        return f'  n{i} -> n{c} [label="{lab}"];'

    def fold(i, t, sigma):
        lab = esc(renaming_text(sigma))
        return f'  n{i} -> n{t} [style=dashed, label="{lab}"];'

    lines = ["digraph process {", "  node [shape=box, fontname=monospace];",
             *_graph_text(graph, node, edge, fold), "}"]
    return "\n".join(lines) + "\n"
