"""Residual program generation from a closed process graph.

Every pivot becomes one function named F_k, k in first-encounter (depth-first)
order, with the pivot's distinct parameters as the signature in first-
occurrence order.  Each branch becomes one rule: the left-hand side
re-expresses the branch narrowing with parameters turned into rule variables,
and the right-hand side is the passive result, a call to the child pivot's
function, or a call through the fold renaming.  Rule order preserves branch
order, so the per-branch disequalities are encoded by first-match semantics:
positive-literal rules precede the catch-all rule.  That encoding is checked,
not assumed.
"""

from __future__ import annotations

from .configs import config_text
from .driving import Branch
from .interpreter import match
from .record import Record
from .scp import (
    KIND_DIAGNOSTIC, KIND_FOLDED, KIND_PASSIVE, KIND_PIVOT, ProcessGraph,
)
from .syntax import (
    NIL, Call, Cons, Expr, ListVar, Nil, Program, Rule, Sym, SymParam,
    SymVar, TrueVal, params_of, render, spine, subterms, substitute,
    vars_of, word,
)


class ResidualError(Exception):
    pass


class ResidualProgram(Record, frozen=True):
    """The residual program, the pivot configuration each of its functions
    comes from (function name -> Config), and its entry function."""
    __slots__ = ("program", "provenance", "entry")


class StructuralReport(Record, frozen=True):
    """Counts over a program's rules: literal/Nil occurrences inside call
    arguments, call arguments sharing or repeating a variable, and the
    deepest constructor nesting any pattern inspects."""
    __slots__ = ("constants_in_rhs", "repeated_params_in_rhs",
                 "max_lhs_cons_depth")


def _param_to_var(expr: Expr) -> Expr:
    mapping = {}
    for p in params_of(expr):
        if isinstance(p, SymParam):
            mapping[p] = SymVar(p.name)
        else:
            mapping[p] = ListVar(p.name)
    return substitute(expr, mapping)


def _preorder(graph: ProcessGraph) -> list[int]:
    order = []
    stack = [graph.root]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(reversed(graph.nodes[i].children))
    return order


def _check_rule_order(branches: list[Branch], params) -> None:
    """Verify each branch's disequalities are exactly the literals placed at
    the same position by earlier branches (the rule-order encoding)."""
    def position_of(subst: dict, s: SymParam):
        for q in params:
            img = subst.get(q)
            if q == s and img is None:
                return (q, "self")
            if isinstance(img, Cons) and img.head == s:
                return (q, "head")
        return None

    def literal_at(subst: dict, pos) -> str | None:
        q, where = pos
        img = subst.get(q)
        if where == "self":
            return img.ch if isinstance(img, Sym) else None
        if isinstance(img, Cons) and isinstance(img.head, Sym):
            return img.head.ch
        return None

    for k, b in enumerate(branches):
        subst = dict(b.subst)
        by_param: dict = {}
        for t1, t2 in b.added.diseqs:
            lit, par = (t1, t2) if isinstance(t1, Sym) else (t2, t1)
            if not (isinstance(lit, Sym) and isinstance(par, SymParam)):
                raise ResidualError(
                    f"disequality {t1!r} != {t2!r} is not symbol-vs-literal")
            by_param.setdefault(par, set()).add(lit.ch)
        for par, lits in by_param.items():
            pos = position_of(subst, par)
            if pos is None:
                raise ResidualError(
                    f"constrained parameter {par!r} has no pattern position")
            earlier = set()
            for b2 in branches[:k]:
                lit = literal_at(dict(b2.subst), pos)
                if lit is not None:
                    earlier.add(lit)
            if lits != earlier:
                raise ResidualError(
                    f"branch {k}: disequalities {sorted(lits)} on {par!r} "
                    f"are not expressed by rule order {sorted(earlier)}")


def residualize(graph: ProcessGraph) -> ResidualProgram:
    """Read one function per pivot off the graph; folds become calls.  The
    program checks itself when built (NonTailError outside the grammar)."""
    nodes = graph.nodes
    if any(n.kind == KIND_DIAGNOSTIC for n in nodes):
        raise ResidualError("graph has diagnostic leaves")
    func_nodes = [i for i in _preorder(graph)
                  if nodes[i].kind == KIND_PIVOT or i == graph.root]
    if nodes[graph.root].kind == KIND_PASSIVE:
        raise ResidualError("entry configuration is passive")
    names = {i: f"F_{k}" for k, i in enumerate(func_nodes)}
    provenance = {}
    functions = []
    for i in func_nodes:
        node = nodes[i]
        params = params_of(node.config.expr)
        branches = [nodes[c].branch for c in node.children]
        _check_rule_order(branches, params)
        rules = []
        for c in node.children:
            child = nodes[c]
            b = child.branch
            subst = dict(b.subst)
            lhs = tuple(_param_to_var(subst.get(p, p)) for p in params)
            if child.kind == KIND_PASSIVE:
                rhs = _param_to_var(child.config.expr)
            elif child.kind == KIND_FOLDED:
                target, sigma = child.fold
                rhs = Call(names[target],
                           tuple(_param_to_var(sigma[q])
                                 for q in params_of(nodes[target].config.expr)))
            elif child.kind == KIND_PIVOT:
                rhs = Call(names[c],
                           tuple(_param_to_var(q)
                                 for q in params_of(child.config.expr)))
            else:
                raise ResidualError(
                    f"unexpected child kind {child.kind} in a closed graph")
            rules.append(Rule(lhs, rhs))
        functions.append((names[i], tuple(rules)))
        provenance[names[i]] = node.config
    return ResidualProgram(Program(tuple(functions)), provenance,
                           names[graph.root])


def structural_report(program: Program) -> StructuralReport:
    constants = 0
    repeated = 0
    max_depth = 0
    for _, rules in program.functions:
        for rule in rules:
            for pat in rule.lhs:
                max_depth = max(max_depth, len(spine(pat)[0]))
            rhs = rule.rhs
            if isinstance(rhs, Call):
                arg_vars = [set(vars_of(a)) for a in rhs.args]
                for i, a in enumerate(rhs.args):
                    constants += sum(
                        1 for t in subterms(a) if isinstance(t, (Sym, Nil)))
                    others = set().union(
                        *(vs for j, vs in enumerate(arg_vars) if j != i))
                    occs = list(_var_occurrences(a))
                    if arg_vars[i] & others or len(occs) > len(set(occs)):
                        repeated += 1
    return StructuralReport(constants, repeated, max_depth)


def _var_occurrences(expr: Expr):
    for t in subterms(expr):
        if isinstance(t, (SymVar, ListVar)):
            yield t


def render_residual(rp: ResidualProgram) -> str:
    """Program text with a provenance comment above each function."""
    comments = {name: f"{name} ≔ {config_text(cfg)}"
                for name, cfg in rp.provenance.items()}
    return render(rp.program, comments)


def residual_lines(rp: ResidualProgram) -> list[str]:
    """Structured export: one line per function with arity and provenance,
    one line per rule."""
    out = [f"entry {rp.entry}"]
    for name, rules in rp.program.functions:
        arity = len(rules[0].lhs)
        out.append(f"function {name}/{arity} from "
                   f"{config_text(rp.provenance[name])}")
        for k, rule in enumerate(rules):
            out.append(f"  rule {k}: {rule!r}")
    return out


# --- state structure of a residual matcher -----------------------------------

def signature_kinds(rp: ResidualProgram, name: str) -> tuple[str, ...]:
    cfg = rp.provenance[name]
    return tuple("sym" if isinstance(p, SymParam) else "list"
                 for p in params_of(cfg.expr))


def consuming_functions(rp: ResidualProgram) -> list[str]:
    """Functions taking just the remaining string: one step, one symbol."""
    out = []
    for name, _ in rp.program.functions:
        kinds = signature_kinds(rp, name)
        if kinds == ("list",):
            out.append(name)
        elif kinds != ("sym", "list"):
            raise ResidualError(f"unexpected signature {kinds} for {name}")
    return out


def transition(rp: ResidualProgram, name: str, ch: str):
    """Follow one input symbol from a consuming function through any
    fallback functions to the next consuming function, or 'accept'."""
    table = rp.program.table
    kinds = signature_kinds(rp, name)
    if kinds != ("list",):
        raise ResidualError(f"{name} is not a consuming function")
    while True:
        # a consuming function reads the symbol as the string ch, a
        # fallback function takes it bare beside the rest of the string
        args = (word(ch),) if kinds == ("list",) else (Sym(ch), NIL)
        rule = next((r for r in table[name] if match(r.lhs, args) is not None),
                    None)
        if rule is None:
            raise ResidualError(f"{name}: no rule consumes symbol {ch!r}")
        rhs = rule.rhs
        if isinstance(rhs, TrueVal):
            return "accept"
        if not isinstance(rhs, Call):
            raise ResidualError(
                f"{name}: symbol rule rewrites to {rhs!r}, not a call or T")
        name = rhs.fn
        kinds = signature_kinds(rp, name)
        if kinds == ("list",):
            return name
