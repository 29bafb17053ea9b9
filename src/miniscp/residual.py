"""Residual program generation from a closed process graph.

Every pivot becomes one function named F_k, k in first-encounter (depth-first)
order, with the pivot's distinct parameters as the signature in first-
occurrence order.  Each branch becomes one rule: the left-hand side
re-expresses the branch narrowing with parameters turned into rule variables,
and the right-hand side is the passive result, a call to the child pivot's
function, or a call through the fold renaming.  Rule order preserves branch
order, so the per-branch disequalities are encoded by first-match semantics:
positive-literal rules precede the catch-all rule.  That encoding is checked,
not assumed, by the driver itself: each residual function, called on its
signature under its pivot's restriction, must drive to its pivot's branches,
narrowing for narrowing and disequality for disequality.
"""

from __future__ import annotations

from .configs import Config, apply_to_restriction, config_text, shape
from .driving import Branch, drive_step
from .interpreter import DriveError, EvalError, trace_call
from .record import Record
from .scp import (
    KIND_DIAGNOSTIC, KIND_FOLDED, KIND_PASSIVE, KIND_PIVOT, ProcessGraph,
)
from .syntax import (
    Call, Expr, ListVar, Nil, Program, Rule, Sym, SymParam, SymVar, TrueVal,
    params_of, render, spine, subterms, substitute, vars_of, word,
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


def _images(b: Branch, sig: list) -> tuple:
    """The shape key of a branch's narrowing of the signature `sig`, and
    the parameters of its images in first-occurrence order."""
    subst = dict(b.subst)
    return shape(Call("", tuple(subst.get(p, p) for p in sig)))


def _check_rule_order(program: Program, name: str, pivot: Config, sig: list,
                      branches: list[Branch]) -> None:
    """Drive `name` called on its signature under its pivot's restriction
    and require the pivot's branches back, in order: each with the same
    narrowing and the same added disequalities, up to the renaming that
    equal shape keys give."""
    try:
        driven = drive_step(program, Config(Call(name, tuple(sig)),
                                            pivot.restriction))
    except DriveError as e:
        raise ResidualError(f"{name}: {e}") from e
    if len(driven) != len(branches):
        raise ResidualError(f"{name}: its rules drive to {len(driven)} "
                            f"branches, its pivot to {len(branches)}")
    for k, (got, want) in enumerate(zip(driven, branches)):
        key, order = _images(got, sig)
        want_key, want_order = _images(want, sig)
        if key != want_key:
            raise ResidualError(f"{name}: rule {k} narrows otherwise than "
                                f"branch {k} of its pivot")
        added = apply_to_restriction(got.added, dict(zip(order, want_order)))
        if added != want.added:
            raise ResidualError(
                f"{name}: rule order gives rule {k} the disequalities "
                f"[{added!r}], branch {k} of its pivot [{want.added!r}]")


def residualize(graph: ProcessGraph) -> ResidualProgram:
    """Read one function per pivot off the graph; folds become calls.  The
    program checks itself when built (NonTailError outside the grammar),
    and its rule order is checked against the graph's branches."""
    nodes = graph.nodes
    if any(n.kind == KIND_DIAGNOSTIC for n in nodes):
        raise ResidualError("graph has diagnostic leaves")
    func_nodes = [i for i in _preorder(graph)
                  if nodes[i].kind == KIND_PIVOT or i == graph.root]
    if nodes[graph.root].kind == KIND_PASSIVE:
        raise ResidualError("entry configuration is passive")
    names = {i: f"F_{k}" for k, i in enumerate(func_nodes)}
    sigs = {i: params_of(nodes[i].config.expr) for i in func_nodes}
    functions = []
    for i in func_nodes:
        rules = []
        for c in nodes[i].children:
            child = nodes[c]
            subst = dict(child.branch.subst)
            lhs = tuple(_param_to_var(subst.get(p, p)) for p in sigs[i])
            if child.kind == KIND_PASSIVE:
                rhs = _param_to_var(child.config.expr)
            elif child.kind == KIND_FOLDED:
                target, sigma = child.fold
                rhs = Call(names[target],
                           tuple(_param_to_var(sigma[q])
                                 for q in sigs[target]))
            elif child.kind == KIND_PIVOT:
                rhs = Call(names[c], tuple(map(_param_to_var, sigs[c])))
            else:
                raise ResidualError(
                    f"unexpected child kind {child.kind} in a closed graph")
            rules.append(Rule(lhs, rhs))
        functions.append((names[i], tuple(rules)))
    program = Program(tuple(functions))
    for i in func_nodes:
        node = nodes[i]
        _check_rule_order(program, names[i], node.config, sigs[i],
                          [nodes[c].branch for c in node.children])
    return ResidualProgram(program,
                           {names[i]: nodes[i].config for i in func_nodes},
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
    fallback functions to the next consuming function, or 'accept': the
    reference engine's steps on the call of `name` on the word `ch`."""
    if signature_kinds(rp, name) != ("list",):
        raise ResidualError(f"{name} is not a consuming function")
    try:
        for expr in trace_call(rp.program, Call(name, (word(ch),))):
            if isinstance(expr, TrueVal):
                return "accept"
            if isinstance(expr, Call) \
                    and signature_kinds(rp, expr.fn) == ("list",):
                return expr.fn
    except EvalError as e:
        raise ResidualError(f"{name}: symbol {ch!r}: {e}") from e
    raise ResidualError(
        f"{name}: symbol {ch!r} rewrites to {expr!r}, not a call or T")
