"""One-step unfolding of configurations: narrowing, negative information,
and transient compression.

Driving a configuration enumerates, in rule order, every satisfiable way a
rule of the called function can fire after minimally narrowing the
configuration's parameters (one constructor level, exactly as deep as the
patterns inspect).  Each branch records the narrowing substitution and the
disequalities under which all earlier rules fail on the same narrowed shape;
the branch set partitions the ground instances of the configuration.  The
narrowing and the rule's binding both come from `interpreter.match`, the
matcher the reference engine rewrites with, in one pass per rule.

Negative information is only representable as symbol disequalities.  Rule
layouts whose earlier-rule failure would need anything else (equality of two
unknown symbols, or a structurally deeper split) are rejected loudly; they
cannot arise for the shipped matcher or for the programs it generates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .configs import (
    Config, Restriction, apply_to_restriction, make_config, param_key,
    restriction, satisfiable,
)
from .interpreter import DriveError, UnsupportedNarrowingError, match
from .syntax import (
    Call, Expr, ListParam, Program, SymParam, params_of,
    render_expr, spine, substitute,
)


class StuckConfigError(DriveError):
    """No rule can fire under any narrowing: an encoding bug, not a leaf."""


class NameGen:
    """Fresh-parameter supply owned by one driving session."""

    def __init__(self, reserved_sym=(), reserved_list=()):
        self._sym_used = set(reserved_sym)
        self._list_used = set(reserved_list)
        self._nsym = 0
        self._nlist = 0

    @classmethod
    def for_exprs(cls, *exprs: Expr) -> "NameGen":
        syms, lists = set(), set()
        for e in exprs:
            for p in params_of(e):
                (syms if isinstance(p, SymParam) else lists).add(p.name)
        return cls(syms, lists)

    def fresh_sym(self) -> SymParam:
        while True:
            self._nsym += 1
            name = f"c{self._nsym}"
            if name not in self._sym_used:
                self._sym_used.add(name)
                return SymParam(name)

    def fresh_list(self) -> ListParam:
        while True:
            self._nlist += 1
            name = f"y{self._nlist}"
            if name not in self._list_used:
                self._list_used.add(name)
                return ListParam(name)


@dataclass(frozen=True, slots=True)
class Narrowing:
    """Edge label: parameter substitution, new disequalities, and the index
    of the fired rule (the first one, for a compressed edge)."""
    subst: tuple  # ((Param, Expr), ...) in canonical parameter order
    added: Restriction
    rule_index: int

    @property
    def subst_dict(self) -> dict:
        return dict(self.subst)

    def __repr__(self):
        parts = [f"{p!r}↦{render_expr(e)}" for p, e in self.subst]
        if self.added.diseqs:
            parts.append(repr(self.added))
        return "; ".join(parts) if parts else "ε"


@dataclass(frozen=True, slots=True)
class Branch:
    """One driven (and possibly compressed) edge out of a configuration.

    `steps` counts its rule applications: one for the drive that made it and
    one per transient configuration compressed into it.  Those
    configurations are not kept; `transients` walks them again."""
    narrowing: Narrowing
    child: Config
    steps: int = 1


class _Scratch:
    """Fresh names for the earlier-rule matches of `drive_step`, which are
    read for their symbol keys only.  The prime keeps the names apart from
    the parser's and NameGen's with no walk over the arguments."""
    _n = itertools.count(1)  # shared, so no name is handed out twice

    def fresh_sym(self) -> SymParam:
        return SymParam(f"c'{next(self._n)}")

    def fresh_list(self) -> ListParam:
        return ListParam(f"y'{next(self._n)}")


def _canon_subst(subst: dict) -> tuple:
    return tuple(sorted(subst.items(), key=lambda kv: param_key(kv[0])))


def drive_step(program: Program, cfg: Config,
               names: Optional[NameGen] = None) -> list[Branch]:
    """Enumerate the satisfiable branches of one unfolding step, in rule
    order, with earlier-rule failure recorded as disequalities."""
    if not cfg.is_active():
        raise DriveError(f"cannot drive passive configuration {cfg!r}")
    if not satisfiable(cfg.restriction):
        raise DriveError("cannot drive a configuration with an "
                         "unsatisfiable restriction")
    if names is None:
        names = NameGen.for_exprs(cfg.expr)
    call = cfg.expr
    rules = program.rules(call.fn)
    if len(rules[0].lhs) != len(call.args):
        raise DriveError(f"arity mismatch: {len(rules[0].lhs)} patterns, "
                         f"{len(call.args)} arguments")
    branches: list[Branch] = []
    for idx, rule in enumerate(rules):
        m = match(rule.lhs, call.args, names)
        if m is None:
            continue
        subst, binding = m
        inherited = apply_to_restriction(cfg.restriction, subst)
        if inherited.unsat:
            continue  # narrowing contradicts inherited negative information
        known = set(inherited.diseqs)
        added_pairs: list[tuple] = []
        shadowed = False
        narrowed_args = None
        for j in range(idx):
            if narrowed_args is None:
                narrowed_args = tuple(substitute(a, subst) for a in call.args)
            mj = match(rules[j].lhs, narrowed_args, _Scratch())
            if mj is None:
                continue
            eqs = list(mj[0].items())
            if any(p.__class__ is not SymParam for p, _ in eqs):
                raise UnsupportedNarrowingError(
                    f"rule {j} of {call.fn} fires on a structurally finer "
                    "region than a later rule; its failure is not a symbol "
                    "disequality")
            if not eqs:
                shadowed = True  # earlier rule fires on the whole region
                break
            impossible = any(
                restriction([(p, s)]).diseqs <= known for p, s in eqs)
            # a single pair normalizes to itself unless vacuous
            if impossible:
                continue
            if len(eqs) > 1:
                raise UnsupportedNarrowingError(
                    f"failure of rule {j} of {call.fn} needs a disjunction "
                    "of disequalities")
            added_pairs.append(eqs[0])
            known |= restriction([eqs[0]]).diseqs
        if shadowed:
            continue
        added = restriction(added_pairs)
        child = make_config(substitute(rule.rhs, binding),
                            restriction(inherited.diseqs | added.diseqs))
        branches.append(Branch(Narrowing(_canon_subst(subst), added, idx),
                               child))
    if not branches:
        raise StuckConfigError(f"no rule of {call.fn} can fire on {cfg!r}")
    return branches


def _spine_depth(expr: Expr) -> int:
    exprs = expr.args if isinstance(expr, Call) else (expr,)
    return max((len(spine(e)[0]) for e in exprs), default=0)


# Caps on one transient chain, counted from where the chain starts.
MAX_TRANSIENT_STEPS = 1000  # rule applications folded into one edge
MAX_TRANSIENT_DEPTH = 400  # growth of the deepest list spine, in cells


def transients(program: Program, cfg: Config,
               names: NameGen) -> Iterator[tuple[Config, Branch]]:
    """Each transient configuration from `cfg` on, with the one branch it
    drives to; the walk ends at a passive configuration or after a drive to
    several branches, and costs one drive_step call per configuration."""
    while cfg.is_active():
        nexts = drive_step(program, cfg, names)
        if len(nexts) != 1:
            return
        yield cfg, nexts[0]
        cfg = nexts[0].child


def compress(program: Program, branch: Branch,
             names: Optional[NameGen] = None) -> Branch:
    """Fold transient steps into the branch while its child drives to exactly
    one satisfiable branch, adding one to the edge's step count per step.
    Each folded configuration costs one drive_step call, and so does an
    active child that ends the chain by driving to several branches.

    Chains that loop (more than MAX_TRANSIENT_STEPS rule applications
    folded in here) or grow their configurations (list spines more than
    MAX_TRANSIENT_DEPTH cells deeper than in the first configuration) are
    cut off with an error: such divergence can neither fold nor raise the
    whistle, since transients are not graph nodes.  Both caps count from
    where the chain starts, so a configuration that is large to begin with,
    such as one holding a long pattern word, is not mistaken for a growing
    one."""
    if names is None:
        names = NameGen.for_exprs(branch.child.expr)
    subst = branch.narrowing.subst_dict
    added = branch.narrowing.added
    steps = branch.steps
    child = branch.child
    depth = _spine_depth(child.expr)
    for _, nxt in transients(program, child, names):
        s2 = nxt.narrowing.subst_dict
        if s2:
            # parameters introduced by the edge so far live in the images;
            # s2 entries for them fold in, entries for untouched parent
            # parameters are appended
            edge_fresh = set()
            for e in subst.values():
                edge_fresh.update(params_of(e))
            subst = {p: substitute(e, s2) for p, e in subst.items()}
            for p, e in s2.items():
                if p not in subst and p not in edge_fresh:
                    subst[p] = e
            added = apply_to_restriction(added, s2)
            if added.unsat:
                raise DriveError(
                    "transient narrowing contradicts the edge's own "
                    "disequalities")
        added = restriction(added.diseqs | nxt.narrowing.added.diseqs)
        steps += 1
        if steps - branch.steps > MAX_TRANSIENT_STEPS:
            raise DriveError("transient chain exceeded the step budget")
        if _spine_depth(nxt.child.expr) - depth > MAX_TRANSIENT_DEPTH:
            raise DriveError("transient chain grows without bound")
        child = nxt.child
    return Branch(Narrowing(_canon_subst(subst), added,
                            branch.narrowing.rule_index),
                  child, steps)
