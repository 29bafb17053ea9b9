"""One-step unfolding of configurations: narrowing, negative information,
ground steps, and transient compression.

Driving a configuration enumerates, in rule order, every satisfiable way a
rule of the called function can fire after minimally narrowing the
configuration's parameters (one constructor level, exactly as deep as the
patterns inspect).  Each branch records the narrowing substitution and the
disequalities under which all earlier rules fail on the same narrowed shape;
the branch set partitions the ground instances of the configuration.  The
narrowing and the rule's binding both come from `interpreter.match`, the
matcher the reference engine rewrites with, in one pass per rule.

A ground step is the special case that needs none of this: the
configuration already decides which rule fires, with nothing narrowed.
`ground_step` recognizes it in one probe pass over the rules and returns
the child alone, built without walking the configuration; `compress` steps
each chain in one loop and tries it before `drive_step` on every transient
configuration.

Negative information is only representable as symbol disequalities.  Rule
layouts whose earlier-rule failure would need anything else (equality of two
unknown symbols, or a structurally deeper split) are rejected loudly; they
cannot arise for the shipped matcher or for the programs it generates.
"""

from __future__ import annotations

import itertools

from .configs import (
    Config, Restriction, apply_to_restriction, make_config, param_key,
    prune, restriction, satisfiable,
)
from .interpreter import (
    DriveError, UnsupportedNarrowingError, match, probe, resolve,
)
from .record import Record, setters
from .syntax import (
    Call, Expr, ListParam, Program, Rule, Sym, SymParam, params_of,
    spine, substitute, vars_of,
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


class Branch(Record, frozen=True):
    """One driven (and possibly compressed) edge out of a configuration,
    labelled with its narrowing: `subst` maps the parent's parameters to
    their images, as ((Param, Expr), ...) in canonical parameter order;
    `added` holds the disequalities the edge adds; `rule_index` is the
    fired rule (the first one, for a compressed edge).

    `steps` counts its rule applications: one for the drive that made it and
    one per transient configuration compressed into it.  Those
    configurations are not kept; `harness._chains` walks them again."""
    __slots__ = ("subst", "added", "rule_index", "child", "steps")

    def __init__(self, subst: tuple, added: Restriction, rule_index: int,
                 child: Config, steps: int = 1):
        _set_subst(self, subst)
        _set_added(self, added)
        _set_rule_index(self, rule_index)
        _set_child(self, child)
        _set_steps(self, steps)

    def __eq__(self, other):
        if other.__class__ is Branch:
            return (self.subst == other.subst and self.added == other.added
                    and self.rule_index == other.rule_index
                    and self.child == other.child
                    and self.steps == other.steps)
        return NotImplemented

    def __hash__(self):
        return hash((self.subst, self.added, self.rule_index, self.child,
                     self.steps))


(_set_subst, _set_added, _set_rule_index, _set_child,
 _set_steps) = setters(Branch)


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
               names: NameGen | None = None) -> list[Branch]:
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
            mj = probe(rules[j].lhs, narrowed_args, _Scratch())
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
        branches.append(Branch(_canon_subst(subst), added, idx, child))
    if not branches:
        raise StuckConfigError(f"no rule of {call.fn} can fire on {cfg!r}")
    return branches


class _Refuse:
    """The name supply of `ground_step`'s probes: a match that asks for a
    fresh name narrows a list parameter, which no ground step does."""

    def fresh_sym(self) -> SymParam:
        raise DriveError("a ground step takes no fresh name")

    fresh_list = fresh_sym


_REFUSE = _Refuse()


def rule_facts(rule: Rule) -> tuple:
    """What a ground step needs to know of a rule: the variables of its
    left-hand side that the right-hand side drops.  Found once per rule, as
    `Program.ground_facts`."""
    kept = set(vars_of(rule.rhs))
    return tuple(dict.fromkeys(v for a in rule.lhs for v in vars_of(a)
                               if v not in kept))


def ground_step(program: Program, cfg: Config) -> Config | None:
    """The child of the one branch drive_step would return on `cfg`, when
    that branch narrows nothing and adds no disequality; None otherwise,
    and then only drive_step can say what the step is (or why it fails).

    Every rule is matched once with a name supply that refuses.  Before the
    firing rule each rule must fail outright or narrow one symbol parameter
    to a symbol the restriction already rules out; the firing rule must
    narrow nothing; after it each rule must fail, narrow nothing (it is
    shadowed) or narrow to a ruled-out symbol.  Then drive_step finds the
    same single branch, and since no probe asked for a name, it would take
    none from the session either.

    The child is the firing rule's right-hand side under its binding, with
    the parent's restriction pruned to the child's parameters.  Narrowing
    nothing, the rule carries every parameter of `cfg` into the child,
    except those in what its dropped variables bind; so when those are all
    symbols, the restriction (which names only parameters of `cfg`, see
    `make_config`) stays as it is, and the step costs no walk over the
    configuration.  The program must be in tail form, which
    `supercompile` checks before its first drive."""
    call = cfg.expr
    if call.__class__ is not Call or cfg.restriction.unsat:
        return None
    rules = program.table.get(call.fn)
    if not rules or len(rules[0].lhs) != len(call.args):
        return None
    known = cfg.restriction.diseqs
    fired = None
    for idx, rule in enumerate(rules):
        try:
            m = probe(rule.lhs, call.args, _REFUSE)
        except DriveError:
            return None
        if m is None:
            continue
        subst, binding, _ = m  # the binding is match's when subst is empty
        if not subst:
            if fired is None:
                fired = idx, binding
            continue
        if len(subst) != 1:
            return None
        (p, s), = subst.items()
        if p.__class__ is not SymParam \
                or not restriction([(p, s)]).diseqs <= known:
            return None  # a narrowing drive_step would keep or reject
    if fired is None:
        return None
    idx, binding = fired
    dropped = program.ground_facts[call.fn][idx]
    expr = substitute(rules[idx].rhs, binding)
    r = cfg.restriction
    if r.diseqs and any(binding[v].__class__ is not Sym for v in dropped):
        r = prune(r, {p for p in params_of(expr) if p.__class__ is SymParam})
    return Config(expr, r)


def _spine_depth(expr: Expr) -> int:
    exprs = expr.args if isinstance(expr, Call) else (expr,)
    return max((len(spine(e)[0]) for e in exprs), default=0)


# Caps on one transient chain, counted from where the chain starts.  The
# longest edge takes about n^2/2 steps on a^n and |p|^2/4 on (ab)^n c (1,274
# at a^50, 2,600 at (ab)^50 c), so the step cap admits a^316 and (ab)^223 c.
MAX_TRANSIENT_STEPS = 50_000  # rule applications folded into one edge
MAX_TRANSIENT_DEPTH = 400  # growth of the deepest list spine, in cells


class GroundFirst:
    """What `compress` keeps across one session: the session's names, for
    drive_step, and `ground`, the number of ground steps taken."""

    def __init__(self, names: NameGen):
        self.names = names
        self.ground = 0


def compress(program: Program, branch: Branch,
             step: GroundFirst | None = None) -> Branch:
    """Fold transient steps into the branch while its child drives to exactly
    one satisfiable branch, adding one to the edge's step count per step.
    Each transient configuration takes a ground step where there is one and
    drive_step with the names of `step` (by default a GroundFirst with a
    fresh NameGen) otherwise; so does the active child that ends the chain
    by driving to several branches.

    The edge's narrowing is kept as made, each step's entries after the
    earlier ones, and resolved once at the end (see interpreter.resolve),
    so that a chain costs time linear in its length.

    Chains that loop (more than MAX_TRANSIENT_STEPS rule applications
    folded in here) or grow their configurations (list spines more than
    MAX_TRANSIENT_DEPTH cells deeper than in the first configuration) are
    cut off with an error: such divergence can neither fold nor raise the
    whistle, since transients are not graph nodes.  Both caps count from
    where the chain starts, so a configuration that is large to begin with,
    such as one holding a long pattern word, is not mistaken for a growing
    one.  The spines are measured where the chain starts and after each
    step that narrows, whose drive walks the configuration anyway; steps
    that narrow nothing cost no walk, and the step cap bounds their growth."""
    if step is None:
        step = GroundFirst(NameGen.for_exprs(branch.child.expr))
    made = dict(branch.subst)
    added = branch.added
    steps = branch.steps
    child = branch.child
    depth = _spine_depth(child.expr)
    while child.is_active():
        nxt = ground_step(program, child)
        narrowed = None
        if nxt is not None:
            step.ground += 1
        else:
            nexts = drive_step(program, child, step.names)
            if len(nexts) != 1:
                break
            (b,) = nexts
            nxt = b.child
            if b.subst:
                narrowed = dict(b.subst)
                made.update(narrowed)
                added = apply_to_restriction(added, narrowed)
                if added.unsat:
                    raise DriveError(
                        "transient narrowing contradicts the edge's own "
                        "disequalities")
            if b.added.diseqs:
                added = restriction(added.diseqs | b.added.diseqs)
        steps += 1
        if steps - branch.steps > MAX_TRANSIENT_STEPS:
            raise DriveError("transient chain exceeded the step budget")
        if narrowed and _spine_depth(nxt.expr) - depth > MAX_TRANSIENT_DEPTH:
            raise DriveError("transient chain grows without bound")
        child = nxt
    resolved = resolve(made)
    # an image names only parameters the edge made, never the parent's
    made_here = {q for e in made.values() for q in params_of(e)}
    subst = {p: resolved[p] for p in made if p not in made_here}
    return Branch(_canon_subst(subst), added, branch.rule_index, child, steps)
