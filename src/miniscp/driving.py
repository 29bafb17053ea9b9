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
configuration.  Most ground steps come in runs of one self-recursive rule
over known words, such as the matcher comparing two known letters again
and again; `ground_run` advances such a run in one loop, deciding which
rule fires once per tuple of inspected symbols, not once per step.

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
    Call, Cons, Expr, ListParam, ListVar, Nil, Program, Rule, Sym, SymParam,
    params_of, spine, subterms, substitute, vars_of,
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
    """The variables of a rule's left-hand side that its right-hand side
    drops."""
    kept = set(vars_of(rule.rhs))
    return tuple(dict.fromkeys(v for a in rule.lhs for v in vars_of(a)
                               if v not in kept))


class GroundFacts(Record, frozen=True):
    """What ground steps need to know of one function's rules, found once
    per function as `Program.ground_facts`: `dropped[i]` holds what rule i
    drops (see rule_facts); `runs[i]` the argument positions rule i
    consumes when it is a run rule, else None, and `runs` is () when no
    rule is; `visible` pairs each argument position the patterns inspect
    with how many spine elements they inspect there, and is () when no
    rule is a run rule.

    A run rule calls its own function; each argument either re-emits its
    pattern unchanged (kept) or is the tail variable of a one-cell pattern
    `h:t` (consumed), and at least one is consumed, so the only variables
    it drops are the heads of consumed cells.  No rule of the function may
    repeat a list variable, whose test would see a whole argument."""
    __slots__ = ("dropped", "runs", "visible")


def _consumed(name: str, rule: Rule) -> tuple | None:
    """The positions a run rule of function `name` consumes; None when the
    rule is not one.  What a kept pattern binds, and a consumed cell's
    tail, the rule re-emits, so it can drop only consumed heads."""
    rhs = rule.rhs
    if rhs.__class__ is not Call or rhs.fn != name \
            or len(rhs.args) != len(rule.lhs):
        return None
    consumed = tuple(j for j, (pat, out) in enumerate(zip(rule.lhs, rhs.args))
                     if out != pat)
    for j in consumed:
        pat = rule.lhs[j]
        if pat.__class__ is not Cons or pat.tail.__class__ is not ListVar \
                or rhs.args[j] is not pat.tail:
            return None
    return consumed or None


def _inspected(pat: Expr) -> int:
    """How many spine elements of its argument a pattern inspects: each
    cell's head, and what ends the spine unless a list variable takes it."""
    heads, end = spine(pat)
    return len(heads) + (end.__class__ is not ListVar)


def _repeats_a_list_variable(rule: Rule) -> bool:
    lists = [t for a in rule.lhs for t in subterms(a)
             if t.__class__ is ListVar]
    return len(lists) != len(set(lists))


def function_facts(name: str, rules: tuple[Rule, ...]) -> GroundFacts:
    """The GroundFacts of function `name`."""
    dropped = tuple(map(rule_facts, rules))
    runs = tuple(_consumed(name, r) for r in rules)
    if not any(runs) or any(map(_repeats_a_list_variable, rules)):
        return GroundFacts(dropped, (), ())
    depths = [max(map(_inspected, pats))
              for pats in zip(*(r.lhs for r in rules))]
    visible = tuple((j, d) for j, d in enumerate(depths) if d)
    return GroundFacts(dropped, runs, visible)


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
    fired = _fire(program, cfg)
    if fired is None:
        return None
    idx, binding = fired
    call = cfg.expr
    dropped = program.ground_facts[call.fn].dropped[idx]
    expr = substitute(program.table[call.fn][idx].rhs, binding)
    r = cfg.restriction
    if r.diseqs and any(binding[v].__class__ is not Sym for v in dropped):
        r = prune(r, {p for p in params_of(expr) if p.__class__ is SymParam})
    return Config(expr, r)


def _fire(program: Program, cfg: Config) -> tuple[int, dict] | None:
    """The index and binding of the rule a ground step fires on `cfg`, or
    None when there is no ground step (see ground_step)."""
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
    return fired


def ground_run(program: Program, cfg: Config, verdicts: dict,
               limit: int) -> tuple[Config, int]:
    """Where ground steps by run rules take `cfg`, and how many they take,
    at most `limit`: (cfg, 0) when ground_step would not fire a run rule
    on it.

    Where every spine element the function's patterns inspect (see
    GroundFacts.visible) is a symbol head or Nil, no probe can narrow, and
    no rule repeats a list variable, so whether ground_step fires a rule,
    and which, is a function of those elements alone: of their tuple, the
    window.  It is found once per window, by _fire on the configuration
    at hand, and kept in `verdicts`, the session's table; past that, a
    step builds no configuration and probes nothing.  While it is a run
    rule, the step keeps every other argument and drops the head symbols
    of the consumed cells, so it leaves the restriction as it is, and
    moves each consumed argument on by one cell.  The run stops at the
    first window that holds anything but head symbols and Nil (a
    parameter, say), or whose verdict is not a run rule."""
    call = cfg.expr
    facts = program.ground_facts.get(call.fn)
    # no ground step fires on an unsatisfiable restriction or a call of
    # the wrong arity, whatever the window, so neither may enter the table
    if facts is None or not facts.runs or cfg.restriction.unsat \
            or len(program.table[call.fn][0].lhs) != len(call.args):
        return cfg, 0
    table = verdicts.setdefault(call.fn, {})
    args = list(call.args)
    n = 0
    while n < limit:
        window = _window(args, facts.visible)
        if window is None:
            break
        consumed = table.get(window, _UNKNOWN)
        if consumed is _UNKNOWN:
            fired = _fire(program, Config(Call(call.fn, tuple(args)),
                                          cfg.restriction))
            consumed = table[window] = (None if fired is None
                                        else facts.runs[fired[0]])
        if consumed is None:
            break
        for j in consumed:
            args[j] = args[j].tail
        n += 1
    if not n:
        return cfg, 0
    return Config(Call(call.fn, tuple(args)), cfg.restriction), n


_UNKNOWN = object()


def _window(args: list, visible: tuple) -> tuple | None:
    """The spine elements the patterns inspect (see GroundFacts.visible),
    in order, or None when one is neither a cell with a symbol head nor
    Nil.  An argument shorter than its depth ends its part with Nil, so
    the parts cannot run together."""
    window = []
    for j, depth in visible:
        a = args[j]
        for _ in range(depth):
            if a.__class__ is Cons and a.head.__class__ is Sym:
                window.append(a.head)
                a = a.tail
            elif a.__class__ is Nil:
                window.append(a)
                break
            else:
                return None
    return tuple(window)


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
    drive_step; `ground`, the number of ground steps taken; `runs`, how
    many runs of them ground_run advanced in one go; and `verdicts`,
    ground_run's table."""

    def __init__(self, names: NameGen):
        self.names = names
        self.ground = 0
        self.runs = 0
        self.verdicts: dict = {}


def compress(program: Program, branch: Branch,
             step: GroundFirst | None = None) -> Branch:
    """Fold transient steps into the branch while its child drives to exactly
    one satisfiable branch, adding one to the edge's step count per step.
    Each transient configuration takes a ground step where there is one and
    drive_step with the names of `step` (by default a GroundFirst with a
    fresh NameGen) otherwise; so does the active child that ends the chain
    by driving to several branches.  After each ground step, ground_run
    takes the run of ground steps that follows, if any, in one go; each
    rule application in it counts as one step, as ground_step's would.

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
            if nxt.is_active():
                # the budget left after this step, and one step more
                limit = MAX_TRANSIENT_STEPS + branch.steps - steps
                nxt, run = ground_run(program, nxt, step.verdicts, limit)
                if run:
                    step.ground += run
                    step.runs += 1
                    steps += run
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
