"""Operational semantics: top-down, first-match rewriting with step counting.

A step is one rule application, including rewrites a specializer would call
transient, so naive and specialized programs are costed on the same scale.
Both engines run only what the grammar writes (see `syntax`): an entry call
takes words and bare symbols, and T and F are results, never input data.
A right-hand side is T, F, a list, or one top-level call whose arguments
are lists or bare symbols (tail form), and every call names a defined
function with as many arguments; `syntax.validate` checks that once, when
the `Program` is built, so the engines check only the entry call.

Rule patterns are matched by one function, `probe`, used by the reference
stepper and by driving.  Without a name supply nothing narrows, and it is
first-match rewriting; given a driving session's name supply it narrows the
arguments' parameters as deep as the patterns look and returns that
narrowing with the rule's binding, and the resolution that puts the binding
under the narrowing, for the caller that needs it.  It walks list spines in
loops, so rule patterns and words of any length are safe.

Two engines are provided: a reference stepper over the syntax tree
(`eval_reference`, `trace_call`) and a compiled engine (`eval_call`,
`CompiledProgram`) that translates a program to one Python loop per entry,
on the entry's first run, and keeps it on the program (`Program.compiled`).  Both agree on value and step
count, and raise the same errors.  The compiled engine takes well-sorted
programs only, where each argument position always holds a bare symbol or
always a list (see `symbol_positions`), as the naive matcher and every
residual do; `eval_call` runs any other call in the reference engine.  The
compiled engine takes words as plain Python strings, turns each into a
tuple of its letters once, on entry, and holds each list argument as a
`(tuple, offset, length)` triple, so a step that consumes a symbol moves
an offset instead of copying the rest of the word: each step costs O(1) in
the length of the input.  A word built by `syntax.word` is a
`syntax.Word`, which holds its string, so `eval_call` hands it to the
engine in O(1), and a run costs one pass over its words plus O(1) per
step.  Slots that only ever hold suffixes of one entry argument share its
tuple and length, and a call passes an offset on in place where it can,
so a call stores only the offsets that change.  A function called from a
single right-hand side, not its own, runs inlined at that call site, on
the caller's own slots where the call passes only those and their letters;
that saves the jump back through the function dispatch, and the stores,
but still counts its step.  A call that decides which rule its callee
fires takes that step at the call site, counted too.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .record import Record
from .syntax import (
    Call, Cons, Expr, FALSE, FalseVal, ListParam, ListVar, NIL, Nil, Program,
    Rule, Sym, SymParam, SymVar, TRUE, TrueVal, Word, parse_program,
    render_expr, spine, substitute, unword, vars_of, word,
)

DEFAULT_FUEL = 1_000_000


class EvalError(Exception):
    pass


class StuckTermError(EvalError):
    """No rule of the called function matches the (ground) arguments."""


class FuelExhaustedError(EvalError):
    def __init__(self, steps: int):
        super().__init__(f"fuel exhausted after {steps} rule applications")
        self.steps = steps


class ArityError(EvalError):
    pass


class DriveError(Exception):
    """Driving a configuration failed (see `driving`)."""


class UnsupportedNarrowingError(DriveError):
    """The match would need a narrowing outside the supported forms."""


class EmptyPatternError(ValueError):
    """The naive matcher is only defined for nonempty patterns."""


# The built-in naive substring matcher.  S(p, y) scans y for the first
# occurrence of p's first letter; L compares a prefix of the remaining string
# against the pattern and falls back to S(q, z) on mismatch, where (q, z) is
# the saved restart point.
NAIVE_MATCHER_SOURCE = """\
S {  -- scan the string for the pattern's first letter
  s.a:p, s.a:y = L(s.a:p, s.a:y, s.a:p, y);
  s.a:p, s.b:y = S(s.a:p, y);
  p, Nil = F;
}
L {  -- compare pattern and string prefixes; (q, z) is the restart point
  s.a:p, s.a:y, q, z = L(p, y, q, z);
  s.a:p, s.b:y, q, z = S(q, z);
  s.a:p, Nil, q, z = S(q, z);
  Nil, y, q, z = T;
}
"""


@lru_cache(maxsize=1)
def naive_matcher() -> Program:
    return parse_program(NAIVE_MATCHER_SOURCE)


class Outcome(Record, frozen=True):
    """Final passive value (T or F for every program in this package) and the
    number of rule applications it took."""
    __slots__ = ("value", "steps")


# --- reference engine -------------------------------------------------------

_ATOMS = frozenset((Sym, SymParam))


def probe(lhs: tuple[Expr, ...], args: tuple[Expr, ...],
          names=None) -> tuple[dict, dict, dict] | None:
    """Match a rule's patterns against as many arguments: the one matcher
    of ground rewriting and of driving.

    Returns `(narrowing, binding, resolution)`, or None when the rule
    cannot fire.  Without `names` a parameter is an opaque value and
    nothing narrows: the narrowing and resolution are empty, and this is
    ground rewriting.  With `names`, a driving session's `NameGen`, each
    parameter the patterns inspect is narrowed exactly as deep as they
    look: a symbol parameter to a symbol, a list parameter to Nil or, one
    cell at a time, to `c:y` with `c` from `names.fresh_sym()` and then
    `y` from `names.fresh_list()`.  The narrowing maps the arguments' own
    parameters, in the order they were narrowed, to their images fully
    resolved.  The binding maps each rule variable to what it matched, as
    the patterns met the arguments; applying `resolution`, the narrowing
    as made with its fresh parameters, fully resolved, puts it under the
    narrowing.  A narrowing that made no fresh name maps parameters to
    symbols and Nil only, so it is its own resolution (one dict).

    A repeated variable must bind equal terms, and a symbol variable binds
    only a symbol or a symbol parameter.  A narrowing that would need two
    symbol parameters equal, or a repeated list variable bound to unequal
    expressions, is not representable: UnsupportedNarrowingError.  List
    spines are walked in loops, so long patterns and words are safe.  A
    Word that a cell pattern meets is turned into its cells first, once
    per argument."""
    subst: dict = {}  # the narrowing as made: an image names only later keys
    binding: dict = {}
    fresh = None  # the parameters made here, once there are any
    repeated = None  # (list variable, a later term it must equal), if any
    for pat, a in zip(lhs, args):
        while True:
            if a.__class__ is ListParam:
                a = subst.get(a, a)
            cls = pat.__class__
            if cls is Cons:
                if a.__class__ is not Cons:
                    if a.__class__ is Word:  # its cells, once per argument
                        a = a.cells()
                    elif a.__class__ is ListParam and names is not None:
                        head, tail = names.fresh_sym(), names.fresh_list()
                        subst[a] = a = Cons(head, tail)
                        if fresh is None:
                            fresh = set()
                        fresh.update((head, tail))
                    else:
                        return None
                p, x = pat.head, a.head
            elif cls is Sym or cls is SymVar:  # a bare symbol position
                if a.__class__ not in _ATOMS:
                    return None
                p, x = pat, a
            elif cls is ListVar:
                if pat not in binding:
                    binding[pat] = a
                else:
                    if repeated is None:
                        repeated = []
                    repeated.append((pat, a))
                break
            elif cls is Nil:
                if a.__class__ is ListParam and names is not None:
                    subst[a] = a = NIL
                if a.__class__ is not Nil:
                    return None
                break
            else:
                raise _bad(pat, names)
            # the symbol pattern p against the symbol x
            if x.__class__ is SymParam:
                x = subst.get(x, x)
            if p.__class__ is Sym:
                if x is not p:
                    if names is None or x.__class__ is not SymParam:
                        return None
                    subst[x] = p
            elif p.__class__ is not SymVar:
                raise _bad(p, names)
            elif p not in binding:
                binding[p] = x
            else:
                b = binding[p]
                if b.__class__ is SymParam:
                    b = subst.get(b, b)
                if b != x:
                    if names is None:
                        return None
                    if b.__class__ is Sym and x.__class__ is SymParam:
                        subst[x] = b
                    elif b.__class__ is not SymParam:
                        return None
                    elif x.__class__ is Sym:
                        subst[b] = x
                    elif x.__class__ is SymParam:
                        raise UnsupportedNarrowingError(
                            f"equality between two symbol parameters {b!r} "
                            f"and {x!r}")
                    else:
                        return None
            if cls is not Cons:
                break
            pat, a = pat.tail, a.tail
    resolved = subst if fresh is None else resolve(subst)
    if repeated is not None:
        for v, e in repeated:
            b = binding[v]
            if resolved:
                e, b = substitute(e, resolved), substitute(b, resolved)
            if e != b:
                if names is None:
                    return None
                raise UnsupportedNarrowingError(
                    "repeated list variable binds unequal expressions")
    if fresh is None:
        return subst, binding, subst
    return {p: resolved[p] for p in subst if p not in fresh}, binding, resolved


def _bad(pat, names) -> Exception:
    return (EvalError if names is None else DriveError)(f"bad pattern {pat!r}")


def resolve(made: dict) -> dict:
    """A narrowing as made, where an image names only later keys, fully
    resolved in one pass from the last key back; each resolved image is
    shared, not copied, so this costs time linear in the images as made."""
    resolved: dict = {}
    for p, img in reversed(made.items()):
        resolved[p] = substitute(img, resolved)
    return resolved


def _check_arity(lhs: tuple, args: tuple) -> None:
    if len(lhs) != len(args):
        raise ArityError(f"expected {len(lhs)} arguments, got {len(args)}")


def _entry_lhs(program: Program, call: Call) -> tuple:
    """The first left-hand side of the function `call` enters, once the
    entry is checked to be defined and to take as many arguments: the one
    entry check of both engines."""
    lhs = program.rules(call.fn)[0].lhs
    _check_arity(lhs, call.args)
    return lhs


def _no_rule(fn: str, args) -> StuckTermError:
    return StuckTermError(f"no rule of {fn} matches "
                          f"({', '.join(render_expr(a) for a in args)})")


def trace_call(program: Program, call: Call,
               fuel: int | None = DEFAULT_FUEL) -> Iterator[Expr]:
    """Yield the expression after each rule application until passive.  A
    Word argument is turned into its cells here, once: a rule that passes
    it on whole would otherwise hand it to the next step's matches, which
    would turn it into cells again on every step.  Only the entry call is
    checked: the program was when it was built (see `syntax.validate`)."""
    _entry_args(call)
    _entry_lhs(program, call)
    fuel = _entry_fuel(fuel)
    table = program.table
    expr: Expr = Call(call.fn, tuple(a.cells() if a.__class__ is Word else a
                                     for a in call.args))
    steps = 0
    while isinstance(expr, Call):
        steps += 1
        if steps > fuel:
            raise FuelExhaustedError(steps)
        for rule in table[expr.fn]:  # the first matching rule
            m = probe(rule.lhs, expr.args)
            if m is not None:
                break
        else:
            raise _no_rule(expr.fn, expr.args)
        expr = substitute(rule.rhs, m[1])  # nothing narrows: m[1] is final
        yield expr


def eval_reference(program: Program, call: Call,
                   fuel: int | None = DEFAULT_FUEL) -> Outcome:
    """Reference evaluator walking the syntax tree step by step."""
    expr: Expr = call
    steps = 0
    for expr in trace_call(program, call, fuel):
        steps += 1
    return Outcome(expr, steps)


def _entry_args(call: Call) -> tuple[str, ...]:
    """The arguments of an entry call as the compiled engine holds them, a
    bare symbol as its character and a word as its str: the one input check
    of both engines.  Any other argument, such as T, F, a list ending in
    one of them or in a symbol, or a term with variables, is an EvalError."""
    if not isinstance(call, Call):
        raise EvalError("entry expression must be a function call")
    args = []
    for a in call.args:
        text = a.ch if a.__class__ is Sym else unword(a)
        if text is None:
            raise EvalError(
                f"argument {render_expr(a)} is not a word or a symbol")
        args.append(text)
    return tuple(args)


def _entry_fuel(fuel: int | None) -> int:
    """The fuel of an entry call, the one fuel check of both engines: None
    is the default, anything but an int (a bool included) an EvalError,
    and a fuel below 1 allows no step, as 0 does, so the first step
    exhausts it."""
    if fuel is None:
        return DEFAULT_FUEL
    if fuel.__class__ is bool or not isinstance(fuel, int):
        raise EvalError(f"fuel must be an int, got {fuel!r}")
    return max(fuel, 0)


# --- compiled engine --------------------------------------------------------
#
# A run takes and returns Python objects: a word is a str, a bare symbol its
# 1-character str, and T/F, which only a run returns, a bool.  Each entry of
# a program becomes its own generated function, `_run`, built on the entry's
# first run, over the functions reachable from that entry; its prologue
# takes the entry's arguments and its loop runs the rules.  A list slot is
# three locals `(s, o, n)` standing for the suffix `s[o:]` of a tuple `s` of
# letters (the 1-character strs of a word) of length `n`: the prologue
# converts each word argument once, `s = tuple(s)` and `n = len(s)`, because
# CPython 3.11 and 3.12 index a tuple by a specialized instruction and a str
# by the generic path.  A symbol slot, a position of a well-sorted program
# that every rule reads as a bare symbol, is one local holding a symbol; its
# offset is the constant 0 and its length the constant 1, so it needs no
# length test.  A pattern tests `n > o + d`, `n == o + d` and `s[o + d]`, a
# list variable binds `(s, o + d, n)`, and a tail call assigns the callee's
# slots in place, in one simultaneous assignment, and sets `_fn`.  A step
# that drops a prefix therefore copies nothing and costs O(1) in the length
# of the word.
#
# Slots share locals, as registers are coalesced across calls: a call
# argument that is a caller's list slot, or a list variable bound to a tail
# of one, passes that slot's tuple along.  The list slots those passes join
# form a class.  A class with exactly one slot of the entry, and none of
# whose slots is ever given a built list (a cons, a word constant or Nil),
# only ever holds suffixes of that entry argument's tuple: all its slots
# share that one `s` and `n`, which no call stores.  Every other class keeps
# `s` and `n` locals per slot, copied by each call and computed by
# arithmetic where a right-hand side builds a tuple by concatenation.  A
# callee's slot takes its caller slot's offset local where the argument is
# that slot's suffix at a constant distance d, so the call stores `o + d` in
# place, or nothing when d = 0; pairs passed at distance 0 from more call
# sites take it first, and two slots of one function never share an offset
# (on such a conflict the call copies).  Since a call's stores are one
# simultaneous assignment, and after it only the callee's slots are read,
# a local shared by caller and callee is read before it is written.  The
# naive matcher entered at S keeps two tuples, the pattern and the string,
# and L's restart point (q, z) in S's own offsets: S -> L stores three
# offsets and L -> S none.
#
# Each function's rules are emitted as a decision tree: a run of
# consecutive rules whose tests start with the same test evaluates it once
# under one `if`, and the tree recurses on the rest of each rule's tests.  A
# group that matches nothing falls through to the rules after it, so first
# match order is kept.  A suffix is copied only where a right-hand side
# conses onto a bound list, where a list is returned (joined back into a
# str) or compared with a repeated list variable, and in a StuckTermError
# message.  `_fn` selects an arm, the code of one function.  Only the entry
# and the functions a call jumps to have an arm.  An arm whose code jumps to
# itself, directly or from a fused callee's rules (see below), is tested
# first, by one `if _fn == a`, in arm order; the other arms sit under a
# balanced `if _fn < k` tree, so their dispatch costs O(log #arms) per step.
# A residual is its pattern's KMP automaton, which loops to itself from two
# states at most, the scan and the state holding p's leading run of p[0];
# on a text without the pattern most steps are spent in those loops, which
# pass one test each.  Where the tree is one test (two arms), it stays as
# it is.
#
# The step count is the loop variable: `_run` loops `for _steps in _it`,
# over an iterator of `range(1, _fuel + 1)`, so a step pays no add and no
# fuel test of its own, and a loop that runs off the end has spent the fuel,
# `FuelExhaustedError(_fuel + 1)` as the reference engine counts it.  The
# range of the default fuel is built once, `_DEFAULT_STEPS`, and every
# other fuel builds its own.
#
# A callee with exactly one call site among the reachable functions,
# outside itself, is fused: its rule tree is emitted at that call,
# preceded by its own step, drawn from the same iterator by `for _steps in
# _it: break` (whose `else` raises when the fuel is spent), and with `_fn`
# left at the caller's arm (a call from it back to the caller sets no
# `_fn`).  Where the call passes only the caller's slots and letters read
# from them, the callee's tree reads those expressions where they are and
# nothing is stored.  Where the call builds a list, it stores into the
# callee's slots first.  Only the callee's own code is inlined, one level
# deep; a fused callee has an arm of its own only where a call jumps to it.
#
# A call that decides its callee's step takes that step with it, as a
# partial evaluator compresses a transition whose outcome is static.
# `_decided` asks `driving.ground_step`, the specializer's judge of a step
# that narrows nothing, whether the call fires one rule of the callee
# whatever the caller's variables hold, taking them as parameters under no
# restriction.  If it does, the rule's right-hand side becomes the fired
# rule's under its binding, and the step is drawn from the iterator as a
# fused callee's is; the new call is judged in turn, but each function
# takes at most one decided step along a chain, so the chain ends even
# where a function decides its own step (`F { x = F(x); }` draws two steps
# per pass of the loop).  Every analysis above reads these right-hand
# sides.  In the naive matcher, L's first step compares the letter S has
# just matched, so S -> L becomes `L(p, y, s.a:p, y)` after one drawn step
# and S's matched letter is read once.  A residual has no such call: the
# supercompiler has compressed them all, and its calls go to functions that
# branch.

_Code = tuple[str, str, str]  # (s, o, n): a tuple, an offset, its length

# The step counts of a run at the default fuel
_DEFAULT_STEPS = range(1, DEFAULT_FUEL + 1)

# Nested `if`s one rule tree may open; below that depth rules are tested one
# by one, so the generated source stays within the parser's indentation
# limit.
_MAX_SHARED_DEPTH = 24


def _offset(o: str, d: int) -> str:
    """Code for the offset `o + d`, with the constants summed."""
    if d == 0:
        return o
    if o == "0":
        return str(d)
    base, plus, k = o.rpartition(" + ")
    return f"{base} + {int(k) + d}" if plus and k.isdigit() else f"{o} + {d}"


def _text(value: _Code) -> str:
    """Code for the tuple `s[o:]`."""
    s, o, _ = value
    return s if o == "0" else f"{s}[{o}:]"


def _length(value: _Code) -> str:
    """Code for `len(s[o:])`."""
    _, o, n = value
    if o == "0":
        return n
    return f"{n} - {o}" if o.isidentifier() or o.isdigit() else f"{n} - ({o})"


def _bare(pat: Expr) -> bool:
    return pat.__class__ is Sym or pat.__class__ is SymVar


def _sorts(program: Program) -> dict:
    """For each (function, position), the set of whether each rule there
    reads, and each call passes, a bare symbol."""
    sorts: dict = {}
    for name, rules in program.functions:
        for rule in rules:
            for i, pat in enumerate(rule.lhs):
                sorts.setdefault((name, i), set()).add(_bare(pat))
            if isinstance(rule.rhs, Call):
                for i, arg in enumerate(rule.rhs.args):
                    sorts.setdefault((rule.rhs.fn, i), set()).add(_bare(arg))
    return sorts


def symbol_positions(program: Program) -> set | None:
    """The symbol slots of a well-sorted program: the (function, position)
    pairs where every rule reads a bare symbol and every call passes one.
    In a well-sorted program no rule reads and no call passes a bare symbol
    at any other position.  None for an ill-sorted program."""
    sorts = _sorts(program)
    if any(len(kinds) > 1 for kinds in sorts.values()):
        return None
    return {slot for slot, kinds in sorts.items() if True in kinds}


class _Lhs:
    """The compiled left-hand side of one rule: its tests, in the order
    they may be evaluated, and where each of its variables and pattern
    cells lives."""

    def __init__(self, rule: Rule, slots: list[_Code]):
        self.conds: list[str] = []
        self.chars: dict = {}   # symbol variable -> code of its character
        self.lists: dict = {}   # list variable -> its (s, o, n) code
        self.cells: list = []   # (heads, end, slot) of each cons pattern
        for pat, slot in zip(rule.lhs, slots):
            self._pattern(pat, slot)

    def _bind(self, var, code: str) -> None:
        if var in self.chars:  # a repeated variable is an equality test
            self.conds.append(f"{code} == {self.chars[var]}")
        else:
            self.chars[var] = code

    def _pattern(self, pat: Expr, slot: _Code) -> None:
        s, o, n = slot
        conds = self.conds
        if _bare(pat):  # a symbol slot, which holds one symbol
            if isinstance(pat, Sym):
                conds.append(f"{s} == {pat.ch!r}")
            else:
                self._bind(pat, s)
            return
        heads, end = spine(pat)
        depth = len(heads)
        if isinstance(end, Nil):
            conds.append(f"{n} == {_offset(o, depth)}")
        else:  # a list variable, in a valid program
            if depth:
                conds.append(f"{n} > {_offset(o, depth - 1)}")
            rest = (s, _offset(o, depth), n)
            if end in self.lists:
                conds.append(f"{_text(rest)} == {_text(self.lists[end])}")
            else:
                self.lists[end] = rest
        for d, head in enumerate(heads):
            at = f"{s}[{_offset(o, d)}]"
            if isinstance(head, Sym):
                conds.append(f"{at} == {head.ch!r}")
            else:
                self._bind(head, at)
        if depth:
            self.cells.append((heads, end, slot))

    def value(self, expr: Expr) -> _Code:
        """`(s, o, n)` code of a passive right-hand side fragment.  Its
        longest suffix that is a suffix of a cons pattern, or a bound list
        variable, is passed on as it lies in the argument; only the cells in
        front of it are built; a valid program binds its list variable."""
        if isinstance(expr, Sym):
            return repr(expr.ch), "0", "1"
        if isinstance(expr, SymVar):
            return self.chars[expr], "0", "1"
        heads, end = spine(expr)
        shared, tail = 0, self.lists.get(end)
        for cell_heads, cell_end, (s, o, n) in self.cells:
            if cell_end != end:
                continue
            k, most = 0, min(len(heads), len(cell_heads))
            while k < most and heads[-1 - k] == cell_heads[-1 - k]:
                k += 1
            if k > shared:
                shared = k
                tail = (s, _offset(o, len(cell_heads) - k), n)
        built = heads[:len(heads) - shared]
        if not built:
            return tail or ("()", "0", "0")
        cells = ", ".join(repr(h.ch) if isinstance(h, Sym) else self.chars[h]
                          for h in built)
        code = f"({cells},)" if len(built) == 1 else f"({cells})"
        length = str(len(built))
        if tail is not None:
            code = f"({code} + {_text(tail)})"
            length = f"{_length(tail)} + {length}"
        return code, "0", length


def _stuck_in(symbolic: set):
    """The `_stuck` of a program with symbol slots `symbolic`: the error for
    function `name` stuck on its arguments, given as alternating values and
    offsets, worded as in the reference engine.  Built here rather than in
    the generated code, which then needs no branch per argument to slice
    them."""
    def _stuck(name: str, *slots) -> StuckTermError:
        return _no_rule(name, [
            Sym(s) if (name, i) in symbolic else word("".join(s[o:]))
            for i, (s, o) in enumerate(zip(slots[::2], slots[1::2]))])
    return _stuck


def _emit_tree(emit, ids: list[int], indent: str, leaf) -> None:
    """A balanced `if _fn < k` tree over the increasing ids `ids`;
    `leaf(k, indent)` emits the code for id k."""
    if len(ids) == 1:
        leaf(ids[0], indent)
        return
    mid = len(ids) // 2
    emit(f"{indent}if _fn < {ids[mid]}:")
    _emit_tree(emit, ids[:mid], indent + "    ", leaf)
    emit(f"{indent}else:")
    _emit_tree(emit, ids[mid:], indent + "    ", leaf)


def _emit_rules(emit, rules: list, pad: str, depth: int = 0) -> bool:
    """Emit first-match code for `rules`, each a pair (tests, body lines).
    A run of consecutive rules whose first tests agree shares them under one
    `if`.  Returns True when the code emitted always leaves the loop body,
    that is, when it ends in a rule without tests."""
    i = 0
    while i < len(rules):
        conds, body = rules[i]
        if not conds:
            for line in body:
                emit(pad + line)
            return True
        j = i + 1
        if depth < _MAX_SHARED_DEPTH:
            while j < len(rules) and rules[j][0][:1] == conds[:1]:
                j += 1
        if j - i == 1:
            emit(f"{pad}if {' and '.join(conds)}:")
            for line in body:
                emit(f"{pad}    {line}")
        else:
            group = rules[i:j]
            shared = 1
            while all(len(c) > shared and c[shared] == conds[shared]
                      for c, _ in group):
                shared += 1
            emit(f"{pad}if {' and '.join(conds[:shared])}:")
            _emit_rules(emit, [(c[shared:], b) for c, b in group],
                        pad + "    ", depth + 1)
        i = j
    return False


def _decided(program: Program) -> tuple[tuple, dict]:
    """The program's functions with each call whose callee's step the call
    decides replaced by that step's right-hand side, and the steps so taken,
    {(function, rule index): count}, for the rules that take any.  A step is
    decided when `driving.ground_step` fires it on the call with the rule's
    variables as parameters and no restriction; the new call is judged
    again, but each function takes at most one decided step along a chain,
    so a chain ends even where a function decides its own step."""
    from .configs import Config
    from .driving import ground_step
    functions, drawn = [], {}
    for name, rules in program.functions:
        rules = list(rules)
        for i, rule in enumerate(rules):
            if rule.rhs.__class__ is not Call:
                continue
            params = {v: (SymParam if v.__class__ is SymVar else ListParam)(
                v.name) for v in vars_of(rule.rhs)}
            expr, taken = substitute(rule.rhs, params), []
            while expr.__class__ is Call and expr.fn not in taken:
                child = ground_step(program, Config(expr))
                if child is None:
                    break
                taken.append(expr.fn)
                expr = child.expr
            if taken:
                back = {p: v for v, p in params.items()}
                rules[i] = Rule(rule.lhs, substitute(expr, back))
                drawn[name, i] = len(taken)
        functions.append((name, tuple(rules)))
    return tuple(functions), drawn


def _fused(functions) -> set:
    """Names of the functions to inline at their call site: those called
    from exactly one right-hand side of `functions`, which is not their
    own."""
    sites: dict = {}
    for name, rules in functions:
        for rule in rules:
            if isinstance(rule.rhs, Call):
                sites.setdefault(rule.rhs.fn, []).append(name)
    return {callee for callee, callers in sites.items()
            if len(callers) == 1 and callers[0] != callee}


def _closure(start: int, after) -> list[int]:
    """`start` and every id `after` reaches from it, in increasing order."""
    seen, todo = {start}, [start]
    while todo:
        for k in after(todo.pop()):
            if k not in seen:
                seen.add(k)
                todo.append(k)
    return sorted(seen)


def _passes(functions, ids: dict, reach, symbolic: set):
    """Yield each list argument of each call in the functions `reach` as
    `(callee slot, source)`: the source is `(caller slot, d)` when the
    argument is that slot's suffix d cells on, and None when the call
    builds it (a cons onto it, a word or Nil).  A slot is a pair
    (function id, position)."""
    for k in reach:
        rules = functions[k][1]
        # offsets of 0, so that value() returns a suffix's distance
        frame = [(f"s{i}", "0", f"n{i}") for i in range(len(rules[0].lhs))]
        for rule in rules:
            rhs = rule.rhs
            if not isinstance(rhs, Call):
                continue
            lhs = _Lhs(rule, frame)
            for i, arg in enumerate(rhs.args):
                if (rhs.fn, i) in symbolic:
                    continue
                s, d, _ = lhs.value(arg)
                yield ((ids[rhs.fn], i),
                       ((k, int(s[1:])), int(d)) if s.isidentifier() else None)


def _join(groups: dict, a, b) -> None:
    """Merge the sets holding `a` and `b` in `groups`, a map from each
    member to its set, the smaller into the larger."""
    ga, gb = groups[a], groups[b]
    if len(ga) < len(gb):
        ga, gb = gb, ga
    ga |= gb
    for x in gb:
        groups[x] = ga


def _registers(functions, ids: dict, reach, symbolic: set,
               entry: int) -> dict[int, list[_Code]]:
    """The locals of each function in `reach` that a `_run` entered at
    `entry` holds its slots in (see the comment above `_Code`)."""
    listed = {k: [(k, i) for i in range(len(functions[k][1][0].lhs))
                  if (functions[k][0], i) not in symbolic] for k in reach}
    classes = {slot: {slot} for k in reach for slot in listed[k]}
    offsets = {slot: {slot} for slot in classes}
    built = set()
    zeros: dict = {}  # slot pairs an argument passes along -> d = 0 count
    for slot, source in _passes(functions, ids, reach, symbolic):
        if source is None:
            built.add(slot)
            continue
        other, d = source
        _join(classes, slot, other)
        if other != slot:
            pair = min(slot, other), max(slot, other)
            zeros[pair] = zeros.get(pair, 0) + (d == 0)
    # a pair passed along at distance 0 more often first; two slots of one
    # function never share an offset
    for a, b in sorted(zeros, key=lambda pair: -zeros[pair]):
        ga, gb = offsets[a], offsets[b]
        if ga is not gb and not any(s in ga for k, _ in gb
                                    for s in listed[k]):
            _join(offsets, a, b)
    # a class shares its seed's tuple and length locals when it has one
    # seed, an entry slot, and no slot of it is ever given a built list
    tuples = {}
    for cls in {id(cls): cls for cls in classes.values()}.values():
        seeds = [slot for slot in cls if slot[0] == entry]
        shared = len(seeds) == 1 and cls.isdisjoint(built)
        for slot in cls:
            tuples[slot] = seeds[0] if shared else slot
    lowest = {}  # each offset group's local is named after its first slot
    for slot in sorted(offsets):
        lowest.setdefault(id(offsets[slot]), slot)
    registers = {}
    for k in reach:
        name, rules = functions[k]
        frame = []
        for i in range(len(rules[0].lhs)):
            if (name, i) in symbolic:
                frame.append((f"s{k}_{i}", "0", "1"))
            else:
                (j, m), (jo, mo) = tuples[k, i], lowest[id(offsets[k, i])]
                frame.append((f"s{j}_{m}", f"o{jo}_{mo}", f"n{j}_{m}"))
        registers[k] = frame
    return registers


def _compile_source(functions: tuple, drawn: dict, symbolic: set,
                    entry: str) -> str:
    """The code of the `_run` of a well-sorted program's function `entry`,
    given its functions and decided steps (see `_decided`) and its symbol
    slots."""
    ids = {name: k for k, (name, _) in enumerate(functions)}
    e = ids[entry]

    def calls(k):
        """Ids of the functions the rules of function k call."""
        return [ids[rule.rhs.fn] for rule in functions[k][1]
                if isinstance(rule.rhs, Call)]

    reach = _closure(e, calls)
    fused = _fused([functions[k] for k in reach])
    slots = _registers(functions, ids, reach, symbolic, e)

    def jumps(at):
        """Ids of the functions the code of function at's arm jumps to: a
        fused callee's rules run in its caller's arm, so its calls jump
        from there."""
        return [j for k in calls(at)
                for j in (calls(k) if functions[k][0] in fused else (k,))]

    # the entry and each function a call jumps to have an arm
    arms = _closure(e, jumps)
    arm_ids = {k: a for a, k in enumerate(arms)}
    lines = ["def _run(_args, _fuel):"]
    emit = lines.append
    # a fused callee's step: the next count from the loop's own iterator
    step = ["for _steps in _it:", "    break", "else:",
            "    raise FuelExhaustedError(_fuel + 1)"]

    def body(k, rule, lhs, at):
        """Lines of rule `rule` of function k, run while `_fn` is at's."""
        rhs = rule.rhs
        if not isinstance(rhs, Call):
            if isinstance(rhs, (TrueVal, FalseVal)):
                value = str(isinstance(rhs, TrueVal))
            else:
                value = f"''.join({_text(lhs.value(rhs))})"
            return [f"return ({value}, _steps)"]
        callee = ids[rhs.fn]
        values = [lhs.value(arg) for arg in rhs.args]
        inline = k == at and rhs.fn in fused  # one level deep
        if inline and all(o == "0" or value[0].isidentifier()
                          for (_, o, _), value in zip(slots[callee], values)):
            # every argument is a slot or a letter of one: the callee's
            # rules read them where they are, and nothing is stored
            return step + tree(callee, at, values)
        # one simultaneous assignment, since the values may read the
        # locals it writes; a symbol slot's offset and length are
        # constants, and a local that already holds its value is skipped
        stores = [(t, c) for slot, value in zip(slots[callee], values)
                  for t, c in zip(slot, value) if t.isidentifier() and t != c]
        out = [f"{', '.join(t for t, _ in stores)} = "
               f"{', '.join(c for _, c in stores)}"] if stores else []
        if inline:
            return out + step + tree(callee, at, slots[callee])
        if callee != at:
            out.append(f"_fn = {arm_ids[callee]}")
        out.append("continue")
        return out

    def tree(k, at, frame):
        """Lines of function k's rules, run while `_fn` is at's, reading its
        arguments from `frame`: k's own slots, or the slots and letters of
        `at` that a fused call site passes."""
        name, rules = functions[k]
        out = [f"# {name}/{len(frame)}"]
        compiled = []
        for i, rule in enumerate(rules):
            lhs = _Lhs(rule, frame)
            # each decided step the rule takes is drawn as a fused one is
            compiled.append((lhs.conds, step * drawn.get((name, i), 0)
                             + body(k, rule, lhs, at)))
        if not _emit_rules(out.append, compiled, ""):
            pairs = "".join(f"{s}, {o}, " for s, o, _ in frame)
            out.append(f"raise _stuck({name!r}, {pairs[:-2]})")
        return out

    def arm(a, pad):
        k = arms[a]
        for line in tree(k, k, slots[k]):
            emit(pad + line)

    names = [s for s, _, _ in slots[e]]
    emit(f"    {', '.join(names)}{',' if len(names) == 1 else ''} = _args")
    lists = [slot for slot in slots[e] if slot[1] != "0"]
    for s, _, _ in lists:  # a word's letters, once
        emit(f"    {s} = tuple({s})")
    if lists:
        emit(f"    {' = '.join(o for _, o, _ in lists)} = 0")
    for s, _, n in lists:
        emit(f"    {n} = len({s})")
    if len(arms) > 1:
        emit(f"    _fn = {arm_ids[e]}")
    # each arm ends in continue, return or raise, so the loop ends only
    # when the fuel is spent
    emit(f"    _it = iter(_default_steps if _fuel == {DEFAULT_FUEL} "
         f"else range(1, _fuel + 1))")
    emit("    for _steps in _it:")
    # an arm that jumps to itself is tested first, by one `==` each, and
    # the rest keep the balanced tree, unless that is one test already
    loops = [a for a, k in enumerate(arms)
             if len(arms) > 2 and k in jumps(k)]
    rest = [a for a in range(len(arms)) if a not in loops] or [loops.pop()]
    for a in loops:
        emit(f"        if _fn == {a}:")
        arm(a, "            ")
    _emit_tree(emit, rest, "        ", arm)
    emit("    raise FuelExhaustedError(_fuel + 1)")
    # body and tree hold each other through their closures: empty the
    # cells, so that the rules they reach are freed without a collection
    del body, tree
    return "\n".join(lines) + "\n"


class CompiledProgram:
    """A well-sorted program translated to generated Python functions, one
    per entry, each built on the entry's first run and kept; each holds
    each word argument as a tuple of its letters (see the comment above
    `_Code`).  The source is built again on each use of `source` rather
    than kept, so that a process holding many compiled programs (the verify
    sweep holds one per pattern) does not hold their text as well.  It keeps
    the program's functions, with their decided steps taken (see
    `_decided`), not the program, whose `compiled` holds it: so a program
    and its translation are freed by reference counting, with no cycle for
    the collector to find."""

    def __init__(self, program: Program):
        symbolic = symbol_positions(program)
        if symbolic is None:
            name, i = next(slot for slot, kinds in _sorts(program).items()
                           if len(kinds) > 1)
            raise EvalError(
                f"function {name} reads or is passed both a symbol and a "
                f"list at position {i}: the compiled engine takes "
                f"well-sorted programs only")
        self._symbolic = symbolic
        self.functions, self._drawn = _decided(program)
        # the globals of every entry's _run
        self._namespace = {
            "FuelExhaustedError": FuelExhaustedError,
            "_stuck": _stuck_in(symbolic),
            "_default_steps": _DEFAULT_STEPS,
        }
        self._runs: dict = {}

    def source(self, entry: str) -> str:
        """The generated Python code of `entry`, a function of the program,
        built again from the program."""
        return _compile_source(self.functions, self._drawn, self._symbolic,
                               entry)

    def runner(self, entry: str):
        """The generated function that runs `entry`, a function of the
        program, built on first use and kept."""
        run = self._runs.get(entry)
        if run is None:
            namespace = self._namespace
            exec(compile(self.source(entry), "<rewriter>", "exec"), namespace)
            # not left in the namespace, which is _run's globals (it does
            # not call itself): that would be a cycle
            run = self._runs[entry] = namespace.pop("_run")
        return run

    def run(self, entry: str, args: tuple[str, ...],
            fuel: int = DEFAULT_FUEL) -> tuple[bool | str, int]:
        """Run `entry` on words and symbols as strs, a symbol exactly in a
        symbol slot, with a fuel of at least 0; the caller checks the entry
        and the fuel, as `eval_call` does.  The generated code turns each
        word into a tuple of letters once, on entry.  Returns the value, a
        bool for T/F or a str for a list (its letters joined), and the
        steps."""
        try:
            run = self._runs[entry]
        except KeyError:
            run = self.runner(entry)
        return run(args, fuel)


def _decode_value(v: bool | str) -> Expr:
    """The term of a value `_run` returns: T/F or a word."""
    if v is True:
        return TRUE
    if v is False:
        return FALSE
    return word(v)


def eval_call(program: Program, call: Call,
              fuel: int | None = None) -> Outcome:
    """Evaluate a call on words and symbols to a passive value, counting
    rule applications.

    Deterministic; raises StuckTermError, FuelExhaustedError, ArityError
    or ValidationError for an entry the program does not define with as
    many arguments, or EvalError for an argument that is not a word or a
    symbol, or for a fuel that is not an int.  Runs in the compiled engine
    unless the program is not well-sorted, or the call passes a word where
    the entry reads a symbol or a symbol where it reads a list; the
    reference engine runs those, with the same outcome.
    """
    args = _entry_args(call)
    lhs = _entry_lhs(program, call)
    fuel = _entry_fuel(fuel)
    compiled = program.compiled
    if compiled is None or any(
            _bare(p) != (a.__class__ is Sym) for p, a in zip(lhs, call.args)):
        return eval_reference(program, call, fuel)
    value, steps = compiled.run(call.fn, args, fuel)
    return Outcome(_decode_value(value), steps)


# --- the naive matcher as a search function ---------------------------------

def naive_outcome(pattern: str, string: str,
                  fuel: int | None = None) -> Outcome:
    """`eval_call` of the naive matcher on the words `pattern` and `string`,
    which must be made of symbol characters (ValidationError otherwise)."""
    if not pattern:
        raise EmptyPatternError("pattern must be nonempty")
    return eval_call(naive_matcher(),
                     Call("S", (word(pattern), word(string))), fuel)
