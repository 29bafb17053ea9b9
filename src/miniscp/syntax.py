"""Abstract syntax, parser, and printer for a first-order string-rewriting
language.

Programs are sets of functions, each a list of rewrite rules tried top-down,
first match wins.  A call's inputs are words (right-nested chains of
single-character symbols ending in Nil, or a Word holding such a chain as
a str) and, in argument positions only, bare symbols; the logical
constants T and F are results, written only as a whole right-hand side.
Expressions may additionally contain rule variables (`s.a`, `y`) and
specializer parameters (`#s.a`, `#y`).

The concrete grammar:

    program  := funcdef+
    funcdef  := NAME "{" rule+ "}"
    rule     := pattern ("," pattern)* "=" rhs ";"
    pattern  := "Nil" | patatom ":" pattern | LISTVAR | patatom
    patatom  := "'" CHAR "'" | SYMVAR
    rhs      := "T" | "F" | pexpr | NAME "(" arg ("," arg)* ")"
    arg      := pexpr | atom
    pexpr    := "Nil" | atom ":" pexpr | LISTVAR | LISTPARAM
    atom     := "'" CHAR "'" | SYMVAR | SYMPARAM

    NAME = [A-Za-z][A-Za-z0-9_]*;  SYMVAR = "s." NAME;  SYMPARAM = "#s." NAME
    LISTVAR = NAME starting lowercase (and not of the "s." form)
    LISTPARAM = "#" NAME

`"abc"` is accepted wherever a pexpr is and abbreviates 'a':'b':'c':Nil.
`--` starts a comment running to end of line.  Bare atoms are only legal as
whole patterns and whole call arguments (single-symbol positions).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from weakref import WeakValueDictionary

from .record import Record, setters


class ParseError(Exception):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ValidationError(Exception):
    """Well-formed syntax violating a program-level rule."""


class NonTailError(ValidationError):
    """A right-hand side outside the grammar's forms: a call nested under a
    constructor or in another call, T or F inside a larger term, or a bare
    symbol as a whole right-hand side or at the end of a list."""


METACHARS = frozenset("'\":,{}()#.")


def _check_symbol_char(ch: str) -> str:
    if len(ch) != 1 or not ch.isprintable() or ch in METACHARS:
        raise ValidationError(f"invalid symbol character {ch!r}")
    return ch


# --- expression nodes -------------------------------------------------------
#
# The nodes are frozen records (see record.Record).  Those built by the
# million have their own constructor, equality and hash.  The atoms are
# interned: building a Sym, SymVar, SymParam, ListVar or ListParam returns
# the one live instance of that class for that character or name, so two
# atoms are equal exactly when they are one object, and they compare and
# hash by identity, in C.  Sym('a') and SymVar('a') are two objects, so
# unequal.  Symbols are kept for the life of the process; a variable or
# parameter is kept only while something refers to it, since driving hands
# out names it never uses again (see driving._Scratch).
#
# A ground word has two forms of one value: a chain of Cons cells, and a
# Word, one node holding the letters as a str, which word() builds.  A Word
# equals, hashes and renders as its chain, also as the tail of one.
# Walkers that read cells see a Word through spine(), as its letters' Syms
# and Nil (render_expr, configs.shape, scp._embed and the compiled engine's
# code generation), and subterms() yields the same Syms and Nil; it has no
# parameter, so params_of, substitute and is_passive pass it through as a
# leaf; interpreter.probe turns it into cells where a cell pattern meets it,
# and interpreter.trace_call turns an entry Word into cells once.
# Driving keeps cells: the parser's string literals, the matcher entry and
# the harness's configurations are built by word_cells(), since a ground
# step takes one cell off a chain in O(1) and driving.ground_run advances
# over cells only, so a Word there would be expanded again on every probe.

class Sym(Record, frozen=True):
    """Symbol literal 'c': one printable non-metacharacter."""
    __slots__ = ("ch",)
    __init__ = object.__init__  # __new__ builds, or finds, the instance
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, ch: str):
        self = _SYMS.get(ch)
        if self is None:
            self = object.__new__(cls)
            _set_ch(self, _check_symbol_char(ch))
            _SYMS[ch] = self
        return self

    def __repr__(self):
        return f"'{self.ch}'"


_set_ch, = setters(Sym)
_SYMS: dict = {}  # character -> its Sym


class _Named(Record, frozen=True):
    """A variable or parameter: a leaf known by its name, one instance per
    class and name while it is referred to."""
    __slots__ = ("name", "__weakref__")
    __init__ = object.__init__  # __new__ builds, or finds, the instance
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._live = WeakValueDictionary()  # name -> the instance

    def __new__(cls, name: str):
        live = cls._live
        self = live.get(name)
        if self is None:
            self = object.__new__(cls)
            _set_name(self, name)
            live[name] = self
        return self


_set_name, = setters(_Named)


class SymVar(_Named):
    """Rule variable ranging over symbols, written s.name."""
    __slots__ = ()

    def __repr__(self):
        return f"s.{self.name}"


class SymParam(_Named):
    """Specializer parameter ranging over symbols, written #s.name."""
    __slots__ = ()

    def __repr__(self):
        return f"#s.{self.name}"


class Nil(Record, frozen=True):
    __slots__ = ()

    def __repr__(self):
        return "Nil"


class TrueVal(Record, frozen=True):
    __slots__ = ()

    def __repr__(self):
        return "T"


class FalseVal(Record, frozen=True):
    __slots__ = ()

    def __repr__(self):
        return "F"


NIL = Nil()
TRUE = TrueVal()
FALSE = FalseVal()


class Cons(Record, frozen=True):
    """List cell.  Equality and hash walk the spine in a loop, so long words
    are safe; the hash is recomputed on each call, never stored."""
    __slots__ = ("head", "tail")

    def __init__(self, head: Atom, tail: Expr):
        _set_head(self, head)
        _set_tail(self, tail)

    def __eq__(self, other):
        if other.__class__ is not Cons:
            return NotImplemented  # a Word compares itself with cells
        a, b = self, other
        while a is not b:
            if a.head != b.head:
                return False
            a, b = a.tail, b.tail
            if a.__class__ is not Cons or b.__class__ is not Cons:
                return a == b
        return True

    def __hash__(self):
        heads, end = spine(self)
        return hash((tuple(heads), end))

    def __repr__(self):
        return render_expr(self)


_set_head, _set_tail = setters(Cons)


class Word(Record, frozen=True):
    """A nonempty ground word held as its str: the value of the chain of
    its letters' symbols ending in Nil, in one node.  It equals, hashes and
    renders as that chain, also as the tail of a chain, and so do its
    copies and pickles, which are rebuilt through the constructor.
    Building one checks each distinct letter once and makes no cell (see
    word())."""
    __slots__ = ("text",)

    def __init__(self, text: str):
        if not text:
            raise ValueError("the empty word is Nil, not a Word")
        # each letter not yet a symbol is checked once, in a fixed order,
        # so that the letter a refusal names is the same on every run
        for ch in sorted(set(text).difference(_SYMS)):
            Sym(ch)
        _set_text(self, text)

    def __eq__(self, other):
        if other.__class__ is Word:
            return self.text == other.text
        if other.__class__ is Cons:
            return unword(other) == self.text
        return NotImplemented

    __hash__ = Cons.__hash__

    def __repr__(self):
        return render_expr(self)

    def cells(self) -> Cons:
        """The chain of cells this word stands for."""
        return chain(*spine(self))


_set_text, = setters(Word)


class ListVar(_Named):
    """Rule variable ranging over lists, written bare lowercase."""
    __slots__ = ()

    def __repr__(self):
        return self.name


class ListParam(_Named):
    """Specializer parameter ranging over lists, written #name."""
    __slots__ = ()

    def __repr__(self):
        return f"#{self.name}"


class Call(Record, frozen=True):
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple[Expr, ...]):
        _set_fn(self, fn)
        _set_args(self, args)

    def __eq__(self, other):
        if other.__class__ is Call:
            return self.fn == other.fn and self.args == other.args
        return NotImplemented

    def __hash__(self):
        return hash((self.fn, self.args))

    def __repr__(self):
        return render_expr(self)


_set_fn, _set_args = setters(Call)


_PARAMS = frozenset((SymParam, ListParam))
_LEAVES = frozenset((SymVar, ListVar, SymParam, ListParam))

Atom = Sym | SymVar | SymParam
Param = SymParam | ListParam
Var = SymVar | ListVar
Expr = (Sym | SymVar | SymParam | Nil | TrueVal | FalseVal | Cons | Word
        | ListVar | ListParam | Call)


class Rule(Record, frozen=True):
    __slots__ = ("lhs", "rhs")  # tuple[Expr, ...], Expr

    def __repr__(self):
        return render_rule(self)


class Program(Record, frozen=True):
    """Functions in source order; each maps to its rules in source order:
    `functions` is a tuple[tuple[str, tuple[Rule, ...]], ...], checked
    against the grammar when the program is built (see validate).  The
    `__dict__` holds what the cached properties find."""
    __slots__ = ("functions", "__dict__")

    def __init__(self, functions: tuple):
        _set_functions(self, functions)
        validate(self)

    @cached_property
    def table(self) -> dict[str, tuple[Rule, ...]]:
        return dict(self.functions)

    @cached_property
    def compiled(self):
        """The program translated by the compiled engine, built on first use
        and kept with the program (see interpreter.CompiledProgram); None
        when the program is not well-sorted, so that only the reference
        engine runs it (see interpreter.symbol_positions)."""
        from .interpreter import CompiledProgram, EvalError
        try:
            return CompiledProgram(self)
        except EvalError:  # its one refusal: an ill-sorted program
            return None

    @cached_property
    def ground_facts(self) -> dict:
        """What ground steps need to know of each function's rules, found
        on first use and kept with the program (see driving.GroundFacts)."""
        from .driving import function_facts
        return {name: function_facts(name, rules)
                for name, rules in self.functions}

    def rules(self, name: str) -> tuple[Rule, ...]:
        try:
            return self.table[name]
        except KeyError:
            raise ValidationError(f"undefined function {name}") from None

    def __repr__(self):
        return f"<Program {'/'.join(n for n, _ in self.functions)}>"


_set_functions, = setters(Program)


# --- word helpers -----------------------------------------------------------

def word(text: str) -> Expr:
    """The word value of a plain string: a Word holding it, or Nil for the
    empty string.  Refuses a letter that is not a symbol."""
    return Word(text) if text else NIL


def word_cells(text: str) -> Expr:
    """The word value of a plain string as a chain of cells, e.g. "ab" ->
    'a':'b':Nil, for the terms that driving steps through (see Word)."""
    return Word(text).cells() if text else NIL


def unword(expr: Expr) -> str | None:
    """Inverse of word(); None if expr is not a pure ground word.  A Word
    gives back its text, the very str it was built from, in O(1); the cells
    in front of one, or of Nil, are walked."""
    if expr.__class__ is Word:
        return expr.text
    chars = []
    while expr.__class__ is Cons:
        if expr.head.__class__ is not Sym:
            return None
        chars.append(expr.head.ch)
        expr = expr.tail
    if expr.__class__ is Word:
        chars.append(expr.text)
    elif expr.__class__ is not Nil:
        return None
    return "".join(chars)


def spine(expr: Expr) -> tuple[list, Expr]:
    """The heads of a list expression's cells, in order, and what ends it
    (Nil, a list parameter or variable; expr itself when not a list).  A
    Word counts as the cells of its letters and Nil."""
    heads = []
    while expr.__class__ is Cons:
        heads.append(expr.head)
        expr = expr.tail
    if expr.__class__ is Word:
        heads += map(_SYMS.__getitem__, expr.text)
        expr = NIL
    return heads, expr


def chain(heads: list, end: Expr) -> Expr:
    """The list expression with these cell heads, ended by end: the inverse
    of spine()."""
    for h in reversed(heads):
        end = Cons(h, end)
    return end


def is_passive(expr: Expr) -> bool:
    """True when expr contains no function call.  Iterative along the list
    spine (heads are atoms), so long words are safe."""
    while isinstance(expr, Cons):
        expr = expr.tail
    return not isinstance(expr, Call)


def subterms(expr: Expr) -> Iterator[Expr]:
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Cons):
            yield e.head
            stack.append(e.tail)
        elif e.__class__ is Word:
            yield from spine(e)[0]
            yield NIL
        elif isinstance(e, Call):
            stack.extend(reversed(e.args))


def params_of(expr: Expr) -> list[Param]:
    """Distinct parameters in first-occurrence (left-to-right, depth-first)
    order, in one pass."""
    seen: dict = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        while e.__class__ is Cons:
            if e.head.__class__ in _PARAMS:
                seen[e.head] = None
            e = e.tail
        if e.__class__ in _PARAMS:
            seen[e] = None
        elif e.__class__ is Call:
            stack.extend(reversed(e.args))
    return list(seen)


def vars_of(expr: Expr) -> list[Var]:
    seen: list[Var] = []
    for t in subterms(expr):
        if isinstance(t, (SymVar, ListVar)) and t not in seen:
            seen.append(t)
    return seen


def substitute(expr: Expr, mapping: dict) -> Expr:
    """Replace variable/parameter leaves by their images.

    Keys are leaf nodes (SymVar, ListVar, SymParam, ListParam).  Images of
    symbol-sort keys must be atoms; images of list-sort keys must be list
    expressions.  Iterative along list spines so deep words are safe, and a
    node nothing under which changes is returned as it is, so unchanged
    tails (a ground literal, say) are shared, not rebuilt.
    """
    cells = []
    node = expr
    while node.__class__ is Cons:
        cells.append(node)
        node = node.tail
    if node.__class__ in _LEAVES:
        out = mapping.get(node, node)
    elif node.__class__ is Call:
        args = tuple(substitute(a, mapping) for a in node.args)
        if all(a is b for a, b in zip(args, node.args)):
            out = node
        else:
            out = Call(node.fn, args)
    else:
        out = node
    for cell in reversed(cells):
        h = cell.head
        if h.__class__ in _LEAVES:
            h = mapping.get(h, h)
        if h is not cell.head or out is not cell.tail:
            cell = Cons(h, out)
        out = cell
    return out


# --- tokenizer --------------------------------------------------------------

_PUNCT = "{}(),:;="


class _Token(Record):
    # kind: NAME SYMVAR SYMPARAM LISTPARAM CHAR STRING punct EOF
    __slots__ = ("kind", "text", "line", "col")


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(src)

    def err(msg):
        raise ParseError(msg, line, col)

    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            col += j - i
            i = j
            continue
        start_line, start_col = line, col
        if c == "'":
            if i + 2 >= n or src[i + 2] != "'":
                err("unterminated symbol literal")
            ch = src[i + 1]
            toks.append(_Token("CHAR", ch, start_line, start_col))
            i += 3
            col += 3
            continue
        if c == '"':
            j = src.find('"', i + 1)
            if j < 0:
                err("unterminated word literal")
            toks.append(_Token("STRING", src[i + 1:j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c == "#":
            i += 1
            col += 1
            sym = False
            if src.startswith("s.", i):
                sym = True
                i += 2
                col += 2
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            if j == i or not src[i].isalpha():
                err("expected parameter name after '#'")
            name = src[i:j]
            toks.append(_Token("SYMPARAM" if sym else "LISTPARAM", name,
                               start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            name = src[i:j]
            if name == "s" and j < n and src[j] == ".":
                k = j + 1
                m = k
                while m < n and (src[m].isalnum() or src[m] == "_"):
                    m += 1
                if m == k or not src[k].isalpha():
                    err("expected variable name after 's.'")
                toks.append(_Token("SYMVAR", src[k:m], start_line, start_col))
                col += m - i
                i = m
                continue
            toks.append(_Token("NAME", name, start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            toks.append(_Token(c, c, start_line, start_col))
            i += 1
            col += 1
            continue
        err(f"unexpected character {c!r}")
    toks.append(_Token("EOF", "", line, col))
    return toks


# --- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.cur
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            self.err(f"expected {kind!r}, found {self.cur.text!r}")
        return self.advance()

    def err(self, msg):
        raise ParseError(msg, self.cur.line, self.cur.col)

    # program := funcdef+
    def program(self) -> Program:
        funcs = []
        while self.cur.kind != "EOF":
            name, rules = self.funcdef()
            funcs.append((name, tuple(rules)))
        return Program(tuple(funcs))

    def funcdef(self):
        name = self.expect("NAME").text
        self.expect("{")
        rules = [self.rule()]
        while self.cur.kind != "}":
            rules.append(self.rule())
        self.expect("}")
        return name, rules

    def rule(self) -> Rule:
        pats = [self.pattern()]
        while self.cur.kind == ",":
            self.advance()
            pats.append(self.pattern())
        self.expect("=")
        rhs = self.rhs()
        self.expect(";")
        return Rule(tuple(pats), rhs)

    def _patatom(self) -> Atom | None:
        if self.cur.kind == "CHAR":
            return Sym(self.advance().text)
        if self.cur.kind == "SYMVAR":
            return SymVar(self.advance().text)
        return None

    def _nil_or_listvar(self) -> Expr:
        t = self.cur
        if t.text != "Nil" and not t.text[0].islower():
            self.err(f"list variable must start lowercase: {t.text!r}")
        self.advance()
        return NIL if t.text == "Nil" else ListVar(t.text)

    def pattern(self) -> Expr:
        """Iterative along the list spine, so long patterns are safe."""
        heads = []
        while self.cur.kind != "NAME":
            t = self.cur
            atom = self._patatom()
            if atom is None:
                self.err(f"expected pattern, found {self.cur.text!r}")
            if self.cur.kind != ":":
                if heads:
                    raise ParseError(
                        f"list pattern must end in Nil or a list variable, "
                        f"found {render_expr(atom)}", t.line, t.col)
                return atom  # bare symbol position
            self.advance()
            heads.append(atom)
        return chain(heads, self._nil_or_listvar())

    def rhs(self) -> Expr:
        t = self.cur
        is_call = t.kind == "NAME" and self.toks[self.pos + 1].kind == "("
        if t.kind == "NAME" and t.text == "T" and not is_call:
            self.advance()
            return TRUE
        if t.kind == "NAME" and t.text == "F" and not is_call:
            self.advance()
            return FALSE
        if is_call:
            fn = self.advance().text
            self.advance()
            args = [self.call_arg()]
            while self.cur.kind == ",":
                self.advance()
                args.append(self.call_arg())
            self.expect(")")
            return Call(fn, tuple(args))
        return self.pexpr()

    def _atom(self) -> Atom | None:
        if self.cur.kind == "SYMPARAM":
            return SymParam(self.advance().text)
        return self._patatom()

    def call_arg(self) -> Expr:
        atom = self._atom()
        if atom is not None:
            if self.cur.kind == ":":
                self.advance()
                return Cons(atom, self.pexpr())
            return atom  # bare symbol argument
        return self.pexpr()

    def pexpr(self) -> Expr:
        """Iterative along the list spine, so long expressions are safe."""
        heads = []
        while self.cur.kind not in ("STRING", "NAME", "LISTPARAM"):
            atom = self._atom()
            if atom is None:
                self.err(f"expected expression, found {self.cur.text!r}")
            self.expect(":")
            heads.append(atom)
        t = self.cur
        if t.kind == "NAME":
            return chain(heads, self._nil_or_listvar())
        self.advance()
        return chain(heads, word_cells(t.text) if t.kind == "STRING"
                     else ListParam(t.text))

    def expression(self) -> Expr:
        t = self.cur
        is_call = t.kind == "NAME" and self.toks[self.pos + 1].kind == "("
        if t.kind == "NAME" and t.text in ("T", "F") and not is_call:
            return self.rhs()
        if is_call:
            return self.rhs()
        return self.call_arg()


_PATTERN_ATOMS = frozenset((Sym, SymVar))
_SYMBOLS = frozenset((Sym, SymVar, SymParam))
_LIST_ENDS = frozenset((Nil, Word, ListVar))


def validate(program: Program) -> None:
    """The one check of a program against the grammar, run when it is built:
    there is at least one function, and no two share a name; each function
    has rules of one arity, at least 1; a pattern is a bare symbol, or
    symbol cells (walked, so a Word is refused) ending in Nil or a list
    variable; a right-hand side holds no parameter and no unbound
    variable, and is T, F, a list (symbols consed onto Nil, a Word or a
    list variable), or one call of a defined function with as many
    arguments, each a list or a bare symbol (tail form).  Raises
    ValidationError, or NonTailError for a right-hand side of another
    form."""
    if not program.functions:
        raise ValidationError("empty program")
    arities = {}  # found first, for the calls of earlier functions
    for name, rules in program.functions:
        if name in arities:
            raise ValidationError(f"duplicate function {name}")
        arities[name] = len(rules[0].lhs) if rules else 0
        if not arities[name]:
            raise ValidationError(
                f"function {name}: no rules, or a rule with no pattern")
    for name, rules in program.functions:
        for rule in rules:
            if len(rule.lhs) != arities[name]:
                raise ValidationError(f"function {name}: rule arity "
                                      f"{len(rule.lhs)} != {arities[name]}")
            bound = set()  # the patterns' heads and ends
            for pat in rule.lhs:
                end = pat
                while end.__class__ is Cons \
                        and end.head.__class__ in _PATTERN_ATOMS:
                    bound.add(end.head)
                    end = end.tail
                if not (end.__class__ is Nil or end.__class__ is ListVar
                        or end is pat and end.__class__ in _PATTERN_ATOMS):
                    raise ValidationError(
                        f"function {name}: pattern {pat!r} is not a symbol, "
                        f"nor symbol cells ending in Nil or a list variable")
                bound.add(end)
            rhs = rule.rhs
            if rhs.__class__ is TrueVal or rhs.__class__ is FalseVal:
                continue
            arg = rhs.__class__ is Call
            if arg:
                n = arities.get(rhs.fn)
                if n is None:
                    raise ValidationError(
                        f"function {name}: call to undefined function {rhs.fn}")
                if len(rhs.args) != n:
                    raise ValidationError(
                        f"function {name}: call {rhs.fn}/{len(rhs.args)} does "
                        f"not match definition {rhs.fn}/{n}")
            for part in rhs.args if arg else (rhs,):
                end = part
                while end.__class__ is Cons and end.head.__class__ in _SYMBOLS:
                    _check_leaf(name, end.head, bound)
                    end = end.tail
                _check_leaf(name, end, bound)
                if end.__class__ not in _LIST_ENDS and not (
                        arg and end is part and end.__class__ in _SYMBOLS):
                    raise NonTailError(
                        f"function {name}: {_fault(part, rhs, arg)}")


def _check_leaf(name: str, t: Expr, bound: set) -> None:
    """Refuse a parameter, which no pattern holds, or a variable the
    patterns do not bind, in a right-hand side of function `name`."""
    if t.__class__ in _LEAVES and t not in bound:
        raise ValidationError(f"function {name}: " + (
            f"parameter {t!r} not allowed in a rule" if t.__class__ in _PARAMS
            else f"rhs variable {t!r} unbound in lhs"))


def _fault(part: Expr, rhs: Expr, arg: bool) -> str:
    """Why `part` of the right-hand side `rhs`, one of its call arguments
    when `arg` and else all of it, is outside the grammar."""
    heads, end = spine(part)
    inner = next((h for h in heads if h.__class__ not in _SYMBOLS), end)
    cls = inner.__class__
    if cls is Call:
        return (f"nested call in arguments of {render_expr(rhs)}" if arg
                else f"call under a constructor in {render_expr(rhs)}")
    if cls is TrueVal or cls is FalseVal:
        return (f"{inner!r} inside {render_expr(rhs)}: T and F stand only as "
                f"a whole right-hand side")
    if inner is not end:
        return (f"{render_expr(inner)} as a cell head in "
                f"{render_expr(part)}: a cell head is a symbol")
    if heads:
        return (f"the list {render_expr(part)} ends in the symbol {end!r}, "
                f"not in Nil or a list variable")
    return (f"the right-hand side {end!r} is a bare symbol, which stands "
            f"only as a whole call argument")


def parse_program(text: str) -> Program:
    """Parse a program, which building it validates; raises ParseError,
    ValidationError or NonTailError."""
    return _Parser(text).program()


def parse_expression(text: str) -> Expr:
    """Parse a single expression (pexpr, call, T/F, or bare atom)."""
    p = _Parser(text)
    e = p.expression()
    if p.cur.kind != "EOF":
        p.err(f"trailing input {p.cur.text!r}")
    return e


# --- printer ----------------------------------------------------------------

def render_expr(expr: Expr) -> str:
    """Canonical text; a nonempty ground word, and the longest such suffix
    of a list, is abbreviated with double quotes.  Iterative along the
    list spine, so long lists are safe."""
    heads, end = spine(expr)
    k = len(heads)
    if end.__class__ is Nil:
        while k and heads[k - 1].__class__ is Sym:
            k -= 1
    parts = [repr(h) for h in heads[:k]]
    if k < len(heads):
        parts.append('"' + "".join(h.ch for h in heads[k:]) + '"')
    elif end.__class__ is Call:
        parts.append(f"{end.fn}({', '.join(map(render_expr, end.args))})")
    else:
        parts.append(repr(end))
    return ":".join(parts)


def render_pattern(expr: Expr) -> str:
    heads, end = spine(expr)
    heads.append(end)
    return ":".join(map(repr, heads))


def render_rule(rule: Rule) -> str:
    lhs = ", ".join(render_pattern(p) for p in rule.lhs)
    return f"{lhs} = {render_expr(rule.rhs)};"


def render(program: Program, comments: dict[str, str] | None = None) -> str:
    """Canonical program text; re-parses to an equal Program.

    `comments` optionally maps a function name to a line placed above its
    definition (emitted as a `--` comment, invisible to the parser).
    """
    chunks = []
    for name, rules in program.functions:
        if comments and name in comments:
            chunks.append(f"-- {comments[name]}")
        body = "\n".join(f"  {render_rule(r)}" for r in rules)
        chunks.append(f"{name} {{\n{body}\n}}")
    return "\n".join(chunks) + "\n"
