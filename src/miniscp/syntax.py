"""Abstract syntax, parser, and printer for a first-order string-rewriting
language.

Programs are sets of functions, each a list of rewrite rules tried top-down,
first match wins.  A call's inputs are words (right-nested chains of
single-character symbols ending in Nil) and, in argument positions only,
bare symbols; the logical constants T and F are results, written only as a
whole right-hand side.  Expressions may additionally contain rule variables
(`s.a`, `y`) and specializer parameters (`#s.a`, `#y`).

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
    are safe; the hash is recomputed on each call, never stored.

    `text` is None except on the head cell of a word built by word(), where
    it holds that word's letters as one str, so unword() answers in O(1).
    It is never compared, hashed or rendered: such a word equals, hashes and
    prints like the same chain built cell by cell."""
    __slots__ = ("head", "tail", "text")

    def __init__(self, head: Atom, tail: Expr, text: str | None = None):
        _set_head(self, head)
        _set_tail(self, tail)
        _set_text(self, text)

    def __eq__(self, other):
        if other.__class__ is not Cons:
            return NotImplemented
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


_set_head, _set_tail, _set_text = setters(Cons)


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
Expr = (Sym | SymVar | SymParam | Nil | TrueVal | FalseVal | Cons | ListVar
        | ListParam | Call)


class Rule(Record, frozen=True):
    __slots__ = ("lhs", "rhs")  # tuple[Expr, ...], Expr

    def __repr__(self):
        return render_rule(self)


class Program(Record, frozen=True):
    """Functions in source order; each maps to its rules in source order:
    `functions` is a tuple[tuple[str, tuple[Rule, ...]], ...].  The
    `__dict__` holds what the cached properties find."""
    __slots__ = ("functions", "__dict__")

    @cached_property
    def table(self) -> dict[str, tuple[Rule, ...]]:
        return dict(self.functions)

    @cached_property
    def compiled(self):
        """The program translated by the compiled engine, built on first use
        and kept with the program (see interpreter.CompiledProgram); None
        when the program is not well-sorted, so that only the reference
        engine runs it (see interpreter.symbol_positions)."""
        from .interpreter import CompiledProgram, symbol_positions
        if symbol_positions(self) is None:
            return None
        return CompiledProgram(self)

    @cached_property
    def tail_form(self) -> bool:
        """True once every right-hand side is found to have one of the
        grammar's forms, checked on first use and kept with the program;
        raises NonTailError for a program outside the grammar (see
        interpreter.check_tail_form)."""
        from .interpreter import check_tail_form
        check_tail_form(self)
        return True

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


# --- word helpers -----------------------------------------------------------

def word(text: str) -> Expr:
    """Build the word value for a plain string, e.g. "ab" -> 'a':'b':Nil.
    Each distinct letter's Sym is looked up once for all its cells; the
    head cell keeps `text` for unword()."""
    if not text:
        return NIL
    syms = {ch: Sym(ch) for ch in dict.fromkeys(reversed(text))}
    out: Expr = NIL
    for ch in text[:0:-1]:
        out = Cons(syms[ch], out)
    return Cons(syms[text[0]], out, text)


def unword(expr: Expr) -> str | None:
    """Inverse of word(); None if expr is not a pure ground word.  A word
    built by word() gives back its `text`, the very str it was built from,
    in O(1); a chain built cell by cell is walked."""
    if expr.__class__ is Cons and expr.text is not None:
        return expr.text
    chars = []
    while isinstance(expr, Cons):
        if not isinstance(expr.head, Sym):
            return None
        chars.append(expr.head.ch)
        expr = expr.tail
    if not isinstance(expr, Nil):
        return None
    return "".join(chars)


def spine(expr: Expr) -> tuple[list, Expr]:
    """The heads of a list expression's cells, in order, and what ends it
    (Nil, a list parameter or variable; expr itself when not a cell)."""
    heads = []
    while expr.__class__ is Cons:
        heads.append(expr.head)
        expr = expr.tail
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
            while i < n and src[i] != "\n":
                i += 1
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
        names = set()
        while self.cur.kind != "EOF":
            name, rules = self.funcdef()
            if name in names:
                self.err(f"duplicate function {name}")
            names.add(name)
            funcs.append((name, tuple(rules)))
        if not funcs:
            self.err("empty program")
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
        return chain(heads,
                     word(t.text) if t.kind == "STRING" else ListParam(t.text))

    def expression(self) -> Expr:
        t = self.cur
        is_call = t.kind == "NAME" and self.toks[self.pos + 1].kind == "("
        if t.kind == "NAME" and t.text in ("T", "F") and not is_call:
            return self.rhs()
        if is_call:
            return self.rhs()
        return self.call_arg()


def validate(program: Program) -> Program:
    """Check rule arities, that every right-hand-side variable is bound by
    its left-hand side and no rule holds a parameter, and every call's
    callee and arity; raises ValidationError."""
    for name, rules in program.functions:
        arity = len(rules[0].lhs)
        for rule in rules:
            if len(rule.lhs) != arity:
                raise ValidationError(
                    f"function {name}: rule arity {len(rule.lhs)} != {arity}")
            bound = set()
            for p in rule.lhs:
                for v in vars_of(p):
                    bound.add(v)
            for t in subterms(rule.rhs):
                if isinstance(t, (SymVar, ListVar)) and t not in bound:
                    raise ValidationError(
                        f"function {name}: rhs variable {t!r} unbound in lhs")
                if isinstance(t, (SymParam, ListParam)):
                    raise ValidationError(
                        f"function {name}: parameter {t!r} not allowed in a rule")
            for t in subterms(rule.rhs):
                if isinstance(t, Call):
                    callee = program.table.get(t.fn)
                    if callee is None:
                        raise ValidationError(
                            f"function {name}: call to undefined function {t.fn}")
                    if len(t.args) != len(callee[0].lhs):
                        raise ValidationError(
                            f"function {name}: call {t.fn}/{len(t.args)} does "
                            f"not match definition {t.fn}/{len(callee[0].lhs)}")
    return program


def parse_program(text: str) -> Program:
    """Parse and validate a program; raises ParseError or ValidationError."""
    p = _Parser(text)
    return validate(p.program())


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
