"""Parameterized configurations and the negative information attached to them.

A configuration pairs a parameterized expression with a restriction: a
conjunction of disequalities over symbol parameters and symbol literals.
Satisfiability and entailment are decided against an open (unbounded)
alphabet, which makes both exact: a conjunction of disequalities is
unsatisfiable only by syntactic self-contradiction, and entailment reduces
to set containment after normalization.

Disequalities naming parameters that no longer occur in the expression are
pruned (they are existentially satisfiable and constrain nothing), which
keeps the configurations arising from any one program finite modulo
renaming.
"""

from __future__ import annotations

from .record import Record, setters
from .syntax import (
    Call, Expr, ListParam, Nil, Param, Sym, SymParam, params_of, spine,
)

Term = Sym | SymParam
Renaming = dict  # Param -> Param, injective and kind-preserving


def _term_key(t: Term):
    return (0, t.ch) if isinstance(t, Sym) else (1, t.name)


def _norm_pair(t1: Term, t2: Term) -> tuple[Term, Term]:
    return (t1, t2) if _term_key(t1) <= _term_key(t2) else (t2, t1)


class Restriction(Record, frozen=True):
    """Conjunction of disequalities t1 != t2, order-normalized and
    duplicate-free; `unsat` marks the canonical contradiction."""
    __slots__ = ("diseqs", "unsat")

    def __init__(self, diseqs: frozenset = frozenset(), unsat: bool = False):
        _set_diseqs(self, diseqs)
        _set_unsat(self, unsat)

    def __eq__(self, other):
        if other.__class__ is Restriction:
            return self.diseqs == other.diseqs and self.unsat == other.unsat
        return NotImplemented

    def __hash__(self):
        return hash((self.diseqs, self.unsat))

    def __repr__(self):
        if self.unsat:
            return "<unsat>"
        return ", ".join(f"{a!r}≠{b!r}" for a, b in self.sorted_pairs())

    def sorted_pairs(self) -> list[tuple[Term, Term]]:
        return sorted(self.diseqs, key=lambda p: (_term_key(p[0]),
                                                  _term_key(p[1])))

    def params(self) -> set[SymParam]:
        out = set()
        for a, b in self.diseqs:
            for t in (a, b):
                if isinstance(t, SymParam):
                    out.add(t)
        return out


_set_diseqs, _set_unsat = setters(Restriction)
EMPTY = Restriction()
UNSAT = Restriction(frozenset(), True)


def restriction(pairs) -> Restriction:
    """Normalize a collection of (term, term) pairs into a Restriction.

    Pairs of two distinct literals are vacuously true and dropped; a pair of
    identical terms collapses the whole conjunction to the unsatisfiable
    marker.  Normalization is idempotent.
    """
    out = set()
    for t1, t2 in pairs:
        if t1 == t2:
            return UNSAT
        if isinstance(t1, Sym) and isinstance(t2, Sym):
            continue
        out.add(_norm_pair(t1, t2))
    return Restriction(frozenset(out)) if out else EMPTY


def apply_to_restriction(r: Restriction, subst: dict) -> Restriction:
    """Map symbol parameters through a substitution and renormalize."""
    if r.unsat:
        return UNSAT
    pairs = []
    for t1, t2 in r.diseqs:
        a = subst.get(t1, t1) if isinstance(t1, SymParam) else t1
        b = subst.get(t2, t2) if isinstance(t2, SymParam) else t2
        pairs.append((a, b))
    return restriction(pairs)


def prune(r: Restriction, live: set) -> Restriction:
    """Drop disequalities naming parameters outside `live`; such constraints
    are existentially satisfiable over an open alphabet."""
    if r.unsat:
        return UNSAT
    kept = [p for p in r.diseqs
            if all(not isinstance(t, SymParam) or t in live for t in p)]
    return Restriction(frozenset(kept))


def entails(r2: Restriction, r1: Restriction, renaming: Renaming) -> bool:
    """Does r2 imply r1 under the renaming of r1's parameters?

    Sound and complete for disequality conjunctions over an open alphabet:
    each renamed disequality must hold between two distinct literals or be
    present in r2 verbatim.
    """
    if r2.unsat:
        return True
    image = apply_to_restriction(r1, renaming)
    if image.unsat:
        return False
    return image.diseqs <= r2.diseqs


class Config(Record, frozen=True):
    """A node label: parameterized expression plus restriction.

    The expression is passive or a single top-level call with passive
    arguments; the restriction only names parameters occurring in the
    expression (construct via `make_config`, which prunes).
    """
    __slots__ = ("expr", "restriction")

    def __init__(self, expr: Expr, restriction: Restriction = EMPTY):
        _set_expr(self, expr)
        _set_restriction(self, restriction)

    def __eq__(self, other):
        if other.__class__ is Config:
            return (self.expr == other.expr
                    and self.restriction == other.restriction)
        return NotImplemented

    def __hash__(self):
        return hash((self.expr, self.restriction))

    def __repr__(self):
        return config_text(self)

    def is_active(self) -> bool:
        return isinstance(self.expr, Call)

    def params(self) -> list[Param]:
        return params_of(self.expr)


_set_expr, _set_restriction = setters(Config)


def make_config(expr: Expr, r: Restriction = EMPTY) -> Config:
    if not r.diseqs:  # nothing to prune, so no walk for the live parameters
        return Config(expr, r)
    live = {p for p in params_of(expr) if isinstance(p, SymParam)}
    return Config(expr, prune(r, live))


def renaming_text(renaming: Renaming) -> str:
    items = sorted(renaming.items(), key=lambda kv: param_key(kv[0]))
    return ", ".join(f"{k!r}↦{v!r}" for k, v in items)


def param_key(p: Param):
    """Canonical parameter order: symbol parameters first, then by name."""
    return (0, p.name) if isinstance(p, SymParam) else (1, p.name)


def shape(expr: Expr) -> tuple[tuple, list[Param]]:
    """The expression up to renaming, as a key, and its parameters in
    first-occurrence order.

    Each list spine is the tuple of its heads and end: a symbol by its
    character, the k-th parameter by k if it ranges over symbols and by
    -1 - k if over lists, anything else by itself; a call is its name and
    its arguments' spines.  Two configuration expressions (passive, or one
    call with passive arguments) have equal keys exactly when a bijective,
    kind-preserving renaming sends one onto the other, and zipping their
    parameter lists gives that renaming.  One walk, iterative along each
    spine; hashing the key hashes only strings and numbers.  `covers`, the
    fold candidates of `scp.supercompile` and the harness's restart facet
    all compare configurations by this key."""
    index: dict = {}

    def code(t):
        cls = t.__class__
        if cls is Sym:
            return t.ch
        if cls is SymParam:
            return index.setdefault(t, len(index))
        if cls is ListParam:
            return -1 - index.setdefault(t, len(index))
        return t

    def walk(e: Expr) -> tuple:
        heads, end = spine(e)
        heads.append(end)
        return tuple(map(code, heads))

    key = ((expr.fn, *map(walk, expr.args)) if expr.__class__ is Call
           else walk(expr))
    return key, list(index)


def covers(c1: Config, c2: Config) -> Renaming | None:
    """Renaming sending c1's expression exactly onto c2's, if one exists and
    c2's restriction entails the renamed restriction of c1: the two shapes
    must be equal, and the renaming pairs their parameters in order."""
    key1, order1 = shape(c1.expr)
    key2, order2 = shape(c2.expr)
    if key1 != key2:
        return None
    mapping = dict(zip(order1, order2))
    if not entails(c2.restriction, c1.restriction, mapping):
        return None
    return mapping


def alpha_equivalent(c1: Config, c2: Config) -> bool:
    """Equality modulo parameter renaming (covering in both directions)."""
    return covers(c1, c2) is not None and covers(c2, c1) is not None


# --- textual form for logs and DOT ------------------------------------------

def _chain_text(expr: Expr) -> str:
    """Like render_expr but abbreviating literal prefixes of open chains:
    'b':'c':'a':#y prints as "bca"++#y.  Iterative along the list spine."""
    heads, end = spine(expr)
    n = len(heads)
    # heads[word:] are symbols and the list ends in Nil: a ground word
    word = n
    if end.__class__ is Nil:
        while word and heads[word - 1].__class__ is Sym:
            word -= 1
    out = []
    i = 0
    while i < word:
        j = i
        while j < word and heads[j].__class__ is Sym:
            j += 1
        if j - i >= 2:
            out.append(f'"{"".join(h.ch for h in heads[i:j])}"++')
            i = j
        else:
            out.append(f"{heads[i]!r}:")
            i += 1
    if word < n:
        out.append(f'"{"".join(h.ch for h in heads[word:])}"')
    elif end.__class__ is Call:
        out.append(f"{end.fn}({', '.join(map(_chain_text, end.args))})")
    else:
        out.append(repr(end))
    return "".join(out)


def config_text(c: Config) -> str:
    """`<expr ; diseq, ...>` form used in graph dumps and DOT labels."""
    body = _chain_text(c.expr)
    if c.restriction.unsat:
        return f"⟨{body} ; ⊥⟩"
    if not c.restriction.diseqs:
        return f"⟨{body}⟩"
    return f"⟨{body} ; {c.restriction!r}⟩"
