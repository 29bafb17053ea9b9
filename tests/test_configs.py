import itertools
import random

from miniscp.configs import (
    Config, EMPTY, UNSAT, alpha_equivalent, apply_to_restriction,
    config_text, covers, entails, make_config, prune, restriction, shape,
)
from miniscp.syntax import (
    NIL, Call, Cons, ListParam, Sym, SymParam, parse_expression, substitute,
    unword, word,
)


def sp(name):
    return SymParam(name)


def lp(name):
    return ListParam(name)


def cfg(text, pairs=()):
    return make_config(parse_expression(text), restriction(pairs))


# --- satisfiability: a restriction is satisfiable unless it is `unsat` -------

def test_satisfiable_single_disequality():
    assert not restriction([(sp("a"), Sym("a"))]).unsat


def test_self_contradiction_unsatisfiable():
    assert restriction([(Sym("a"), Sym("a"))]) is UNSAT
    assert restriction([(sp("a"), sp("a"))]) is UNSAT


def test_open_alphabet_many_exclusions_satisfiable():
    r = restriction([(sp("a"), Sym("a")), (sp("a"), Sym("b"))])
    assert not r.unsat


def test_satisfiable_stable_under_renaming():
    r = restriction([(sp("a"), Sym("x")), (sp("a"), sp("b"))])
    renamed = apply_to_restriction(r, {sp("a"): sp("u"), sp("b"): sp("v")})
    assert not r.unsat and not renamed.unsat
    # a renaming that merges the two parameters contradicts a ≠ b
    assert apply_to_restriction(r, {sp("b"): sp("a")}).unsat


def test_normalization_idempotent():
    pairs = [(Sym("a"), sp("c")), (sp("c"), Sym("a")), (Sym("a"), Sym("b"))]
    once = restriction(pairs)
    again = restriction(once.diseqs)
    assert once == again
    assert len(once.diseqs) == 1  # duplicates merged, literal pair dropped


# --- entails -----------------------------------------------------------------

def test_entails_subset():
    r2 = restriction([(sp("a"), Sym("a")), (sp("t"), Sym("b"))])
    r1 = restriction([(sp("a"), Sym("a"))])
    assert entails(r2, r1, {sp("a"): sp("a")})


def test_entails_nothing_implies_constraint():
    r1 = restriction([(sp("a"), Sym("a"))])
    assert not entails(EMPTY, r1, {sp("a"): sp("a")})


def test_entails_distinct_literals_vacuous():
    r1 = restriction([(Sym("a"), Sym("b"))])
    assert r1 == EMPTY  # normalized away
    assert entails(EMPTY, r1, {})


def test_entails_reflexive_under_identity():
    rng = random.Random(3)
    letters = "abc"
    for _ in range(50):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            p = sp(rng.choice("uvw"))
            pairs.append((p, Sym(rng.choice(letters))))
        r = restriction(pairs)
        ident = {p: p for p in r.params()}
        assert entails(r, r, ident)


def test_entails_monotone_in_left_argument():
    rng = random.Random(4)
    for _ in range(50):
        base = [(sp(rng.choice("uv")), Sym(rng.choice("abc")))
                for _ in range(rng.randint(0, 3))]
        extra = [(sp(rng.choice("uvw")), Sym(rng.choice("abc")))
                 for _ in range(rng.randint(0, 3))]
        r1 = restriction(base)
        r2 = restriction(base)
        bigger = restriction(base + extra)
        ident = {p: p for p in r1.params()}
        if entails(r2, r1, ident):
            assert entails(bigger, r1, ident)


def test_unsat_left_entails_everything():
    r1 = restriction([(sp("a"), Sym("a"))])
    assert entails(UNSAT, r1, {sp("a"): sp("a")})


# --- covers ------------------------------------------------------------------

def test_covers_identity_up_to_renaming():
    c1 = cfg('S("aab", #y)')
    c2 = cfg('S("aab", #z)')
    assert covers(c1, c2) == {lp("y"): lp("z")}


def test_covers_with_vacuous_dead_constraint():
    # arises on the fold-back edge while specializing "aab": the folded
    # node's restriction mentions only a parameter absent from the target
    c1 = cfg('L("b", #y, "aab", \'a\':#y)')
    c2 = make_config(parse_expression('L("b", #w, "aab", \'a\':#w)'),
                     restriction([(sp("c"), Sym("b"))]))
    assert covers(c1, c2) == {lp("y"): lp("w")}


def test_covers_never_maps_parameter_to_compound():
    c1 = cfg('L("ab", #y, "aab", #y)')
    c2 = cfg('L("ab", #s.c:#w, "aab", #s.c:#w)', [(sp("c"), Sym("b"))])
    assert covers(c1, c2) is None


def test_covers_respects_repeated_parameters():
    c1 = cfg('L("ab", #y, "aab", #z)')
    c2 = cfg('L("ab", #w, "aab", #w)')
    # distinct parameters may not merge: the map would not be injective
    assert covers(c1, c2) is None
    # the repeated side does cover the split side? no: repeated must stay
    assert covers(c2, c1) is None


def test_covers_requires_entailment():
    c1 = cfg('S("ab", #s.c:#y)', [(sp("c"), Sym("a"))])
    c2 = cfg('S("ab", #s.d:#w)')
    assert covers(c1, c2) is None  # empty restriction does not entail c != a
    c3 = cfg('S("ab", #s.d:#w)', [(sp("d"), Sym("a")), (sp("d"), Sym("b"))])
    assert covers(c1, c3) == {sp("c"): sp("d"), lp("y"): lp("w")}


def _ground_instances(config: Config, letters="abc", max_tail=3):
    """All ground assignments of the configuration's parameters."""
    params = config.params()
    words = [""]
    for n in range(1, max_tail + 1):
        words.extend("".join(t) for t in itertools.product(letters, repeat=n))
    pools = []
    for p in params:
        pools.append([Sym(c) for c in letters] if isinstance(p, SymParam)
                     else [word(w) for w in words])
    for combo in itertools.product(*pools):
        yield dict(zip(params, combo))


def _satisfies(config: Config, env) -> bool:
    for t1, t2 in config.restriction.diseqs:
        v1 = env.get(t1, t1)
        v2 = env.get(t2, t2)
        if v1 == v2:
            return False
    return True


def test_covers_soundness_on_ground_instances():
    c1 = cfg('L("ab", #y, "ab", #s.c:#z)', [(sp("c"), Sym("a"))])
    c2 = cfg('L("ab", #w, "ab", #s.d:#v)',
             [(sp("d"), Sym("a")), (sp("d"), Sym("b"))])
    sigma = covers(c1, c2)
    assert sigma is not None
    c1_instances = {
        substitute(c1.expr, env)
        for env in _ground_instances(c1) if _satisfies(c1, env)}
    for env in _ground_instances(c2):
        if not _satisfies(c2, env):
            continue
        ground = substitute(c2.expr, env)
        assert ground in c1_instances


def test_alpha_equivalent():
    assert alpha_equivalent(cfg('S("ab", #y)'), cfg('S("ab", #q)'))
    assert not alpha_equivalent(cfg('S("ab", #y)'), cfg('S("ba", #q)'))
    assert not alpha_equivalent(cfg('S("ab", #y)'), cfg('S("ab", #s.c:#q)'))


def test_prune_drops_dead_parameters_only():
    r = restriction([(sp("c"), Sym("a")), (sp("d"), Sym("b"))])
    kept = prune(r, {sp("c")})
    assert kept == restriction([(sp("c"), Sym("a"))])


def test_make_config_prunes_dead_restriction():
    c = make_config(parse_expression('S("ab", #y)'),
                    restriction([(sp("c"), Sym("a"))]))
    assert c.restriction == EMPTY


def _chain(heads, end):
    out = end
    for h in reversed(heads):
        out = Cons(h, out)
    return out


def test_config_text_long_chains():
    # symbol-parameter heads are printed one cell at a time (RecursionError
    # when the printer recursed along the spine); literal runs abbreviate
    params = _chain([sp("c")] * 3000, lp("y"))
    assert config_text(make_config(Call("G", (params,)))) \
        == "⟨G(" + "#s.c:" * 3000 + "#y)⟩"
    mixed = _chain([Sym("a"), Sym("b"), sp("c")] * 1000, lp("y"))
    assert config_text(make_config(mixed)) \
        == "⟨" + '"ab"++#s.c:' * 1000 + "#y⟩"


def test_covers_long_open_chains():
    # 3000-cell chains align cell by cell (RecursionError when the
    # alignment recursed along the spine)
    c1 = make_config(Call("S", (_chain([Sym("a")] * 3000, lp("y")),)))
    c2 = make_config(Call("S", (_chain([Sym("a")] * 3000, lp("z")),)))
    assert covers(c1, c2) == {lp("y"): lp("z")}
    c3 = make_config(Call("S", (_chain([sp("c")] * 3000, lp("z")),)))
    assert covers(c3, c3) == {sp("c"): sp("c"), lp("z"): lp("z")}
    assert covers(c1, c3) is None and covers(c3, c1) is None
    c4 = make_config(Call("S", (_chain([Sym("a")] * 2999, lp("z")),)))
    assert covers(c1, c4) is None


def _chain_text_recursive(expr):
    """config_text's recursive definition of the body, kept as the
    reference."""
    w = unword(expr)
    if w is not None:
        return f'"{w}"' if w else "Nil"
    prefix = []
    node = expr
    while isinstance(node, Cons) and isinstance(node.head, Sym):
        prefix.append(node.head.ch)
        node = node.tail
    if len(prefix) >= 2:
        return f'"{"".join(prefix)}"++{_chain_text_recursive(node)}'
    if isinstance(expr, Cons):
        return f"{expr.head!r}:{_chain_text_recursive(expr.tail)}"
    if isinstance(expr, Call):
        args = ", ".join(map(_chain_text_recursive, expr.args))
        return f"{expr.fn}({args})"
    return repr(expr)


def _covers_recursive(c1, c2):
    """covers' recursive alignment, kept as the reference."""
    mapping = {}

    def align(e1, e2):
        if isinstance(e1, (SymParam, ListParam)):
            if type(e2) is not type(e1):
                return False
            return mapping.setdefault(e1, e2) == e2
        if isinstance(e1, Cons):
            return (isinstance(e2, Cons) and align(e1.head, e2.head)
                    and align(e1.tail, e2.tail))
        if isinstance(e1, Call):
            return (isinstance(e2, Call) and e1.fn == e2.fn
                    and len(e1.args) == len(e2.args)
                    and all(align(a, b) for a, b in zip(e1.args, e2.args)))
        return e1 == e2

    if not align(c1.expr, c2.expr):
        return None
    if len(set(mapping.values())) != len(mapping):
        return None
    if not entails(c2.restriction, c1.restriction, mapping):
        return None
    return mapping


def test_chain_text_and_covers_agree_with_recursive_definitions():
    rng = random.Random(11)
    atoms = [Sym("a"), Sym("b"), sp("c"), sp("d")]
    ends = [NIL, lp("y"), lp("z")]

    def arg():
        return _chain([rng.choice(atoms) for _ in range(rng.randint(0, 5))],
                      rng.choice(ends))

    def diseqs():
        terms = [Sym("a"), Sym("b"), sp("c"), sp("d")]
        return restriction([(rng.choice(terms), rng.choice(terms[2:]))
                            for _ in range(rng.randint(0, 2))])

    for _ in range(3000):
        e1 = Call("L", (arg(), arg()))
        e2 = Call("L", (arg(), arg())) if rng.random() < 0.5 else substitute(
            e1, {sp("c"): sp("d"), sp("d"): sp("c"), lp("y"): lp("z")})
        c1, c2 = make_config(e1, diseqs()), make_config(e2, diseqs())
        assert config_text(make_config(e1)) \
            == f"⟨{_chain_text_recursive(e1)}⟩"
        assert covers(c1, c2) == _covers_recursive(c1, c2), (c1, c2)
        assert covers(c2, c1) == _covers_recursive(c2, c1), (c2, c1)
        assert alpha_equivalent(c1, c2) == (
            _covers_recursive(c1, c2) is not None
            and _covers_recursive(c2, c1) is not None), (c1, c2)


def test_configuration_shape_tells_parameter_kinds_apart():
    def expr_shape(text):
        return shape(parse_expression(text))

    assert expr_shape('S("a", #y)')[0] != expr_shape('S("a", #s.c)')[0]
    assert expr_shape('"ab"')[0] != expr_shape('S("ab")')[0]
    assert expr_shape('S("a", #s.c:#y)') \
        == (expr_shape('S("a", #s.d:#z)')[0], [sp("c"), lp("y")])
