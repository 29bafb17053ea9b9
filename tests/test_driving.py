import itertools
import random

import pytest

from miniscp.configs import (
    EMPTY, Config, make_config, restriction, satisfiable,
)
from miniscp.driving import (
    Branch, DriveError, NameGen, StuckConfigError, compress, drive_step,
    ground_step,
)
from miniscp.harness import branch_admits
from miniscp.interpreter import (
    NonTailError, UnsupportedNarrowingError, naive_matcher, trace_call,
)
from miniscp.scp import specialize_pattern, supercompile
from miniscp.syntax import (
    Call, Cons, FALSE, ListParam, ListVar, NIL, Program, Rule, Sym, SymParam,
    TRUE, parse_expression, parse_program, spine, substitute, word,
)


def cfg(text, pairs=()):
    return make_config(parse_expression(text), restriction(pairs))


@pytest.fixture(scope="module")
def prog():
    return naive_matcher()


# --- drive_step on the entry configuration -----------------------------------

def test_drive_entry_three_branches(prog):
    branches = drive_step(prog, cfg('S("aab", #y)'))
    assert [b.rule_index for b in branches] == [0, 1, 2]
    adv, miss, end = branches

    y = ListParam("y")
    # (i) y -> 'a':fresh, no new constraints
    assert dict(adv.subst)[y] == Cons(Sym("a"), _fresh_list(adv, y))
    assert adv.added == EMPTY
    assert adv.child.expr.fn == "L"
    # child is L("aab", 'a':t, "aab", t)
    t = _fresh_list(adv, y)
    assert adv.child.expr.args == (
        word("aab"), Cons(Sym("a"), t), word("aab"), t)

    # (ii) y -> c:fresh with c != 'a'
    img = dict(miss.subst)[y]
    assert isinstance(img.head, SymParam)
    assert miss.added == restriction([(img.head, Sym("a"))])
    assert miss.child.expr == Call("S", (word("aab"), img.tail))
    assert miss.child.restriction == EMPTY  # spent symbol pruned

    # (iii) y -> Nil
    assert dict(end.subst)[y] == NIL
    assert end.child.expr == FALSE


def _fresh_list(branch, param):
    img = dict(branch.subst)[param]
    assert isinstance(img, Cons)
    return img.tail


def test_drive_comparison_state(prog):
    branches = drive_step(prog, cfg('L("ab", #y, "aab", #y)'))
    assert len(branches) == 3
    y = ListParam("y")
    adv, miss, end = branches
    t = _fresh_list(adv, y)
    assert adv.child.expr == Call(
        "L", (word("b"), t, word("aab"), Cons(Sym("a"), t)))
    img = dict(miss.subst)[y]
    assert miss.added == restriction([(img.head, Sym("a"))])
    assert miss.child.expr == Call(
        "S", (word("aab"), Cons(img.head, img.tail)))
    assert end.child.expr == Call("S", (word("aab"), NIL))


def test_drive_passive_rejected(prog):
    with pytest.raises(DriveError):
        drive_step(prog, make_config(TRUE))


def test_drive_prunes_contradicted_branch(prog):
    c = cfg('S("aab", #s.c:#w)', [(SymParam("c"), Sym("a"))])
    branches = drive_step(prog, c)
    assert len(branches) == 1  # the head-match rule cannot fire
    assert branches[0].rule_index == 1


def test_stuck_configuration_is_an_error():
    prog = parse_program("G { 'a':y = T; }")
    with pytest.raises(DriveError, match="no rule"):
        drive_step(prog, make_config(Call("G", (NIL,))))


def test_repeated_list_variable_compared_under_the_whole_narrowing():
    # z binds #y, the second argument narrows #y to #s.c1:#y1 with #s.c1
    # then 'a', and the third argument must equal z: it does once the
    # narrowing is applied all the way ('a':#y1 both), so the rule fires
    prog = parse_program("F { z, 'a':y, z = F('b':z, Nil, z); }")
    (b,) = drive_step(prog, cfg("F(#y, #y, #y)"))
    t = _fresh_list(b, ListParam("y"))
    assert dict(b.subst) == {ListParam("y"): Cons(Sym("a"), t)}
    assert b.child.expr == Call("F", (
        Cons(Sym("b"), Cons(Sym("a"), t)), NIL, Cons(Sym("a"), t)))


# --- compress -----------------------------------------------------------------

def test_compress_entry_match_branch_reaches_comparison_state(prog):
    c = cfg('S("aab", #y)')
    adv = drive_step(prog, c)[0]
    done = compress(prog, adv)
    # two rule applications folded into the edge
    assert done.steps == 2
    got = done.child
    t = dict(done.subst)[ListParam("y")].tail
    assert got.expr == Call("L", (word("ab"), t, word("aab"), t))


def test_compress_held_symbol_restart(prog):
    c = cfg('S("aab", #s.c:#w)', [(SymParam("c"), Sym("a"))])
    sole = drive_step(prog, c)[0]
    done = compress(prog, sole)
    assert done.child.expr == Call("S", (word("aab"), ListParam("w")))
    assert done.child.restriction == EMPTY


def test_compress_passive_branch_unchanged(prog):
    c = cfg('S("a", #y)')
    end = drive_step(prog, c)[2]  # y -> Nil, rewrites straight to F
    assert end.child.expr == FALSE
    assert compress(prog, end) == end


def test_compression_soundness_against_interpreter(prog):
    """Running the parent instance for the edge's step count lands exactly on
    the child instance."""
    parent = cfg('L("ab", #y, "aab", #y)')
    branches = [compress(prog, b) for b in drive_step(prog, parent)]
    for env in _instances(parent):
        hits = [(b, e2) for b in branches
                if (e2 := branch_admits(b, env)) is not None]
        assert len(hits) == 1, f"instance {env} admitted by {len(hits)}"
        b, env2 = hits[0]
        start = substitute(parent.expr, env)
        states = []
        for state in trace_call(prog, start):
            states.append(state)
            if len(states) == b.steps:
                break
        assert states[-1] == substitute(b.child.expr, env2)


def _instances(config, letters="abc", max_tail=3):
    params = config.params()
    words = [""]
    for n in range(1, max_tail + 1):
        words.extend("".join(t) for t in itertools.product(letters, repeat=n))
    pools = [[Sym(c) for c in letters] if isinstance(p, SymParam)
             else [word(w) for w in words] for p in params]
    for combo in itertools.product(*pools):
        env = dict(zip(params, combo))
        if all(env.get(t1, t1) != env.get(t2, t2)
               for t1, t2 in config.restriction.diseqs):
            yield env


def test_branches_partition_instances(prog):
    for text, pairs in [
        ('S("aab", #y)', ()),
        ('L("ab", #y, "aab", #y)', ()),
        ('L("ab", #s.c:#y, "aab", #s.c:#y)', [(SymParam("c"), Sym("b"))]),
        ('S("ab", #s.c:#y)', [(SymParam("c"), Sym("b"))]),
    ]:
        parent = cfg(text, pairs)
        branches = drive_step(prog, parent)
        assert all(satisfiable(b.child.restriction) for b in branches)
        for env in _instances(parent):
            hits = [b for b in branches if branch_admits(b, env) is not None]
            assert len(hits) == 1


def test_branch_order_follows_rule_order(prog):
    branches = drive_step(prog, cfg('L("b", #y, "aab", \'a\':#y)'))
    indices = [b.rule_index for b in branches]
    assert indices == sorted(indices)


# --- node kinds: passive, transient (one branch), pivot (two or more) --------

def test_classify_examples(prog):
    pivot = cfg('S("aab", #y)')
    assert pivot.is_active() and len(drive_step(prog, pivot)) >= 2
    transient = cfg('L("aab", \'a\':#y, "aab", #y)')
    assert transient.is_active() and len(drive_step(prog, transient)) == 1
    assert not make_config(TRUE).is_active()


def test_fresh_names_avoid_existing(prog):
    gen = NameGen.for_exprs(parse_expression('S(#y1, #s.c1:#y2)'))
    assert gen.fresh_list().name == "y3"
    assert gen.fresh_sym().name == "c2"


# --- ground steps --------------------------------------------------------------

def _reached_configs(monkeypatch, patterns):
    """Every active configuration stepped while specializing `patterns`:
    the nodes drive_step drives and the transients ground_step is tried on."""
    from miniscp import driving, scp
    seen = {}
    for mod, name in ((scp, "drive_step"), (driving, "ground_step")):
        real = getattr(mod, name)

        def record(program, c, *rest, real=real):
            seen[c] = None
            return real(program, c, *rest)
        monkeypatch.setattr(mod, name, record)
    for p in patterns:
        specialize_pattern(p)
    monkeypatch.undo()
    return list(seen)


def test_ground_steps_agree_with_drive_step(prog, monkeypatch):
    # the benchmark ladder's (ab)^k and a^n rungs, and seeded random words
    rng = random.Random(12)
    patterns = ["ab" * k for k in range(1, 11)] + [
        "a" * n for n in range(1, 18)] + [
        "".join(rng.choice("abcd"[:k]) for _ in range(rng.randint(4, 24)))
        for k in (2, 3, 4) for _ in range(5)]
    configs = _reached_configs(monkeypatch, patterns)
    answered = 0
    for c in configs:
        g = ground_step(prog, c)
        names = NameGen.for_exprs(c.expr)
        before = (names._nsym, names._nlist)
        branches = drive_step(prog, c, names)
        if g is None:
            continue
        answered += 1
        (b,) = branches
        assert (b.subst, b.added, b.child) == ((), EMPTY, g), c
        assert (names._nsym, names._nlist) == before, c
    assert 1000 < answered < len(configs)


def test_ground_step_on_a_held_symbol_the_restriction_rules_out(prog):
    c = cfg('S("abab", #s.c:#y)', [(SymParam("c"), Sym("a"))])
    g = ground_step(prog, c)
    assert g == cfg('S("abab", #y)')
    assert drive_step(prog, c) == [Branch((), EMPTY, 1, g)]


def _nested_rhs_program():
    # not in tail form, so the parser would refuse it
    y = ListVar("y")
    return Program((("F", (Rule((y,), Cons(Sym("a"), Call("G", (y,)))),)),
                    ("G", (Rule((y,), TRUE),))))


@pytest.mark.parametrize("source, text, pairs, error", [
    # passive, unsatisfiable, arity mismatch: drive_step refuses them all
    (None, "T", (), DriveError),
    (None, 'S("ab", \'b\':#y)', [(Sym("a"), Sym("a"))], DriveError),
    (None, 'S("ab")', (), DriveError),
    # a fresh name: the first rule narrows #y to a cell
    (None, 'S("ab", #y)', (), None),
    # a symbol narrowing the restriction does not rule out
    (None, 'L("ab", #s.c:#y, "ab", #s.c:#y)', (), None),
    # a narrowing to Nil, which takes no name
    ("F { Nil = T; s.a:y = F(y); }", "F(#y)", (), None),
    # an equality of two symbol parameters
    ("F { s.a, s.a = T; s.a, s.b = F; }", "F(#s.c, #s.d)",
     (), UnsupportedNarrowingError),
    # a stuck configuration
    ("F { 'a' = T; }", "F('b')", (), StuckConfigError),
    # a later rule asks for a name: drive_step takes it from the session
    ("F { 'a':y, z = T; x, 'b':z = F; }", 'F("a", #w)', (), None),
])
def test_ground_step_falls_back(prog, source, text, pairs, error):
    program = prog if source is None else parse_program(source)
    c = Config(parse_expression(text), restriction(pairs))
    assert ground_step(program, c) is None
    if error is not None:
        with pytest.raises(error):
            drive_step(program, c)
    else:
        drive_step(program, c)


def test_a_later_rule_that_asks_for_a_name_shifts_the_session_names():
    # why ground_step probes every later rule: drive_step's one branch here
    # narrows nothing, yet matching the second rule takes two fresh names
    program = parse_program("F { 'a':y, z = T; x, 'b':z = F; }")
    c = cfg('F("a", #w)')
    names = NameGen.for_exprs(c.expr)
    (b,) = drive_step(program, c, names)
    assert b.subst == () and b.child.expr == TRUE
    assert (names._nsym, names._nlist) == (1, 1)


def test_supercompile_refuses_a_right_hand_side_outside_the_grammar():
    # ground_step trusts the program's tail form, which supercompile checks
    with pytest.raises(NonTailError, match="call under a constructor"):
        supercompile(_nested_rhs_program(), cfg("F(#y)"))


def test_compress_measures_spines_at_the_start_and_after_narrowing(
        prog, monkeypatch):
    from miniscp import driving
    walks = []
    real = driving._spine_depth

    def counting(expr):
        walks.append(expr)
        return real(expr)
    monkeypatch.setattr(driving, "_spine_depth", counting)
    held = Cons(Sym("a"), Cons(Sym("b"), ListParam("y")))
    c = make_config(Call("S", (word("ab" * 20), held)))
    (first,) = drive_step(prog, c)
    done = compress(prog, first)
    # L compares two known letters, then its drive narrows #y and ends the
    # chain: two ground steps, and one walk, where the chain starts
    assert done.steps == 3 and len(walks) == 1
    # a ground step (G), then two steps that narrow (H and K): one walk
    # where the chain starts and one after each narrowing step
    program = parse_program("F { s.a:y = G('a':y); } G { 'a':y = H(y); } "
                            "H { s.a:y = K(y); } K { s.a:y = T; }")
    (first,) = drive_step(program, cfg("F(#y)"))
    walks.clear()
    done = compress(program, first)
    assert done.steps == 4 and done.child.expr == TRUE and len(walks) == 3
    ((p, image),) = done.subst
    assert p == ListParam("y") and len(spine(image)[0]) == 3


def test_a_long_narrowing_chain_compresses_into_one_edge():
    # F1 .. F1999 each narrow one more cell of #y and F2000 returns T: one
    # edge of 2,000 steps whose narrowing is resolved once, at the end
    n = 2000
    program = parse_program(
        "".join(f"F{i} {{ s.a:y = F{i + 1}(y); }}\n" for i in range(1, n))
        + f"F{n} {{ y = T; }}\n")
    (first,) = drive_step(program, cfg("F1(#y)"))
    done = compress(program, first)
    assert done.steps == n and done.child.expr == TRUE
    ((p, image),) = done.subst
    heads, end = spine(image)
    assert p == ListParam("y") and len(heads) == n - 1
    assert end.__class__ is ListParam and end not in dict(done.subst)
