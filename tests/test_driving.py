import itertools

import pytest

from miniscp.configs import (
    EMPTY, make_config, restriction, satisfiable,
)
from miniscp.driving import (
    DriveError, NameGen, compress, drive_step,
)
from miniscp.harness import branch_admits
from miniscp.interpreter import naive_matcher, trace_call
from miniscp.syntax import (
    Call, Cons, FALSE, ListParam, NIL, Sym, SymParam, TRUE, parse_expression,
    parse_program, substitute, word,
)


def cfg(text, pairs=()):
    return make_config(parse_expression(text), restriction(pairs))


@pytest.fixture(scope="module")
def prog():
    return naive_matcher()


# --- drive_step on the entry configuration -----------------------------------

def test_drive_entry_three_branches(prog):
    branches = drive_step(prog, cfg('S("aab", #y)'))
    assert [b.narrowing.rule_index for b in branches] == [0, 1, 2]
    adv, miss, end = branches

    y = ListParam("y")
    # (i) y -> 'a':fresh, no new constraints
    assert dict(adv.narrowing.subst)[y] == Cons(Sym("a"), _fresh_list(adv, y))
    assert adv.narrowing.added == EMPTY
    assert adv.child.expr.fn == "L"
    # child is L("aab", 'a':t, "aab", t)
    t = _fresh_list(adv, y)
    assert adv.child.expr.args == (
        word("aab"), Cons(Sym("a"), t), word("aab"), t)

    # (ii) y -> c:fresh with c != 'a'
    img = dict(miss.narrowing.subst)[y]
    assert isinstance(img.head, SymParam)
    assert miss.narrowing.added == restriction([(img.head, Sym("a"))])
    assert miss.child.expr == Call("S", (word("aab"), img.tail))
    assert miss.child.restriction == EMPTY  # spent symbol pruned

    # (iii) y -> Nil
    assert dict(end.narrowing.subst)[y] == NIL
    assert end.child.expr == FALSE


def _fresh_list(branch, param):
    img = dict(branch.narrowing.subst)[param]
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
    img = dict(miss.narrowing.subst)[y]
    assert miss.narrowing.added == restriction([(img.head, Sym("a"))])
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
    assert branches[0].narrowing.rule_index == 1


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
    assert dict(b.narrowing.subst) == {ListParam("y"): Cons(Sym("a"), t)}
    assert b.child.expr == Call("F", (
        Cons(Sym("b"), Cons(Sym("a"), t)), NIL, Cons(Sym("a"), t)))


# --- compress -----------------------------------------------------------------

def test_compress_entry_match_branch_reaches_comparison_state(prog):
    c = cfg('S("aab", #y)')
    adv = drive_step(prog, c)[0]
    done = compress(prog, adv)
    # two rule applications folded into the edge
    assert done.steps == 2
    assert len(done.chain) == 1
    got = done.child
    t = dict(done.narrowing.subst)[ListParam("y")].tail
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
    indices = [b.narrowing.rule_index for b in branches]
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
