import itertools
import random

import pytest

from miniscp import driving, scp
from miniscp.configs import EMPTY, Config, make_config, restriction
from miniscp.driving import (
    Branch, DriveError, GroundFirst, NameGen, StuckConfigError, compress,
    drive_step, ground_run, ground_step,
)
from miniscp.harness import branch_admits, default_corpus
from miniscp.interpreter import (
    NAIVE_MATCHER_SOURCE, UnsupportedNarrowingError, naive_matcher,
    trace_call,
)
from miniscp.residual import residualize
from miniscp.scp import (
    ScpReport, graph_lines, matcher_entry, specialize_pattern, supercompile,
)
from miniscp.syntax import (
    Call, Cons, FALSE, ListParam, ListVar, NIL, NonTailError, Program, Rule,
    Sym, SymParam, TRUE, Word, parse_expression, parse_program, render, spine,
    substitute, word,
)
from test_residual import OTHER_PROGRAMS


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


def test_drive_passive_rejected(prog, monkeypatch):
    # driving trusts the entry check: no configuration stepped from a
    # checked entry is passive, and a passive entry is refused before a step
    configs = _reached_configs(monkeypatch, ["aab", "abab"], [
        (parse_program(source), cfg(entry))
        for source, entry in OTHER_PROGRAMS])
    assert configs and all(c.is_active() for c in configs)

    def no_step(*args):
        raise AssertionError("stepped a passive configuration")
    monkeypatch.setattr(scp, "drive_step", no_step)
    monkeypatch.setattr(driving, "ground_step", no_step)
    with pytest.raises(scp.ScpError, match="passive"):
        supercompile(prog, make_config(TRUE))


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
        assert not any(b.child.restriction.unsat for b in branches)
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

def _reached_configs(monkeypatch, patterns, entries=()):
    """Every active configuration stepped while specializing `patterns`
    and supercompiling the (program, entry) pairs of `entries`:
    the nodes drive_step drives and the transients ground_step is tried on,
    each run that ground_run takes in one go expanded one ground step at a
    time."""
    seen = {}
    for mod, name in ((scp, "drive_step"), (driving, "ground_step")):
        real = getattr(mod, name)

        def record(program, c, *rest, real=real):
            seen[c] = None
            return real(program, c, *rest)
        monkeypatch.setattr(mod, name, record)
    real_run = driving.ground_run

    def expand(program, c, *rest):
        end, n = real_run(program, c, *rest)
        for _ in range(n):
            seen[c] = None
            c = ground_step(program, c)
        assert c == end
        return end, n
    monkeypatch.setattr(driving, "ground_run", expand)
    for p in patterns:
        specialize_pattern(p)
    for program, entry in entries:
        supercompile(program, entry)
    monkeypatch.undo()
    return list(seen)


def _ladder_patterns():
    # the benchmark ladder's (ab)^k and a^n rungs, and seeded random words
    rng = random.Random(12)
    return ["ab" * k for k in range(1, 11)] + [
        "a" * n for n in range(1, 18)] + [
        "".join(rng.choice("abcd"[:k]) for _ in range(rng.randint(4, 24)))
        for k in (2, 3, 4) for _ in range(5)]


def _ground_step_agrees(program, c) -> bool:
    """Whether ground_step answers on `c`.  When it does, drive_step gives
    one branch, which narrows nothing, adds no disequality and has
    ground_step's child, and takes no name from the session."""
    g = ground_step(program, c)
    names = NameGen.for_exprs(c.expr)
    before = (names._nsym, names._nlist)
    branches = drive_step(program, c, names)
    if g is None:
        return False
    (b,) = branches
    assert (b.subst, b.added, b.child) == ((), EMPTY, g), c
    assert (names._nsym, names._nlist) == before, c
    return True


def test_ground_steps_agree_with_drive_step(prog, monkeypatch):
    configs = _reached_configs(monkeypatch, _ladder_patterns())
    answered = sum(_ground_step_agrees(prog, c) for c in configs)
    assert 1000 < answered < len(configs)
    # beyond the built-in matcher: the programs residualize is checked on
    answered = asked = 0
    for source, entry in OTHER_PROGRAMS:
        program = parse_program(source)
        configs = _reached_configs(monkeypatch, (), [(program, cfg(entry))])
        answered += sum(_ground_step_agrees(program, c) for c in configs)
        asked += len(configs)
    assert 0 < answered < asked
    # rule 0 needs #s.c = 'a' and #s.d = 'b', and the restriction rules out
    # the first: drive_step skips rule 0 as a ground step does, and its one
    # branch fires rule 1
    program = parse_program("G { 'a':'b':x = T; y = H(y); } H { y = F; }")
    c = cfg("G(#s.c:#s.d:Nil)", [(SymParam("c"), Sym("a"))])
    assert _ground_step_agrees(program, c)
    assert drive_step(program, c)[0].rule_index == 1


def test_ground_step_on_a_held_symbol_the_restriction_rules_out(prog):
    c = cfg('S("abab", #s.c:#y)', [(SymParam("c"), Sym("a"))])
    g = ground_step(prog, c)
    assert g == cfg('S("abab", #y)')
    assert drive_step(prog, c) == [Branch((), EMPTY, 1, g)]


def _nested_rhs_program():
    # not in tail form, so building it raises NonTailError
    y = ListVar("y")
    return Program((("F", (Rule((y,), Cons(Sym("a"), Call("G", (y,)))),)),
                    ("G", (Rule((y,), TRUE),))))


@pytest.mark.parametrize("source, text, pairs, error", [
    # a rule that needs two symbol equalities, neither ruled out: its
    # failure is a disjunction
    ("F { 'a', 'b' = T; s.x, s.y = F; }", "F(#s.c, #s.d)", (),
     UnsupportedNarrowingError),
    # a rule that asks for a name and then fails: drive_step takes the
    # name from the session all the same
    ("F { 'a':y, 'b' = T; x, s.z = F; }", "F(#w, 'c')", (), None),
    # an earlier rule that narrows a list parameter deeper than the firing
    # rule looks
    ("F { 'a':'b':y = T; 'a':y = F; y = F; }", "F('a':#w)", (),
     UnsupportedNarrowingError),
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
    # ground_step trusts the program's tail form: such a program cannot be
    # built, so supercompile never sees one
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
    # where the chain starts and one after each step drive_step takes
    program = parse_program("F { s.a:y = G('a':y); } G { 'a':y = H(y); } "
                            "H { s.a:y = K(y); } K { s.a:y = T; }")
    (first,) = drive_step(program, cfg("F(#y)"))
    walks.clear()
    done = compress(program, first)
    assert done.steps == 4 and done.child.expr == TRUE and len(walks) == 3
    ((p, image),) = done.subst
    assert p == ListParam("y") and len(spine(image)[0]) == 3
    # G's second rule would take a fresh name, so G takes drive_step, which
    # narrows nothing; it is measured all the same, and H's ground step not
    program = parse_program("F { s.a:y = G(y); } G { y = H(y); 'a':y = T; } "
                            "H { y = T; }")
    (first,) = drive_step(program, cfg("F(#y)"))
    walks.clear()
    done = compress(program, first)
    assert done.steps == 3 and done.child.expr == TRUE and len(walks) == 2


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


# --- ground runs ---------------------------------------------------------------

def _one_step_chain(program, branch):
    """The reference for compress's chain: one ground_step or drive_step at
    a time, never a run.  The child, the steps and the ground steps."""
    names = NameGen.for_exprs(branch.child.expr)
    child, steps, ground = branch.child, branch.steps, 0
    while child.is_active():
        nxt = ground_step(program, child)
        if nxt is not None:
            ground += 1
        else:
            nexts = drive_step(program, child, names)
            if len(nexts) != 1:
                break
            nxt = nexts[0].child
        child, steps = nxt, steps + 1
    return child, steps, ground


def _runs_agree(program, configs):
    """compress, taking runs in one go, agrees with the reference on the
    chain from each configuration; returns the number of runs it took.
    The chains share one table of verdicts, as one session's do."""
    runs = 0
    verdicts = {}
    for c in configs:
        start = Branch((), EMPTY, 0, c)
        step = GroundFirst(NameGen.for_exprs(c.expr))
        step.verdicts = verdicts
        done = compress(program, start, step)
        assert (done.child, done.steps, step.ground) \
            == _one_step_chain(program, start), c
        runs += step.runs
    return runs


def _one_step_at_a_time(monkeypatch):
    from miniscp import driving
    monkeypatch.setattr(driving, "ground_run",
                        lambda program, cfg, verdicts, limit: (cfg, 0))


def _same_graph_either_way(monkeypatch, program, entry):
    """supercompile with runs and one ground step at a time build the same
    graph with the same counters; returns the report with runs."""
    graph, report = supercompile(program, entry)
    with monkeypatch.context() as m:
        _one_step_at_a_time(m)
        graph1, report1 = supercompile(program, entry)
    assert graph_lines(graph) == graph_lines(graph1)
    assert report1.ground_runs == 0
    for f in ScpReport._fields:
        if f != "ground_runs":
            assert getattr(report, f) == getattr(report1, f), f
    return report


def test_ground_runs_agree_with_one_step_at_a_time(prog, monkeypatch):
    # the chain from every sixth configuration reached (from all of them,
    # the two paths take about 13 s), and every graph
    patterns = _ladder_patterns()
    configs = _reached_configs(monkeypatch, patterns)
    assert _runs_agree(prog, configs[::6]) > 1000
    for p in patterns:
        _same_graph_either_way(monkeypatch, *matcher_entry(p))


def test_a_word_entry_gives_the_graph_of_its_cells(prog):
    # the root holds the pattern as a Word, which probe turns into cells
    # on the first drive: every output and counter is the cell entry's
    corpus = default_corpus().patterns
    patterns = _ladder_patterns() + list(corpus[::len(corpus) // 16][:16])
    assert len(set(patterns)) > 50
    for p in patterns:
        held = make_config(Call("S", (word(p), ListParam("y"))))
        assert type(held.expr.args[0]) is Word
        graph, report = supercompile(prog, held)
        graph1, report1 = specialize_pattern(p)
        assert graph_lines(graph) == graph_lines(graph1), p
        assert render(residualize(graph).program) \
            == render(residualize(graph1).program), p
        for f in ScpReport._fields:
            assert getattr(report, f) == getattr(report1, f), (p, f)


TWO_KEPT = parse_program("""
F { u, s.a:x, v, s.a:y = F(u, x, v, y);
    u, s.a:x, v, s.b:y = G(v, u);
    u, Nil, v, y = T;
    u, s.a:x, v, Nil = F; }
G { u, v = F; }
""")
REPEATS = parse_program("F { s.a:x, s.a:y = F(x, y); x, x = T; "
                        "s.a:x, s.b:y = F; Nil, y = F; }")
NO_REPEAT = parse_program("F { s.a:x, s.a:y = F(x, y); Nil, Nil = T; "
                          "s.a:x, s.b:y = F; Nil, y = F; }")
RENAMED = parse_program(NAIVE_MATCHER_SOURCE.replace("S", "Scan")
                        .replace("L", "Cmp"))


def test_run_rules_come_from_rule_facts():
    facts = TWO_KEPT.ground_facts["F"]
    assert facts.runs == ((1, 3), None, None, None)
    assert facts.visible == ((1, 1), (3, 1))
    assert TWO_KEPT.ground_facts["G"].runs == ()
    # the matcher's L rule 0 and S rule 1, whatever the functions are named
    for program, scan, cmp in ((naive_matcher(), "S", "L"),
                               (RENAMED, "Scan", "Cmp")):
        assert program.ground_facts[scan].runs == (None, (1,), None)
        assert program.ground_facts[cmp].runs == ((0, 1), None, None, None)
    # x, x repeats a list variable, so F has no run rule, though its first
    # rule alone would be one
    assert REPEATS.ground_facts["F"].runs == ()
    assert NO_REPEAT.ground_facts["F"].runs == ((0, 1), None, None, None)


def test_a_run_that_consumes_two_positions_and_keeps_two(monkeypatch):
    entries = [(TWO_KEPT, cfg(text)) for text in (
        'F(#u, "abcabcab", #v, "abcabd")',
        "F(#u, \"abcab\", #v, 'a':'b':'c':#w)",
        'F("xy", "aaaaaa", #v, #w)')]
    configs = _reached_configs(monkeypatch, (), entries)
    assert _runs_agree(TWO_KEPT, configs) > 0
    for program, entry in entries:
        _same_graph_either_way(monkeypatch, program, entry)


# the window must hold what any pattern inspects: a kept argument's head
# (SWAP), the Nil that ends an argument (UPTO), and more than one cell
# (DEEP); each entry is followed by the value its chain ends in
SWAP = parse_program("""
F { s.a:u, s.a:x, v = F(s.a:u, x, v);
    s.a:u, s.b:x, v = F(v, x, s.a:u);
    'a':u, Nil, v = T;
    u, Nil, v = F; }
""")
UPTO = parse_program("""
G { Nil, s.a:x = G(Nil, x);
    s.a:u, s.a:x = G(s.a:u, x);
    u, Nil = T;
    s.a:u, s.b:x = F; }
""")
DEEP = parse_program("H { 'a':'b':x = T; 'c':Nil = T; s.a:x = H(x); "
                     "Nil = F; }")


@pytest.mark.parametrize("program, entries", [
    (SWAP, [('F("b", "bbaab", "a")', FALSE), ('F("a", "aab", "b")', FALSE),
            ('F("b", "bba", "a")', TRUE)]),
    (UPTO, [('G(Nil, "aaa")', TRUE), ('G("a", "aa")', TRUE),
            ('G("a", "ab")', FALSE), ('G("a", Nil)', TRUE)]),
    (DEEP, [('H("aaab")', TRUE), ('H("cc")', TRUE), ('H("ca")', FALSE),
            ('H("aac")', TRUE)]),
], ids=["kept", "nil", "deep"])
def test_a_window_tells_apart_what_the_patterns_do(monkeypatch, program,
                                                    entries):
    entries = [(program, cfg(text), value) for text, value in entries]
    for _, entry, value in entries:
        graph, _ = supercompile(program, entry)
        assert graph.nodes[-1].config.expr == value, entry
        _same_graph_either_way(monkeypatch, program, entry)
    configs = _reached_configs(monkeypatch, (),
                               [(p, e) for p, e, _ in entries])
    assert _runs_agree(program, configs) > 0


def test_a_renamed_matcher_takes_the_same_runs(monkeypatch):
    for pattern in ("aab", "abab", "a" * 9, "abacabab"):
        graph, report = specialize_pattern(pattern)
        entry = make_config(Call("Scan", (word(pattern), ListParam("y"))))
        renamed = _same_graph_either_way(monkeypatch, RENAMED, entry)
        assert renamed.ground_runs == report.ground_runs > 0
        for f in ScpReport._fields:
            if f != "pivots":
                assert getattr(renamed, f) == getattr(report, f), f
        lines = [line.replace("Scan(", "S(").replace("Cmp(", "L(")
                 for line in graph_lines(supercompile(RENAMED, entry)[0])]
        assert lines == graph_lines(graph)


def test_a_repeated_list_variable_is_never_fast_forwarded(monkeypatch):
    # x, x compares whole arguments, which no window of inspected symbols
    # shows, so F takes every ground step one at a time
    for text in ('F("abab", "abab")', 'F("aab", "aab")'):
        graph, report = supercompile(REPEATS, cfg(text))
        assert report.ground_runs == 0 and report.ground_steps > 2
        assert graph.nodes[-1].config.expr == TRUE
        _same_graph_either_way(monkeypatch, REPEATS, cfg(text))
        graph, report = supercompile(NO_REPEAT, cfg(text))
        assert report.ground_runs == 1
        assert graph.nodes[-1].config.expr == TRUE


def test_a_run_stops_where_the_known_word_ends_in_a_parameter(monkeypatch):
    program = parse_program("F { s.a:x, s.a:y = F(x, y); s.a:x, s.b:y = F; "
                            "Nil, y = T; s.a:x, Nil = F; }")
    c = cfg("F(\"aaaa\", 'a':'a':#w)")
    assert ground_run(program, c, {}, 100) == (cfg('F("aa", #w)'), 2)
    # a symbol parameter in the middle of the known word ends it too
    held = cfg('F("aaaa", \'a\':#s.c:\'a\':#w)', [(SymParam("c"), Sym("a"))])
    assert ground_run(program, held, {}, 100) \
        == (cfg('F("aaa", #s.c:\'a\':#w)', [(SymParam("c"), Sym("a"))]), 1)
    assert ground_run(program, c, {}, 1) == (cfg("F(\"aaa\", 'a':#w)"), 1)
    configs = _reached_configs(monkeypatch, (),
                               [(program, c), (program, held)])
    assert _runs_agree(program, configs) > 0
    for entry in (c, held, cfg('F("aaaa", #w)')):
        _same_graph_either_way(monkeypatch, program, entry)


@pytest.mark.parametrize("cap", range(1, 22))
def test_a_run_past_the_step_cap_fails_as_one_step_at_a_time(prog, monkeypatch,
                                                             cap):
    # a^6's longest edge takes 19 transient steps, so caps below that fail,
    # each inside a run, and the others pass
    from miniscp import driving
    monkeypatch.setattr(driving, "MAX_TRANSIENT_STEPS", cap)

    def outcome():
        try:
            report = specialize_pattern("a" * 6)[1]
        except DriveError as e:
            return str(e)
        return [getattr(report, f) for f in ScpReport._fields
                if f != "ground_runs"]
    fast = outcome()
    _one_step_at_a_time(monkeypatch)
    assert fast == outcome()
    assert (fast == "transient chain exceeded the step budget") == (cap < 19)
