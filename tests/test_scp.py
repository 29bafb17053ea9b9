import itertools
import random
import sys

import pytest

from miniscp import driving, scp, syntax
from miniscp.configs import (
    Config, alpha_equivalent, covers, make_config, restriction, shape,
)
from miniscp.driving import drive_step, ground_run, ground_step
from miniscp.harness import replay_graph
from miniscp.interpreter import naive_matcher, naive_outcome
from miniscp.scp import (
    KIND_DIAGNOSTIC, KIND_FOLDED, KIND_PASSIVE, KIND_PIVOT, KIND_TRANSIENT,
    NodeBudgetError, _couple, _embed, embeds, first_path, first_path_pivots,
    graph_lines, heads_fit, matcher_entry, specialize_pattern, supercompile,
)
from miniscp.syntax import (
    Call, Cons, ListParam, NIL, Nil, Sym, SymParam, TRUE, parse_expression,
    parse_program, spine, unword, word,
)


def cfg(text, pairs=()):
    return make_config(parse_expression(text), restriction(pairs))


# --- embeds -------------------------------------------------------------------

def test_embeds_reflexive():
    for text in ['S("aab", #y)', 'L("ab", #s.c:#y, "aab", #s.c:#y)', 'T',
                 '"abc"']:
        c = cfg(text)
        assert embeds(c, c)


def test_embeds_requires_same_head_function():
    assert not embeds(cfg('S("aab", #y)'), cfg('L("ab", #y, "aab", #y)'))


def test_word_embedding_is_subsequence():
    assert embeds(cfg('"ab"'), cfg('"aab"'))
    assert embeds(cfg('"ab"'), cfg('"axxb"'))
    assert not embeds(cfg('"aab"'), cfg('"ab"'))
    assert not embeds(cfg('"ba"'), cfg('"ab"'))


def test_embeds_preserved_under_renaming():
    c = cfg('L("ab", #s.c:#y, "aab", #s.c:#y)', [(SymParam("c"), Sym("b"))])
    renamed = cfg('L("ab", #s.d:#w, "aab", #s.d:#w)',
                  [(SymParam("d"), Sym("a"))])
    assert embeds(c, renamed)
    assert embeds(renamed, c)


def _embed_by_definition(s, t):
    """The embedding as first defined: couple, else dive into head and tail,
    with no memo (exponential on repetitive words)."""
    if isinstance(s, SymParam):
        return isinstance(t, SymParam)
    if isinstance(s, ListParam):
        return isinstance(t, ListParam)
    if isinstance(s, Sym) and isinstance(t, Sym) and s.ch == t.ch:
        return True
    if isinstance(s, Nil) and isinstance(t, Nil):
        return True
    if isinstance(s, Cons) and isinstance(t, Cons) \
            and _embed_by_definition(s.head, t.head) \
            and _embed_by_definition(s.tail, t.tail):
        return True
    if not isinstance(s, (Sym, Nil, Cons)) and s == t:
        return True
    if isinstance(t, Cons):
        return _embed_by_definition(s, t.head) \
            or _embed_by_definition(s, t.tail)
    return False


def _random_passive(rng):
    if rng.random() < 0.15:
        return rng.choice([Sym("a"), SymParam("c"), SymParam("d"), TRUE])
    atoms = [Sym("a"), Sym("b"), SymParam("c"), SymParam("d")]
    e = rng.choice([NIL, NIL, ListParam("y"), ListParam("z")])
    for _ in range(rng.randint(0, 6)):
        e = Cons(rng.choice(atoms), e)
    return e


def test_embedding_agrees_with_its_recursive_definition():
    rng = random.Random(3)
    seen = set()
    for _ in range(4000):
        s, t = _random_passive(rng), _random_passive(rng)
        want = _embed_by_definition(s, t)
        assert _embed(s, t) == want, (s, t)
        seen.add(want)
    assert seen == {True, False}


def _embed_by_dp(s, t):
    """The embedding by dynamic programming over the suffixes of the two
    spines, O(|s|·|t|): row[j] says whether the current suffix of s embeds
    in t's suffix from cell j (t_n being t's end).  A spine end couples
    with t's end or, unless it is a parameter, dives into any later head;
    a cell couples heads and tails or dives into t's tail."""
    s_heads, s_end = spine(s)
    t_heads, t_end = spine(t)
    n = len(t_heads)
    row = [False] * (n + 1)
    row[n] = _couple(s_end, t_end)
    if not isinstance(s_end, (SymParam, ListParam)):
        for j in range(n - 1, -1, -1):
            row[j] = row[j + 1] or _couple(s_end, t_heads[j])
    for h in reversed(s_heads):
        nxt = row
        row = [False] * (n + 1)
        for j in range(n - 1, -1, -1):
            row[j] = row[j + 1] or (nxt[j + 1] and _couple(h, t_heads[j]))
    return row[0]


def test_greedy_embedding_agrees_with_dynamic_programming():
    # and the whistle's head-count filter passes every pair that embeds
    rng = random.Random(11)
    pool = [_random_passive(rng) for _ in range(3000)]
    keys = {id(e): shape(Call("F", (e,)))[0] for e in pool}
    seen = set()
    filtered = 0
    for _ in range(100_000):
        s, t = rng.choice(pool), rng.choice(pool)
        want = _embed_by_dp(s, t)
        assert _embed(s, t) == want, (s, t)
        fits = heads_fit(keys[id(s)], keys[id(t)])
        assert fits or not want, (s, t)
        filtered += not fits
        seen.add((want, type(spine(s)[1]).__name__))
    assert seen >= {(w, k) for w in (True, False)
                    for k in ("Nil", "ListParam", "SymParam", "Sym")}
    assert filtered > 10_000


def test_embedding_of_long_repetitive_words():
    # diving into both head and tail without a memo takes exponential time
    # here, and recursion along the spine would overflow the stack
    long = cfg(f'S("{"a" * 1200}", #y)')
    assert embeds(cfg(f'S("{"a" * 50}", #y)'), long)
    assert not embeds(cfg(f'S("{"a" * 50}b", #y)'), long)
    assert not embeds(cfg('S("a", #s.c:#y)'), long)


def test_parameters_embed_only_in_parameters():
    # the comparison states differ from their fallback twins only by a
    # narrowed head symbol; the whistle must not relate them
    assert not embeds(cfg('S("aab", #y)'), cfg('S("aab", #s.c:#w)'))
    assert not embeds(cfg('L("ab", #y, "aab", #y)'),
                      cfg('L("ab", #s.c:#w, "aab", #s.c:#w)'))
    # but a parameter does embed in a parameter of the same kind
    assert embeds(cfg('S("aab", #y)'), cfg('S("aab", #z)'))
    assert not embeds(cfg('S("a", #y)'), cfg('S("a", "a")'))


# --- supercompile golden graphs --------------------------------------------------

def test_single_letter_pattern_graph():
    graph, report = specialize_pattern("a")
    kinds = sorted(n.kind for n in graph.nodes)
    assert kinds == [KIND_FOLDED, KIND_PASSIVE, KIND_PASSIVE, KIND_PIVOT]
    assert report.generalizations_attempted == 0
    assert len(report.pivots) == 1
    assert report.fold_count == 1
    folded = [n for n in graph.nodes if n.kind == KIND_FOLDED][0]
    assert folded.fold[0] == graph.root


def test_aab_graph_pivots(aab):
    report = aab.report
    assert report.generalizations_attempted == 0
    assert len(report.pivots) == 4
    expected = [
        cfg('S("aab", #y)'),
        cfg('L("ab", #y, "aab", #y)'),
        cfg('L("b", #y, "aab", \'a\':#y)'),
        cfg('L("ab", #s.c:#y, "aab", #s.c:#y)', [(SymParam("c"), Sym("b"))]),
    ]
    for got, want in zip(report.pivots, expected):
        assert alpha_equivalent(got, want), (got, want)


def test_footnote_pivot_for_abcabcaca():
    _, report = specialize_pattern("abcabcaca")
    want = cfg("L(\"bcaca\", #y, \"abcabcaca\", 'b':'c':'a':#y)")
    assert any(alpha_equivalent(p, want) for p in report.pivots)


# --- first path -------------------------------------------------------------------

def test_first_path_pivots_aab(aab):
    pivots = first_path_pivots(aab.graph)
    expected = [cfg('S("aab", #y)'),
                cfg('L("ab", #y, "aab", #y)'),
                cfg('L("b", #y, "aab", \'a\':#y)')]
    assert len(pivots) == len(expected)
    for got, want in zip(pivots, expected):
        assert alpha_equivalent(got, want)
    leaf = aab.graph.nodes[first_path(aab.graph)[-1]]
    assert leaf.config.expr == TRUE


def test_first_path_pivots_single_letter():
    graph, _ = specialize_pattern("a")
    assert len(first_path_pivots(graph)) == 1


def test_first_path_pivots_ababa(ababa):
    pivots = first_path_pivots(ababa.graph)
    tails = ["baba", "aba", "ba", "a"]
    staggers = ["", "b", "ba", "bab"]
    assert len(pivots) == 5
    for cfg_got, tail, stag in zip(pivots[1:], tails, staggers):
        e = cfg_got.expr
        assert e.fn == "L"
        assert e.args[0] == word(tail)
        assert e.args[2] == word("ababa")
        # fourth argument is stagger ++ the second argument's parameter
        node = e.args[3]
        for ch in stag:
            assert node.head == Sym(ch)
            node = node.tail
        assert node == e.args[1]


# --- graph invariants ----------------------------------------------------------------

def test_every_fold_edge_reverifies(aab, ababa):
    for art in (aab, ababa):
        for i, n in enumerate(art.graph.nodes):
            if n.fold is not None:
                target, sigma = n.fold
                assert covers(art.graph.nodes[target].config, n.config) \
                    == sigma
                assert target in set(art.graph.ancestors(i))


def test_coverable_node_never_whistles():
    # a self-renaming loop both embeds and is covered; folding wins
    prog = parse_program("G { 'a':y = G(y); Nil = T; s.c:y = F; }")
    entry = make_config(parse_expression("G(#w)"))
    graph, report = supercompile(prog, entry)
    assert report.generalizations_attempted == 0
    assert any(n.kind == KIND_FOLDED for n in graph.nodes)


def test_whistle_fires_on_growing_configurations():
    # an accumulator grows at every unfolding, so nothing folds and the
    # embedding must eventually stop the path with a diagnostic leaf
    prog = parse_program(
        "G { 'a':y, z = G(y, 'a':z); Nil, z = T; s.c:y, z = F; }")
    entry = make_config(parse_expression("G(#w, #v)"))
    graph, report = supercompile(prog, entry)
    assert report.generalizations_attempted >= 1
    assert any(n.kind == KIND_DIAGNOSTIC for n in graph.nodes)


def test_divergent_transient_chain_errors_out():
    # growth hidden inside a single-branch chain cannot fold or whistle;
    # the compression budget turns it into a loud error
    from miniscp.driving import DriveError
    prog = parse_program("G { s.a:y = G(s.a:s.a:y); Nil = T; }")
    entry = make_config(parse_expression("G(#w)"))
    with pytest.raises(DriveError, match="transient chain"):
        supercompile(prog, entry)


def test_transient_chain_caps_count_from_the_first_configuration():
    # every configuration holds the 401-letter pattern word; that is not
    # growth, so only the node budget stops the run
    with pytest.raises(NodeBudgetError):
        specialize_pattern("ab" + "a" * 399, node_budget=10)


def test_transient_chain_that_grows_or_loops_errors_out():
    from miniscp.driving import DriveError
    entry = make_config(parse_expression("F(#y)"))
    # ground steps only: growth that narrows nothing is bounded by the
    # step cap, as a loop is
    grows = parse_program("F { x = F('a':x); }")
    with pytest.raises(DriveError, match="step budget"):
        supercompile(grows, entry)
    loops = parse_program("F { x = G(x); } G { x = F(x); }")
    with pytest.raises(DriveError, match="step budget"):
        supercompile(loops, entry)
    # each step narrows #y and drops the cell it made
    narrows = parse_program("F { s.a:y = F(y); }")
    with pytest.raises(DriveError, match="step budget"):
        supercompile(narrows, entry)
    # each step narrows #y and moves its first cell onto the second list
    moves = parse_program("F { s.a:y, z = F(y, s.a:z); }")
    with pytest.raises(DriveError, match="grows without bound"):
        supercompile(moves, make_config(parse_expression("F(#y, #z)")))
    # the second rule would narrow 'a':#v to a fresh cell, so no step is a
    # ground step; drive_step's one branch narrows nothing, and the first
    # argument grows by a cell each step
    later = parse_program("S { z, s.c:v = S('a':z, 'a':v); "
                          "y, s.d:s.c:x = S(s.d:y, 'a':x); }")
    with pytest.raises(DriveError, match="grows without bound"):
        specialize_pattern("ba", later)


@pytest.mark.parametrize("budget, error", [(400, "step budget"),
                                           (401, "grows without bound")])
def test_growth_cap_fires_at_the_step_the_spines_pass_it(monkeypatch,
                                                         budget, error):
    # the chain starts at F(#y1, #c1:#z), one cell deep; each step narrows
    # and adds a cell, so the spines pass the cap 401 steps on, and that is
    # where the chain stops
    from miniscp.driving import DriveError
    monkeypatch.setattr(driving, "MAX_TRANSIENT_STEPS", budget)
    grows = parse_program("F { s.a:y, z = F(y, s.a:z); }")
    with pytest.raises(DriveError, match=error):
        supercompile(grows, make_config(parse_expression("F(#y, #z)")))


def test_node_budget_enforced():
    with pytest.raises(NodeBudgetError):
        specialize_pattern("abab", node_budget=3)


def test_graph_soundness_replay():
    """Walking the graph under every small ground instance reproduces the
    interpreter's verdict."""
    for pattern in ("a", "ab", "aab", "aba"):
        graph, _ = specialize_pattern(pattern)
        y = ListParam("y")
        alphabet = sorted(set(pattern)) + ["c"]
        for n in range(7):
            for tup in itertools.product(alphabet, repeat=n):
                s = "".join(tup)
                verdict = replay_graph(graph, {y: word(s)})
                assert verdict == naive_outcome(pattern, s).value, \
                    (pattern, s)


def test_binary_sweep_no_generalization_and_node_cap():
    for n in range(1, 7):
        for tup in itertools.product("ab", repeat=n):
            pattern = "".join(tup)
            graph, report = specialize_pattern(pattern)
            assert report.generalizations_attempted == 0, pattern
            assert report.node_count <= (len(pattern) + 1) ** 2 + 2, pattern
            assert report.node_count == len(graph.nodes)


def test_graph_lines_cover_all_nodes(aab):
    lines = graph_lines(aab.graph)
    node_lines = [l for l in lines if l.startswith("node ")]
    fold_lines = [l for l in lines if l.startswith("fold ")]
    assert len(node_lines) == aab.report.node_count
    assert len(fold_lines) == aab.report.fold_count


# a^12, where every transient step is a ground step, and an edge out of
# F(#y) whose chain mixes a ground step (G) with narrowing steps (H and K);
# each with its drive_steps, ground_steps, transient_steps and node_count
MIXED = parse_program("F { s.a:y = G('a':y); } G { 'a':y = H(y); } "
                      "H { s.a:y = K(y); } K { s.a:y = T; }")
COUNTED = [
    (matcher_entry("a" * 12), (719, 684, 684, 37)),
    ((MIXED, cfg("F(#y)")), (4, 1, 3, 2)),
]


def test_report_counts_drives_and_transient_steps(monkeypatch):
    drives, grounds, runs = [], [], []

    def counting(*args, **kwargs):
        drives.append(None)
        return drive_step(*args, **kwargs)

    def counting_ground(*args):
        b = ground_step(*args)
        if b is not None:
            grounds.append(None)
        return b

    def counting_run(*args):
        end, n = ground_run(*args)
        grounds.extend([None] * n)  # one per rule application in the run
        if n:
            runs.append(n)
        return end, n

    monkeypatch.setattr(driving, "drive_step", counting)
    monkeypatch.setattr(scp, "drive_step", counting)
    monkeypatch.setattr(driving, "ground_step", counting_ground)
    monkeypatch.setattr(driving, "ground_run", counting_run)
    for entry, counts in COUNTED:
        drives.clear()
        grounds.clear()
        runs.clear()
        graph, report = supercompile(*entry)
        assert (report.drive_steps, report.ground_steps,
                report.transient_steps, report.node_count) == counts
        # every driven configuration counts once, by drive_step or as a
        # ground step, whether ground_step or ground_run took it
        assert report.drive_steps == len(drives) + len(grounds)
        assert report.ground_steps == len(grounds)
        assert report.ground_runs == len(runs)
        branches = [n for n in graph.nodes if n.branch is not None]
        assert report.transient_steps == sum(n.branch.steps - 1
                                             for n in branches)
        # each pivot and transient node was driven, and so was each
        # compressed step and each active child whose drive ended a chain
        driven = sum(n.kind in (KIND_PIVOT, KIND_TRANSIENT)
                     for n in graph.nodes)
        ends = sum(n.config.is_active() for n in branches)
        assert report.drive_steps == driven + report.transient_steps + ends


def test_matcher_entry_rejects_empty_pattern():
    from miniscp.interpreter import EmptyPatternError
    with pytest.raises(EmptyPatternError):
        matcher_entry("")


@pytest.mark.parametrize("text, pairs, error", [
    ("T", (), scp.ScpError),
    ('S("ab", #y, #z)', (), scp.ScpError),
    ('G("ab", #y)', (), syntax.ValidationError),
    ('S("ab", \'b\':#y)', [(Sym("a"), Sym("a"))], scp.ScpError),
], ids=["passive", "arity", "undefined", "unsatisfiable"])
def test_supercompile_refuses_an_entry_it_cannot_drive(monkeypatch, text,
                                                       pairs, error):
    # the one check of the entry: nothing is driven before it refuses
    def no_drive(*args):
        raise AssertionError("drove a configuration the entry check refuses")
    monkeypatch.setattr(scp, "drive_step", no_drive)
    entry = Config(parse_expression(text), restriction(pairs))
    with pytest.raises(error):
        supercompile(naive_matcher(), entry)


def test_supercompile_checks_the_entry_once():
    # the entry's arguments are the only expressions checked for calls:
    # every configuration driven from them keeps that form, the program
    # being in tail form since it was built
    real, seen = syntax.is_passive, []

    def counting(expr):
        seen.append(expr)
        return real(expr)

    modules = [m for name, m in sys.modules.items()
               if name.startswith("miniscp")
               and getattr(m, "is_passive", None) is real]
    assert scp in modules
    with pytest.MonkeyPatch.context() as mp:
        for m in modules:
            mp.setattr(m, "is_passive", counting)
        program, entry = matcher_entry("a" * 20)
        _, report = supercompile(program, entry)
    assert seen == list(entry.expr.args)
    assert report.node_count > 20
    for bad in (TRUE, Call("S", (Call("S", (word("a"), NIL)), NIL))):
        with pytest.raises(scp.ScpError, match="call with passive"):
            supercompile(program, Config(bad))


def test_matcher_entry_accepts_long_patterns():
    # supercompile's check that the entry's arguments are passive walks
    # the whole pattern word, in a loop, so long words are safe
    program, entry = matcher_entry("a" * 3000)
    assert unword(entry.expr.args[0]) == "a" * 3000
    assert syntax.is_passive(entry.expr.args[0])
