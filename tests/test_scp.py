import itertools
import random

import pytest

from miniscp import driving, scp
from miniscp.configs import (
    alpha_equivalent, covers, make_config, restriction,
)
from miniscp.driving import drive_step
from miniscp.harness import replay_graph
from miniscp.interpreter import naive_search
from miniscp.scp import (
    KIND_DIAGNOSTIC, KIND_FOLDED, KIND_PASSIVE, KIND_PIVOT, KIND_TRANSIENT,
    NodeBudgetError, _embed, embeds, first_path, first_path_pivots,
    graph_lines, matcher_entry, specialize_pattern, supercompile,
)
from miniscp.syntax import (
    Cons, ListParam, NIL, Nil, Sym, SymParam, TRUE, parse_expression,
    parse_program, unword, word,
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
    grows = parse_program("F { x = F('a':x); }")
    with pytest.raises(DriveError, match="grows without bound"):
        supercompile(grows, entry)
    loops = parse_program("F { x = G(x); } G { x = F(x); }")
    with pytest.raises(DriveError, match="step budget"):
        supercompile(loops, entry)


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
                assert (verdict == TRUE) == naive_search(pattern, s), \
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


def test_report_counts_drives_and_transient_steps(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return drive_step(*args, **kwargs)

    monkeypatch.setattr(driving, "drive_step", counting)
    monkeypatch.setattr(scp, "drive_step", counting)
    graph, report = specialize_pattern("a" * 12)
    assert report.drive_steps == len(calls) == 719
    branches = [n for n in graph.nodes if n.branch is not None]
    assert report.transient_steps == sum(len(n.branch.chain)
                                         for n in branches)
    # each pivot and transient node was driven, and so was each compressed
    # step and each active child whose drive ended a chain
    driven = sum(n.kind in (KIND_PIVOT, KIND_TRANSIENT) for n in graph.nodes)
    ends = sum(n.config.is_active() for n in branches)
    assert report.drive_steps == driven + report.transient_steps + ends


def test_matcher_entry_rejects_empty_pattern():
    from miniscp.interpreter import EmptyPatternError
    with pytest.raises(EmptyPatternError):
        matcher_entry("")


def test_matcher_entry_accepts_long_patterns():
    # checking that the entry is passive walks the whole pattern word
    program, entry = matcher_entry("a" * 3000)
    assert unword(entry.expr.args[0]) == "a" * 3000
