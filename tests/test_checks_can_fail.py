"""The verification facets must reject broken inputs, not just accept good
ones.  Each test hands a check something subtly wrong and expects a failure.
Edges whose step count is off by one, and a ground step that lands one
configuration too far, must fail the facets that re-drive compressed
chains (`harness._chains`).
"""

import random

import pytest

from miniscp import driving, harness
from miniscp.configs import covers, make_config
from miniscp.harness import (
    CheckFailure, Corpus, _automaton_facts, _chains, _first_path_facts,
    _restart_facts, record_line, replay_graph, verify_pattern,
)
from miniscp.interpreter import CompiledProgram, naive_matcher
from miniscp.residual import (
    ResidualProgram, StructuralReport, render_residual, structural_report,
)
from miniscp.scp import (
    KIND_PASSIVE, Node, ProcessGraph, first_path, specialize_pattern,
)
from miniscp.syntax import (
    Call, Cons, ListParam, Program, SymParam, parse_program, word,
)
from miniscp.harness import PatternArtifacts


def _swap_entry_rules(program: Program) -> Program:
    """Reorder the entry function's first two rules (breaks the disequality
    encoding)."""
    (name, rules), *rest = program.functions
    swapped = (rules[1], rules[0]) + rules[2:]
    return Program(((name, swapped),) + tuple(rest))


def test_structural_check_sees_constants():
    # a residual-shaped program that smuggles a constant into a call
    bad = parse_program("F_0 { 'a':y = F_0('a':y); Nil = F; s.c:y = F_0(y); }")
    rep = structural_report(bad)
    assert rep.constants_in_rhs >= 1


def test_structural_check_sees_repeats():
    bad = parse_program("G { s.a:y = H(y, y); Nil = F; } "
                        "H { x, y = T; }")
    rep = structural_report(bad)
    assert rep.repeated_params_in_rhs >= 2


def test_structural_check_sees_deep_patterns():
    bad = parse_program("F_0 { 'a':'b':y = T; s.c:y = F_0(y); Nil = F; }")
    rep = structural_report(bad)
    assert rep.max_lhs_cons_depth == 2


def test_automaton_check_rejects_swapped_rules(artifacts):
    art = artifacts("ab")
    broken = ResidualProgram(_swap_entry_rules(art.residual.program),
                             art.residual.provenance, art.residual.entry)
    fake = PatternArtifacts("ab", art.graph, art.report, broken)
    with pytest.raises(CheckFailure):
        _automaton_facts(fake)


def test_first_path_check_rejects_wrong_pattern(artifacts):
    # the graph for "ab" does not satisfy the expectations for "ba"
    art = artifacts("ab")
    fake = PatternArtifacts("ba", art.graph, art.report, art.residual)
    with pytest.raises(CheckFailure):
        _first_path_facts(fake)


def test_transition_walk_rejects_rejecting_symbol_rules():
    bad = parse_program("F_0 { 'a':y = F; s.c:y = F_0(y); Nil = F; }")
    rp = ResidualProgram(
        bad, {"F_0": make_config(Call("S", (word("a"), ListParam("y"))))},
        "F_0")
    with pytest.raises(CheckFailure, match=r"^F_0 \(state 0\): rule 0 "
                       r"\('a':y = F;\) is not the move on 'a' to T$"):
        _automaton_facts(PatternArtifacts("a", None, None, rp))


def _edited(art, old, new):
    """`art` with its residual's text edited, `old` (found once) replaced
    by `new`; a function the edit adds has no provenance."""
    rp = art.residual
    text = render_residual(rp)
    assert text.count(old) == 1, old
    program = parse_program(text.replace(old, new))
    return PatternArtifacts(art.pattern, art.graph, art.report,
                            ResidualProgram(program, rp.provenance, rp.entry))


def test_automaton_check_rejects_a_graph_read_for_another_pattern(artifacts):
    art = artifacts("aab")
    _automaton_facts(art)
    with pytest.raises(CheckFailure, match=r"^F_1 \(state 1\): rule 0 "
                       r"\('a':y7 = F_2\(y7\);\) is not the move on 'b' to "
                       r"state 2$"):
        _automaton_facts(PatternArtifacts("aba", art.graph, art.report,
                                          art.residual))


# pattern, a residual text edit (old, new), and the facet's message
EDITS = {
    "nil-accepts": ("aab", ("F_0(y2);\n  Nil = F;", "F_0(y2);\n  Nil = T;"),
                    r"^F_0 \(state 0\): rule 2 \(Nil = T;\) is not Nil = F$"),
    "extra-letter": ("aab", ("'a':y1 = F_1(y1);",
                             "'a':y1 = F_1(y1);\n  'z':y1 = F_1(y1);"),
                     r"^F_0 \(state 0\) has 4 rules$"),
    # F_2 holds a letter other than 'b' in state 0; on 'a' it moves to F_3,
    # a copy of F_1, so that two functions take letters in state 1
    "second-taker": ("ab", ("'a', y8 = F_1(y8);\n  s.c8, y8 = F_0(y8);\n}",
                            "'a', y8 = F_3(y8);\n  s.c8, y8 = F_0(y8);\n}\n"
                            "F_3 { 'b':y = T; s.c:y = F_2(s.c, y); Nil = F; }"),
                     r"^F_1 and F_3 both take letters in state 1$"),
    "unreached": ("ab", ("s.c8, y8 = F_0(y8);\n}",
                         "s.c8, y8 = F_0(y8);\n}\nG { y = F_0(y); }"),
                  r"^G unreachable from F_0$"),
}


@pytest.mark.parametrize("edit", EDITS)
def test_automaton_check_rejects_an_edited_residual(edit, artifacts):
    pattern, (old, new), message = EDITS[edit]
    art = artifacts(pattern)
    _automaton_facts(art)
    with pytest.raises(CheckFailure, match=message):
        _automaton_facts(_edited(art, old, new))


def test_verify_refuses_a_residual_that_reads_a_letter_outside_the_sweep(
        monkeypatch):
    # F_0's extra rule 'z':y1 = F_1(y1) makes the residual answer T on
    # "zab"; the sweep alphabet of aab is "abc", so only the automaton facet
    # can see it
    real = harness.artifacts
    _, edit, _ = EDITS["extra-letter"]
    monkeypatch.setattr(harness, "artifacts",
                        lambda pattern: _edited(real(pattern), *edit))
    art = harness.artifacts("aab")
    assert art.residual.program.compiled.run("F_0", ("zab",))[0] is True
    report = verify_pattern("aab", Corpus(("aab",), seed=7))
    assert [f for f, ok in report.verdicts.items() if not ok] == ["automaton"]
    assert report.failures == ("automaton: F_0 (state 0) has 4 rules",)


def test_sweep_fails_on_an_oracle_that_miscounts_one_exhaustive_string(
        monkeypatch):
    corpus = Corpus(("ab",), exhaustive_len=3, random_count=5,
                    random_max_len=10, seed=7)
    assert verify_pattern("ab", corpus).ok
    real = harness.oracle_levels

    def miscounted(pattern, alpha, depth):
        for k, (found, comparisons) in enumerate(real(pattern, alpha, depth)):
            # exhaustive string 20 is "acb": 4 comparisons, at most 6 allowed
            yield found, comparisons + (7 if k == 20 else 0)

    monkeypatch.setattr(harness, "oracle_levels", miscounted)
    report = verify_pattern("ab", corpus)
    assert not report.verdicts["equivalence"] \
        and not report.verdicts["linearity"]
    # both facets that rely on the oracle fail, each with its own line
    assert report.failures == ("equivalence: oracle comparisons 11 on |y|=3",
                               "linearity: oracle comparisons 11 on |y|=3")


# --- each facet fails alone, through verify_pattern -------------------------

def _break_first_path(mp):
    real = harness.expected_path_pivots
    mp.setattr(harness, "expected_path_pivots", lambda p: real(p)[:-1])


def _break_restart(mp):
    # only the restart facet asks which function heads a configuration
    mp.setattr(harness, "head_fn", lambda cfg: "S")


def _break_covering(mp):
    real = harness.artifacts

    def whistled(pattern):
        art = real(pattern)
        art.report.generalizations_attempted = 1
        return art

    mp.setattr(harness, "artifacts", whistled)


def _break_structural(mp):
    mp.setattr(harness, "structural_report",
               lambda program: StructuralReport(1, 0, 1))


def _break_equivalence(mp):
    real, flipped = harness.kmp_search, []

    def search(pattern, y):
        found, comparisons = real(pattern, y)
        if not flipped:
            flipped.append(y)
            found = not found
        return found, comparisons

    mp.setattr(harness, "kmp_search", search)


def _break_linearity(mp):
    real = CompiledProgram.run
    naive = naive_matcher().compiled

    def inflated(self, entry, args, *fuel):
        value, steps = real(self, entry, args, *fuel)
        return value, steps if self is naive else 3 * steps + 10

    mp.setattr(CompiledProgram, "run", inflated)


def _break_automaton(mp):
    mp.setattr(harness, "failure_table", lambda p: (0,) * (len(p) + 1))


# facet -> what breaks the one input only it reads, in record-line order
BREAKS = {
    "first_path": _break_first_path,
    "restart": _break_restart,
    "covering": _break_covering,
    "structural": _break_structural,
    "equivalence": _break_equivalence,
    "linearity": _break_linearity,
    "automaton": _break_automaton,
}


@pytest.mark.parametrize("facet", BREAKS)
def test_each_facet_fails_alone_with_one_line_naming_it(facet, monkeypatch):
    corpus = Corpus(("aab",), exhaustive_len=3, random_count=5,
                    random_max_len=10, seed=7)
    BREAKS[facet](monkeypatch)
    report = verify_pattern("aab", corpus)
    flags = dict(f.split("=") for f in record_line(report).split()[1:8])
    assert list(flags) == list(BREAKS)
    assert [f for f, flag in flags.items() if flag == "FAIL"] == [facet]
    assert not report.ok
    assert len(report.failures) == 1, report.failures
    assert report.failures[0].startswith(f"{facet}: "), report.failures


def test_replay_detects_overlapping_branches():
    # duplicate the first branch of the root: two branches now admit the
    # same instances, which replay must flag
    graph, _ = specialize_pattern("ab")
    root = graph.nodes[graph.root]
    root.children = [root.children[0]] + root.children
    with pytest.raises(CheckFailure, match="branches admit"):
        replay_graph(graph, {ListParam("y"): word("ab")})


def test_differential_driving_on_random_patterns():
    """Replaying the process graph must agree with the interpreter on random
    patterns and strings (exhaustive small strings would be too slow here)."""
    from miniscp.interpreter import naive_outcome
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randint(1, 8)
        pattern = "".join(rng.choice("abc") for _ in range(n))
        graph, report = specialize_pattern(pattern)
        assert report.generalizations_attempted == 0, pattern
        alphabet = sorted(set(pattern)) + ["d"]
        for _ in range(40):
            y = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, 30)))
            verdict = replay_graph(graph, {ListParam("y"): word(y)})
            assert verdict == naive_outcome(pattern, y).value, (pattern, y)


# --- compressed chains, rebuilt by re-driving --------------------------------

HELD_AAB = make_config(Call("S", (word("aab"),
                                  Cons(SymParam("c"), ListParam("y")))))


def _edges(art):
    return [i for i, n in enumerate(art.graph.nodes) if n.branch is not None]


def _with_steps(art, node_id, delta):
    """A copy of `art` whose edge into `node_id` claims `delta` more steps."""
    nodes = list(art.graph.nodes)
    n = nodes[node_id]
    b = n.branch
    nodes[node_id] = Node(n.config, n.kind, n.parent,
                          driving.Branch(b.subst, b.added, b.rule_index,
                                         b.child, b.steps + delta),
                          n.children, n.fold)
    return PatternArtifacts(art.pattern, ProcessGraph(nodes, art.graph.root),
                            art.report, art.residual)


def test_rebuilt_chains_hold_every_compressed_configuration(artifacts):
    art = artifacts("aab")
    configs = [c for _, c in _chains(art.graph, _edges(art))]
    assert len(configs) == art.report.transient_steps == 11
    assert sum(covers(HELD_AAB, c) is not None for c in configs) == 2


@pytest.mark.parametrize("delta", (-1, 1))
def test_first_path_check_rebuilds_the_chain_into_t(delta, artifacts):
    art = artifacts("aab")
    leaf = first_path(art.graph)[-1]
    _first_path_facts(art)
    with pytest.raises(CheckFailure, match="re-driving"):
        _first_path_facts(_with_steps(art, leaf, delta))


@pytest.mark.parametrize("delta", (-1, 1))
def test_restart_check_rebuilds_held_symbol_chains(delta, artifacts):
    art = artifacts("aab")
    held = next(i for i, c in _chains(art.graph, _edges(art))
                if covers(HELD_AAB, c) is not None)
    _restart_facts(art)
    with pytest.raises(CheckFailure, match="re-driving"):
        _restart_facts(_with_steps(art, held, delta))


def test_rebuild_catches_a_ground_step_one_step_too_far(monkeypatch,
                                                        artifacts):
    # a ground step that lands one configuration beyond the one it counts
    # builds edges whose step counts are one short; re-driving with
    # drive_step alone overshoots them.  (The edge into T cannot show it:
    # its last step, L(Nil, ...) to T, has nothing beyond it.)
    real = driving.ground_step

    def too_far(program, cfg):
        child = real(program, cfg)
        if child is None or not child.is_active():
            return child
        beyond = real(program, child)
        return child if beyond is None else beyond

    monkeypatch.setattr(driving, "ground_step", too_far)
    art = harness.artifacts("aab")
    monkeypatch.undo()
    good = artifacts("aab")
    assert art.report.transient_steps < good.report.transient_steps
    _first_path_facts(art)
    with pytest.raises(CheckFailure, match="re-driving"):
        _restart_facts(art)


def test_restart_chase_reports_a_bad_fallback_branch(monkeypatch):
    # aab's pivot 4 falls back to pivot 8, which restarts at node 11: break
    # either, with the compressed-chain check (which sees node 11 first)
    # left out, and the chase from the L-pivots names it
    monkeypatch.setattr(harness, "_chains", lambda graph, ids: iter(()))
    art = harness.artifacts("aab")
    _restart_facts(art)
    nodes = art.graph.nodes
    assert nodes[4].children[1] == 8 and nodes[8].children[1] == 11
    nodes[11].kind = KIND_PASSIVE
    with pytest.raises(CheckFailure, match=r"^mismatch branch reached a "
                       r"passive node \(⟨S\(\"aab\", #y14\)⟩\)$"):
        _restart_facts(art)
    art = harness.artifacts("aab")
    art.graph.nodes[8].config = art.graph.nodes[art.graph.root].config
    with pytest.raises(CheckFailure, match=r"^mismatch branch reached "
                       r"unexpected pivot ⟨S\(\"aab\", #y\)⟩$"):
        _restart_facts(art)
