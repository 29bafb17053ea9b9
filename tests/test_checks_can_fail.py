"""The verification facets must reject broken inputs, not just accept good
ones.  Each test hands a check something subtly wrong and expects a failure.
"""

import random

import pytest

from miniscp import driving, harness
from miniscp.configs import covers, make_config
from miniscp.harness import (
    CheckFailure, Corpus, _automaton_facts, _chains, _first_path_facts,
    _restart_facts, artifacts, replay_graph, verify_pattern,
)
from miniscp.residual import (
    ResidualProgram, structural_report, transition,
)
from miniscp.scp import Node, ProcessGraph, first_path, specialize_pattern
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


def test_automaton_check_rejects_swapped_rules():
    art = artifacts("ab")
    broken = ResidualProgram(_swap_entry_rules(art.residual.program),
                             art.residual.provenance, art.residual.entry)
    fake = PatternArtifacts("ab", art.graph, art.report, broken)
    with pytest.raises(CheckFailure):
        _automaton_facts(fake)


def test_first_path_check_rejects_wrong_pattern():
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
    from miniscp.residual import ResidualError
    with pytest.raises(ResidualError):
        transition(rp, "F_0", "a")


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
    assert not report.equivalence_ok and not report.linearity_ok
    assert report.failures == ("linearity: oracle comparisons 11 on |y|=3",)


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
                          driving.Branch(b.narrowing, b.child, b.steps + delta),
                          n.children, n.fold)
    return PatternArtifacts(art.pattern, ProcessGraph(nodes, art.graph.root),
                            art.report, art.residual)


def test_rebuilt_chains_hold_every_compressed_configuration():
    art = artifacts("aab")
    configs = [c for _, c in _chains(art.graph, _edges(art))]
    assert len(configs) == art.report.transient_steps == 11
    assert sum(covers(HELD_AAB, c) is not None for c in configs) == 2


@pytest.mark.parametrize("delta", (-1, 1))
def test_first_path_check_rebuilds_the_chain_into_t(delta):
    art = artifacts("aab")
    leaf = first_path(art.graph)[-1]
    _first_path_facts(art)
    with pytest.raises(CheckFailure, match="re-driving"):
        _first_path_facts(_with_steps(art, leaf, delta))


@pytest.mark.parametrize("delta", (-1, 1))
def test_restart_check_rebuilds_held_symbol_chains(delta):
    art = artifacts("aab")
    held = next(i for i, c in _chains(art.graph, _edges(art))
                if covers(HELD_AAB, c) is not None)
    _restart_facts(art)
    with pytest.raises(CheckFailure, match="re-driving"):
        _restart_facts(_with_steps(art, held, delta))


def test_rebuild_catches_a_ground_step_one_step_too_far(monkeypatch):
    # a ground step that lands one configuration beyond the one it counts
    # builds edges whose step counts are one short; re-driving with
    # drive_step alone overshoots them.  (The edge into T cannot show it:
    # its last step, L(Nil, ...) to T, has nothing beyond it.)
    real = driving.ground_step

    def too_far(program, cfg):
        b = real(program, cfg)
        if b is None or not b.child.is_active():
            return b
        b2 = real(program, b.child)
        return b if b2 is None else driving.Branch(b.narrowing, b2.child,
                                                   b.steps)

    monkeypatch.setattr(driving, "ground_step", too_far)
    art = artifacts.__wrapped__("aab")
    monkeypatch.undo()
    good = artifacts("aab")
    assert art.report.transient_steps < good.report.transient_steps
    _first_path_facts(art)
    with pytest.raises(CheckFailure, match="re-driving"):
        _restart_facts(art)
