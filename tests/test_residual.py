import itertools
import random

import pytest

from miniscp.configs import EMPTY, alpha_equivalent, make_config, restriction
from miniscp.driving import Branch
from miniscp.interpreter import (
    NAIVE_MATCHER_SOURCE, StuckTermError, UnsupportedNarrowingError,
    eval_call, naive_matcher,
)
from miniscp.residual import (
    ResidualError, render_residual, residualize, structural_report,
)
from miniscp.scp import specialize_pattern, supercompile
from miniscp.syntax import (
    Call, Cons, FALSE, Nil, Sym, SymParam, SymVar, TRUE, chain, params_of,
    parse_expression, parse_program, spine, substitute, word,
)
from miniscp.harness import _automaton_facts


def rule_shapes(program, name):
    """(lhs pattern kinds, rhs target) per rule, ignoring variable names."""
    out = []
    for rule in program.rules(name):
        pk = []
        for p in rule.lhs:
            if isinstance(p, Cons):
                head = p.head
                pk.append(f"'{head.ch}':_" if isinstance(head, Sym) else "s:_")
            elif isinstance(p, Nil):
                pk.append("Nil")
            elif isinstance(p, Sym):
                pk.append(f"'{p.ch}'")
            elif isinstance(p, SymVar):
                pk.append("s")
            else:
                pk.append("_")
        if rule.rhs == TRUE:
            tgt = "T"
        elif rule.rhs == FALSE:
            tgt = "F"
        else:
            tgt = rule.rhs.fn
        out.append((tuple(pk), tgt))
    return out


def test_single_letter_residual_shape():
    rp = residualize(specialize_pattern("a")[0])
    assert [n for n, _ in rp.program.functions] == ["F_0"]
    assert rule_shapes(rp.program, "F_0") == [
        (("'a':_",), "T"),
        (("s:_",), "F_0"),
        (("Nil",), "F"),
    ]
    assert rp.entry == "F_0"


def test_aab_residual_shape(aab):
    prog = aab.residual.program
    assert len(prog.functions) == 4
    names = [n for n, _ in prog.functions]
    # the matched-"aa" state dispatches into the fallback with the read
    # symbol; the fallback re-dispatches without consuming
    assert rule_shapes(prog, names[2]) == [
        (("'b':_",), "T"),
        (("s:_",), names[3]),
        (("Nil",), "F"),
    ]
    assert rule_shapes(prog, names[3]) == [
        (("'a'", "_"), names[2]),
        (("s", "_"), names[0]),
    ]


def test_function_count_matches_pivots_and_provenance(aab, ababa):
    for art in (aab, ababa):
        rp = art.residual
        assert len(rp.program.functions) == len(art.report.pivots)
        assert len(rp.provenance) == len(art.report.pivots)
        for (name, _), pivot in zip(rp.program.functions, art.report.pivots):
            assert alpha_equivalent(rp.provenance[name], pivot)


def test_structural_reports(artifacts):
    for pattern in ("a", "aab", "ababa"):
        rp = artifacts(pattern).residual
        rep = structural_report(rp.program)
        assert rep.constants_in_rhs == 0
        assert rep.repeated_params_in_rhs == 0
        assert rep.max_lhs_cons_depth <= 1
    assert structural_report(
        artifacts("a").residual.program).max_lhs_cons_depth == 1


def test_naive_matcher_baseline_repeats_variables():
    rep = structural_report(naive_matcher())
    assert rep.repeated_params_in_rhs >= 1


def test_tail_form_and_bindings(artifacts):
    for pattern in ("ab", "aab", "abcabcaca"):
        prog = artifacts(pattern).residual.program
        for name, rules in prog.functions:
            for rule in rules:
                rhs = rule.rhs
                assert rhs in (TRUE, FALSE) or isinstance(rhs, Call)


def test_semantic_preservation_exhaustive(artifacts):
    for pattern in ("a", "ab", "aa", "aab", "aba"):
        art = artifacts(pattern)
        runner = art.residual.program.compiled
        alphabet = sorted(set(pattern)) + ["z"]
        for n in range(7):
            for tup in itertools.product(alphabet, repeat=n):
                y = "".join(tup)
                value, _ = runner.run(art.residual.entry, (y,))
                assert value == (pattern in y), (pattern, y)


def test_semantic_preservation_random_long(artifacts):
    rng = random.Random(99)
    for pattern in ("aab", "ababa"):
        art = artifacts(pattern)
        alphabet = sorted(set(pattern)) + ["z"]
        for _ in range(300):
            y = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, 200)))
            value, steps = art.residual.program.compiled.run(
                art.residual.entry, (y,))
            assert value == (pattern in y)
            assert steps <= 2 * len(y) + len(pattern) + 2


def test_engines_agree_on_residual_programs(artifacts):
    # the residual for "aab" exercises bare-symbol arguments (the fallback
    # function) in both evaluators
    from miniscp.interpreter import eval_reference
    art = artifacts("aab")
    prog = art.residual.program
    for y in ("", "a", "ab", "aab", "aaab", "aabab", "bbaab", "aaaaz"):
        call = Call(art.residual.entry, (word(y),))
        fast = eval_call(prog, call)
        slow = eval_reference(prog, call)
        assert (fast.value, fast.steps) == (slow.value, slow.steps), y


def test_single_letter_residual_step_count(artifacts):
    art = artifacts("a")
    for y in ("", "b", "bbb", "b" * 17):
        value, steps = art.residual.program.compiled.run("F_0", (y,))
        assert value is False
        assert steps == len(y) + 1


def test_rendered_residual_reloads(aab):
    text = render_residual(aab.residual)
    prog = parse_program(text)
    out = eval_call(prog, Call("F_0", (word("aaab"),)))
    assert out.value == TRUE


def test_transitions_compose_fallbacks(aab):
    # F_2 falls back, holding the letter, to state 1, and from there to the
    # scan: the failure table's fallback for the state that reads 'b'
    assert _automaton_facts(aab) == {
        "F_0": (0, None), "F_1": (1, None), "F_2": (2, None),
        "F_3": (1, frozenset("b"))}


def test_residualize_rejects_diagnostic_graphs():
    prog = parse_program(
        "G { 'a':y, z = G(y, 'a':z); Nil, z = T; s.c:y, z = F; }")
    entry = make_config(parse_expression("G(#w, #v)"))
    graph, _ = supercompile(prog, entry)
    with pytest.raises(ResidualError, match="diagnostic"):
        residualize(graph)


def _relabel(node, **fields):
    b = node.branch
    node.branch = Branch(**{f: fields.get(f, getattr(b, f))
                            for f in b._fields})


def _first_diseq_edge(graph):
    return next(n for n in graph.nodes
                if n.branch is not None and n.branch.added.diseqs)


def _strip_diseqs(graph):
    _relabel(_first_diseq_edge(graph), added=EMPTY)


def _narrow_deeper(graph):
    # #y -> 'a':#y1 becomes #y -> 'a':#s.deep:#y1 on the root's first edge
    first = graph.nodes[graph.nodes[graph.root].children[0]]
    (p, image), = first.branch.subst
    heads, end = spine(image)
    _relabel(first, subst=((p, chain(heads + [SymParam("deep")], end)),))


def _reverse_children(graph):
    graph.nodes[graph.root].children.reverse()


def _add_diseq(graph):
    node = _first_diseq_edge(graph)
    (t1, t2), = node.branch.added.diseqs
    param = t1 if isinstance(t1, SymParam) else t2
    _relabel(node, added=restriction([(t1, t2), (param, Sym("z"))]))


@pytest.mark.parametrize("pattern", ["aab", "abcabcacab"])
@pytest.mark.parametrize("fault", [_strip_diseqs, _narrow_deeper,
                                   _reverse_children, _add_diseq])
def test_rule_order_check_refuses_injected_faults(pattern, fault):
    graph, _ = specialize_pattern(pattern)
    residualize(graph)
    fault(graph)
    with pytest.raises(ResidualError):
        residualize(graph)


# Tail-form programs other than the built-in matcher, with entries of one
# dynamic list parameter
OTHER_PROGRAMS = [
    ("F { s.a:x, s.a:y = F(x, y); s.a:x, s.b:y = F; Nil, y = T; "
     "s.a:x, Nil = F; }", 'F("aab", #w)'),
    (NAIVE_MATCHER_SOURCE.replace("S", "Scan").replace("L", "Cmp"),
     'Scan("abab", #y)'),
    ("E { Nil, Nil = T; Nil, s.a:y = F; s.a:p, Nil = F; "
     "s.a:p, s.a:y = E(p, y); s.a:p, s.b:y = F; }", 'E("ab", #y)'),
    ("G { 'a':y, z = G(y, 'a':z); Nil, z = T; s.c:y, z = F; }",
     'G("aab", #v)'),
    ("K { 'a':y = K(y); 'b':y = K(y); 'c':y = T; Nil = F; }", "K(#y)"),
    ("M { Nil = F; 'x':y = T; s.c:y = M(y); }", "M(#y)"),
]


def _value_or_stuck(program, call):
    try:
        return eval_call(program, call).value
    except StuckTermError:
        return "stuck"


@pytest.mark.parametrize("source, entry", OTHER_PROGRAMS)
def test_residualize_beyond_the_builtin_matcher(source, entry):
    program = parse_program(source)
    cfg = make_config(parse_expression(entry))
    rp = residualize(supercompile(program, cfg)[0])
    (param,) = params_of(cfg.expr)
    checked = 0
    for n in range(6):
        for letters in itertools.product("abx", repeat=n):
            y = word("".join(letters))
            assert _value_or_stuck(program, substitute(cfg.expr, {param: y})) \
                == _value_or_stuck(rp.program, Call(rp.entry, (y,))), y
            checked += 1
    assert checked == 364


def test_two_unknown_letters_are_refused_typed():
    program = parse_program(
        "H { 'a':x, 'b':y = H(x, y); Nil, Nil = T; x, y = F; }")
    with pytest.raises(UnsupportedNarrowingError):
        supercompile(program, make_config(parse_expression("H(#u, #v)")))
