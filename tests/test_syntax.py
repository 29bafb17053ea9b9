import random
import re
import tracemalloc
from collections import Counter

import pytest

from miniscp.configs import make_config, restriction
from miniscp.syntax import (
    Call, Cons, FALSE, ListParam, ListVar, NIL, Nil, NonTailError,
    ParseError, Program, Rule, Sym, SymParam, SymVar, TRUE, ValidationError,
    Word, chain,
    params_of, parse_expression, parse_program, render, render_expr,
    render_pattern, render_rule, spine, substitute, subterms, unword, word,
    word_cells,
)
from miniscp.interpreter import NAIVE_MATCHER_SOURCE, eval_call


def test_parse_naive_matcher_shape():
    prog = parse_program(NAIVE_MATCHER_SOURCE)
    names = [n for n, _ in prog.functions]
    assert names == ["S", "L"]
    assert len(prog.rules("S")) == 3
    assert len(prog.rules("L")) == 4
    # first rule of S: s.a:p, s.a:y = L(s.a:p, s.a:y, s.a:p, y);
    r0 = prog.rules("S")[0]
    sa, p, y = SymVar("a"), ListVar("p"), ListVar("y")
    assert r0.lhs == (Cons(sa, p), Cons(sa, y))
    assert r0.rhs == Call("L", (Cons(sa, p), Cons(sa, y), Cons(sa, p), y))
    # last rule of L rewrites to T
    assert prog.rules("L")[-1].rhs == TRUE


def test_minimal_program():
    prog = parse_program("F { Nil = T; }")
    assert [n for n, _ in prog.functions] == ["F"]
    assert prog.rules("F") == (Rule((NIL,), TRUE),)


def test_unbound_rhs_variable_rejected():
    with pytest.raises(ValidationError, match="unbound"):
        parse_program("F { x = y; }")


def test_arity_mismatch_rejected():
    with pytest.raises(ValidationError, match="arity"):
        parse_program("F { Nil = T; Nil, Nil = F; }")


def test_undefined_call_rejected():
    with pytest.raises(ValidationError, match="undefined"):
        parse_program("F { x = G(x); }")


def test_call_arity_checked():
    with pytest.raises(ValidationError, match="does not match"):
        parse_program("F { x = F(x, x); }")


def test_parameter_in_rule_rejected():
    with pytest.raises(ValidationError, match="parameter"):
        parse_program("F { x = #y; }")


_X = ListVar("x")


@pytest.mark.parametrize("rules, message", [
    ([Rule((_X,), ListVar("y"))], "rhs variable y unbound in lhs"),
    ([Rule((_X,), Cons(SymVar("c"), _X))], "rhs variable s.c unbound in lhs"),
    ([Rule((_X,), Cons(SymParam("c"), _X))],
     "parameter #s.c not allowed in a rule"),
    ([Rule((_X,), Call("G", (_X,)))], "call to undefined function G"),
    ([Rule((_X,), Call("F", (_X, _X)))],
     "call F/2 does not match definition F/1"),
    # patterns outside the grammar: a Word, which stands for cells but is
    # not one, cells ending in a symbol, and a parameter
    ([Rule((word("ab"),), TRUE), Rule((_X,), FALSE)],
     'pattern "ab" is not a symbol, nor symbol cells ending in Nil or a '
     'list variable'),
    ([Rule((Cons(Sym("a"), Sym("b")),), TRUE), Rule((_X,), FALSE)],
     "pattern 'a':'b' is not a symbol"),
    ([Rule((Cons(SymParam("c"), _X),), TRUE), Rule((_X,), FALSE)],
     "pattern #s.c:x is not a symbol"),
    # no rules, a rule without patterns, and unequal arities
    ([], "no rules, or a rule with no pattern"),
    ([Rule((), TRUE)], "no rules, or a rule with no pattern"),
    ([Rule((_X,), TRUE), Rule((_X, _X), TRUE)], "rule arity 2 != 1"),
])
def test_programs_outside_the_grammar_refused_when_built(rules, message):
    # built in code, not parsed: the constructor refuses each, so no
    # engine, specializer or residualizer meets one, also after a function
    # that calls F
    h = ("H", (Rule((_X,), Call("F", (_X,))),))
    for functions in ((("F", tuple(rules)),), (h, ("F", tuple(rules)))):
        with pytest.raises(ValidationError,
                           match=f"^function F: {re.escape(message)}") as exc:
            Program(functions)
        assert not isinstance(exc.value, NonTailError)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("F {\n  Nil = ;\n}")
    assert exc.value.line == 2


def test_pattern_ending_in_a_symbol_rejected():
    # a list pattern's spine ends in Nil or a list variable; a bare symbol is
    # a whole pattern only
    with pytest.raises(ParseError, match="'b'") as exc:
        parse_program("F {\n  y = F;\n  'a':'b' = T;\n}")
    assert (exc.value.line, exc.value.col) == (3, 7)
    with pytest.raises(ParseError, match="s.x") as exc:
        parse_program("G { s.x:'a':s.x, y = T; }")
    assert (exc.value.line, exc.value.col) == (1, 13)
    # whole-pattern symbols and cells ending in a list variable still parse
    parse_program("H { s.x, 'a':'b':y = T; 'a', y = F; }")


def test_duplicate_function_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_program("F { Nil = T; } F { Nil = F; }")


def test_programs_built_in_code_are_refused_as_their_text_is():
    # F, G, G, and a program of no functions: refused by the one validator,
    # as their rendered text is by the parser
    f = ("F", (Rule((ListVar("y"),), Call("G", (ListVar("y"),))),))
    g = ("G", (Rule((NIL,), TRUE), Rule((Cons(SymVar("a"), ListVar("y")),),
                                        FALSE)))
    with pytest.raises(ValidationError, match="^duplicate function G$"):
        Program((f, g, g))
    with pytest.raises(ValidationError, match="^duplicate function G$"):
        parse_program(render(Program((f, g))) + render(Program((g,))))
    with pytest.raises(ValidationError, match="^empty program$"):
        Program(())
    with pytest.raises(ValidationError, match="^empty program$"):
        parse_program("  -- nothing here\n")


def test_word_shorthand_desugars():
    assert parse_expression('"abc"') == word("abc")
    assert word("abc") == Cons(Sym("a"), Cons(Sym("b"), Cons(Sym("c"), NIL)))
    assert unword(word("abc")) == "abc"
    assert unword(Cons(SymParam("c"), NIL)) is None


def test_word_rejects_metacharacters():
    with pytest.raises(ValidationError):
        word("a:b")
    with pytest.raises(ValidationError):
        word("#")
    with pytest.raises(ValidationError):
        word('a"b')  # would break the quoted-word abbreviation
    with pytest.raises(ValidationError):
        Sym("ab")


def test_parse_expression_rejects_constants_inside_chains():
    # T/F are whole right-hand sides only, never list elements or tails
    with pytest.raises(ParseError):
        parse_expression("'a':T")
    with pytest.raises(ParseError):
        parse_expression("F:Nil")


def test_parse_expression_forms():
    assert parse_expression("#y") == ListParam("y")
    assert parse_expression("#s.c:#y") == Cons(SymParam("c"), ListParam("y"))
    assert parse_expression("'a':s.b:x") == \
        Cons(Sym("a"), Cons(SymVar("b"), ListVar("x")))
    assert parse_expression("T") == TRUE
    assert parse_expression("F") == FALSE
    assert parse_expression("S(\"ab\", #y)") == \
        Call("S", (word("ab"), ListParam("y")))


def test_round_trip_naive_matcher():
    prog = parse_program(NAIVE_MATCHER_SOURCE)
    assert parse_program(render(prog)) == prog


def test_render_is_canonical_after_one_pass():
    prog = parse_program(NAIVE_MATCHER_SOURCE)
    once = render(prog)
    assert render(parse_program(once)) == once


def test_render_one_rule_program():
    text = render(parse_program("F { Nil = T; }"))
    assert text == "F {\n  Nil = T;\n}\n"


def test_bare_atom_arguments_round_trip():
    src = "G { 'a', y = T; s.c, y = G(s.c, y); }"
    prog = parse_program(src)
    rule = prog.rules("G")[1]
    assert rule.lhs == (SymVar("c"), ListVar("y"))
    assert rule.rhs == Call("G", (SymVar("c"), ListVar("y")))
    assert parse_program(render(prog)) == prog


def test_comments_are_skipped():
    prog = parse_program("-- heading\nF { -- inline\n  Nil = T;\n}")
    assert prog.rules("F") == (Rule((NIL,), TRUE),)


def test_residual_text_round_trips_and_reevaluates(aab):
    from miniscp.residual import render_residual
    text = render_residual(aab.residual)
    reparsed = parse_program(text)
    assert reparsed == aab.residual.program
    call = Call(aab.residual.entry, (word("aaab"),))
    a = eval_call(aab.residual.program, call)
    b = eval_call(reparsed, call)
    assert (a.value, a.steps) == (b.value, b.steps)


def test_render_expr_uses_word_abbreviation():
    assert render_expr(word("aab")) == '"aab"'
    assert render_expr(Cons(Sym("a"), ListParam("y"))) == "'a':#y"
    assert render_expr(NIL) == "Nil"


def test_long_words_hash_and_compare():
    w, v = word("ab" * 2500), word("ab" * 2500)
    assert w is not v and w == v and not (w != v)
    assert hash(w) == hash(v)
    assert len({w, v}) == 1
    assert w != word("ab" * 2499 + "ba")
    assert w != word("ab" * 2500 + "a") and word("ab" * 2500 + "a") != w
    assert Cons(SymParam("c"), w) != Cons(Sym("c"), w)
    assert Call("G", (w,)) == Call("G", (v,))
    # the same words as cells, and as cells ending in a Word
    cells = word_cells("ab" * 2500)
    assert w == cells and cells == w and hash(w) == hash(cells)
    assert len({w, v, cells}) == 1
    mixed = Cons(Sym("a"), Cons(Sym("b"), word("ab" * 2499)))
    assert mixed == w and w == mixed and mixed == cells and cells == mixed
    assert hash(mixed) == hash(w)
    assert cells != word("ab" * 2499 + "ba") != cells
    assert mixed != word_cells("ab" * 2499 + "ba") != mixed
    assert word_cells("ab" * 2500 + "a") != w != word_cells("ab" * 2499)
    assert Call("G", (w,)) == Call("G", (cells,)) == Call("G", (mixed,))


def test_word_keeps_its_text_and_shares_its_letters():
    text = "abcab" * 40
    w = word(text)
    assert type(w) is Word and w.text is text
    assert unword(w) is text
    heads, end = spine(w)
    assert heads[0] is heads[3] and end is NIL  # one Sym per distinct letter
    # the same word built as cells, by word_cells or cell by cell, equals,
    # hashes and renders the same, and unword walks it
    cells = word_cells(text)
    assert cells.head is cells.tail.tail.tail.head
    assert cells == _chain([Sym(ch) for ch in text], NIL)
    assert w == cells and cells == w and hash(w) == hash(cells)
    assert repr(w) == repr(cells) == f'"{text}"'
    assert unword(cells) == text and unword(cells.tail) == text[1:]
    assert unword(Cons(Sym("x"), w)) == "x" + text
    assert unword(Cons(SymParam("c"), w)) is None
    assert Call("F", (w,)) == Call("F", (cells,))
    assert word("") is NIL and word_cells("") is NIL


def test_word_builds_no_cells():
    # one node however long the word: far below the ~54 MiB of 10^6 cells
    text = "ab" * 500_000
    tracemalloc.start()
    try:
        w = word(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unword(w) is text
    assert peak < 64 * 1024, peak
    with pytest.raises(ValidationError):
        word(text + ":")
    with pytest.raises(ValueError):
        Word("")


ALPHABETS = ("ab", "abc", "aé中ß", "xΩλ0", "0123456789")


def _random_text(rng) -> str:
    alphabet = rng.choice(ALPHABETS)
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 300)))


def _split(text: str):
    """The word as one cell ending in a Word, or Nil."""
    return Cons(Sym(text[0]), word(text[1:])) if text else NIL


def _constants(expr) -> Counter:
    return Counter(t.__class__ for t in subterms(expr)
                   if t.__class__ in (Sym, Nil))


def test_a_word_behaves_exactly_like_its_chain():
    rng = random.Random(23)
    atoms = [Sym("a"), Sym("é"), SymParam("c"), SymParam("d")]
    mapping = {SymParam("c"): Sym("b"), ListParam("y"): NIL}
    held = restriction([(SymParam("c"), Sym("a"))])
    for _ in range(400):
        text = _random_text(rng)
        w = word(text)
        # a cell prefix, some of whose heads are parameters, ending in w
        prefix = [rng.choice(atoms) for _ in range(rng.choice((0, 0, 1, 3)))]
        value, cells = chain(prefix, w), chain(prefix, word_cells(text))
        assert value == cells and cells == value
        assert not value != cells and not cells != value
        assert hash(value) == hash(cells) and repr(value) == repr(cells)
        assert spine(value) == spine(cells)
        assert unword(value) == unword(cells)
        assert params_of(value) == params_of(cells)
        assert substitute(w, mapping) is w
        out = substitute(value, mapping)
        assert out == substitute(cells, mapping)
        assert spine(out)[0][len(prefix):] == spine(w)[0]
        tail = out
        for _ in prefix:
            tail = tail.tail
        assert tail is w  # shared, not rebuilt
        assert _constants(value) == _constants(cells)
        # inside a call and a configuration
        call_v = Call("F", (value, ListParam("y")))
        call_c = Call("F", (cells, ListParam("y")))
        assert call_v == call_c and hash(call_v) == hash(call_c)
        cfg_v, cfg_c = make_config(call_v, held), make_config(call_c, held)
        assert cfg_v == cfg_c and cfg_c == cfg_v and hash(cfg_v) == hash(cfg_c)
        assert repr(cfg_v) == repr(cfg_c)
        # equal to the prefix ending in the word split after its first
        # letter, and unequal to the prefix ending in any other word, in
        # each form and both ways
        assert value == chain(prefix, _split(text)) == cells
        other = text[:-1] + ("a" if text[-1] != "a" else "b")
        for wrong in (other, text + text[-1], text[:-1], text[1:]):
            for form in (word(wrong), word_cells(wrong), _split(wrong)):
                theirs = chain(prefix, form)
                for mine in (value, cells):
                    assert mine != theirs and theirs != mine
                    assert not mine == theirs and not theirs == mine


def test_params_of_first_occurrence_order():
    e = parse_expression(
        'L(#s.c:"ab", #s.d:#s.c:#y, #y, #s.e:#z, #s.d:#w)')
    assert params_of(e) == [SymParam("c"), SymParam("d"), ListParam("y"),
                            SymParam("e"), ListParam("z"), ListParam("w")]
    assert params_of(word("a" * 5000)) == []
    assert params_of(ListParam("y")) == [ListParam("y")]


def test_substitute_shares_what_it_leaves_unchanged():
    lit = word("abc" * 100)
    e = Call("L", (lit, Cons(SymParam("c"), ListParam("y")),
                   Cons(Sym("a"), lit)))
    assert substitute(e, {ListParam("z"): NIL}) is e
    out = substitute(e, {ListParam("y"): lit})
    assert out.args[0] is lit and out.args[2] is e.args[2]
    assert out.args[1] == Cons(SymParam("c"), lit)
    assert out.args[1].tail is lit
    renamed = substitute(e, {SymParam("c"): SymParam("d")})
    assert renamed.args[1] == Cons(SymParam("d"), ListParam("y"))


def _chain(heads, end):
    out = end
    for h in reversed(heads):
        out = Cons(h, out)
    return out


def test_render_expr_long_open_chain():
    # 3000 cells ending in a parameter: not a word, printed cell by cell
    # (RecursionError when the printer recursed along the spine)
    e = _chain([Sym("a")] * 3000, ListParam("y"))
    assert render_expr(e) == "'a':" * 3000 + "#y"
    assert render_expr(Call("S", (e,))) == "S(" + "'a':" * 3000 + "#y)"
    mixed = _chain([SymParam("c")] * 3000 + [Sym("a"), Sym("b")], NIL)
    assert render_expr(mixed) == "#s.c:" * 3000 + '"ab"'


def test_render_pattern_long_chain():
    pat = _chain([Sym("a")] * 3000, ListVar("y"))
    assert render_pattern(pat) == "'a':" * 3000 + "y"
    assert render_rule(Rule((pat,), TRUE)) == "'a':" * 3000 + "y = T;"


def _render_expr_recursive(expr):
    """The printers' recursive definitions, kept as the reference."""
    w = unword(expr)
    if w is not None and w != "":
        return f'"{w}"'
    if isinstance(expr, Cons):
        return (f"{_render_expr_recursive(expr.head)}:"
                f"{_render_expr_recursive(expr.tail)}")
    if isinstance(expr, Call):
        args = ", ".join(map(_render_expr_recursive, expr.args))
        return f"{expr.fn}({args})"
    return repr(expr)


def _render_pattern_recursive(expr):
    if isinstance(expr, Cons):
        return (f"{_render_pattern_recursive(expr.head)}:"
                f"{_render_pattern_recursive(expr.tail)}")
    return repr(expr)


def test_printers_agree_with_recursive_definition():
    rng = random.Random(5)
    atoms = [Sym("a"), Sym("b"), SymParam("c"), SymVar("d")]
    ends = [NIL, ListParam("y"), ListVar("z"), TRUE, Sym("a")]
    for _ in range(2000):
        e = _chain([rng.choice(atoms) for _ in range(rng.randint(0, 6))],
                   rng.choice(ends))
        assert render_pattern(e) == _render_pattern_recursive(e), e
        if rng.random() < 0.3:
            e = Call("G", (e, _chain([rng.choice(atoms)], NIL)))
        assert render_expr(e) == _render_expr_recursive(e), e


def test_parse_long_chains_round_trip():
    # 3000-cell chains in a pattern, a call argument and an expression
    # (RecursionError when the parser recursed along the spine)
    text = "'a':" * 3000 + "#y"
    e = parse_expression(text)
    assert e == _chain([Sym("a")] * 3000, ListParam("y"))
    assert render_expr(e) == text
    call = parse_expression("G(" + "s.b:" * 3000 + "#y, 'c')")
    assert call.args[0] == _chain([SymVar("b")] * 3000, ListParam("y"))
    assert parse_expression(render_expr(call)) == call
    src = ("F {\n  " + "'a':" * 3000 + "y = G(" + "'b':" * 3000 + "y);\n}\n"
           "G {\n  y = T;\n}\n")
    prog = parse_program(src)
    rule = prog.rules("F")[0]
    assert rule.lhs == (_chain([Sym("a")] * 3000, ListVar("y")),)
    assert rule.rhs == Call("G", (_chain([Sym("b")] * 3000, ListVar("y")),))
    assert render(prog) == src
    assert parse_program(render(prog)) == prog


def test_parse_round_trips_random_rules():
    rng = random.Random(9)
    heads = [Sym("a"), Sym("b"), SymVar("c")]
    bound = Cons(SymVar("c"), ListVar("y"))  # binds every rhs variable
    for _ in range(2000):
        pat = _chain([rng.choice(heads) for _ in range(rng.randint(0, 6))],
                     rng.choice([NIL, ListVar("y"), Sym("a"), SymVar("c")]))
        arg = _chain([rng.choice(heads) for _ in range(rng.randint(0, 6))],
                     rng.choice([NIL, ListVar("y")]))
        rhs = rng.choice([TRUE, arg, Call("F", (arg, SymVar("c")))])
        rule = Rule((pat, bound), rhs)
        text = f"F {{ {render_rule(rule)} }}"
        if isinstance(pat, Cons) and isinstance(spine(pat)[1], (Sym, SymVar)):
            # a symbol is a whole pattern only, never a list pattern's end
            with pytest.raises(ParseError):
                parse_program(text)
            continue
        prog = parse_program(text)
        assert prog.rules("F") == (rule,), render_rule(rule)
