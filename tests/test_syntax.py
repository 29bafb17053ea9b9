import random

import pytest

from miniscp.syntax import (
    Call, Cons, FALSE, ListParam, ListVar, NIL, ParseError, Rule,
    Sym, SymParam, SymVar, TRUE, ValidationError,
    params_of, parse_expression, parse_program, render, render_expr,
    render_pattern, render_rule, spine, substitute, unword, word,
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
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("F { Nil = T; } F { Nil = F; }")


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


def test_word_keeps_its_text_and_shares_its_letters():
    text = "abcab" * 40
    w = word(text)
    assert unword(w) is text
    assert w.head is w.tail.tail.tail.head  # one Sym per distinct letter
    # the text is not part of the value: a chain built cell by cell, which
    # has none, equals, hashes and renders the same, and unword walks it
    cells = _chain([Sym(ch) for ch in text], NIL)
    assert cells.text is None and w.tail.text is None
    assert w == cells and cells == w and hash(w) == hash(cells)
    assert repr(w) == repr(cells) == f'"{text}"'
    assert unword(cells) == text and unword(w.tail) == text[1:]
    assert Call("F", (w,)) == Call("F", (cells,))


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
