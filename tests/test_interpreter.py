import itertools
import random
import re

import pytest

from miniscp.harness import artifacts
from miniscp.interpreter import (
    CompiledProgram, EmptyPatternError, FuelExhaustedError, NonTailError,
    Outcome, StuckTermError, check_tail_form, eval_call, eval_reference,
    match_lhs, naive_matcher, naive_outcome, naive_search, trace_call,
)
from miniscp.syntax import (
    Call, Cons, FALSE, ListVar, NIL, Program, Rule, Sym, SymVar, TRUE,
    parse_program, word,
)


def S(p, y):
    return Call("S", (word(p), word(y)))


# --- match_lhs --------------------------------------------------------------

def test_match_first_rule_of_s():
    rule = naive_matcher().rules("S")[0]
    binding = match_lhs(rule, (word("ab"), word("ac")))
    assert binding == {SymVar("a"): Sym("a"), ListVar("p"): word("b"),
                       ListVar("y"): word("c")}


def test_match_repeated_variable_enforces_equality():
    rule = naive_matcher().rules("S")[0]
    assert match_lhs(rule, (word("a"), word("b"))) is None


def test_match_arity_mismatch_raises():
    from miniscp.interpreter import ArityError
    rule = naive_matcher().rules("S")[0]
    with pytest.raises(ArityError):
        match_lhs(rule, (word("a"),))


def test_match_last_rule_of_l():
    rule = naive_matcher().rules("L")[3]
    binding = match_lhs(rule, (NIL, NIL, word("a"), NIL))
    assert binding == {ListVar("y"): NIL, ListVar("q"): word("a"),
                       ListVar("z"): NIL}


# --- eval -------------------------------------------------------------------

def test_hand_traced_step_counts():
    prog = naive_matcher()
    assert eval_call(prog, S("a", "ba")) == Outcome(TRUE, 4)
    assert eval_call(prog, S("a", "a")) == Outcome(TRUE, 3)


def test_fuel_exhaustion():
    with pytest.raises(FuelExhaustedError):
        eval_call(naive_matcher(), S("a", "ba"), fuel=2)
    # exactly enough fuel succeeds
    assert eval_call(naive_matcher(), S("a", "ba"), fuel=4).steps == 4


def words(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def engines_agree(prog, call):
    """Both engines give the same value and step count; returns the value."""
    a = eval_call(prog, call)
    b = eval_reference(prog, call)
    assert (a.value, a.steps) == (b.value, b.steps), call
    return a.value


def test_reference_and_compiled_engines_agree():
    prog = naive_matcher()
    for p in ["a", "ab", "aab", "aba"]:
        for n in range(5):
            for tup in itertools.product("ab", repeat=n):
                call = S(p, "".join(tup))
                a = eval_call(prog, call)
                b = eval_reference(prog, call)
                assert (a.value, a.steps) == (b.value, b.steps)


# Program shapes the matcher and the residuals never produce: a right-hand
# side consing onto a bound suffix, a Nil pattern below the top, a returned
# word (built, bound, or a constant), bare-symbol positions, and a symbol
# variable repeated across two list arguments and across two bare positions.
SHAPES = parse_program("""
F {
  'a':'b':Nil = "done";
  'a':x = G('b':x);
  s.c:'a':x = G(s.c:'c':x);
  x = x;
}
G {
  'b':'b':x = F(x);
  'b':x = x;
  y = 'z':y;
}
M {
  s.a:x, s.a:y = M(x, y);
  s.a:x, s.b:y = K(s.a, s.b, x);
  Nil, Nil = T;
  x, y = F;
}
K {
  'a', s.b, x = T;
  s.a, s.a, x = F;
  s.a, s.b, x = M(s.b:x, s.a:x);
}
""")


def test_engines_agree_on_every_program_shape():
    values = [engines_agree(SHAPES, Call("F", (word(y),)))
              for y in words("abc", 5)]
    values += [engines_agree(SHAPES, Call("M", (word(x), word(y))))
               for x, y in itertools.product(words("ab", 3), repeat=2)]
    values += [engines_agree(SHAPES, Call("K", (Sym(a), Sym(b), word(x))))
               for a, b in itertools.product("ab", repeat=2)
               for x in words("ab", 2)]
    # not only one kind of result: T, F and a returned word all occur
    assert {TRUE, FALSE, word("done")} <= set(values)


def test_trace_exposes_every_rewrite():
    prog = naive_matcher()
    states = list(trace_call(prog, S("a", "ba")))
    assert len(states) == 4
    assert states[-1] == TRUE


def test_determinism():
    prog = naive_matcher()
    runs = [eval_call(prog, S("aab", "abaabab")) for _ in range(3)]
    assert len({(r.value, r.steps) for r in runs}) == 1


def test_stuck_term_reported():
    prog = parse_program("F { 'a':y = T; }")
    with pytest.raises(StuckTermError,
                       match=re.escape("no rule of F matches ('b',)")):
        eval_call(prog, Call("F", (word("b"),)))
    # arguments are shown as plain strings, also after dropped prefixes
    prog = parse_program("F { 'a':y, s.c = F(y, s.c); 'c':y, s.c = T; }")
    with pytest.raises(StuckTermError,
                       match=re.escape("no rule of F matches ('bc', 'x')")):
        eval_call(prog, Call("F", (word("aabc"), Sym("x"))))


def test_non_tail_rhs_rejected_at_evaluation():
    bad = Program((("F", (Rule((ListVar("x"),),
                               Cons(Sym("a"), Call("F", (ListVar("x"),)))),)),))
    with pytest.raises(NonTailError):
        eval_call(bad, Call("F", (word("a"),)))


def test_nested_call_arguments_rejected():
    inner = Call("F", (ListVar("x"),))
    bad = Program((("F", (Rule((ListVar("x"),), Call("F", (inner,))),)),))
    with pytest.raises(NonTailError):
        eval_call(bad, Call("F", (word("a"),)))


def test_non_ground_arguments_rejected():
    with pytest.raises(Exception, match="ground"):
        eval_call(naive_matcher(), Call("S", (word("a"), ListVar("y"))))
    with pytest.raises(Exception, match="not ground"):
        eval_call(naive_matcher(),
                  Call("S", (word("a"), Cons(Sym("a"), ListVar("y")))))


def test_tail_form_check_accepts_long_literals():
    long = word("ab" * 5000)
    check_tail_form(Program((("F", (Rule((ListVar("x"),), long),
                                    Rule((ListVar("x"),),
                                         Call("F", (long,))))),)))


# --- long inputs ------------------------------------------------------------

def avoiding(pattern, n, rng):
    """A seeded random string over the pattern's letters without it."""
    letters = sorted(set(pattern))
    out = []
    for _ in range(n):
        keep = "".join(out[-(len(pattern) - 1):])
        out.append(rng.choice([c for c in letters
                               if not (keep + c).endswith(pattern)]))
    return "".join(out)


@pytest.mark.parametrize("pattern", ["aab", "abcabcacab"])
def test_residual_on_long_inputs(pattern):
    rp = artifacts(pattern).residual
    rng = random.Random(f"long:{pattern}")
    for y in (pattern[0] * 100_000, avoiding(pattern, 100_000, rng)):
        out = eval_call(rp.program, Call(rp.entry, (word(y),)))
        assert out.value == (TRUE if pattern in y else FALSE)
        assert out.steps <= 2 * len(y) + len(pattern) + 2


@pytest.mark.parametrize("pattern", ["aab", "abcabcacab"])
def test_engines_agree_on_long_inputs(pattern):
    rp = artifacts(pattern).residual
    rng = random.Random(f"agree:{pattern}")
    y = avoiding(pattern, 2000, rng)
    for y in (y, y + pattern):
        for prog, call in ((rp.program, Call(rp.entry, (word(y),))),
                           (naive_matcher(), S(pattern, y))):
            a = eval_call(prog, call)
            b = eval_reference(prog, call)
            assert (a.value, a.steps) == (b.value, b.steps)


@pytest.mark.parametrize("k", [2, 4])
def test_naive_step_count_closed_form(k):
    # p = a^k b over a^n: from each start the matcher spends one step in S,
    # one in L on the first letter again, one per further matched 'a'
    # (min(k-1, r) with r symbols left after the start), and one on the
    # mismatch or the end of the string; then S(p, Nil) = F.
    n = 10_000
    p = "a" * k + "b"
    steps = 1 + 3 * n + (k - 1) * (k - 2) // 2 + (k - 1) * (n - k + 1)
    assert naive_outcome(p, "a" * n, fuel=steps) == Outcome(FALSE, steps)
    with pytest.raises(FuelExhaustedError):
        naive_outcome(p, "a" * n, fuel=steps - 1)


# --- naive_search -----------------------------------------------------------

def test_naive_search_examples():
    assert naive_search("aab", "abaab") is True
    assert naive_search("a", "") is False
    assert naive_search("ab", "b") is False


def test_empty_pattern_rejected():
    with pytest.raises(EmptyPatternError):
        naive_search("", "abc")


def test_naive_search_against_containment_within_structural_fuel():
    # agreement with brute force, and termination within 16(|p|+1)(|y|+1)
    for p_len in range(1, 5):
        for p_tup in itertools.product("ab", repeat=p_len):
            p = "".join(p_tup)
            for n in range(8):
                fuel = 16 * (p_len + 1) * (n + 1)
                for y_tup in itertools.product("ab", repeat=n):
                    y = "".join(y_tup)
                    assert naive_search(p, y, fuel=fuel) == (p in y), (p, y)


def test_worst_case_growth_is_superlinear():
    # pattern a^k b over string a^m: steps scale with k*m
    for k in (2, 4):
        p = "a" * k + "b"
        steps = {m: naive_outcome(p, "a" * m).steps for m in (20, 40, 80)}
        assert steps[40] >= 1.8 * steps[20]
        assert steps[80] >= 1.8 * steps[40]


def test_termination_within_structural_fuel():
    rng = random.Random(11)
    for _ in range(200):
        p = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        y = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
        fuel = 16 * (len(p) + 1) * (len(y) + 1)
        naive_outcome(p, y, fuel=fuel)  # must not raise


def test_compiled_program_runs_plain_strings():
    cp = CompiledProgram(naive_matcher())
    value, steps = cp.run("S", ("a", "ba"))
    assert value is True and steps == 4


def test_outcome_value_is_t_or_f_for_matcher_runs():
    out = naive_outcome("ab", "bab")
    assert out.value in (TRUE, FALSE)
    assert out.steps >= 1


def test_program_with_long_literal_compiles_and_runs():
    # hashing and comparing the rule's 3000-symbol literal walks its spine
    lit = "ab" * 1500
    prog = parse_program(
        f'F {{ x = G("{lit}", x); }}\n'
        "G { Nil, y = T; s.a:p, s.a:y = G(p, y); s.a:p, y = F; }")
    assert CompiledProgram(prog).run("F", ("abab",)) == (False, 6)
    assert eval_call(prog, Call("F", (word(lit + "b"),))) \
        == Outcome(TRUE, len(lit) + 2)
    assert eval_call(prog, Call("F", (word("abb"),))) == Outcome(FALSE, 4)


def test_eval_call_compiles_each_program_once(monkeypatch):
    import miniscp.interpreter as interpreter
    built = []
    real = interpreter.CompiledProgram

    class Counting(real):
        def __init__(self, program):
            built.append(program)
            super().__init__(program)

    monkeypatch.setattr(interpreter, "CompiledProgram", Counting)
    prog = parse_program("F { 'a':y = F(y); Nil = T; s.b:y = F; }")
    assert eval_call(prog, Call("F", (word("aa"),))) == Outcome(TRUE, 3)
    assert eval_call(prog, Call("F", (word("ab"),))) == Outcome(FALSE, 2)
    assert built == [prog]
