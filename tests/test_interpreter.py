import itertools
import random
import re

import pytest

from miniscp.driving import _REFUSE, NameGen
from miniscp.interpreter import (
    DEFAULT_FUEL, ArityError, CompiledProgram, DriveError, EmptyPatternError,
    EvalError, FuelExhaustedError, Outcome, StuckTermError,
    UnsupportedNarrowingError, _MAX_SHARED_DEPTH, _check_arity, _decided,
    eval_call, eval_reference, naive_matcher, naive_outcome, probe, resolve,
    symbol_positions, trace_call,
)
from miniscp.kmp import kmp_resume
from miniscp.syntax import (
    Call, Cons, FALSE, ListParam, ListVar, NIL, Nil, NonTailError, Program,
    Rule, Sym, SymParam, SymVar, TRUE, ValidationError, Word, chain,
    parse_program, spine, substitute, unword, word, word_cells,
)


def S(p, y):
    return Call("S", (word(p), word(y)))


# --- match_lhs --------------------------------------------------------------

def match_lhs(rule, args):
    """The binding of `rule` on ground arguments, or None when the rule does
    not apply; ArityError when the counts differ.  Without a name supply
    probe narrows nothing, so its binding is final."""
    _check_arity(rule.lhs, args)
    m = probe(rule.lhs, args)
    if m is None:
        return None
    narrowing, binding, resolution = m
    assert narrowing == resolution == {}
    return binding


def test_match_first_rule_of_s():
    rule = naive_matcher().rules("S")[0]
    binding = match_lhs(rule, (word("ab"), word("ac")))
    assert binding == {SymVar("a"): Sym("a"), ListVar("p"): word("b"),
                       ListVar("y"): word("c")}


def test_match_repeated_variable_enforces_equality():
    rule = naive_matcher().rules("S")[0]
    assert match_lhs(rule, (word("a"), word("b"))) is None


def test_match_arity_mismatch_raises():
    rule = naive_matcher().rules("S")[0]
    with pytest.raises(ArityError):
        match_lhs(rule, (word("a"),))


def test_match_last_rule_of_l():
    rule = naive_matcher().rules("L")[3]
    binding = match_lhs(rule, (NIL, NIL, word("a"), NIL))
    assert binding == {ListVar("y"): NIL, ListVar("q"): word("a"),
                       ListVar("z"): NIL}


def test_match_ground_and_narrowing_modes():
    lhs = parse_program("G { s.a:'b':x, s.a = T; }").rules("G")[0].lhs
    assert probe(lhs, (word("abc"), Sym("a"))) == (
        {}, {SymVar("a"): Sym("a"), ListVar("x"): word("c")}, {})
    assert probe(lhs, (word("abc"), Sym("b"))) is None
    # narrowing #y one cell at a time, a fresh symbol before a fresh list;
    # the narrowing names only #y, and is fully resolved; the resolution
    # puts the binding under it
    y = ListParam("y")
    names = NameGen.for_exprs(y)
    narrowing, binding, resolution = probe(lhs, (y, Sym("a")), names)
    assert narrowing == {y: Cons(Sym("a"), Cons(Sym("b"), ListParam("y2")))}
    assert {v: substitute(e, resolution) for v, e in binding.items()} == {
        SymVar("a"): Sym("a"), ListVar("x"): ListParam("y2")}
    assert (names.fresh_sym(), names.fresh_list()) == (
        SymParam("c3"), ListParam("y3"))
    # a parameter is opaque without a NameGen
    assert probe(lhs, (y, Sym("a"))) is None


# --- probe against its closure-based form ----------------------------------

def reference_probe(lhs, args, names=None):
    """`probe` as first written, with its symbol match and error as
    closures, kept as the reference for the inlined one."""
    subst: dict = {}
    fresh: set = set()
    binding: dict = {}
    repeated: list = []

    def bad(pat) -> Exception:
        return (EvalError if names is None else DriveError)(
            f"bad pattern {pat!r}")

    def atom(pat, a) -> bool:
        a = subst.get(a, a) if a.__class__ is SymParam else a
        if pat.__class__ is Sym:
            if a.__class__ is Sym:
                return pat.ch == a.ch
            if names is not None and a.__class__ is SymParam:
                subst[a] = pat
                return True
            return False
        if pat.__class__ is not SymVar:
            raise bad(pat)
        if pat not in binding:
            binding[pat] = a
            return True
        b = binding[pat]
        b = subst.get(b, b) if b.__class__ is SymParam else b
        if b == a:
            return True
        if names is None:
            return False
        if b.__class__ is Sym and a.__class__ is SymParam:
            subst[a] = b
            return True
        if b.__class__ is SymParam:
            if a.__class__ is Sym:
                subst[b] = a
                return True
            if a.__class__ is SymParam:
                raise UnsupportedNarrowingError(
                    f"equality between two symbol parameters {b!r} and {a!r}")
        return False

    for pat, a in zip(lhs, args):
        while True:
            if a.__class__ is ListParam:
                a = subst.get(a, a)
            cls = pat.__class__
            if cls is Cons:
                if a.__class__ is ListParam and names is not None:
                    cell = Cons(names.fresh_sym(), names.fresh_list())
                    subst[a] = cell
                    fresh.update((cell.head, cell.tail))
                    a = cell
                if a.__class__ is not Cons or not atom(pat.head, a.head):
                    return None
                pat, a = pat.tail, a.tail
                continue
            if cls is ListVar:
                if pat in binding:
                    repeated.append((pat, a))
                else:
                    binding[pat] = a
            elif cls is Nil:
                if a.__class__ is ListParam and names is not None:
                    subst[a] = a = NIL
                if a.__class__ is not Nil:
                    return None
            elif cls is Sym or cls is SymVar:
                if a.__class__ not in (Sym, SymParam) or not atom(pat, a):
                    return None
            else:
                raise bad(pat)
            break
    resolved = resolve(subst)
    for v, e in repeated:
        b = binding[v]
        if resolved:
            e, b = substitute(e, resolved), substitute(b, resolved)
        if e != b:
            if names is None:
                return None
            raise UnsupportedNarrowingError(
                "repeated list variable binds unequal expressions")
    return {p: resolved[p] for p in subst if p not in fresh}, binding, resolved


def random_probe_pattern(rng):
    """A rule pattern over few names, so that variables repeat; now and
    then one outside the grammar."""
    roll = rng.random()
    if roll < 0.03:
        return rng.choice([SymParam("c1"), ListParam("y1"), TRUE,
                           Call("F", (NIL,))])
    if roll < 0.25:
        return rng.choice([Sym("a"), Sym("b"), SymVar("a"), SymVar("b")])
    heads = []
    for _ in range(rng.randint(0, 3)):
        heads.append(rng.choice([Sym("a"), Sym("b"), SymVar("a"),
                                 SymVar("b")]
                                if rng.random() > 0.02 else [ListVar("x")]))
    end = rng.choice([NIL, ListVar("x"), ListVar("z")]
                     if rng.random() > 0.02 else [Sym("a"), SymParam("c1")])
    return chain(heads, end)


def random_probe_argument(rng):
    """A configuration argument: symbols and a few parameters, so that
    narrowings meet the same parameter twice."""
    atoms = [Sym("a"), Sym("b"), SymParam("c1"), SymParam("c2")]
    roll = rng.random()
    if roll < 0.02:
        return rng.choice([SymVar("a"), ListVar("x"), TRUE])
    if roll < 0.2:
        return rng.choice(atoms)
    heads = [rng.choice(atoms) if rng.random() > 0.02 else ListParam("y1")
             for _ in range(rng.randint(0, 3))]
    return chain(heads, rng.choice([NIL, ListParam("y1"), ListParam("y2")]))


class LoggedNames(NameGen):
    """A NameGen that keeps the names it hands out, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def fresh_sym(self):
        self.log.append(super().fresh_sym())
        return self.log[-1]

    def fresh_list(self):
        self.log.append(super().fresh_list())
        return self.log[-1]


def probe_outcome(fn, lhs, args, mode):
    """What `fn` gives: its result, with the narrowing and binding in
    order, or its exception's class and message; and the names a NameGen
    handed out, in order."""
    names = {"none": None, "refuse": _REFUSE}.get(mode)
    if mode == "namegen":
        names = LoggedNames.for_exprs(*args)
    try:
        m = fn(lhs, args, names)
    except Exception as e:  # noqa: BLE001 - compared, not handled
        got = (type(e), str(e))
    else:
        got = m if m is None else (list(m[0].items()), list(m[1].items()),
                                   m[2])
    used = names.log if mode == "namegen" else None
    return got, used


def _ground_suffix_as_word(arg):
    """arg with the longest ground word that ends it held as a Word; arg
    itself when none does."""
    heads, end = spine(arg)
    if end is not NIL:
        return arg
    k = len(heads)
    while k and heads[k - 1].__class__ is Sym:
        k -= 1
    if k == len(heads):
        return arg
    return chain(heads[:k], word("".join(h.ch for h in heads[k:])))


def test_probe_agrees_with_its_reference_on_random_rules_and_arguments():
    rng = random.Random(19)
    kinds = set()
    words_met = 0
    for trial in range(20_000):
        lhs = tuple(random_probe_pattern(rng) for _ in range(rng.randint(1, 3)))
        args = tuple(random_probe_argument(rng) for _ in lhs)
        # the same arguments, their ground suffixes held as Words
        held = tuple(map(_ground_suffix_as_word, args))
        words_met += any(a is not b for a, b in zip(held, args))
        for mode in ("none", "namegen", "refuse"):
            want = probe_outcome(reference_probe, lhs, args, mode)
            assert probe_outcome(probe, lhs, args, mode) == want, \
                (trial, mode, lhs, args)
            assert probe_outcome(probe, lhs, held, mode) == want, \
                (trial, mode, lhs, held)
            got = want[0]
            kinds.add((mode, "none" if got is None
                       else got[0].__name__ if isinstance(got[1], str)
                       else "narrowed" if got[0] else "plain"))
    # every outcome of each mode is drawn: no match, a match with and
    # without narrowing, and each error that mode can raise
    assert kinds == {
        ("none", "none"), ("none", "plain"), ("none", "EvalError"),
        ("namegen", "none"), ("namegen", "plain"), ("namegen", "narrowed"),
        ("namegen", "DriveError"), ("namegen", "UnsupportedNarrowingError"),
        ("refuse", "none"), ("refuse", "plain"), ("refuse", "narrowed"),
        ("refuse", "DriveError"), ("refuse", "UnsupportedNarrowingError"),
    }
    assert words_met > 3000  # trials where some argument ends in a Word


def test_reference_engine_matches_a_long_rule_pattern():
    # the match walks the 3000-cell pattern in a loop (one frame per cell
    # would raise RecursionError)
    prog = parse_program("F {\n  " + "'a':" * 3000 + "y = T;\n  y = F;\n}\n")
    call = Call("F", (word("a" * 3000),))
    assert eval_reference(prog, call) == eval_call(prog, call) == Outcome(
        TRUE, 1)


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
# P and Q build and return words of letters beyond latin-1; Q is fused into
# P's first rule, which passes it only P's slots, so Q's rules read P's
# slots where they lie, and Q's call back to P swaps them in one assignment.
# Q sticks when its first argument starts with neither 'é' nor '∀'.  C is
# fused into B's first rule, which passes it a list built there, so that
# list is stored in C's slot.
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
P {
  '∀':x, y = Q(y, x);
  Nil, y = 'é':y;
  x, y = '😀':x;
}
Q {
  'é':x, y = P(x, y);
  '∀':x, y = '😀':'∀':x;
}
B {
  'a':x = C('b':x);
  x = F;
}
C {
  'b':'b':y = T;
  'b':y = y;
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
    # words beyond latin-1, built and returned, and stuck in a fused callee
    # whose rules read its caller's slots
    run = SHAPES.compiled.run
    outcomes = set()
    for x, y in itertools.product(words("é∀😀", 3), repeat=2):
        call = Call("P", (word(x), word(y)))
        value, steps = outcomes_agree(SHAPES, call, 30)
        if value is StuckTermError:
            outcomes.add(value)
            continue
        got = run("P", (x, y))
        assert got == (unword(value), steps) and type(got[0]) is str
        outcomes.add("word")
    assert outcomes == {"word", StuckTermError}
    call = Call("P", (word("∀é∀😀"), word("é∀é")))
    assert outcomes_agree(SHAPES, call, 30) == (word("é😀"), 7)
    call = Call("P", (word("∀é∀"), word("é∀😀")))
    assert outcomes_agree(SHAPES, call, 30) == (
        StuckTermError, 'no rule of Q matches ("😀", Nil)')
    # a built list passed to a fused callee is stored in its slot
    assert ("s7_0, o7_0, n7_0 = (('b',) + s6_0[o6_0 + 1:]), 0, "
            "n6_0 - (o6_0 + 1) + 1") in SHAPES.compiled.source("B")
    for y in words("ab", 4):
        outcomes_agree(SHAPES, Call("B", (word(y),)), 30)
    assert outcomes_agree(SHAPES, Call("B", (word("abb"),)), 30) == (TRUE, 2)
    assert outcomes_agree(SHAPES, Call("B", (word("aab"),)), 30) == (
        word("ab"), 2)


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
                       match=re.escape('no rule of F matches ("b")')):
        eval_call(prog, Call("F", (word("b"),)))
    # arguments are shown as terms, also after dropped prefixes
    prog = parse_program("F { 'a':y, s.c = F(y, s.c); 'c':y, s.c = T; }")
    with pytest.raises(StuckTermError,
                       match=re.escape('no rule of F matches ("bc", \'x\')')):
        eval_call(prog, Call("F", (word("aabc"), Sym("x"))))


def test_non_tail_rhs_rejected_at_evaluation():
    # refused when the program is built, so no engine ever runs it
    rule = Rule((ListVar("x"),), Cons(Sym("a"), Call("F", (ListVar("x"),))))
    with pytest.raises(NonTailError, match=re.escape(
            "function F: call under a constructor in 'a':F(x)")):
        Program((("F", (rule,)),))


def test_nested_call_arguments_rejected():
    inner = Call("F", (ListVar("x"),))
    with pytest.raises(NonTailError, match=re.escape(
            "function F: nested call in arguments of F(F(x))")):
        Program((("F", (Rule((ListVar("x"),), Call("F", (inner,))),)),))


def test_non_ground_arguments_rejected():
    for arg in (ListVar("y"), Cons(Sym("a"), ListVar("y"))):
        with pytest.raises(EvalError, match="is not a word or a symbol"):
            eval_call(naive_matcher(), Call("S", (word("a"), arg)))


def test_tail_form_check_accepts_long_literals():
    for long in (word("ab" * 5000), word_cells("ab" * 5000)):
        Program((("F", (Rule((ListVar("x"),), long),
                        Rule((ListVar("x"),), Call("F", (long,))))),))


def test_right_hand_sides_outside_the_grammar_rejected_in_both_engines():
    # refused when the program is built, before either engine could run it
    x, z = ListVar("x"), ListVar("z")
    g = ("G", (Rule((z,), z),))
    cases = [
        # T in a call, and under a cons
        (Rule((x,), Call("G", (TRUE,))),
         "function F: T inside G(T): T and F stand only as a whole "
         "right-hand side"),
        (Rule((x,), Call("G", (Cons(Sym("a"), FALSE),))),
         "function F: F inside G('a':F): T and F stand only as a whole "
         "right-hand side"),
        # a bare symbol as a whole right-hand side, and ending a list
        (Rule((SymVar("c"),), SymVar("c")),
         "function F: the right-hand side s.c is a bare symbol, which "
         "stands only as a whole call argument"),
        (Rule((SymVar("c"),), Call("G", (Cons(Sym("a"), SymVar("c")),))),
         "function F: the list 'a':s.c ends in the symbol s.c, not in Nil "
         "or a list variable"),
        (Rule((x,), Cons(Cons(Sym("a"), NIL), x)),
         "function F: \"a\" as a cell head in \"a\":x: a cell head is a "
         "symbol"),
    ]
    for rule, message in cases:
        with pytest.raises(NonTailError, match=f"^{re.escape(message)}$"):
            Program((("F", (rule,)), g))


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
def test_residual_on_long_inputs(pattern, artifacts):
    rp = artifacts(pattern).residual
    rng = random.Random(f"long:{pattern}")
    for y in (pattern[0] * 100_000, avoiding(pattern, 100_000, rng)):
        out = eval_call(rp.program, Call(rp.entry, (word(y),)))
        assert out.value == (TRUE if pattern in y else FALSE)
        assert out.steps <= 2 * len(y) + len(pattern) + 2


@pytest.mark.parametrize("pattern", ["aab", "abcabcacab"])
def test_engines_agree_on_long_inputs(pattern, artifacts):
    rp = artifacts(pattern).residual
    rng = random.Random(f"agree:{pattern}")
    y = avoiding(pattern, 2000, rng)
    for y in (y, y + pattern):
        for prog, call in ((rp.program, Call(rp.entry, (word(y),))),
                           (naive_matcher(), S(pattern, y))):
            a = eval_call(prog, call)
            b = eval_reference(prog, call)
            assert (a.value, a.steps) == (b.value, b.steps)


def _forms(call):
    """The call with its words as Words, as cells, and as one cell ending
    in a Word."""
    def mixed(a):
        text = unword(a) if a.__class__ is not Sym else None
        return Cons(Sym(text[0]), word(text[1:])) if text else a
    cells = Call(call.fn, tuple(chain(*spine(a)) for a in call.args))
    return call, cells, Call(call.fn, tuple(map(mixed, call.args)))


def test_a_long_word_gives_the_reference_outcome_of_its_cells():
    # the reference engine turns the Word into cells once, on entry, and
    # stays linear in the 20,000 letters
    y = "ab" * 9_999 + "abb"
    by_word, by_cells, _ = _forms(S("abb", y))
    assert type(by_word.args[1]) is Word and by_cells.args[1].__class__ is Cons
    want = eval_reference(naive_matcher(), by_cells)
    assert want.value == TRUE
    assert eval_reference(naive_matcher(), by_word) == want
    assert eval_call(naive_matcher(), by_word) == want
    # a rule that passes a Word on whole passes on cells: no later step's
    # match turns it into cells again
    keep = parse_program("F { 'b':x, y = T; x, 'a':y = F(x, y); x, Nil = F; }")
    steps = trace_call(keep, Call("F", (word("a" * 3000), word("a" * 3000))))
    assert all(e.args[0].__class__ is Cons for e in itertools.islice(steps, 5))


def test_both_engines_give_one_outcome_for_a_word_and_its_cells(artifacts):
    rp = artifacts("aab").residual
    calls = [Call(rp.entry, (word(y),)) for y in words("ab", 5)]
    calls += [S(p, y) for p in ("a", "ab", "aab") for y in words("ab", 4)]
    calls += [Call("F", (word(y),)) for y in words("abc", 4)]
    calls += [Call("M", (word(x), word(y)))
              for x, y in itertools.product(words("ab", 2), repeat=2)]
    calls += [Call("K", (Sym("a"), Sym("b"), word(x))) for x in words("ab", 2)]
    values = set()
    for call in calls:
        prog = rp.program if call.fn == rp.entry else \
            naive_matcher() if call.fn == "S" else SHAPES
        outcomes = [run(prog, form) for form in _forms(call)
                    for run in (eval_call, eval_reference)]
        assert all(o == outcomes[0] for o in outcomes), (call, outcomes)
        values.add(outcomes[0].value)
    assert {TRUE, FALSE, word("done")} <= values


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

def naive_search(pattern, string, fuel=None):
    """True iff pattern occurs in string, by running the naive matcher."""
    return naive_outcome(pattern, string, fuel).value == TRUE


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


# --- compiled engine against the reference engine ---------------------------

def outcomes_agree(prog, call, fuel):
    """Both engines give the same value and step count, or the same error
    class and message.  Returns what happened, for coverage."""
    got = []
    for engine in (eval_reference, eval_call):
        try:
            out = engine(prog, call, fuel)
        except (EvalError, ValidationError) as err:
            got.append((type(err), str(err)))
        else:
            got.append((out.value, out.steps))
    ref, comp = got
    assert comp == ref, (call, fuel)
    return ref


def attempts(prog, call):
    """Rule applications a run tries: its steps, plus one if it sticks."""
    n = 0
    try:
        for _ in trace_call(prog, call):
            n += 1
    except StuckTermError:
        n += 1
    return n


def test_ill_sorted_programs_are_not_compiled():
    prog = parse_program("F { s.x = T; y = F; }")
    assert symbol_positions(prog) is None and prog.compiled is None
    with pytest.raises(EvalError, match=re.escape(
            "function F reads or is passed both a symbol and a list at "
            "position 0")):
        CompiledProgram(prog)
    # a list passed where every rule reads a symbol
    prog = parse_program("F { y = G(y, y); } G { s.x, y = T; }")
    with pytest.raises(EvalError, match="function G .* position 0"):
        CompiledProgram(prog)
    with pytest.raises(StuckTermError, match=re.escape(
            'no rule of G matches ("a", "a")')):
        eval_call(prog, Call("F", (word("a"),)))
    # a symbol slot and a list slot
    prog = parse_program("F { s.x, y = F(s.x, 'a':y); 'a', y = T; }")
    assert symbol_positions(prog) == {("F", 0)}


def test_matcher_and_residuals_are_well_sorted(full_corpus, artifacts):
    assert symbol_positions(naive_matcher()) == set()
    assert naive_matcher().compiled is not None
    for pattern in full_corpus.patterns:
        rp = artifacts(pattern).residual
        assert symbol_positions(rp.program) is not None, pattern
        assert rp.program.compiled is not None, pattern


def test_engines_check_the_entry_alike():
    prog = naive_matcher()
    assert outcomes_agree(prog, Call("G", (word("a"),)), 10) == (
        ValidationError, "undefined function G")
    assert outcomes_agree(prog, Call("S", (word("a"),)), 10) == (
        ArityError, "expected 2 arguments, got 1")
    prog = parse_program("F { s.x = T; y = F; }")  # not compiled
    assert outcomes_agree(prog, Call("F", (word("a"), NIL)), 10) == (
        ArityError, "expected 1 arguments, got 2")
    # arguments that are not words or symbols
    prog = parse_program("F { 'a':y = y; x = F; }")
    for arg, text in ((TRUE, "T"), (FALSE, "F"),
                      (Cons(Sym("a"), TRUE), "'a':T"),
                      (Cons(Sym("a"), Sym("b")), "'a':'b'")):
        assert outcomes_agree(prog, Call("F", (arg,)), 10) == (
            EvalError, f"argument {text} is not a word or a symbol")
    # naive_outcome takes its words as word() makes them for eval_call
    for run in (lambda: naive_outcome("a", "x:a"),
                lambda: eval_call(naive_matcher(),
                                  Call("S", (word("a"), word("x:a"))))):
        with pytest.raises(ValidationError, match=re.escape(
                "invalid symbol character ':'")):
            run()


def exhausted(steps):
    return (FuelExhaustedError,
            f"fuel exhausted after {steps} rule applications")


@pytest.mark.parametrize("program", ["naive", "aab"])
def test_engines_check_the_fuel_alike(program, aab):
    if program == "naive":
        prog, call = naive_matcher(), S("aab", "abaab")
    else:
        res = aab.residual
        prog, call = res.program, Call(res.entry, (word("abaab"),))
    value, steps = outcomes_agree(prog, call, None)
    assert value == TRUE and steps > 3
    cases = [(-5, exhausted(1)), (0, exhausted(1)), (1, exhausted(2)),
             (steps - 1, exhausted(steps)), (steps, (TRUE, steps)),
             (2.5, (EvalError, "fuel must be an int, got 2.5")),
             ("10", (EvalError, "fuel must be an int, got '10'")),
             (True, (EvalError, "fuel must be an int, got True"))]
    # every fuel up to the steps taken: the residual runs out both in the
    # loop and in a fused callee's step
    cases += [(n, exhausted(n + 1)) for n in range(1, steps)]
    for fuel, want in cases:
        assert outcomes_agree(prog, call, fuel) == want, fuel
    # the entry is checked before the fuel
    assert outcomes_agree(prog, Call("G", call.args), 2.5) == (
        ValidationError, "undefined function G")


def avoiding(pattern, n, rng):
    """n seeded letters over the pattern's alphabet in which the pattern
    does not occur: a letter that would complete it is drawn again."""
    alphabet = sorted(set(pattern))
    out, state = [], 0
    while len(out) < n:
        c = rng.choice(alphabet)
        nxt = kmp_resume(pattern, c, state)[0]
        if nxt != len(pattern):
            out.append(c)
            state = nxt
    return "".join(out)


# the fixed patterns of the run-long benchmark and its random one at seed 7
@pytest.mark.parametrize("p", ["aab", "abcabcacab", "abcaccaa"])
def test_engines_agree_on_long_inputs_up_to_the_last_step(p, artifacts):
    res = artifacts(p).residual
    for y in (p[0] * 2000, avoiding(p, 2000, random.Random(f"long:{p}"))):
        assert p not in y
        for prog, call in ((res.program, Call(res.entry, (word(y),))),
                           (naive_matcher(), S(p, y))):
            value, steps = outcomes_agree(prog, call, None)
            assert value == FALSE and steps >= len(y)
            assert outcomes_agree(prog, call, steps - 1) == exhausted(steps)


def test_t_and_f_arguments_in_list_and_symbol_positions():
    # T and F are results, never inputs: both engines refuse them alike in
    # a list position, a symbol position and a position read as both
    for source in ("F { Nil = T; x = F; }", "F { s.c = T; 'a' = F; }",
                   "F { s.c = T; 'a' = T; x = x; }"):
        for arg in (TRUE, FALSE):
            call = Call("F", (arg,))
            assert outcomes_agree(parse_program(source), call, 10) == (
                EvalError, f"argument {arg!r} is not a word or a symbol")
    refused = outcomes_agree(naive_matcher(), Call("S", (TRUE, word("a"))), 10)
    assert refused == (EvalError, "argument T is not a word or a symbol")
    prog = parse_program("F { s.c = T; 'a' = T; x = x; }")
    assert outcomes_agree(prog, Call("F", (Sym("b"),)), 10) == (TRUE, 1)
    # a symbol variable matches no list in either engine
    prog = parse_program("F { s.c = T; y = F; }")
    assert outcomes_agree(prog, Call("F", (word("ab"),)), 10) == (FALSE, 1)


def test_a_symbol_is_not_a_one_letter_word():
    # a position read both as a symbol and as a list
    prog = parse_program("F { s.x = T; y = F; }")
    assert outcomes_agree(prog, Call("F", (word("a"),)), 10) == (FALSE, 1)
    assert outcomes_agree(prog, Call("F", (Sym("a"),)), 10) == (TRUE, 1)
    prog = parse_program("F { 'a' = T; y = y; }")
    assert outcomes_agree(prog, Call("F", (word("a"),)), 10) == (
        word("a"), 1)
    assert outcomes_agree(prog, Call("F", (Sym("a"),)), 10) == (TRUE, 1)
    # a position read as a symbol by every rule: a word matches no rule
    prog = parse_program("F { s.x = T; 'a' = F; }")
    assert outcomes_agree(prog, Call("F", (word("a"),)), 10)[0] \
        is StuckTermError
    assert outcomes_agree(prog, Call("F", (word("a"),)), 0)[0] \
        is FuelExhaustedError
    # a symbol stored by a call into a mixed position
    prog = parse_program("F { s.x:y = G(s.x, y); }\n"
                         "G { 'a', y = T; s.c:x, y = F; z, y = y; }")
    for first, value in (("a", TRUE), ("b", word("c"))):
        assert outcomes_agree(prog, Call("F", (word(first + "c"),)), 10) \
            == (value, 2)
    # none of these programs is well-sorted, so the compiled engine
    # leaves them to the reference engine
    assert prog.compiled is None


def test_a_symbol_bound_to_a_list_variable_stays_a_symbol():
    b = Call("F", (Sym("b"),))
    # cells built onto a symbol: the list the reference engine builds,
    # which a cell pattern reads and a Nil-ended one does not
    prog = parse_program("F { 'a' = T; y = G('c':y); }\n"
                         "G { 'c':z = T; w = F; }")
    assert outcomes_agree(prog, b, 10) == (TRUE, 2)
    prog = parse_program("F { 'a' = T; y = G('c':y); }\n"
                         "G { 'c':'b':Nil = T; 'c':z = H(z); w = F; }\n"
                         "H { 'b' = F; y = T; }")
    assert outcomes_agree(prog, b, 10) == (FALSE, 3)
    prog = parse_program("F { 'a' = T; y = 'c':'d':y; }")
    assert outcomes_agree(prog, b, 10) == (
        Cons(Sym("c"), Cons(Sym("d"), Sym("b"))), 1)
    # a bound symbol passed on into a symbol position, or returned
    prog = parse_program("F { 'a' = F; y = G(y); } G { s.x = T; }")
    assert outcomes_agree(prog, b, 10) == (TRUE, 2)
    prog = parse_program("F { 'a' = T; y = y; }")
    assert outcomes_agree(prog, b, 10) == (Sym("b"), 1)
    # a bound one-letter word passed on into a symbol position sticks there
    prog = parse_program("F { y = G(y); } G { 'a' = T; s.x = F; }")
    assert outcomes_agree(prog, Call("F", (word("a"),)), 10)[0] \
        is StuckTermError
    assert outcomes_agree(prog, Call("F", (word("a"),)), 1)[0] \
        is FuelExhaustedError
    assert outcomes_agree(prog, Call("F", (Sym("a"),)), 10) == (TRUE, 2)
    # a repeated list variable tells a symbol from a word
    prog = parse_program("F { y, y = T; x, y = F; }")
    assert outcomes_agree(prog, Call("F", (Sym("a"), word("a"))), 10) == (
        FALSE, 1)
    assert outcomes_agree(prog, Call("F", (Sym("a"), Sym("a"))), 10) == (
        TRUE, 1)
    # a symbol where no rule reads one
    prog = parse_program("F { 'a':Nil = T; y = F; }")
    assert outcomes_agree(prog, Call("F", (Sym("a"),)), 10) == (FALSE, 1)


def fused_count(source):
    """Inlined callees in generated code: each draws its own step from the
    loop's iterator, besides the loop itself."""
    return source.count("for _steps in _it:") - 1


def test_single_call_site_callees_are_fused(aab):
    # F_1 and F_3 have one call site each, outside themselves; F_0 and F_2
    # are called from two or more rules, and the naive matcher's S and L
    # from several: the one step its source draws besides the loop is the
    # decided step S -> L takes with it (see the decided-step tests below)
    assert fused_count(aab.residual.program.compiled.source("F_0")) == 2
    assert fused_count(naive_matcher().compiled.source("S")) == 1
    assert _decided(naive_matcher())[1] == {("S", 0): 1}
    # a callee that calls itself is not fused, even from one call site
    prog = parse_program("F { x = G(x); } G { 'a':x = G(x); x = T; }")
    assert fused_count(prog.compiled.source("F")) == 0
    # a fused callee is still an entry, with its own code
    prog = parse_program("F { 'a':x = G(x); x = F; } G { 'b':x = T; x = F; }")
    assert fused_count(prog.compiled.source("F")) == 1
    for entry, y, out in (("F", "ab", (TRUE, 2)), ("F", "aa", (FALSE, 2)),
                          ("G", "b", (TRUE, 1)), ("F", "b", (FALSE, 1))):
        assert outcomes_agree(prog, Call(entry, (word(y),)), 10) == out
        # fuel runs out inside the inlined step as it would after dispatch
        if out[1] == 2:
            assert outcomes_agree(prog, Call(entry, (word(y),)), 1) == (
                FuelExhaustedError, "fuel exhausted after 2 rule applications")


def test_compiling_a_long_pattern_hashes_no_cell(monkeypatch):
    # pattern suffixes are found by spine offset, so compiling an n-cell
    # pattern does O(n) work; hashing every suffix would be O(n^2) cells
    hashed = []
    plain = Cons.__hash__

    def counting(self):
        hashed.append(len(spine(self)[0]))
        return plain(self)

    monkeypatch.setattr(Cons, "__hash__", counting)
    n = 3000
    cells = "'a':" * n
    # G reads one cell more than F passes it, so the call decides no step
    prog = parse_program(
        f"F {{ {cells}y = G('b':{cells}y); y = F; }}\n"
        f"G {{ 'b':{cells}'c':y = T; y = F; }}")
    cp = CompiledProgram(prog)
    cp.runner("F")
    assert sum(hashed) <= n
    # the right-hand side passes G the matched suffix, with one built cell
    assert cp.run("F", ("a" * n + "c",)) == (True, 2)
    assert cp.run("F", ("a" * (n - 1),)) == (False, 1)


def nested_patterns(m):
    """Rule j's patterns test the first m - j of m arguments for a leading
    'a'; each rule's tests extend the next one's, so full sharing would nest
    one `if` per rule."""
    return [tuple(Cons(Sym("a"), ListVar(f"y{i}")) if i < k
                  else ListVar(f"y{i}") for i in range(m))
            for k in range(m, -1, -1)]


def test_deeply_shared_tests_stay_within_the_indentation_limit():
    m = 120
    lhs = nested_patterns(m)
    prog = Program((("F", tuple(Rule(p, word("b" * (m - j)))
                                for j, p in enumerate(lhs))),))
    for first_miss in range(0, m + 1, 7):
        args = tuple(word("a" if i < first_miss else "b") for i in range(m))
        assert outcomes_agree(prog, Call("F", args), 5) \
            == (word("b" * first_miss), 1)


def test_fused_callee_at_the_depth_cap_still_compiles():
    # F's first rule sits at the bottom of a rule tree nested to the cap and
    # is G's one call site; G's inlined tree is nested to the cap as well
    m = 2 * _MAX_SHARED_DEPTH
    lhs = nested_patterns(m)
    g = tuple(Rule(p, word("b" * (m - j))) for j, p in enumerate(lhs))
    f = (Rule(lhs[0], Call("G", tuple(ListVar(f"y{i}") for i in range(m)))),
         ) + g[1:]
    prog = Program((("F", f), ("G", g)))
    source = prog.compiled.source("F")
    assert fused_count(source) == 1
    indents = [(len(line) - len(line.lstrip())) // 4
               for line in source.splitlines()]
    assert max(indents) > 2 * _MAX_SHARED_DEPTH
    for g_miss in range(0, m + 1, 5):
        args = tuple(word("a" + ("a" if i < g_miss else "b"))
                     for i in range(m))
        assert outcomes_agree(prog, Call("F", args), 5) \
            == (word("b" * g_miss), 2)


def random_pattern(rng, kind, depth_max=2):
    """A pattern for a position read as a symbol ("s"), as a list ("l") or
    by some rules as one and by others as the other ("m")."""
    if kind == "s" or kind == "m" and rng.random() < 0.4:
        return rng.choice([Sym("a"), Sym("b"), SymVar("u"), SymVar("v")])
    heads = [rng.choice([Sym("a"), Sym("b"), SymVar("u"), SymVar("v")])
             for _ in range(rng.randint(0, depth_max))]
    end = rng.choice([NIL, ListVar("x"), ListVar("y"), ListVar("z")])
    return chain(heads, end)


def random_rhs_list(rng, syms, lists):
    """A list expression over the bound variables, built onto Nil or a
    bound list variable."""
    heads = [rng.choice([Sym("a"), Sym("b")] + syms)
             for _ in range(rng.choice([0, 0, 1, 2]))]
    return chain(heads, rng.choice([NIL] + lists))


def random_program(rng):
    """A small tail-form program whose rules share leading patterns, with
    repeated symbol and list variables, Nil, symbol slots, literals and
    right-hand sides that cons onto bound lists.  About 3/4 of the programs
    are well-sorted: a call passes a symbol exactly where the callee's
    patterns read one.  The rest also have positions read as a symbol by
    some rules and as a list by others, and a call mostly passes a symbol
    where the callee's patterns read one and a list elsewhere, but any
    position may get either.  Half of the programs with two functions or
    more call their last function from one right-hand side only, of
    another function, so that it is fused there."""
    well_sorted = rng.random() < 0.75
    shapes = ["l", "s", "ll", "ls", "sl", "lll", "lsl"]
    if not well_sorted:
        shapes += ["m", "lm", "ml"]
    kinds = [rng.choice(shapes) for _ in range(rng.randint(1, 4))]
    lone = len(kinds) - 1 if len(kinds) > 1 and rng.random() < 0.5 else None
    functions = []
    calls = []  # (function, rule, bound symbols, bound lists) of each call
    for k, kind in enumerate(kinds):
        leads = [random_pattern(rng, kind[0]) for _ in range(2)]
        rules = []
        for _ in range(rng.randint(2, 5)):
            lhs = [random_pattern(rng, c) for c in kind]
            if rng.random() < 0.7:
                lhs[0] = rng.choice(leads)
            syms, lists = set(), set()
            for pat in lhs:
                heads, end = spine(pat)
                syms.update(h for h in heads + [pat] if isinstance(h, SymVar))
                if isinstance(end, ListVar):
                    lists.add(end)
            syms, lists = (sorted(v, key=repr) for v in (syms, lists))
            pick = rng.random()
            if pick < 0.2:
                rhs = rng.choice([TRUE, FALSE])
            elif pick < 0.35:
                rhs = random_rhs_list(rng, syms, lists)
            else:
                rhs = rng.choice([j for j in range(len(kinds)) if j != lone])
                calls.append((k, len(rules), syms, lists))
            rules.append([lhs, rhs])
        functions.append(rules)
    if lone is not None:
        k, i, syms, lists = rng.choice([c for c in calls if c[0] != lone]
                                       or [(0, 0, [], [])])
        functions[k][i][1] = lone
        calls = [c for c in calls if c[:2] != (k, i)] + [(k, i, syms, lists)]
    for k, i, syms, lists in calls:
        callee = functions[k][i][1]
        functions[k][i][1] = Call(f"F{callee}", tuple(
            rng.choice([Sym("a"), Sym("b")] + syms)
            if (c == "s" if well_sorted
                else rng.random() < {"s": 0.85, "m": 0.4, "l": 0.15}[c])
            else random_rhs_list(rng, syms, lists)
            for c in kinds[callee]))
    return Program(tuple(
        (f"F{k}", tuple(Rule(tuple(lhs), rhs) for lhs, rhs in rules))
        for k, rules in enumerate(functions)))


def test_compiled_engine_agrees_with_reference_on_random_programs():
    rng = random.Random(2026)
    # one-letter words go into symbol positions too, where they match no
    # bare symbol pattern, and symbols into list positions
    inputs = {"s": [Sym("a"), Sym("b"), word("a")],
              "l": [word(w) for w in words("ab", 2)] + [Sym("a")],
              "m": [Sym("a"), Sym("b"), NIL, word("a"), word("ab")]}
    seen = set()
    shared = fused = compiled = 0
    for _ in range(80):
        prog = random_program(rng)
        if prog.compiled is not None:
            compiled += 1
            for name, _ in prog.functions:
                source = prog.compiled.source(name)
                shared += len(re.findall(r"if [^\n]*:\n +if ", source))
                fused += fused_count(source)
        for name, rules in prog.functions:
            bare = [{isinstance(r.lhs[i], (Sym, SymVar)) for r in rules}
                    for i in range(len(rules[0].lhs))]
            kind = ["m" if len(b) == 2 else "s" if True in b else "l"
                    for b in bare]
            for args in itertools.product(*(inputs[c] for c in kind)):
                call = Call(name, args)
                ref = outcomes_agree(prog, call, 30)
                if ref[0] is FuelExhaustedError:
                    seen.add("fuel")
                    continue
                # fuel exactly at the rule applications tried, and one below
                steps = attempts(prog, call)
                assert outcomes_agree(prog, call, steps) == ref
                assert outcomes_agree(prog, call, steps - 1) == (
                    FuelExhaustedError,
                    f"fuel exhausted after {steps} rule applications")
                seen.add(ref[0] if ref[0] in (StuckTermError, TRUE, FALSE)
                         else "word")
    assert seen == {"fuel", StuckTermError, TRUE, FALSE, "word"}
    assert 52 <= compiled <= 70
    assert shared >= 20
    assert fused >= 20


# Programs that go wrong if the compiled engine shares a register it must
# not: the naive matcher entered at L, where the pattern, the string and
# their restart copies are four different words; an accumulator whose
# second slot is given a built list, as given and returning that list; one
# word fed to two slots that then move apart; and the same where one of the
# two is then given a built list while the other still reads the word.
SHARING = {
    "naive": naive_matcher(),
    "accumulator": parse_program(
        "G { 'a':y, z = G(y, 'a':z); Nil, z = T; s.c:y, z = F; }"),
    "accumulator-returned": parse_program(
        "G { 'a':y, z = G(y, 'a':z); Nil, z = z; s.c:y, z = F; }"),
    "one-seed": parse_program("""
F { y = G(y, y); }
G {
  'a':x, y = G(x, y);
  'b':x, s.c:y = G(x, y);
  Nil, y = y;
  x, Nil = x;
}
"""),
    "one-seed-built": parse_program("""
F { y = G(y, y); }
G {
  'a':x, y = G(x, y);
  'b':'b':x, y = G(x, 'a':y);
  'b':x, s.c:y = G(x, y);
  Nil, y = y;
  x, Nil = x;
}
"""),
}


def every_entry_agrees(prog):
    """Both engines agree on every entry of `prog` and every input up to
    length 3 over `ab`, at fuel 100, at exactly the rule applications tried
    and at one less."""
    for fn, rules in prog.functions:
        for args in itertools.product(words("ab", 3),
                                      repeat=len(rules[0].lhs)):
            call = Call(fn, tuple(map(word, args)))
            ref = outcomes_agree(prog, call, 100)
            # fuel exactly at the rule applications tried, and one below
            steps = attempts(prog, call)
            assert outcomes_agree(prog, call, steps) == ref
            assert outcomes_agree(prog, call, steps - 1) == (
                FuelExhaustedError,
                f"fuel exhausted after {steps} rule applications")


@pytest.mark.parametrize("name", SHARING)
def test_every_entry_agrees_where_registers_could_be_shared(name):
    every_entry_agrees(SHARING[name])


def test_naive_matcher_entered_at_l_keeps_its_restart_point():
    call = Call("L", tuple(map(word, ("b", "c", "zz", "xab"))))
    assert outcomes_agree(naive_matcher(), call, 100) == (FALSE, 5)


def test_naive_matcher_calls_store_only_offsets():
    # entered at S, the pattern and the string each keep one tuple and one
    # length, and L's restart point (q, z) lives in S's offsets: S -> L
    # stores three offsets and L -> S none.  S -> L takes L's first step
    # with it, which compares the letter S has just matched, so L starts
    # one letter on: L(p, y, s.a:p, y)
    source = naive_matcher().compiled.source("S")
    loop = source[source.index("for _steps in _it:"):].splitlines()
    assert [line.strip() for line in loop
            if " = " in line and not line.lstrip().startswith(
                ("if ", "return ", "raise "))] == [
        "o1_0, o1_1, o0_1 = o0_0 + 1, o0_1 + 1, o0_1 + 1",  # S -> L
        "_fn = 1",
        "o0_1 = o0_1 + 1",  # S -> S
        "o1_0, o1_1 = o1_0 + 1, o1_1 + 1",  # L -> L
        "_fn = 0",  # L -> S, on a mismatch
        "_fn = 0",  # L -> S, at the string's end
    ]


# --- dispatch ---------------------------------------------------------------

def arm_tests(source):
    """Each arm of a generated `_run`, in source order, as the dispatch test
    that leads to it and the function it runs: (test, name)."""
    lines = [line.strip() for line in source.splitlines()]
    return [(test, head[2:head.index("/")])
            for test, head in zip(lines, lines[1:]) if head.startswith("# ")
            and (test.startswith("if _fn") or test == "else:")]


def test_arms_that_jump_to_themselves_are_tested_first(artifacts):
    # F_0 scans for 'a' and F_1, holding it, reads another 'a' through its
    # fused fallback F_16: each jumps to itself, and is tested first
    arms = arm_tests(artifacts("abcabcacab").residual.program.compiled
                     .source("F_0"))
    assert len(arms) == 9
    assert arms[:2] == [("if _fn == 0:", "F_0"), ("if _fn == 1:", "F_1")]
    assert all(test.startswith("if _fn < ") or test == "else:"
               for test, _ in arms[2:])
    # where the tree is one test, it stays as it was
    for source in (artifacts("aab").residual.program.compiled.source("F_0"),
                   naive_matcher().compiled.source("S")):
        loop = source.splitlines()
        at = loop.index("    for _steps in _it:")
        assert loop[at + 1] == "        if _fn < 1:"
        assert "_fn ==" not in source


def test_no_residual_tests_more_than_two_arms_first(full_corpus, artifacts):
    # a KMP automaton loops to itself from two states at most: the scan,
    # and the state that holds p's leading run of p[0]
    for pattern in full_corpus.patterns:
        rp = artifacts(pattern).residual
        source = rp.program.compiled.source(rp.entry)
        assert source.count("if _fn ==") <= 2, pattern


# Programs whose arms jump to themselves: three functions that each do, so
# that the last is left for the tree; the same with an arm between each two
# that does not, so the tree has gaps in its ids; and a function that does
# through its fused callee C.
LOOPS = {
    "three": parse_program("""
F { 'a':y = F(y); 'b':y = G(y); Nil = T; }
G { 'b':y = G(y); 'a':y = H(y); Nil = F; }
H { 'a':y = H(y); 'b':y = F(y); Nil = T; }
"""),
    "gaps": parse_program("""
F { 'a':y = F(y); 'b':y = A(y); Nil = F; }
A { 'a':y = G(y); 'b':y = B(y); Nil = T; }
G { 'b':y = G(y); 'a':y = B(y); Nil = F; }
B { 'a':y = H(y); 'b':y = A(y); Nil = T; }
H { 'a':y = H(y); 'b':y = F(y); Nil = F; }
"""),
    "fused": parse_program("""
F { 'a':y = C(y); 'b':y = G(y); Nil = F; }
C { 'a':y = F(y); 'b':y = K(y); Nil = T; }
G { 'b':y = K(y); 'a':y = F(y); Nil = F; }
K { 'a':y = G(y); 'b':y = F(y); Nil = T; }
"""),
}


@pytest.mark.parametrize("name", LOOPS)
def test_every_entry_agrees_where_arms_jump_to_themselves(name):
    prog = LOOPS[name]
    # entered at F, the arms tested first by `==`: in "three" the last arm
    # that jumps to itself, H, is left for the tree, where it is alone
    first = {"three": ["F", "G"], "gaps": ["F", "G", "H"], "fused": ["F"]}
    assert [arm for test, arm in arm_tests(prog.compiled.source("F"))
            if "==" in test] == first[name]
    every_entry_agrees(prog)


def test_a_loop_spends_any_fuel_as_the_reference_engine_counts_it():
    # the default fuel draws its steps from a range built once; any other
    # fuel builds its own
    prog = parse_program("F { y = F(y); }")
    call = Call("F", (word("ab"),))
    for fuel in (0, 1, 37):
        assert outcomes_agree(prog, call, fuel) == exhausted(fuel + 1)
    ref = outcomes_agree(prog, call, None)
    assert ref == exhausted(DEFAULT_FUEL + 1)
    for _ in range(2):
        with pytest.raises(FuelExhaustedError) as err:
            eval_call(prog, call, DEFAULT_FUEL)
        assert (type(err.value), str(err.value)) == ref
        assert err.value.steps == DEFAULT_FUEL + 1


# --- decided steps -----------------------------------------------------------

# Programs with calls that decide their callee's step: a chain of two
# decided steps through G and H; decided steps that return T, a built list
# and F; one whose right-hand side builds a list, so the call stores it; one
# whose right-hand side calls H, which is then fused, and whose fused H
# decides K's step in turn; and one into G, which is an entry too.
DECIDED = {
    "chain": parse_program("""
F { 'a':y = G('b':y); 'b':y = F(y); Nil = T; }
G { 'b':y = H('a':y); y = F; }
H { 'a':y = F(y); y = T; }
"""),
    "passive": parse_program("""
F { 'a':y = G(y); 'b':'a':y = H('b':y); 'b':y = K(Nil); Nil = F; }
G { y = T; }
H { 'b':y = 'a':y; }
K { Nil = F; y = T; }
"""),
    "store": parse_program("""
F { 'a':y = G(y); 'b':y = F(y); Nil = T; }
G { y = H('b':y); }
H { 'b':'a':y = T; 'b':y = F(y); }
"""),
    "fused": parse_program("""
F { 'a':y = G('b':y); 'b':y = F(y); Nil = T; }
G { 'b':y = H(y); y = F; }
H { 'a':y = K(y); y = F; }
K { y = F(y); }
"""),
    "entry": parse_program("""
F { 'a':y = G('b':y); 'b':y = F(y); Nil = F; }
G { 'b':y = F(y); 'a':y = G(y); Nil = T; }
"""),
}


@pytest.mark.parametrize("name", DECIDED)
def test_every_entry_agrees_where_calls_decide_steps(name):
    prog = DECIDED[name]
    # the decided steps each rule takes with it, at most one per function
    drawn = {"chain": {("F", 0): 2, ("G", 0): 1},
             "passive": {("F", 0): 1, ("F", 1): 1, ("F", 2): 1},
             "store": {("F", 0): 1},
             "fused": {("F", 0): 1, ("H", 0): 1},
             "entry": {("F", 0): 1}}
    functions, got = _decided(prog)
    assert got == drawn[name]
    source = prog.compiled.source("F")
    if name == "store":  # H's slot is given the built list 'b':y
        assert str(dict(functions)["F"][0].rhs) == "H('b':y)"
        assert "(('b',) + " in source
    if name == "fused":  # F's rule 0 calls H, run inlined; G is not reached
        assert "# H/1" in source and "# G/1" not in source
        assert fused_count(source) == 3  # F -> G, H and H -> K
    every_entry_agrees(prog)


def test_a_self_decided_loop_spends_its_fuel_as_the_reference_engine_counts_it():
    # F's call decides F's step, which F may take only once along a chain,
    # so each pass of the loop draws two steps: the fuel runs out in the
    # loop or in the decided step, as it is even or odd
    prog = parse_program("F { x = F(x); }")
    assert _decided(prog)[1] == {("F", 0): 1}
    call = Call("F", (word("ab"),))
    for fuel in (0, 1, 7, 8):
        assert outcomes_agree(prog, call, fuel) == exhausted(fuel + 1)


def test_only_the_naive_matchers_scan_decides_a_step(full_corpus, artifacts):
    # S -> L compares, in L's first step, the letter S has just matched; a
    # residual's calls go to functions that branch, so none decides a step
    functions, drawn = _decided(naive_matcher())
    assert drawn == {("S", 0): 1}
    assert str(dict(functions)["S"][0].rhs) == "L(p, y, s.a:p, y)"
    for pattern in full_corpus.patterns:
        assert _decided(artifacts(pattern).residual.program)[1] == {}, pattern
