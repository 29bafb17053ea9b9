"""Per-pattern verification of everything the specializer is supposed to
guarantee.

For each pattern this module builds the process graph and residual program
once, then checks, as separate falsifiable facets:

  * first_path   -- the lowest-rule-index path visits the pivots of the
                    states 0..|p|-1 that take a letter, in order, and its
                    edges re-drive, the one into T past the whole pattern
                    matched;
  * restart      -- every node off the first path stands for the
                    failure-table state that its position gives (see
                    _graph_states): a pivot or fold has that state's
                    configuration, a leaf is its T or F, a pivot
                    branches into its state's moves, and every edge off
                    the first path re-drives;
  * covering     -- the whistle never fired, and every fold edge
                    re-verifies and returns to an ancestor in its own
                    state, one that takes a letter;
  * structural   -- the residual carries no constants or repeated variables
                    into calls and inspects at most one symbol per rule;
  * equivalence  -- naive run, residual run, the independent linear-search
                    oracle, and brute-force containment agree on an
                    exhaustive small-string sweep plus seeded random strings;
  * linearity    -- residual step counts stay within 2|y| + |pattern| + 2;
  * automaton    -- the residual is the failure table's KMP program, rule by
                    rule: one function takes a letter per state, and every
                    other function holds a letter in a state of a fallback.

FACETS names them, in this order.  A failed facet is flagged FAIL in the
pattern's record line and gets one failure line, "<facet>: <message>".

All randomness is seeded per (corpus seed, pattern); reports are
deterministic down to the byte.
"""

from __future__ import annotations

import itertools
import random
from array import array
from codecs import charmap_decode
from collections.abc import Iterator
from functools import lru_cache, partial
from time import perf_counter

from .configs import (
    EMPTY, Config, alpha_equivalent, covers, make_config, restriction,
)
from .driving import NameGen, drive_step
from .interpreter import DriveError, naive_matcher
from .kmp import failure_table, kmp_resume, kmp_search
from .record import Record
from .residual import residualize, structural_report
from .scp import (
    KIND_DIAGNOSTIC, KIND_FOLDED, KIND_PASSIVE, KIND_PIVOT, ProcessGraph,
    first_path, specialize_pattern,
)
from .syntax import (
    Call, Cons, FALSE, ListParam, ListVar, NIL, Nil, Rule, Sym, SymParam,
    SymVar, TRUE, Word, render_expr, word_cells,
)

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class CheckFailure(AssertionError):
    """A verification facet failed; the message carries the evidence."""


class Corpus(Record, frozen=True):
    """Test plan: patterns plus string-sweep sizes, deterministic per seed."""
    __slots__ = ("patterns", "exhaustive_len", "random_count",
                 "random_max_len", "seed")
    _defaults = {"exhaustive_len": 8, "random_count": 1000,
                 "random_max_len": 200, "seed": 7}


def binary_patterns(max_len: int = 6) -> tuple[str, ...]:
    out = []
    for n in range(1, max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            out.append("".join(tup))
    return tuple(out)


EXTRA_PATTERNS = ("aab", "ababa", "abcabcaca", "abcabcacab")


def default_corpus(seed: int = 7) -> Corpus:
    pats = list(binary_patterns(6))
    for p in EXTRA_PATTERNS:
        if p not in pats:
            pats.append(p)
    return Corpus(tuple(pats), seed=seed)


class VerificationReport(Record):
    """`verdicts` maps each of FACETS, in order, to whether it held;
    `failures` holds one line "<facet>: <message>" per failed facet."""
    __slots__ = ("pattern", "verdicts", "metrics", "failures")
    _defaults = {"failures": ()}

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())


# --- shared artifacts ---------------------------------------------------------

class PatternArtifacts(Record):
    """What every facet of one pattern reads: the process graph and report,
    and the residual."""
    __slots__ = ("pattern", "graph", "report", "residual")


def artifacts(pattern: str) -> PatternArtifacts:
    """Specialize and residualize one pattern.  Nothing is cached, so a
    pattern's graph lives only as long as its caller holds it."""
    graph, report = specialize_pattern(pattern)
    return PatternArtifacts(pattern, graph, report, residualize(graph))


def sweep_alphabet(pattern: str) -> str:
    """The pattern's letters plus one fresh letter, in a fixed order."""
    base = sorted(set(pattern))
    fresh = next((c for c in LETTERS if c not in base), None)
    if fresh is None:
        raise ValueError(f"pattern {pattern!r} uses every letter a-z, so "
                         "no fresh letter is left for the sweep alphabet")
    return "".join(base) + fresh


# Every word of length at most 8 over a 6-letter sweep alphabet (a pattern
# of 5 distinct letters): the most exhaustive strings one pattern may sweep.
POOL_BUDGET = 2_015_539


def exhaustive_count(letters: int, max_len: int) -> int:
    """How many words of length at most max_len a `letters`-letter alphabet
    has."""
    return sum(letters ** n for n in range(max_len + 1))


def check_pool_budget(pattern: str, corpus: Corpus) -> None:
    """Refuse, with a ValueError naming the count, a pattern with more than
    POOL_BUDGET exhaustive strings."""
    letters = len(sweep_alphabet(pattern))
    count = exhaustive_count(letters, corpus.exhaustive_len)
    if count > POOL_BUDGET:
        raise ValueError(
            f"pattern {pattern!r} has {count:,} exhaustive strings (every "
            f"word of length at most {corpus.exhaustive_len} over its "
            f"{letters}-letter sweep alphabet), more than the budget of "
            f"{POOL_BUDGET:,}; a pattern of at most 5 distinct letters fits")


@lru_cache(maxsize=1)
def _levels(alpha: str, max_len: int) -> tuple[tuple[str, ...], ...]:
    """The words over alpha of each length 0..max_len, each length in
    itertools.product order.  Kept for one alphabet at a time; corpus
    patterns with the same alphabet come in runs."""
    levels = [("",)]
    for _ in range(max_len):
        levels.append(tuple(w + ch for w in levels[-1] for ch in alpha))
    return tuple(levels)


class StringPool(Record, frozen=True):
    """The strings one pattern is swept with: every word over `alpha` of
    length at most `depth`, shorter words first and each length in
    itertools.product order, then the seeded random strings `randoms`.

    Sized, and iterable any number of times.  The words up to length
    depth - 2 are kept (by _levels); the two longest levels, which hold
    most of the words (three quarters of them for a 2-letter alphabet, 97%
    for a 6-letter one), are made from them as they are read, so no list
    of every word is built."""
    __slots__ = ("alpha", "depth", "randoms")

    def __len__(self) -> int:
        return exhaustive_count(len(self.alpha), self.depth) \
            + len(self.randoms)

    def __iter__(self) -> Iterator[str]:
        return itertools.chain(self.exhaustive(), self.randoms)

    def exhaustive(self) -> Iterator[str]:
        """The words over alpha of length at most depth, in pool order."""
        kept = _levels(self.alpha, max(self.depth - 2, 0))
        top = len(kept) - 1  # the length of the longest kept words
        # a word of length n > top is a kept word of length top followed by
        # n - top letters, in the order of both
        return itertools.chain(*kept, *(
            map("".join, itertools.product(kept[top],
                                           *[self.alpha] * (n - top)))
            for n in range(top + 1, self.depth + 1)))


def string_pool(pattern: str, corpus: Corpus) -> StringPool:
    """Exhaustive strings up to corpus.exhaustive_len over the sweep
    alphabet, made as the pool is read, then corpus.random_count seeded
    random strings, drawn here."""
    alpha = sweep_alphabet(pattern)
    rng = random.Random(f"{corpus.seed}:{pattern}")
    # Each letter is rng.choice(alpha): Random._randbelow takes the top
    # len(alpha).bit_length() bits of one 32-bit Mersenne Twister word, and
    # draws again while they are out of range.  getrandbits(32 * k) returns
    # k words, the first drawn least significant, so the top byte of each
    # holds one draw (of at most 8 bits: an alphabet of up to 255 letters);
    # one `translate` drops the draws out of range and turns the rest into
    # letter indices, and each string is decoded once, through the letters
    # as a charmap.  Each round asks for the letters still missing, so the
    # words consumed are exactly choice's, and rng.randint still draws the
    # lengths.  test_string_pool_draws_as_random_choice checks this against
    # random.choice itself.
    shift = 8 - len(alpha).bit_length()
    index = bytes(b >> shift for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= len(alpha))
    getrandbits, randint = rng.getrandbits, rng.randint
    randoms = []
    for _ in range(corpus.random_count):
        need = randint(0, corpus.random_max_len)
        drawn = []
        while need:
            got = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            got = got.translate(index, reject)
            drawn.append(got)
            need -= len(got)
        randoms.append(charmap_decode(b"".join(drawn), None, alpha)[0])
    return StringPool(alpha, corpus.exhaustive_len, tuple(randoms))


def adversarial_strings(pattern: str) -> list[str]:
    head = pattern[0]
    body = pattern[:-1] if len(pattern) > 1 else pattern
    return [head * 50, head * 100, head * 200,
            (body * 200)[:200], (pattern * 200)[:200], (pattern * 200)[:197]]


def oracle_levels(pattern: str, alpha: str,
                  depth: int) -> Iterator[tuple[bool, int]]:
    """kmp_search(pattern, y) for every word y over alpha of length at most
    depth, in the order of the exhaustive strings.

    A word of length n + 1 is a word of length n plus one letter, so each
    level extends the one before: a search is coded as comparisons *
    (len(pattern) + 1) + state, each code's successors (one per letter) come
    once from kmp_resume, and a level is an array of codes."""
    m1 = len(pattern) + 1
    verdict = {}  # code -> (found, comparisons)
    after = {}  # code -> the codes one letter later, one per letter
    level = array("I", (0,))
    for n in range(depth + 1):
        for code in set(level).difference(verdict):
            comparisons, j = divmod(code, m1)
            verdict[code] = (j == m1 - 1, comparisons)
            after[code] = [c * m1 + k for k, c in
                           (kmp_resume(pattern, ch, j, comparisons)
                            for ch in alpha)]
        yield from map(verdict.__getitem__, level)
        if n < depth:
            level = array("I", itertools.chain.from_iterable(
                map(after.__getitem__, level)))


def _sweep(art: PatternArtifacts, pool: StringPool, fail) -> float:
    """Check each string of `pool`, string_pool(pattern, corpus), then each
    of adversarial_strings(pattern), in one pass: the naive matcher and the
    residual, each run black-box, agree with `in` and with the KMP oracle
    (equivalence); the oracle's comparisons and the residual's steps stay
    within their linear bounds (linearity; an oracle over-count fails
    both).  The first failure goes to fail(facet, message) and ends the
    sweep.  The oracle's results on the exhaustive strings come from
    oracle_levels, read alongside the words as they are made, and on the
    others from kmp_search.  Returns the largest steps / (|y| + 1)."""
    pattern = art.pattern
    entry = art.residual.entry
    residual_run = art.residual.program.compiled.run
    naive_run = naive_matcher().compiled.run
    others = [*pool.randoms, *adversarial_strings(pattern)]
    checks = itertools.chain(
        zip(pool.exhaustive(), oracle_levels(pattern, pool.alpha, pool.depth)),
        zip(others, map(partial(kmp_search, pattern), others)))
    bound_add = len(pattern) + 2
    max_ratio = 0.0
    for y, (kmp_found, comparisons) in checks:
        n = len(y)
        if comparisons > 2 * n:
            detail = f"oracle comparisons {comparisons} on |y|={n}"
            fail("equivalence", detail)
            fail("linearity", detail)
            break
        naive_value, _ = naive_run("S", (pattern, y))
        res_value, res_steps = residual_run(entry, (y,))
        if not ((pattern in y) == kmp_found == naive_value == res_value):
            fail("equivalence",
                 f"y={y!r}: contains={pattern in y} search={kmp_found} "
                 f"naive={naive_value} residual={res_value}")
            break
        if res_steps > 2 * n + bound_add:
            fail("linearity", f"y of length {n}: residual took {res_steps} "
                              f"steps, bound {2 * n + bound_add}")
            break
        ratio = res_steps / (n + 1)
        if ratio > max_ratio:
            max_ratio = ratio
    return max_ratio


# --- compressed chains -------------------------------------------------------

def _chains(graph: ProcessGraph, child_ids) -> Iterator[tuple[int, Config]]:
    """Yield (child, configuration) for each transient configuration
    compressed into the edges into `child_ids`, in chain order.  Each parent
    is driven again with a fresh NameGen, once per run of its children, and
    the chain from the child's branch stepped `steps - 1` times by
    drive_step alone, never by a ground step; no check minds the new names.
    A walk that ends early or off the stored child is a CheckFailure, so
    every edge that compress built from ground steps is checked against the
    general drive."""
    program, nodes = naive_matcher(), graph.nodes
    for parent, run in itertools.groupby(child_ids,
                                         lambda c: nodes[c].parent):
        pnode = nodes[parent]
        names = NameGen.for_exprs(pnode.config.expr)
        try:
            branches = drive_step(program, pnode.config, names)
            for c in run:
                want = nodes[c].branch.steps
                end, steps = branches[pnode.children.index(c)].child, 1
                while steps < want and end.is_active():
                    nexts = drive_step(program, end, names)
                    if len(nexts) != 1:
                        break
                    yield c, end
                    end, steps = nexts[0].child, steps + 1
                if steps != want \
                        or not alpha_equivalent(end, nodes[c].config):
                    raise CheckFailure(f"re-driving the edge into node {c} "
                                       f"does not reach it in {want} steps")
        except DriveError as e:
            raise CheckFailure(f"re-driving node {parent}: {e}") from e


# --- the failure table's states, read off the graph --------------------------

def state_config(pattern: str, state) -> Config:
    """The configuration a state (j, seen) stands for: S(p, #y) for state 0
    and L(p[j:], #y, p, p[1:j] ++ #y) for a state j = 1..|p| that takes
    the next letter; a state that holds a letter has #c:#y for #y, under
    the restriction that #c differs from each letter in `seen`."""
    j, seen = state
    y, r = ListParam("y"), EMPTY
    if seen is not None:
        c = SymParam("c")
        y, r = Cons(c, y), restriction((c, Sym(x)) for x in seen)
    if j == 0:
        return make_config(Call("S", (word_cells(pattern), y)), r)
    tail = y
    for ch in reversed(pattern[1:j]):
        tail = Cons(Sym(ch), tail)
    return make_config(Call("L", (word_cells(pattern[j:]), y,
                                  word_cells(pattern), tail)), r)


def _moves(pattern: str, fail, state) -> tuple:
    """The two moves out of a state below |p|, (advance, fallback): p[j]
    advances to state j + 1, or to T after the last state; any other
    letter falls back along the failure table `fail`, skipping every state
    whose letter is known to differ from it (those in `seen`, and p[j]),
    and holds it in the first state left, or returns to the scan."""
    j, seen = state
    held = (seen or frozenset()) | {pattern[j]}
    k = j
    while k and pattern[k] in held:
        k = fail[k]
    fallback = (0, None) if pattern[k] in held else (k, held)
    return ((j + 1, None) if j + 1 < len(pattern) else TRUE), fallback


def _graph_states(graph: ProcessGraph, pattern: str) -> dict:
    """Label each node reached from the root with the state it stands for,
    by child position alone: a pivot in a state that takes a letter has
    the children advance, fallback and F, and one in a state that holds a
    letter the children advance and fallback (see _moves).  A label is a
    state (j, seen), or TRUE or FALSE for a leaf.  Never raises, and
    labels a node once: a child past those positions, or below a node that
    is no pivot or whose label is no state, gets no label."""
    fail = failure_table(pattern)
    labels = {graph.root: (0, None)}
    pending = [graph.root]
    while pending:
        i = pending.pop()
        node, state = graph.nodes[i], labels[i]
        if node.kind != KIND_PIVOT or not isinstance(state, tuple):
            continue
        moves = _moves(pattern, fail, state)
        if state[1] is None:
            moves += (FALSE,)
        for c, label in zip(node.children, moves):
            if c not in labels:
                labels[c] = label
                pending.append(c)
    return labels


def _state_text(state) -> str:
    """T, F, "no state", "state j", or "state j holding a letter not in
    'ab'"."""
    if not isinstance(state, tuple):
        return "no state" if state is None else render_expr(state)
    j, seen = state
    if seen is None:
        return f"state {j}"
    return f"state {j} holding a letter not in {''.join(sorted(seen))!r}"


# --- first path ---------------------------------------------------------------

def expected_path_pivots(pattern: str) -> list[Config]:
    """The configurations of the states 0..|p|-1 that take a letter: the
    entry, then one comparison per matched-prefix length."""
    return [state_config(pattern, (j, None)) for j in range(len(pattern))]


def _first_path_facts(art: PatternArtifacts) -> None:
    graph, pattern = art.graph, art.pattern
    path = first_path(graph)
    leaf = graph.nodes[path[-1]]
    if leaf.config.expr != TRUE:
        raise CheckFailure(f"first path ends at {leaf.config!r}, not T")
    actual = [graph.nodes[i].config for i in path
              if graph.nodes[i].kind == KIND_PIVOT]
    expected = expected_path_pivots(pattern)
    if len(actual) != len(expected):
        raise CheckFailure(
            f"first path has {len(actual)} pivots, expected {len(expected)}")
    for a, e in zip(actual, expected):
        if not alpha_equivalent(a, e):
            raise CheckFailure(f"pivot {a!r} differs from expected {e!r}")
    # each edge along the path is re-driven here, and only here
    into_t = [c for i, c in _chains(graph, path[1:]) if i == path[-1]]
    # the whole pattern matched: L(Nil, Y, pattern, suffix(1) ++ Y)
    final = state_config(pattern, (len(pattern), None))
    if not any(alpha_equivalent(c, final) for c in into_t):
        raise CheckFailure(
            "final comparison configuration missing from the compressed "
            f"chain into the T leaf (expected {final!r})")


# --- restart structure ----------------------------------------------------------

def _restart_facts(art: PatternArtifacts) -> None:
    """Every node off the first path stands for its state: a pivot or fold
    has the state's configuration, a leaf is the T or F its label says,
    and a pivot has the branches of its state, three if it takes a letter
    and two if it holds one; and every edge off the first path re-drives
    to its child."""
    graph, pattern = art.graph, art.pattern
    nodes = graph.nodes
    labels = _graph_states(graph, pattern)
    on_path = set(first_path(graph))
    for i, n in enumerate(nodes):
        if i in on_path:
            continue
        label = labels.get(i)
        if n.kind == KIND_PIVOT or n.kind == KIND_FOLDED:
            ok = isinstance(label, tuple) \
                and alpha_equivalent(n.config, state_config(pattern, label))
        else:
            ok = n.kind == KIND_PASSIVE and n.config.expr == label
        if not ok:
            raise CheckFailure(f"node {i} ({n.config!r}) does not stand for "
                               f"{_state_text(label)}")
        if n.kind == KIND_PIVOT \
                and len(n.children) != (3 if label[1] is None else 2):
            raise CheckFailure(f"node {i} ({_state_text(label)}) has "
                               f"{len(n.children)} branches")
    for _ in _chains(graph, [i for i, n in enumerate(nodes)
                             if n.branch is not None and i not in on_path]):
        pass


# --- covering / no generalization ----------------------------------------------

def _covering_facts(art: PatternArtifacts) -> None:
    graph, report = art.graph, art.report
    nodes = graph.nodes
    if report.generalizations_attempted != 0:
        raise CheckFailure(
            f"whistle fired {report.generalizations_attempted} times "
            f"(pairs {report.whistle_pairs})")
    if any(n.kind == KIND_DIAGNOSTIC for n in nodes):
        raise CheckFailure("diagnostic leaves present")
    # A fold returns to the state it stands for: the one its target, an
    # ancestor, takes a letter in.
    labels = _graph_states(graph, art.pattern)
    for i, n in enumerate(nodes):
        if n.fold is None:
            continue
        target, sigma = n.fold
        again = covers(nodes[target].config, n.config)
        if again is None or again != sigma:
            raise CheckFailure(f"fold {i} -> {target} fails re-verification")
        if target not in graph.ancestors(i):
            raise CheckFailure(f"fold {i} -> {target} is not an ancestor")
        label = labels.get(i)
        if labels.get(target) != label:
            raise CheckFailure(
                f"fold {i} -> {target} leaves {_state_text(label)} for "
                f"{_state_text(labels.get(target))}")
        if not isinstance(label, tuple) or label[1] is not None:
            raise CheckFailure(f"fold {i} -> {target} returns to "
                               f"{_state_text(label)}, which takes no letter")


# --- structural claims -----------------------------------------------------------

def _structure_facts(art: PatternArtifacts) -> None:
    rep = structural_report(art.residual.program)
    if rep.constants_in_rhs != 0:
        raise CheckFailure(f"{rep.constants_in_rhs} constants in call "
                           "arguments")
    if rep.repeated_params_in_rhs != 0:
        raise CheckFailure(f"{rep.repeated_params_in_rhs} call arguments "
                           "share or repeat variables")
    if rep.max_lhs_cons_depth > 1:
        raise CheckFailure(f"a rule inspects {rep.max_lhs_cons_depth} "
                           "leading symbols")


# --- the failure table's KMP program ------------------------------------------

def _automaton_facts(art: PatternArtifacts) -> dict:
    """Read the residual, rule by rule, as the KMP program of the pattern's
    failure table, and return the state each function stands for.

    One walk over the rules from the entry: each function stands for a
    state j, as (j, None) when it takes the next letter, or as (j, seen)
    when it holds one letter already read, known to differ from every
    letter in `seen`.  Its rules must be exactly, in this order, the
    state's two moves (see _moves), p[j] and any other letter, and for a
    function that takes a letter Nil = F.  Each state has exactly one
    function that takes a letter, and every function is reached."""
    pattern, rp = art.pattern, art.residual
    fail = failure_table(pattern)
    states = {rp.entry: (0, None)}
    takers = {}  # state -> its function that takes a letter
    pending = [rp.entry]
    while pending:
        name = pending.pop()
        j, seen = states[name]
        where = f"{name} ({_state_text((j, seen))})"
        rules = rp.program.rules(name)
        if seen is None and takers.setdefault(j, name) != name:
            raise CheckFailure(f"{takers[j]} and {name} both take letters "
                               f"in state {j}")
        if len(rules) != (3 if seen is None else 2):
            raise CheckFailure(f"{where} has {len(rules)} rules")
        for n, (rule, letter, target) in enumerate(zip(
                rules, (Sym(pattern[j]), None),
                _moves(pattern, fail, (j, seen)))):
            lhs = rule.lhs  # read as (letter, rest of the string)
            if seen is None:
                lhs = (lhs[0].head, lhs[0].tail) \
                    if isinstance(lhs[0], Cons) else ()
            ok = len(lhs) == 2 and isinstance(lhs[1], ListVar) and (
                lhs[0] == letter if letter else isinstance(lhs[0], SymVar))
            if target is TRUE:
                ok = ok and rule.rhs == TRUE
            else:
                ok = ok and isinstance(rule.rhs, Call) \
                    and rule.rhs.args == (lhs if target[1] else lhs[1:])
            if not ok:
                raise CheckFailure(
                    f"{where}: rule {n} ({rule!r}) is not the move on "
                    f"{repr(letter) if letter else 'any other letter'} to "
                    f"{_state_text(target)}")
            if target is TRUE:
                continue
            callee = rule.rhs.fn
            if callee not in states:
                states[callee] = target
                pending.append(callee)
            elif states[callee] != target:
                raise CheckFailure(f"{callee} stands for both "
                                   f"{_state_text(states[callee])} and "
                                   f"{_state_text(target)}")
        if seen is None and rules[2] != Rule((NIL,), FALSE):
            raise CheckFailure(f"{where}: rule 2 ({rules[2]!r}) is not "
                               "Nil = F")
    unreached = [f for f, _ in rp.program.functions if f not in states]
    if unreached:
        raise CheckFailure(f"{', '.join(unreached)} unreachable from "
                           f"{rp.entry}")
    return states


# --- ground-instance replay --------------------------------------------------------

def branch_admits(branch, env: dict) -> dict | None:
    """Does a ground assignment of the parent's parameters fall into this
    branch?  Returns the extended assignment (fresh parameters bound, spent
    ones dropped) or None."""
    env2 = dict(env)

    def match_image(img, val) -> bool:
        if isinstance(img, (SymParam, ListParam)):
            env2[img] = val
            return True
        if isinstance(img, (Sym, Nil)):
            return img == val
        if isinstance(img, Cons):
            if val.__class__ is Word:
                val = val.cells()
            return (isinstance(val, Cons) and match_image(img.head, val.head)
                    and match_image(img.tail, val.tail))
        raise ValueError(f"unexpected narrowing image {img!r}")

    for p, img in branch.subst:
        if not match_image(img, env[p]):
            return None
    for t1, t2 in branch.added.diseqs:
        v1 = env2.get(t1, t1)
        v2 = env2.get(t2, t2)
        if v1 == v2:
            return None
    return env2


MAX_REPLAY_VISITS = 100_000


def replay_graph(graph: ProcessGraph, env: dict):
    """Walk a closed graph under a ground assignment of the root parameters
    and return the passive verdict it reaches.

    Exactly one branch must admit the instance at every interior node; fold
    edges re-enter their target through the recorded renaming.  A walk
    longer than MAX_REPLAY_VISITS nodes fails as non-terminating."""
    node_id = graph.root
    visits = 0
    while True:
        visits += 1
        if visits > MAX_REPLAY_VISITS:
            raise CheckFailure("graph replay did not terminate")
        node = graph.nodes[node_id]
        if node.kind == KIND_PASSIVE:
            return node.config.expr
        if node.kind == KIND_FOLDED:
            target, sigma = node.fold
            env = {q: env[sigma[q]]
                   for q in graph.nodes[target].config.params()}
            node_id = target
            continue
        if node.kind == KIND_DIAGNOSTIC:
            raise CheckFailure("replay reached a diagnostic leaf")
        admitted = []
        for c in node.children:
            env2 = branch_admits(graph.nodes[c].branch, env)
            if env2 is not None:
                admitted.append((c, env2))
        if len(admitted) != 1:
            raise CheckFailure(
                f"{len(admitted)} branches admit the instance at node "
                f"{node_id}")
        node_id, env2 = admitted[0]
        env = {p: env2[p] for p in graph.nodes[node_id].config.params()}


# --- reports -----------------------------------------------------------------------

# The facets, in record-line order: each maps to its check of the graph or
# residual, run in this order, or to None when _sweep decides it.
FACETS = {
    "first_path": _first_path_facts,
    "restart": _restart_facts,
    "covering": _covering_facts,
    "structural": _structure_facts,
    "equivalence": None,
    "linearity": None,
    "automaton": _automaton_facts,
}


def verify_pattern(pattern: str, corpus: Corpus,
                   seconds: dict | None = None) -> VerificationReport:
    """Check every facet of one pattern: a check that raises CheckFailure
    and the sweep both report through `fail`.  If given, `seconds` gains the
    time of each phase: specialize (and residualize), compile, each facet's
    check, string_pool (the random draws), and the sweep (which makes the
    exhaustive words as it reads them)."""
    check_pool_budget(pattern, corpus)
    seconds = {} if seconds is None else seconds
    verdicts = dict.fromkeys(FACETS, True)
    failures = []

    def fail(facet: str, message) -> None:
        verdicts[facet] = False
        failures.append(f"{facet}: {message}")

    def timed(phase, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[phase] = seconds.get(phase, 0.0) + perf_counter() - t0

    art = timed("specialize", artifacts, pattern)
    # each entry the sweep runs compiles on its first use, here
    timed("compile", lambda: (
        art.residual.program.compiled.runner(art.residual.entry),
        naive_matcher().compiled.runner("S")))
    for facet, check in FACETS.items():
        if check is not None:
            try:
                timed(facet, check, art)
            except CheckFailure as e:
                fail(facet, e)
    pool = timed("string_pool", string_pool, pattern, corpus)
    max_ratio = timed("sweep", _sweep, art, pool, fail)

    sample = pattern[0] * 120
    _, naive_sample = naive_matcher().compiled.run("S", (pattern, sample))
    _, residual_sample = art.residual.program.compiled.run(
        art.residual.entry, (sample,))
    metrics = {
        "pivot_count": len(art.report.pivots),
        "residual_function_count": len(art.residual.program.functions),
        "consuming_function_count": sum(
            len(rules[0].lhs) == 1
            for _, rules in art.residual.program.functions),
        "node_count": art.report.node_count,
        "fold_count": art.report.fold_count,
        "max_steps_ratio": max_ratio,
        "naive_steps_sample": naive_sample,
        "residual_steps_sample": residual_sample,
    }
    return VerificationReport(pattern, verdicts, metrics, tuple(failures))


def verify_corpus(corpus: Corpus,
                  seconds: dict | None = None) -> list[VerificationReport]:
    return [verify_pattern(p, corpus, seconds) for p in corpus.patterns]


def record_line(report: VerificationReport) -> str:
    flags = "".join(f" {facet}={'ok' if ok else 'FAIL'}"
                    for facet, ok in report.verdicts.items())
    m = report.metrics
    return (
        f"pattern={report.pattern}{flags}"
        f" pivots={m['pivot_count']}"
        f" functions={m['residual_function_count']}"
        f" consuming={m['consuming_function_count']}"
        f" nodes={m['node_count']}"
        f" folds={m['fold_count']}"
        f" max_ratio={m['max_steps_ratio']:.4f}"
        f" naive_sample={m['naive_steps_sample']}"
        f" residual_sample={m['residual_steps_sample']}"
    )


def summary_lines(reports: list[VerificationReport]) -> list[str]:
    bad = [r for r in reports if not r.ok]
    out = [f"patterns checked: {len(reports)}",
           f"patterns passing: {len(reports) - len(bad)}"]
    for r in bad:
        for f in r.failures:
            out.append(f"  {r.pattern}: {f}")
    out.append("result: " + ("PASS" if not bad else "FAIL"))
    return out
