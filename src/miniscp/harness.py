"""Per-pattern verification of everything the specializer is supposed to
guarantee.

For each pattern this module builds the process graph and residual program
once, then checks, as separate falsifiable facets:

  * first_path   -- the lowest-rule-index path visits the expected pivot
                    sequence (entry, then one comparison state per matched
                    prefix) and ends at T;
  * restart      -- every mismatch restarts correctly: folds on restart
                    configurations always target the root, and the
                    configurations holding one read-but-unmatched symbol
                    branch exactly into re-entry (covered by the first
                    comparison state) and restart (covered by the root);
  * covering     -- the whistle never fired, every fold edge re-verifies,
                    and every fold stays within the first-path prefix above
                    the subtree it leaves;
  * structural   -- the residual carries no constants or repeated variables
                    into calls and inspects at most one symbol per rule;
  * equivalence  -- naive run, residual run, the independent linear-search
                    oracle, and brute-force containment agree on an
                    exhaustive small-string sweep plus seeded random strings;
  * linearity    -- residual step counts stay within 2|y| + |pattern| + 2;
  * automaton    -- the residual's consuming functions are isomorphic to the
                    failure-function automaton's non-accepting states.

All randomness is seeded per (corpus seed, pattern); reports are
deterministic down to the byte.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections.abc import Iterator
from functools import lru_cache, partial
from time import perf_counter

from .configs import Config, alpha_equivalent, covers, make_config
from .driving import NameGen, drive_step, transients
from .interpreter import DriveError, naive_matcher
from .kmp import automaton, kmp_resume, kmp_search
from .record import Record
from .residual import (
    consuming_functions, residualize, structural_report, transition,
)
from .scp import (
    KIND_DIAGNOSTIC, KIND_FOLDED, KIND_PASSIVE, KIND_PIVOT, ProcessGraph,
    first_path, first_path_pivots, head_fn, matcher_entry, specialize_pattern,
)
from .syntax import (
    Call, Cons, ListParam, Nil, Sym, SymParam, TRUE, spine, word,
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
    __slots__ = ("pattern", "first_path_ok", "restart_ok", "covering_ok",
                 "structural_ok", "equivalence_ok", "linearity_ok",
                 "automaton_ok", "metrics", "failures")
    _defaults = {"failures": ()}

    @property
    def ok(self) -> bool:
        return all((self.first_path_ok, self.restart_ok, self.covering_ok,
                    self.structural_ok, self.equivalence_ok,
                    self.linearity_ok, self.automaton_ok))


# --- shared artifacts ---------------------------------------------------------

class PatternArtifacts(Record):
    """What every facet of one pattern reads: the process graph and report,
    and the residual."""
    __slots__ = ("pattern", "graph", "report", "residual")


@lru_cache(maxsize=None)
def artifacts(pattern: str) -> PatternArtifacts:
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
def _exhaustive(alpha: str, max_len: int) -> tuple[str, ...]:
    """Every word over alpha of length at most max_len: shorter words first,
    each length in itertools.product order.  Kept for one alphabet at a
    time; corpus patterns with the same alphabet come in runs."""
    level, words = [""], [""]
    for _ in range(max_len):
        level = [w + ch for w in level for ch in alpha]
        words += level
    return tuple(words)


def string_pool(pattern: str, corpus: Corpus) -> list[str]:
    """Exhaustive strings up to corpus.exhaustive_len over the sweep
    alphabet, then corpus.random_count seeded random strings."""
    alpha = sweep_alphabet(pattern)
    pool = list(_exhaustive(alpha, corpus.exhaustive_len))
    rng = random.Random(f"{corpus.seed}:{pattern}")
    # Each letter is rng.choice(alpha): Random._randbelow takes the top
    # len(alpha).bit_length() bits of one 32-bit Mersenne Twister word, and
    # draws again while they are out of range.  getrandbits(32 * k) returns
    # k words, the first drawn least significant, so the top byte of each
    # holds one draw (of at most 8 bits: an alphabet of up to 255 letters);
    # `translate` drops the draws out of range and turns the rest into
    # letter indices.  Each round asks for the letters still missing, so the
    # words consumed are exactly choice's, and rng.randint still draws the
    # lengths.  test_string_pool_draws_as_random_choice checks this against
    # random.choice itself.
    shift = 8 - len(alpha).bit_length()
    index = bytes(b >> shift for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= len(alpha))
    letters = dict(enumerate(alpha))
    getrandbits, randint = rng.getrandbits, rng.randint
    for _ in range(corpus.random_count):
        need = randint(0, corpus.random_max_len)
        drawn = []
        while need:
            got = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            got = got.translate(index, reject)
            drawn.append(got)
            need -= len(got)
        pool.append(b"".join(drawn).decode("latin-1").translate(letters))
    return pool


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


class SweepResult(Record, frozen=True):
    """The string sweep's verdicts, its largest step ratio, and the first
    counterexample or bound violation found (str | None each)."""
    __slots__ = ("equivalence_ok", "linearity_ok", "max_steps_ratio",
                 "counterexample", "bound_violation")


def _sweep(pattern: str, corpus: Corpus, strings: list[str]) -> SweepResult:
    """Check each of `strings`, string_pool(pattern, corpus) followed by
    adversarial_strings(pattern): the naive matcher and the residual, each
    run black-box, agree with `in` and with the KMP oracle; the oracle's
    comparisons and the residual's steps stay within their linear bounds.
    The oracle's results on the exhaustive strings come from oracle_levels,
    on the others from kmp_search."""
    art = artifacts(pattern)
    entry = art.residual.entry
    residual_run = art.residual.program.compiled.run
    naive_run = naive_matcher().compiled.run
    alpha = sweep_alphabet(pattern)
    exhaustive = exhaustive_count(len(alpha), corpus.exhaustive_len)
    oracle = itertools.chain(
        oracle_levels(pattern, alpha, corpus.exhaustive_len),
        map(partial(kmp_search, pattern),
            itertools.islice(strings, exhaustive, None)))
    bound_add = len(pattern) + 2
    max_ratio = 0.0
    for y, (kmp_found, comparisons) in zip(strings, oracle):
        n = len(y)
        if comparisons > 2 * n:
            return SweepResult(False, False, max_ratio, None,
                               f"oracle comparisons {comparisons} on |y|={n}")
        naive_value, _ = naive_run("S", (pattern, y))
        res_value, res_steps = residual_run(entry, (y,))
        if not ((pattern in y) == kmp_found == naive_value == res_value):
            detail = (f"y={y!r}: contains={pattern in y} search={kmp_found} "
                      f"naive={naive_value} residual={res_value}")
            return SweepResult(False, True, max_ratio, detail, None)
        if res_steps > 2 * n + bound_add:
            detail = (f"y of length {n}: residual took {res_steps} steps, "
                      f"bound {2 * n + bound_add}")
            return SweepResult(True, False, max_ratio, None, detail)
        ratio = res_steps / (n + 1)
        if ratio > max_ratio:
            max_ratio = ratio
    return SweepResult(True, True, max_ratio, None, None)


# --- compressed chains -------------------------------------------------------

def _chains(graph: ProcessGraph, child_ids) -> Iterator[tuple[int, Config]]:
    """Yield (child, configuration) for each transient configuration
    compressed into the edges into `child_ids`, in chain order.  Each parent
    is driven again with a fresh NameGen, once per run of its children, and
    the child's branch walked `steps - 1` transients by drive_step alone;
    no check minds the new names.  A walk that ends early or off the stored
    child is a CheckFailure, so every edge that compress built from ground
    steps is checked against the general drive."""
    program, nodes = naive_matcher(), graph.nodes
    for parent, run in itertools.groupby(child_ids,
                                         lambda c: nodes[c].parent):
        pnode = nodes[parent]
        step = partial(drive_step, program,
                       names=NameGen.for_exprs(pnode.config.expr))
        try:
            branches = step(pnode.config)
            for c in run:
                want = nodes[c].branch.steps
                end, steps = branches[pnode.children.index(c)].child, 1
                for cfg, nxt in itertools.islice(
                        transients(end, step), want - 1):
                    yield c, cfg
                    end, steps = nxt.child, steps + 1
                if steps != want \
                        or not alpha_equivalent(end, nodes[c].config):
                    raise CheckFailure(f"re-driving the edge into node {c} "
                                       f"does not reach it in {want} steps")
        except DriveError as e:
            raise CheckFailure(f"re-driving node {parent}: {e}") from e


# --- first path ---------------------------------------------------------------

def _comparison_config(pattern: str, i: int) -> Config:
    """The comparison after i matched letters: L(suffix(i), Y, pattern,
    stagger(i) ++ Y), stagger(i) being letters 1..i-1 of the pattern."""
    y = ListParam("y")
    tail = y
    for ch in reversed(pattern[1:i]):
        tail = Cons(Sym(ch), tail)
    return make_config(Call("L", (word(pattern[i:]), y, word(pattern), tail)))


def expected_path_pivots(pattern: str) -> list[Config]:
    """The entry followed by one comparison configuration per matched-prefix
    length i = 1..n-1."""
    return [matcher_entry(pattern)[1]] + [
        _comparison_config(pattern, i) for i in range(1, len(pattern))]


def _first_path_facts(art: PatternArtifacts) -> None:
    graph = art.graph
    path = first_path(graph)
    leaf = graph.nodes[path[-1]]
    if leaf.config.expr != TRUE:
        raise CheckFailure(f"first path ends at {leaf.config!r}, not T")
    actual = first_path_pivots(graph)
    expected = expected_path_pivots(art.pattern)
    if len(actual) != len(expected):
        raise CheckFailure(
            f"first path has {len(actual)} pivots, expected {len(expected)}")
    for a, e in zip(actual, expected):
        if not alpha_equivalent(a, e):
            raise CheckFailure(f"pivot {a!r} differs from expected {e!r}")
    lengths = [len(spine(cfg.expr.args[0])[0]) for cfg in actual]
    if any(a <= b for a, b in zip(lengths, lengths[1:])):
        raise CheckFailure(f"pattern-suffix lengths not decreasing: {lengths}")
    chain = [c for _, c in _chains(graph, [path[-1]])]
    # the whole pattern matched: L(Nil, Y, pattern, suffix(1) ++ Y)
    final = _comparison_config(art.pattern, len(art.pattern))
    if not any(alpha_equivalent(c, final) for c in chain):
        raise CheckFailure(
            "final comparison configuration missing from the compressed "
            f"chain into the T leaf (expected {final!r})")


# --- restart structure ----------------------------------------------------------

def _restart_facts(art: PatternArtifacts) -> None:
    graph, pattern = art.graph, art.pattern
    nodes = graph.nodes
    first = pattern[0]
    # up to renaming, a restart is S(pattern, #y), and a held-symbol
    # configuration S(pattern, #s.c:#y) holds one read symbol c
    restart_form = matcher_entry(pattern)[1]
    held_form = make_config(Call("S", (word(pattern),
                                       Cons(SymParam("c"), ListParam("y")))))

    # Folds into S-configurations always target the root.
    for i, n in enumerate(nodes):
        if n.fold is not None:
            target, _ = n.fold
            if head_fn(nodes[target].config) == "S" and target != graph.root:
                raise CheckFailure(
                    f"fold {i} targets a non-root S-configuration {target}")

    def require_root_restart(node_id: int) -> None:
        n = nodes[node_id]
        if n.kind != KIND_FOLDED or n.fold[0] != graph.root \
                or covers(restart_form, n.config) is None:
            raise CheckFailure(
                f"node {node_id} ({n.config!r}) is not a root restart")

    # Held-symbol configurations appearing as nodes: the root must be their
    # only S-headed ancestor, and their two branches must be re-entry
    # (covered by the first comparison state) and restart (covered by root).
    reentry = _comparison_config(pattern, 1)
    for i, n in enumerate(nodes):
        if covers(held_form, n.config) is None:
            continue
        for a in graph.ancestors(i):
            if head_fn(nodes[a].config) == "S" and a != graph.root:
                raise CheckFailure(
                    f"held-symbol node {i} has non-root S-ancestor {a}")
        if nodes[graph.root].kind != KIND_PIVOT:
            raise CheckFailure("root is not a pivot")
        if n.kind != KIND_PIVOT:
            continue  # folded duplicates need no branch check
        held = n.config.expr.args[1].head
        if any(Sym(first) in pair and held in pair
               for pair in n.config.restriction.diseqs):
            raise CheckFailure(
                f"held-symbol node {i} driven although the first letter "
                "is already excluded")
        if len(n.children) != 2:
            raise CheckFailure(
                f"held-symbol node {i} has {len(n.children)} branches")
        advance, restart = (nodes[c] for c in n.children)
        if advance.kind != KIND_FOLDED \
                or not alpha_equivalent(advance.config, reentry) \
                or covers(nodes[advance.fold[0]].config,
                          advance.config) is None:
            raise CheckFailure(
                f"held-symbol node {i}: first branch is not a covered "
                f"re-entry (got {advance.config!r})")
        require_root_restart(n.children[1])

    # Held-symbol configurations compressed into edges: they sit at the end
    # of their chain, with the first letter excluded, and the edge's child is
    # a root restart.  Every edge is rebuilt, which checks every step count.
    edges = [i for i, n in enumerate(nodes) if n.branch is not None]
    for child_id, cfg in _chains(graph, edges):
        if head_fn(cfg) != "S" or covers(held_form, cfg) is None:
            continue
        held = cfg.expr.args[1].head
        if not any(Sym(first) in pair and held in pair
                   for pair in cfg.restriction.diseqs):
            raise CheckFailure(
                f"compressed held-symbol configuration {cfg!r} does not "
                "exclude the pattern's first letter")
        for a in graph.ancestors(child_id):
            if head_fn(nodes[a].config) == "S" and a != graph.root:
                raise CheckFailure(
                    f"held-symbol chain of node {child_id} has a non-root "
                    f"S-ancestor {a}")
        require_root_restart(child_id)

    # Every mismatch branch out of an L-headed pivot chases, through
    # fallback pivots, to a root restart.
    def chase(node_id: int) -> None:
        n = nodes[node_id]
        for c in n.children:
            b = nodes[c].branch
            if not b.narrowing.added.diseqs:
                continue  # not a mismatch branch
            child = nodes[c]
            if child.kind == KIND_FOLDED:
                require_root_restart(c)
            elif child.kind == KIND_PIVOT:
                if covers(held_form, child.config) is not None:
                    continue  # validated above
                if head_fn(child.config) != "L":
                    raise CheckFailure(
                        f"mismatch branch reached unexpected pivot "
                        f"{child.config!r}")
                chase(c)
            else:
                raise CheckFailure(
                    f"mismatch branch reached a {child.kind} node "
                    f"({child.config!r})")

    for i, n in enumerate(nodes):
        if n.kind == KIND_PIVOT and head_fn(n.config) == "L":
            chase(i)


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
    for i, n in enumerate(nodes):
        if n.fold is None:
            continue
        target, sigma = n.fold
        again = covers(nodes[target].config, n.config)
        if again is None or again != sigma:
            raise CheckFailure(f"fold {i} -> {target} fails re-verification")
        if target not in set(graph.ancestors(i)):
            raise CheckFailure(f"fold {i} -> {target} is not an ancestor")
    fp = first_path(graph)
    fp_pos = {node: k for k, node in enumerate(fp)}
    for i, n in enumerate(nodes):
        if n.fold is None:
            continue
        target, _ = n.fold
        if target not in fp_pos:
            raise CheckFailure(f"fold target {target} off the first path")
        hang = i
        while hang not in fp_pos:
            hang = nodes[hang].parent
        if fp_pos[target] > fp_pos[hang]:
            raise CheckFailure(
                f"fold {i} -> {target} jumps below its subtree's first-path "
                f"attachment {hang}")


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


# --- automaton isomorphism ----------------------------------------------------------

def _automaton_facts(art: PatternArtifacts) -> dict:
    pattern = art.pattern
    rp = art.residual
    auto = automaton(pattern)
    consuming = consuming_functions(rp)
    if len(consuming) != len(pattern):
        raise CheckFailure(
            f"{len(consuming)} consuming functions for {len(pattern)} "
            "non-accepting states")
    alpha = sweep_alphabet(pattern)
    mapping = {rp.entry: 0}
    queue = [rp.entry]
    while queue:
        fname = queue.pop()
        state = mapping[fname]
        for ch in alpha:
            via_residual = transition(rp, fname, ch)
            via_failure = auto.delta(state, ch)
            if via_residual == "accept":
                if via_failure != auto.accept:
                    raise CheckFailure(
                        f"{fname} accepts on {ch!r} but state {state} "
                        f"moves to {via_failure}")
                continue
            if via_failure == auto.accept:
                raise CheckFailure(
                    f"state {state} accepts on {ch!r} but {fname} moves to "
                    f"{via_residual}")
            if via_residual in mapping:
                if mapping[via_residual] != via_failure:
                    raise CheckFailure(
                        f"{via_residual} maps to both "
                        f"{mapping[via_residual]} and {via_failure}")
            else:
                mapping[via_residual] = via_failure
                queue.append(via_residual)
    if set(mapping) != set(consuming):
        raise CheckFailure("some consuming functions are unreachable")
    if sorted(mapping.values()) != list(range(len(pattern))):
        raise CheckFailure(f"state map {mapping} is not a bijection")
    return mapping


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
            return (isinstance(val, Cons) and match_image(img.head, val.head)
                    and match_image(img.tail, val.tail))
        raise ValueError(f"unexpected narrowing image {img!r}")

    for p, img in branch.narrowing.subst:
        if not match_image(img, env[p]):
            return None
    for t1, t2 in branch.narrowing.added.diseqs:
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

def verify_pattern(pattern: str, corpus: Corpus,
                   seconds: dict | None = None) -> VerificationReport:
    """Check every facet of one pattern.  If given, `seconds` gains the
    time of each phase: specialize (and residualize), compile, the five
    graph and residual facets, string_pool, and the sweep."""
    check_pool_budget(pattern, corpus)
    seconds = {} if seconds is None else seconds
    failures = []

    def timed(phase, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[phase] = seconds.get(phase, 0.0) + perf_counter() - t0

    def facet(phase, fn, *args) -> bool:
        try:
            timed(phase, fn, *args)
            return True
        except CheckFailure as e:
            failures.append(f"{fn.__name__.lstrip('_')}: {e}")
            return False

    art = timed("specialize", artifacts, pattern)
    # each program compiles on its first use, here
    timed("compile", lambda: (art.residual.program.compiled,
                              naive_matcher().compiled))
    first_ok = facet("first_path", _first_path_facts, art)
    restart_ok = facet("restart", _restart_facts, art)
    covering_ok = facet("covering", _covering_facts, art)
    structural_ok = facet("structural", _structure_facts, art)
    auto_ok = facet("automaton", _automaton_facts, art)
    strings = timed("string_pool", string_pool, pattern, corpus)
    strings += adversarial_strings(pattern)
    sweep = timed("sweep", _sweep, pattern, corpus, strings)
    if sweep.counterexample:
        failures.append(f"equivalence: {sweep.counterexample}")
    if sweep.bound_violation:
        failures.append(f"linearity: {sweep.bound_violation}")

    sample = pattern[0] * 120
    _, naive_sample = naive_matcher().compiled.run("S", (pattern, sample))
    _, residual_sample = art.residual.program.compiled.run(
        art.residual.entry, (sample,))
    metrics = {
        "pivot_count": len(art.report.pivots),
        "residual_function_count": len(art.residual.program.functions),
        "consuming_function_count": len(consuming_functions(art.residual)),
        "node_count": art.report.node_count,
        "fold_count": art.report.fold_count,
        "max_steps_ratio": sweep.max_steps_ratio,
        "naive_steps_sample": naive_sample,
        "residual_steps_sample": residual_sample,
    }
    return VerificationReport(
        pattern, first_ok, restart_ok, covering_ok, structural_ok,
        sweep.equivalence_ok, sweep.linearity_ok, auto_ok, metrics,
        tuple(failures))


def verify_corpus(corpus: Corpus,
                  seconds: dict | None = None) -> list[VerificationReport]:
    return [verify_pattern(p, corpus, seconds) for p in corpus.patterns]


def record_line(report: VerificationReport) -> str:
    flag = lambda ok: "ok" if ok else "FAIL"  # noqa: E731
    m = report.metrics
    return (
        f"pattern={report.pattern}"
        f" first_path={flag(report.first_path_ok)}"
        f" restart={flag(report.restart_ok)}"
        f" covering={flag(report.covering_ok)}"
        f" structural={flag(report.structural_ok)}"
        f" equivalence={flag(report.equivalence_ok)}"
        f" linearity={flag(report.linearity_ok)}"
        f" automaton={flag(report.automaton_ok)}"
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
