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
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .configs import Config, alpha_equivalent, covers, make_config
from .interpreter import CompiledProgram, naive_matcher
from .kmp import automaton, kmp_search
from .residual import (
    ResidualProgram, consuming_functions, residualize, structural_report,
    transition,
)
from .scp import (
    KIND_DIAGNOSTIC, KIND_FOLDED, KIND_PASSIVE, KIND_PIVOT, ProcessGraph,
    ScpReport, first_path, first_path_pivots, head_fn, matcher_entry,
    specialize_pattern,
)
from .syntax import (
    Call, Cons, ListParam, Nil, Sym, SymParam, TRUE, spine, word,
)

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class CheckFailure(AssertionError):
    """A verification facet failed; the message carries the evidence."""


@dataclass(frozen=True)
class Corpus:
    """Test plan: patterns plus string-sweep sizes, deterministic per seed."""
    patterns: tuple[str, ...]
    exhaustive_len: int = 8
    random_count: int = 1000
    random_max_len: int = 200
    seed: int = 7


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


@dataclass
class VerificationReport:
    pattern: str
    first_path_ok: bool
    restart_ok: bool
    covering_ok: bool
    structural_ok: bool
    equivalence_ok: bool
    linearity_ok: bool
    automaton_ok: bool
    metrics: dict
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return all((self.first_path_ok, self.restart_ok, self.covering_ok,
                    self.structural_ok, self.equivalence_ok,
                    self.linearity_ok, self.automaton_ok))


# --- shared artifacts ---------------------------------------------------------

@dataclass
class PatternArtifacts:
    pattern: str
    graph: ProcessGraph
    report: ScpReport
    residual: ResidualProgram
    runner: CompiledProgram
    naive_runner: CompiledProgram


@lru_cache(maxsize=None)
def artifacts(pattern: str) -> PatternArtifacts:
    graph, report = specialize_pattern(pattern)
    rp = residualize(graph)
    return PatternArtifacts(pattern, graph, report, rp,
                            CompiledProgram(rp.program),
                            naive_matcher().compiled)


def sweep_alphabet(pattern: str) -> str:
    """The pattern's letters plus one fresh letter, in a fixed order."""
    base = sorted(set(pattern))
    fresh = next((c for c in LETTERS if c not in base), None)
    if fresh is None:
        raise ValueError(f"pattern {pattern!r} uses every letter a-z, so "
                         "no fresh letter is left for the sweep alphabet")
    return "".join(base) + fresh


def string_pool(pattern: str, corpus: Corpus) -> list[str]:
    """Exhaustive strings up to corpus.exhaustive_len over the sweep
    alphabet, then corpus.random_count seeded random strings."""
    alpha = sweep_alphabet(pattern)
    pool = []
    for n in range(corpus.exhaustive_len + 1):
        pool.extend("".join(t) for t in itertools.product(alpha, repeat=n))
    rng = random.Random(f"{corpus.seed}:{pattern}")
    # Each letter is rng.choice(alpha) inlined: the draw Random._randbelow
    # makes (getrandbits of len(alpha).bit_length() bits, redrawn while out
    # of range), so the strings are exactly choice's, without its two
    # Python frames per letter.
    size = len(alpha)
    bits = size.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(corpus.random_count):
        letters = []
        for _ in range(rng.randint(0, corpus.random_max_len)):
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            letters.append(alpha[r])
        pool.append("".join(letters))
    return pool


def adversarial_strings(pattern: str) -> list[str]:
    head = pattern[0]
    body = pattern[:-1] if len(pattern) > 1 else pattern
    return [head * 50, head * 100, head * 200,
            (body * 200)[:200], (pattern * 200)[:200], (pattern * 200)[:197]]


@dataclass(frozen=True)
class SweepResult:
    equivalence_ok: bool
    linearity_ok: bool
    max_steps_ratio: float
    counterexample: Optional[str]
    bound_violation: Optional[str]


@lru_cache(maxsize=None)
def _sweep(pattern: str, corpus: Corpus) -> SweepResult:
    art = artifacts(pattern)
    entry = art.residual.entry
    bound_add = len(pattern) + 2
    max_ratio = 0.0
    for y in string_pool(pattern, corpus) + adversarial_strings(pattern):
        expected = pattern in y
        kmp_found, comparisons = kmp_search(pattern, y)
        if comparisons > 2 * len(y):
            return SweepResult(False, False, max_ratio, None,
                               f"oracle comparisons {comparisons} on |y|={len(y)}")
        naive_value, _ = art.naive_runner.run("S", (pattern, y))
        res_value, res_steps = art.runner.run(entry, (y,))
        if not (expected == kmp_found == naive_value == res_value):
            detail = (f"y={y!r}: contains={expected} search={kmp_found} "
                      f"naive={naive_value} residual={res_value}")
            return SweepResult(False, True, max_ratio, detail, None)
        if res_steps > 2 * len(y) + bound_add:
            detail = (f"y of length {len(y)}: residual took {res_steps} steps, "
                      f"bound {2 * len(y) + bound_add}")
            return SweepResult(True, False, max_ratio, None, detail)
        max_ratio = max(max_ratio, res_steps / (len(y) + 1))
    return SweepResult(True, True, max_ratio, None, None)


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
    last_branch = graph.nodes[path[-1]].branch
    # the whole pattern matched: L(Nil, Y, pattern, suffix(1) ++ Y)
    final = _comparison_config(art.pattern, len(art.pattern))
    if not any(alpha_equivalent(c, final) for c in last_branch.chain):
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
    # a root restart.
    for child_id, cfg in graph.chain_configs():
        if covers(held_form, cfg) is None:
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

def branch_admits(branch, env: dict) -> Optional[dict]:
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


# --- step-count contrast -----------------------------------------------------------

def step_contrast(pattern: str = "aaab",
                  lengths: tuple[int, ...] = (50, 100, 200)) -> dict:
    """Naive vs residual step counts on the all-first-letter family."""
    art = artifacts(pattern)
    rows = {}
    for m in lengths:
        y = pattern[0] * m
        _, naive_steps = art.naive_runner.run("S", (pattern, y))
        _, res_steps = art.runner.run(art.residual.entry, (y,))
        rows[m] = (naive_steps, res_steps)
    return rows


# --- reports -----------------------------------------------------------------------

def verify_pattern(pattern: str, corpus: Corpus) -> VerificationReport:
    art = artifacts(pattern)
    failures = []

    def facet(fn, *args) -> bool:
        try:
            fn(*args)
            return True
        except CheckFailure as e:
            failures.append(f"{fn.__name__.lstrip('_')}: {e}")
            return False

    first_ok = facet(_first_path_facts, art)
    restart_ok = facet(_restart_facts, art)
    covering_ok = facet(_covering_facts, art)
    structural_ok = facet(_structure_facts, art)
    auto_ok = facet(_automaton_facts, art)
    sweep = _sweep(pattern, corpus)
    if sweep.counterexample:
        failures.append(f"equivalence: {sweep.counterexample}")
    if sweep.bound_violation:
        failures.append(f"linearity: {sweep.bound_violation}")

    sample = pattern[0] * 120
    _, naive_sample = art.naive_runner.run("S", (pattern, sample))
    _, residual_sample = art.runner.run(art.residual.entry, (sample,))
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


def verify_corpus(corpus: Corpus) -> list[VerificationReport]:
    return [verify_pattern(p, corpus) for p in corpus.patterns]


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
