import io
import os
import stat
import subprocess
import sys

import pytest

import miniscp
from miniscp import cli, harness
from miniscp.cli import main
from miniscp.scp import export_dot, specialize_pattern


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_failure_table_output():
    code, out, _ = run_cli("failure", "--pattern", "ababa")
    assert code == 0
    assert "values: 0,0,0,1,2" in out


def test_failure_table_aab():
    code, out, _ = run_cli("failure", "--pattern", "aab")
    assert code == 0
    assert "values: 0,0,1" in out


def test_specialize_report():
    code, out, _ = run_cli("specialize", "--pattern", "aab", "--report",
                           "--out", "/dev/null")
    assert code == 0
    assert "pivots: 4" in out
    assert "generalizations_attempted: 0" in out
    assert "entry F_0" in out
    assert "function F_3/2 from" in out


def test_specialize_stats_go_to_stderr():
    code, plain, err = run_cli("specialize", "--pattern", "a" * 12,
                               "--report")
    assert code == 0 and err == ""
    code, out, err = run_cli("specialize", "--pattern", "a" * 12,
                             "--report", "--stats")
    assert code == 0 and out == plain
    _, report = specialize_pattern("a" * 12)
    assert err.splitlines() == [
        f"nodes: {report.node_count}", f"folds: {report.fold_count}",
        "drive_steps: 719",
        f"ground_steps: {report.transient_steps}",
        f"transient_steps: {report.transient_steps}",
        "whistle_fires: 0", "whistle_checks: 0",
        f"ground_runs: {report.ground_runs}"]
    assert report.ground_runs == 110


def test_specialize_does_not_import_the_harness():
    # -S keeps site from importing modules of its own; the package is found
    # where this test imported it from
    code = ("import sys; from miniscp.cli import main; "
            "main(['specialize', '--pattern', 'ab', '--out', '/dev/null']); "
            "print(sorted(m for m in ('dataclasses', 'typing', 'inspect', "
            "'miniscp.harness') if m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(miniscp.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_specialize_run_round_trip(tmp_path):
    residual = tmp_path / "residual_aab.scl"
    code, _, _ = run_cli("specialize", "--pattern", "aab",
                         "--out", str(residual))
    assert code == 0
    code, out, _ = run_cli("run", "--program", str(residual),
                           "--entry", "F_0", "--input", "aaab", "--steps")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("steps=")


def test_written_residual_matches_search_verdicts(tmp_path):
    from miniscp.interpreter import naive_outcome
    residual = tmp_path / "residual_ababa.scl"
    code, _, _ = run_cli("specialize", "--pattern", "ababa",
                         "--out", str(residual))
    assert code == 0
    for y in ("", "ababa", "abab", "aababaa", "bababab", "abcba"):
        code, out, _ = run_cli("run", "--program", str(residual),
                               "--entry", "F_0", "--input", y)
        assert code == 0
        assert out.splitlines()[0] == str(naive_outcome("ababa", y).value), y


def test_run_two_argument_entry(tmp_path):
    prog = tmp_path / "naive.scl"
    prog.write_text(__import__("miniscp").NAIVE_MATCHER_SOURCE)
    code, out, _ = run_cli("run", "--program", str(prog), "--entry", "S",
                           "--input", "ab", "--input", "bab")
    assert code == 0
    assert out.splitlines()[0] == "T"


def test_run_reports_evaluation_errors(tmp_path):
    prog = tmp_path / "stuck.scl"
    prog.write_text("G { 'a':y = T; }\n")
    code, _, err = run_cli("run", "--program", str(prog), "--entry", "G",
                           "--input", "b")
    assert code == 1
    assert "error" in err


def run_file(tmp_path, source, *argv):
    prog = tmp_path / "prog.scl"
    prog.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "miniscp", "run", "--program", str(prog),
         *argv], capture_output=True, text=True)


def test_run_ill_sorted_program_in_a_subprocess(tmp_path):
    # F's position is read as a symbol by one rule and as a list by the
    # other, so the reference engine runs it: a one-letter word is no symbol
    proc = run_file(tmp_path, "F { s.x = T; y = F; }\n",
                    "--entry", "F", "--input", "a")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "F\n", "")


@pytest.mark.parametrize("before", [None, 3.0, 0.5],
                         ids=["new", "longer", "shorter"])
def test_out_leaves_exactly_the_residual(tmp_path, before):
    # the old file is overwritten in place and cut only when it was longer
    code, residual, _ = run_cli("specialize", "--pattern", "abcab")
    assert code == 0
    path = tmp_path / "res.scl"
    if before is not None:
        path.write_bytes(b"x" * int(len(residual.encode()) * before))
    code, out, _ = run_cli("specialize", "--pattern", "abcab",
                           "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == residual.encode("utf-8")


def test_out_creates_a_file_with_the_mode_open_gives(tmp_path):
    reference = tmp_path / "reference"
    with open(reference, "w", encoding="utf-8") as fh:
        fh.write("x")
    path = tmp_path / "res.scl"
    assert run_cli("specialize", "--pattern", "ab", "--out", str(path))[0] == 0
    assert (stat.S_IMODE(path.stat().st_mode)
            == stat.S_IMODE(reference.stat().st_mode))


@pytest.mark.parametrize("command", ["specialize", "tree"])
def test_dot_over_a_longer_file_leaves_exactly_the_graph(tmp_path, command):
    dot = export_dot(specialize_pattern("aab")[0])
    path = tmp_path / "aab.dot"
    path.write_bytes(b"y" * (3 * len(dot.encode())))
    code, _, _ = run_cli(command, "--pattern", "aab", "--dot", str(path))
    assert code == 0
    assert path.read_bytes() == dot.encode("utf-8")


def test_out_to_dev_stdout_goes_to_the_pipe():
    plain = subprocess.run(
        [sys.executable, "-m", "miniscp", "specialize", "--pattern", "aab"],
        capture_output=True, check=True)
    piped = subprocess.run(
        [sys.executable, "-m", "miniscp", "specialize", "--pattern", "aab",
         "--out", "/dev/stdout"], capture_output=True)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == plain.stdout
    assert run_cli("specialize", "--pattern", "aab",
                   "--out", os.devnull)[:2] == (0, "")


def test_files_are_never_opened_to_truncate(tmp_path, monkeypatch):
    # truncating a file frees its blocks, the cost the writer avoids
    opened = []
    real_open = cli.os.open

    def spy(path, flags, *rest):
        opened.append((os.path.basename(path), flags))
        return real_open(path, flags, *rest)

    monkeypatch.setattr(cli.os, "open", spy)
    for name in ("a.scl", "a.dot", "t.dot"):
        (tmp_path / name).write_text("z" * 10_000)
    assert run_cli("specialize", "--pattern", "ab",
                   "--out", str(tmp_path / "a.scl"),
                   "--dot", str(tmp_path / "a.dot"))[0] == 0
    assert run_cli("tree", "--pattern", "ab",
                   "--dot", str(tmp_path / "t.dot"))[0] == 0
    assert [name for name, _ in opened] == ["a.scl", "a.dot", "t.dot"]
    for _, flags in opened:
        assert flags & os.O_CREAT and not flags & os.O_TRUNC, flags


def test_file_errors_exit_1_with_a_message(tmp_path):
    # a directory where a file is expected: IsADirectoryError, an OSError
    # like FileNotFoundError and PermissionError
    for argv in (["specialize", "--pattern", "ab", "--out", str(tmp_path)],
                 ["specialize", "--pattern", "ab", "--out", os.devnull,
                  "--dot", str(tmp_path)],
                 ["tree", "--pattern", "ab", "--dot", str(tmp_path)],
                 ["run", "--program", str(tmp_path), "--entry", "S",
                  "--input", "a"]):
        proc = subprocess.run([sys.executable, "-m", "miniscp", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        assert proc.stderr.startswith("error: "), proc.stderr[-300:]
        assert "Traceback" not in proc.stderr


def test_run_stuck_call_in_a_subprocess(tmp_path):
    proc = run_file(tmp_path, "F { 'a':y = G(y, 'c'); }\n"
                    "G { 'b':y, s.x = T; }\n",
                    "--entry", "F", "--input", "aab")
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == 'error: no rule of G matches ("ab", \'c\')\n'


def test_run_long_chain_programs_never_show_a_traceback(tmp_path):
    # 3000-cell chains in patterns and call arguments: each file runs or
    # fails with a message (a RecursionError traceback when the parser
    # recursed along the spine)
    chain = "'a':" * 3000
    cases = [
        (f"F {{ {chain}y = T; y = F; }}", "a" * 3000 + "b", 0, "T"),
        (f"F {{ {chain}y = T; y = F; }}", "b", 0, "F"),
        (f"F {{ y = G({chain}y); }}\nG {{ 'a':z = T; }}", "b", 0, "T"),
        (f"F {{ {chain}y = T; }}", "b", 1, None),
        (f"F {{ {chain}'a' 'b' = T; }}", "a", 1, None),
        (f"F {{ {chain}Y = T; }}", "a", 1, None),
    ]
    for i, (src, word, code, value) in enumerate(cases):
        prog = tmp_path / f"chain{i}.scl"
        prog.write_text(src + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "miniscp", "run", "--program", str(prog),
             "--entry", "F", "--input", word],
            capture_output=True, text=True)
        assert "Traceback" not in proc.stderr, (i, proc.stderr[-300:])
        assert proc.returncode == code, (i, proc.stderr[-300:])
        if value is None:
            assert proc.stderr.startswith("error: "), i
        else:
            assert proc.stdout.splitlines()[0] == value, i


def test_specialize_refuses_a_residual_outside_the_grammar(tmp_path):
    # G conses onto a list variable that S fills with a symbol, so the
    # residual would end a list in a symbol, 'c':s.c1, which no program
    # text can say; residualize refuses it instead of printing it
    prog = tmp_path / "cons.scl"
    prog.write_text("S { p, s.a:y = G(s.a, y); p, Nil = F; }\n"
                    "G { x, y = 'c':x; }\n")
    proc = subprocess.run(
        [sys.executable, "-m", "miniscp", "specialize", "--pattern", "ab",
         "--program", str(prog)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "error: function F_0: the list 'c':s.c1 ends in the symbol s.c1, "
        "not in Nil or a list variable\n")


def test_specialize_long_rule_pattern_exits_with_a_message(tmp_path):
    # rule 0 narrows #y 3000 cells deep, in a loop; driving rule 1 then
    # finds that rule 0 splits a finer region, which is rejected with a
    # message
    prog = tmp_path / "long.scl"
    prog.write_text("S {\n  p, " + "'a':" * 3000 + "y = T;\n  p, y = F;\n}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "miniscp", "specialize", "--pattern", "ab",
         "--program", str(prog)],
        capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr[-300:]
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "error: rule 0 of S fires on a structurally finer region")


@pytest.mark.parametrize("source, message", [
    ("S { p, s.b:s.c:y = G(s.b:y, s.c:y); }\n"
     "G { s.a:p, s.a:q = T; p, q = F; }",
     "equality between two symbol parameters #s.c1 and #s.c2"),
    ("S { p, y = G(p, y); }\nG { x, x = T; x, y = F; }",
     "repeated list variable binds unequal expressions"),
    ("S { p, 'a':'b':y = T; p, 'a':y = F; p, y = F; }",
     "rule 0 of S fires on a structurally finer region than a later rule; "
     "its failure is not a symbol disequality"),
    ("S { p, s.b:s.c:y = G(s.b, s.c); }\n"
     "G { 'a', 'b' = T; s.x, s.y = F; }",
     "failure of rule 0 of G needs a disjunction of disequalities"),
])
def test_specialize_unsupported_narrowing_exits_1(tmp_path, source, message):
    prog = tmp_path / "prog.scl"
    prog.write_text(source + "\n")
    code, out, err = run_cli("specialize", "--pattern", "ab",
                             "--program", str(prog))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("source, message", [
    ("S { p, y, z = T; }", "entry configuration calls S/3 with 2 arguments"),
    ("G { p, y = T; }", "undefined function S"),
], ids=["three-argument-S", "no-S"])
def test_specialize_an_entry_the_program_cannot_take_exits_1(tmp_path, source,
                                                             message):
    # supercompile's entry check refuses it before anything is driven
    prog = tmp_path / "prog.scl"
    prog.write_text(source + "\n")
    code, out, err = run_cli("specialize", "--pattern", "ba",
                             "--program", str(prog))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_usage_error_exit_code():
    code, _, _ = run_cli("bogus-subcommand")
    assert code == 2
    code, _, _ = run_cli("specialize")  # missing --pattern
    assert code == 2


def test_tree_dot_export(tmp_path):
    dot = tmp_path / "a.dot"
    code, _, _ = run_cli("tree", "--pattern", "a", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.count("peripheries=2") == 1  # root marked
    assert text.count("style=dashed") == 1   # one fold edge


def test_dot_counts_match_graph(tmp_path):
    graph, report = specialize_pattern("aab")
    dot = export_dot(graph)
    node_lines = [l for l in dot.splitlines()
                  if l.strip().startswith("n") and "label" in l
                  and "->" not in l]
    fold_lines = [l for l in dot.splitlines() if "style=dashed" in l]
    assert len(node_lines) == report.node_count
    assert len(fold_lines) == report.fold_count


def test_verify_single_pattern():
    code, out, _ = run_cli("verify", "--pattern", "aab", "--seed", "7")
    assert code == 0
    assert out.splitlines()[0].startswith("pattern=aab first_path=ok")
    assert "result: PASS" in out


def test_verify_pattern_without_a_fresh_letter_is_an_error():
    # the sweep alphabet adds a letter absent from the pattern; with all 26
    # taken, verify exits 1 with a message (a raw StopIteration before)
    code, out, err = run_cli("verify", "--pattern",
                             "abcdefghijklmnopqrstuvwxyz")
    assert code == 1
    assert err.startswith("error: ") and "fresh letter" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("pattern, count", [("abcdefg", "19,173,961"),
                                            ("abcdefgh", "48,427,561")])
def test_verify_refuses_a_pattern_over_the_pool_budget(monkeypatch, pattern,
                                                      count):
    # refused before specializing or building any string
    def never(*args):
        raise AssertionError("the refused pattern was specialized or swept")
    monkeypatch.setattr(harness, "artifacts", never)
    monkeypatch.setattr(harness, "string_pool", never)
    code, out, err = run_cli("verify", "--pattern", pattern)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"{count} exhaustive strings" in err
    assert "budget of 2,015,539" in err


def test_verify_timings_go_to_stderr_and_leave_stdout_alone():
    code, plain, err = run_cli("verify", "--pattern", "aab", "--seed", "7")
    assert code == 0 and err == ""
    code, out, err = run_cli("verify", "--pattern", "aab", "--seed", "7",
                             "--timings")
    assert code == 0 and out == plain
    lines = err.splitlines()
    assert lines[0] == "seconds per phase, summed over the patterns:"
    assert [line.split()[0] for line in lines[1:]] == [
        "specialize", "compile", "first_path", "restart", "covering",
        "structural", "automaton", "string_pool", "sweep", "total"]
    seconds = [float(line.split()[1]) for line in lines[1:]]
    assert min(seconds) >= 0
    assert abs(sum(seconds[:-1]) - seconds[-1]) < 0.01


def test_verify_rejects_pattern_and_corpus_together():
    code, _, _ = run_cli("verify", "--pattern", "aab", "--corpus", "default")
    assert code == 2


def test_fuel_option(tmp_path):
    prog = tmp_path / "naive.scl"
    prog.write_text(__import__("miniscp").NAIVE_MATCHER_SOURCE)
    code, _, err = run_cli("run", "--program", str(prog), "--entry", "S",
                           "--input", "a", "--input", "ba", "--fuel", "2")
    assert code == 1
    assert "fuel" in err.lower()


@pytest.mark.parametrize("value", ["-5", "0", "ten"])
def test_fuel_below_one_is_a_usage_error(tmp_path, capsys, value):
    proc = run_file(tmp_path, __import__("miniscp").NAIVE_MATCHER_SOURCE,
                    "--entry", "S", "--input", "a", "--input", "ba",
                    "--fuel", value)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--fuel: must be a whole number of at least 1" in proc.stderr
    # the node budgets take the same type
    for command in ("specialize", "tree"):
        code, out, _ = run_cli(command, "--pattern", "ab",
                               "--node-budget", value)
        assert (code, out) == (2, "")
        assert "--node-budget: must be a whole number of at least 1" \
            in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tree", "--pattern", "ab" * 8, "--lines"],
    ["verify", "--pattern", "abab"],
])
def test_a_closed_pipe_stops_quietly(argv):
    # the reader is gone before the first write, as `| head -1` may be
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "miniscp", *argv],
                              stdout=w, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "miniscp.cli", "failure",
                          "--pattern", "aa"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "values: 0,0" in out.stdout
