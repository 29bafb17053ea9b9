import io
import subprocess
import sys

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
    from miniscp.interpreter import naive_search
    residual = tmp_path / "residual_ababa.scl"
    code, _, _ = run_cli("specialize", "--pattern", "ababa",
                         "--out", str(residual))
    assert code == 0
    for y in ("", "ababa", "abab", "aababaa", "bababab", "abcba"):
        code, out, _ = run_cli("run", "--program", str(residual),
                               "--entry", "F_0", "--input", y)
        assert code == 0
        verdict = out.splitlines()[0] == "T"
        assert verdict == naive_search("ababa", y), y


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


def test_verify_rejects_pattern_and_corpus_together():
    code, _, _ = run_cli("verify", "--pattern", "aab", "--corpus", "default")
    assert code == 2


def test_fuel_environment_override(tmp_path, monkeypatch):
    prog = tmp_path / "naive.scl"
    prog.write_text(__import__("miniscp").NAIVE_MATCHER_SOURCE)
    monkeypatch.setenv("SCP_FUEL", "2")
    code, _, err = run_cli("run", "--program", str(prog), "--entry", "S",
                           "--input", "a", "--input", "ba")
    assert code == 1
    assert "fuel" in err.lower()


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "miniscp.cli", "failure",
                          "--pattern", "aa"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "values: 0,0" in out.stdout
