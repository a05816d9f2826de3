import io
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from unittest import mock

import pytest

from conftest import MANIFEST_DIR
from test_formulas import DOUBLED_BLOCK_FORMULAS, FORMULAS, ROOT_FORMULAS
from wordlab.cli import main
from wordlab.errors import WordlabError
from wordlab.morphisms import fixed_point_prefix, morphic_prefix, parse_morphism


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate(capsys):
    code, out, _ = run(capsys, "generate", "--morphism", "012/02/1", "--length", "6")
    assert code == 0 and out == "012021\n"
    code, out, _ = run(
        capsys,
        "generate",
        "--morphism", "012/02/1",
        "--outer", "00010011000111011/000100111011/00111",
        "--length", "17",
    )
    assert code == 0 and out.strip() == "00010011000111011"


def test_generate_errors(capsys):
    code, _, err = run(capsys, "generate", "--morphism", "0/1", "--length", "4")
    assert code == 2 and "prolongable" in err


def test_generate_decides_a_finite_image_exactly(capsys):
    """The 1s of the 012/1/222 fixed point sit at 1, 3, 7, 17, 45, 127, ...:
    sparse, but infinitely many. The 01/1 fixed point has one 0, which is all
    that outer 1/ keeps."""
    code, out, _ = run(capsys, "generate", "--morphism", "012/1/222", "--outer", "/1/", "--length", "10")
    assert (code, out) == (0, "1" * 10 + "\n")
    code, out, err = run(capsys, "generate", "--morphism", "01/1", "--outer", "1/", "--length", "10")
    assert code == 2 and out == "" and "image is finite" in err


def test_usage_error(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


def test_inventories(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("0100010101\n")
    code, out, _ = run(capsys, "squares", "--input", str(f))
    assert code == 0 and out.splitlines() == ["00", "0101", "1010"]
    code, out, _ = run(capsys, "overlaps", "--input", str(f))
    assert code == 0 and out.splitlines() == ["000", "01010", "10101"]
    code, out, _ = run(capsys, "exponent", "--input", str(f))
    assert code == 0 and out.startswith("3/1\t")


def test_match(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("001001")
    code, out, _ = run(capsys, "match", "--formula", "AA", "--input", str(f), "--cap", "3")
    assert code == 0
    assert out.splitlines() == ["A=0", "A=001"]


def test_check_exit_codes(tmp_path, capsys):
    cons = tmp_path / "b3.cons"
    cons.write_text("alphabet 3\nforbid-formula AA\nforbid-factor 010 212\n")
    good = tmp_path / "good.txt"
    good.write_text("012021\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("0102\n")

    code, out, _ = run(capsys, "check", "--constraints", str(cons), "--input", str(good))
    assert code == 0 and out == "ok\n"
    code, out, _ = run(capsys, "check", "--constraints", str(cons), "--input", str(bad))
    assert code == 1 and "010" in out


def test_search_and_counts(tmp_path, capsys):
    cons = tmp_path / "sf2.cons"
    cons.write_text("alphabet 2\nforbid-formula AA\n")
    code, out, _ = run(
        capsys, "search", "--constraints", str(cons), "--budget-length", "50"
    )
    assert code == 0 and "exhausted max_length=3 witness=010" in out

    code, out, _ = run(capsys, "counts", "--constraints", str(cons), "--max", "4")
    assert code == 0 and out.splitlines() == ["1\t2", "2\t2", "3\t2", "4\t0"]


def test_search_budget_exit_code(tmp_path, capsys):
    cons = tmp_path / "sf3.cons"
    cons.write_text("alphabet 3\nforbid-formula AA\n")
    code, _, err = run(
        capsys,
        "search", "--constraints", str(cons),
        "--budget-length", "40", "--budget-nodes", "5",
    )
    assert code == 3 and "budget" in err


def test_extendable(tmp_path, capsys):
    cons = tmp_path / "no11.cons"
    cons.write_text("alphabet 2\nforbid-factor 11\n")
    code, out, _ = run(
        capsys, "extendable", "--constraints", str(cons), "--length", "2", "--horizon", "2"
    )
    assert code == 0 and out.splitlines() == ["00", "01", "10"]


def test_verify_manifest(manifest_dir, capsys):
    code, out, _ = run(capsys, "verify", "--manifest", os.path.join(manifest_dir, "b3"))
    assert code == 0
    assert out.strip().splitlines()[-1] == "VERDICT b3 PASS"


def test_verify_failing_manifest(tmp_path, capsys):
    (tmp_path / "c.cons").write_text("alphabet 2\n")
    man = tmp_path / "loose"
    man.write_text(
        "name loose\nconstraints c.cons\ntarget-inner 01/00\ncheck-length 2\nhorizon 2\nprefix 200\n"
    )
    code, out, _ = run(capsys, "verify", "--manifest", str(man))
    assert code == 1
    assert out.strip().splitlines()[-1] == "VERDICT loose FAIL"


def test_verify_all_is_deterministic(tmp_path, capsys):
    (tmp_path / "a.cons").write_text("alphabet 3\nforbid-formula AA\nforbid-factor 010 212\n")
    for name, inner in (("first", "012/02/1"), ("second", "012/02/1")):
        (tmp_path / name).write_text(
            f"name {name}\nconstraints a.cons\ntarget-inner {inner}\n"
            "check-length 6\nhorizon 6\nprefix 500\n"
        )
    code1, out1, _ = run(capsys, "verify-all", "--dir", str(tmp_path))
    code2, out2, _ = run(capsys, "verify-all", "--dir", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("VERDICT") == 2
    assert out1.index("VERDICT first") < out1.index("VERDICT second")


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
@pytest.mark.parametrize(
    "var, argv",
    [
        ("WORDLAB_NODE_BUDGET", ["search", "--constraints", "b3.cons", "--budget-length", "10"]),
        ("WORDLAB_LETTER_BUDGET", ["generate", "--morphism", "012/02/1", "--length", "6"]),
        ("WORDLAB_LETTER_BUDGET", ["verify", "--manifest", "fib"]),
    ],
)
def test_bad_budget_environment_values(manifest_dir, var, argv, value):
    argv = [os.path.join(manifest_dir, a) if a.endswith(".cons") or a == "fib" else a for a in argv]
    src = os.path.join(os.path.dirname(manifest_dir), "src")
    env = {**os.environ, var: value, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "wordlab.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and var in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, where", [("verify", "--manifest"), ("verify-all", "--dir")])
def test_letter_budget_bounds_the_target_prefix(manifest_dir, capsys, monkeypatch, command, where):
    """fib's 10 000-letter prefix exceeds a 1 000-letter budget: exit 3, as for ``generate``."""
    monkeypatch.setenv("WORDLAB_LETTER_BUDGET", "1000")
    path = os.path.join(manifest_dir, "fib") if command == "verify" else manifest_dir
    code, _, err = run(capsys, command, where, path)
    assert code == 3 and err.startswith("budget exceeded")


def test_internal_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    import wordlab.search
    from wordlab.constraints import Violation

    monkeypatch.setattr(wordlab.search, "full_check", lambda w, c: Violation("factor", 0, 1, w[:1]))
    cons = tmp_path / "no11.cons"
    cons.write_text("alphabet 2\nforbid-factor 11\n")
    code, out, err = run(
        capsys, "extendable", "--constraints", str(cons), "--length", "2", "--horizon", "2"
    )
    assert code == 4 and out == ""
    assert err.startswith("error: internal disagreement")


def run_module(*argv, cwd=None, text=True):
    """Run ``python -m wordlab`` in a fresh interpreter, importing from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, "-m", "wordlab", *argv], cwd=cwd, env=env, capture_output=True, text=text
    )


def test_verify_all_stdout_matches_the_golden_file():
    """``wordlab verify-all --dir manifests`` prints the committed report, byte for byte."""
    proc = run_module("verify-all", "--dir", MANIFEST_DIR, text=False)
    assert proc.returncode == 0, proc.stderr
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify-all.golden")
    with open(golden, "rb") as fh:
        assert proc.stdout == fh.read()


def repetitions_golden_words():
    """(label, word) pairs the repetitions golden file pins: seeded random
    words of 2-95 letters over 2, 3 and 10 letters, 012/02/1 prefixes on both
    sides of the 96-letter switch and at 10 000 letters, and a g4 prefix."""
    rng = random.Random(16)
    for k in (2, 3, 10):
        for n in range(2, 96):
            yield f"random-{k}-{n}", "".join(rng.choice("0123456789"[:k]) for _ in range(n))
    inner = parse_morphism("012/02/1")
    for n in (95, 96, 10000):
        yield f"012/02/1-{n}", fixed_point_prefix(inner, n)
    g4 = parse_morphism("00010011000111011/000100111011/00111")
    yield "g4-2000", morphic_prefix(g4, inner, 2000)


def repetitions_golden_report() -> str:
    """The stdout of ``wordlab squares``, ``overlaps`` and ``exponent`` on each
    golden word, under a header naming the word and the command.

    ``PYTHONPATH=src python tests/test_cli.py`` prints it, to rewrite
    ``tests/repetitions.golden`` when the output is meant to change.
    """
    out = io.StringIO()
    for label, w in repetitions_golden_words():
        for command in ("squares", "overlaps", "exponent"):
            out.write(f"== {command} {label}\n")
            with mock.patch("sys.stdin", io.StringIO(w + "\n")), redirect_stdout(out):
                assert main([command, "--stdin"]) == 0
    return out.getvalue()


def test_repetitions_stdout_matches_the_golden_file():
    """The repetition inventories and exponents print the committed output, byte for byte."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "repetitions.golden")
    with open(golden, encoding="ascii", newline="") as fh:
        assert repetitions_golden_report() == fh.read()


def formulas_golden_words():
    """(label, alphabet size, word) triples the formulas golden file pins:
    seeded random binary and ternary words of 2-30 letters, and the 200-letter
    prefixes of the 012/02/1 and 01/00 fixed points."""
    rng = random.Random(17)
    for k in (2, 3):
        for n in range(2, 31, 5):
            yield f"random-{k}-{n}", k, "".join(rng.choice("012"[:k]) for _ in range(n))
    for inner, k in (("012/02/1", 3), ("01/00", 2)):
        yield f"{inner}-200", k, fixed_point_prefix(parse_morphism(inner), 200)


def formulas_golden_report() -> str:
    """The stdout of ``wordlab check`` under ``alphabet k`` and ``forbid-formula f``
    and of ``wordlab match --cap 3``, for each golden word and each formula of
    the formula tests plus AA.BCB and ABCABC.ABA, under a header naming both.

    The check line holds the ``first_occurrence`` witness, so it pins the
    order in which the engine meets candidates. ``PYTHONPATH=src python
    tests/test_cli.py formulas`` prints it, to rewrite ``tests/formulas.golden``
    when the output is meant to change.
    """
    fs = dict.fromkeys(str(f) for f in FORMULAS + DOUBLED_BLOCK_FORMULAS + ROOT_FORMULAS)
    fs = list(fs) + ["AA.BCB", "ABCABC.ABA"]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for label, k, w in formulas_golden_words():
            for f in fs:
                cons = os.path.join(tmp, f"{k}-{f}.cons")
                if not os.path.exists(cons):
                    with open(cons, "w", encoding="ascii") as fh:
                        fh.write(f"alphabet {k}\nforbid-formula {f}\n")
                out.write(f"== {f} {label}\n")
                for argv, codes in (
                    (["check", "--constraints", cons, "--stdin"], (0, 1)),
                    (["match", "--formula", f, "--cap", "3", "--stdin"], (0,)),
                ):
                    with mock.patch("sys.stdin", io.StringIO(w + "\n")), redirect_stdout(out):
                        assert main(argv) in codes
    return out.getvalue()


def test_formulas_stdout_matches_the_golden_file():
    """Formula checks and matches print the committed output, byte for byte."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "formulas.golden")
    with open(golden, encoding="ascii", newline="") as fh:
        assert formulas_golden_report() == fh.read()


def test_python_dash_m_wordlab():
    proc = run_module("generate", "--morphism", "012/02/1", "--length", "6")
    assert proc.returncode == 0 and proc.stdout == "012021\n"


TINY_MANIFEST = "name x\nconstraints ok.cons\ntarget-inner 01/10\ncheck-length 2\nhorizon 2\nprefix 50\n"
MALFORMED_FILES = {
    "w.txt": "0101\n",
    "bad.txt": "01x0\n",
    "empty.txt": "",
    "ok.cons": "alphabet 2\nforbid-factor 11\n",
    "zero-den.cons": "alphabet 2\nexponent-cap 1/0\n",
    "zero-zero.cons": "alphabet 2\nexponent-cap 0/0 weak\n",
    "no-edges.cons": "alphabet 2\ngraph-edges\n",
    "unknown.cons": "alphabet 2\nfrobnicate 3\n",
    "binary.cons": b"alphabet 2\n\xff\xfe\n",
    "no-target": "name x\nconstraints ok.cons\n",
    "bad-expect-squares": TINY_MANIFEST + "expect-squares 00 1x\n",
    "bad-localizer": TINY_MANIFEST + "localizer 29 0O1\n",
    "bad-code-pieces": TINY_MANIFEST + "code-pieces 01 2x\n",
    "bad-expect-occurrences": TINY_MANIFEST + "expect-occurrences AA 3 0x0x\n",
    "twice.cons": "alphabet 2\nmax-occurrences AA 0\nmax-occurrences ABBA 5\n",
    "twice-prefix": TINY_MANIFEST + "prefix 60\n",
    "0011.txt": "0011\n",
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", "--morphism", "0/1", "--length", "4"], 2),
        (["generate", "--morphism", "012/02/1", "--length", "six"], 2),
        (["generate", "--morphism", "012/02/1", "--length", "10000000000"], 3),
        (["squares", "--input", "bad.txt"], 2),
        (["squares", "--input", "sub"], 2),
        (["overlaps"], 2),
        (["overlaps", "--input", "missing.txt"], 2),
        (["exponent", "--input", "empty.txt"], 2),
        (["match", "--formula", "a1", "--input", "w.txt"], 2),
        (["match", "--formula", "AB", "--input", "w.txt", "--cap", "0"], 2),
        (["check", "--constraints", "zero-den.cons", "--input", "w.txt"], 2),
        (["check", "--constraints", "zero-zero.cons", "--input", "w.txt"], 2),
        (["check", "--constraints", "binary.cons", "--input", "w.txt"], 2),
        (["check", "--constraints", "ok.cons", "--input", "bad.txt"], 2),
        (["search", "--constraints", "unknown.cons", "--budget-length", "10"], 2),
        (["search", "--constraints", "ok.cons", "--budget-length", "-1"], 2),
        (["extendable", "--constraints", "no-edges.cons", "--length", "3"], 2),
        (["extendable", "--constraints", "ok.cons", "--length", "0"], 2),
        (["counts", "--constraints", "sub", "--max", "3"], 2),
        (["counts", "--constraints", "ok.cons", "--max", "-1"], 2),
        (["verify", "--manifest", "no-target"], 2),
        (["verify", "--manifest", "missing"], 2),
        (["verify-all", "--dir", "sub"], 2),
        (["verify-all", "--dir", "w.txt"], 2),
        (["verify", "--manifest", "bad-expect-squares"], 2),
        (["verify", "--manifest", "bad-localizer"], 2),
        (["verify", "--manifest", "bad-code-pieces"], 2),
        (["verify", "--manifest", "bad-expect-occurrences"], 2),
        (["check", "--constraints", "twice.cons", "--input", "0011.txt"], 2),
        (["verify", "--manifest", "twice-prefix"], 2),
        (["extendable", "--constraints", "ok.cons", "--length", "3", "--budget-nodes", "0"], 2),
        (["counts", "--constraints", "ok.cons", "--max", "3", "--budget-nodes", "0"], 2),
        (["counts", "--constraints", "ok.cons", "--max", "3", "--budget-nodes", "-4"], 2),
        (["verify", "--manifest", os.path.join(MANIFEST_DIR, "b3"), "--budget-nodes", "0"], 2),
        (["verify-all", "--dir", MANIFEST_DIR, "--budget-nodes", "0"], 2),
    ],
)
def test_malformed_input_exit_codes(tmp_path, argv, code):
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    (tmp_path / "sub").mkdir()
    proc = run_module(*argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "text, line",
    [
        (TINY_MANIFEST.replace("check-length 2", "check-length 60"), 6),  # prefix 50 < 60
        (TINY_MANIFEST + "expect-avoids\n", 7),
        (TINY_MANIFEST + "code-pieces\n", 7),
        (TINY_MANIFEST + "expect-overlaps-derived 01\n", 7),
        (TINY_MANIFEST + "localizer 4\n", 7),
    ],
    ids=["short-prefix", "no-avoids", "no-pieces", "derived-with-arguments", "localizer-without-word"],
)
def test_a_malformed_manifest_exits_2_naming_its_line(tmp_path, capsys, text, line):
    """A manifest that cannot be checked as written is a parse error (2), never a refutation (1)."""
    (tmp_path / "ok.cons").write_text(MALFORMED_FILES["ok.cons"])
    (tmp_path / "m").write_text(text)
    code, out, err = run(capsys, "verify", "--manifest", str(tmp_path / "m"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: manifest line {line}:"), err


@pytest.mark.parametrize("text, vertex", [("alphabet 3\ngraph-edges 0-1 1-7\n", 7), ("alphabet 2\ngraph K3\n", 2)])
def test_a_graph_vertex_outside_the_alphabet_exits_2_naming_its_line(tmp_path, capsys, text, vertex):
    (tmp_path / "g.cons").write_text(text)
    code, out, err = run(capsys, "search", "--constraints", str(tmp_path / "g.cons"), "--budget-length", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: constraint file line 2: graph: vertex {vertex} is outside"), err


@pytest.mark.parametrize(
    "text, line",
    [
        ("alphabet 2\nforbid-factor 02\n", 2),
        ("forbid-factor 01\nforbid-factor 02\nalphabet 2\n", 2),
        ("alphabet 2\nallow-squares 00\nallow-squares 010\n", 3),
        ("alphabet 2\nmax-distinct-squares -1\n", 2),
        ("alphabet 2\nforbid-formula AA\nforbid-formula ABCDEFG\n", 3),
        ("alphabet 2\nexponent-cap 1/1\n", 2),
        ("alphabet 2\nforbid-squares-min-period 0\n", 2),
        ("# budget\nalphabet 2\nmax-occurrences ABCDEFG 3\n", 3),
    ],
)
def test_a_bad_constraint_value_exits_2_naming_its_line(tmp_path, capsys, text, line):
    (tmp_path / "c.cons").write_text(text)
    code, out, err = run(capsys, "search", "--constraints", str(tmp_path / "c.cons"), "--budget-length", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: constraint file line {line}:"), err


@pytest.mark.parametrize("error", [RuntimeError("boom"), WordlabError("bare")])
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, error):
    """An exception no handler expects exits 4, never 1: a bug is not a refutation."""
    import wordlab.morphisms

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(wordlab.morphisms, "fixed_point_prefix", fail)
    code, out, err = run(capsys, "generate", "--morphism", "012/02/1", "--length", "6")
    assert code == 4 and out == ""
    assert err.startswith("error: internal error")


HELP_OPTIONS = {
    "generate": {"--morphism", "--outer", "--length"},
    "squares": {"--input", "--stdin"},
    "overlaps": {"--input", "--stdin"},
    "exponent": {"--input", "--stdin"},
    "match": {"--formula", "--input", "--stdin", "--cap"},
    "check": {"--constraints", "--input", "--stdin"},
    "search": {"--constraints", "--budget-length", "--budget-nodes"},
    "extendable": {"--constraints", "--length", "--horizon", "--budget-nodes"},
    "counts": {"--constraints", "--max", "--budget-nodes"},
    "verify": {"--manifest", "--budget-nodes"},
    "verify-all": {"--dir", "--budget-nodes"},
}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_each_command_options(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == HELP_OPTIONS[command] | {"--help"}


if __name__ == "__main__":
    report = formulas_golden_report if sys.argv[1:] == ["formulas"] else repetitions_golden_report
    sys.stdout.write(report())
