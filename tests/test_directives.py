"""The grammar constraint files and theorem manifests share (``read_directives``),
pinned once for both kinds, through the library and through the CLI."""

import re

import pytest

from wordlab.characterize import load_manifest
from wordlab.cli import main
from wordlab.constraints import one, parse_constraints, read_directives
from wordlab.errors import ParseError

# a minimal valid file of each kind, a directive that takes one line and one
# that needs arguments
KINDS = {
    "constraint file": ("alphabet 3\nforbid-formula AA\n", "alphabet 3", "forbid-factor"),
    "manifest": (
        "name x\nconstraints b3.cons\ntarget-inner 012/02/1\ncheck-length 4\n",
        "name y",
        "expect-avoids",
    ),
}


def write(tmp_path, kind, text):
    """The file of this kind with this text, beside a constraint file and a word."""
    (tmp_path / "b3.cons").write_text(KINDS["constraint file"][0])
    (tmp_path / "w.txt").write_text("0120\n")
    path = tmp_path / ("f.cons" if kind == "constraint file" else "f")
    path.write_text(text)
    return str(path)


def read(tmp_path, kind, text):
    if kind == "constraint file":
        return parse_constraints(text)
    return load_manifest(write(tmp_path, kind, text))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_comments_and_blank_lines_are_skipped(tmp_path, kind):
    base = KINDS[kind][0]
    commented = "# a whole-line comment\n\n   \n" + base.replace("\n", "  # a trailing comment\n", 1)
    assert read(tmp_path, kind, commented) == read(tmp_path, kind, base)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize(
    "case", ["unknown directive", "repeated single-valued directive", "no arguments"]
)
def test_a_malformed_line_is_named_and_exits_2(tmp_path, capsys, kind, case):
    base, single, needs_args = KINDS[kind]
    bad = {"unknown directive": "frobnicate 3", "repeated single-valued directive": single}
    text = base + "# the next line is wrong\n" + bad.get(case, needs_args) + "\n"
    line = text.count("\n")
    with pytest.raises(ParseError, match=f"^{kind} line {line}:"):
        read(tmp_path, kind, text)
    path = write(tmp_path, kind, text)
    if kind == "manifest":
        assert main(["verify", "--manifest", path]) == 2
    else:
        assert main(["check", "--constraints", path, "--input", str(tmp_path / "w.txt")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert re.match(f"error: {kind} line {line}:", out.err), out.err


def test_read_directives_fills_slots():
    spec = {
        "a": ("slot", one(str), False),
        "n": ("slot", one(int), False),
        "many": ("items", tuple, True),
    }
    values, line_of = read_directives(["many 1 2", "", "n 7  # c", "many", "many 3"], "test", spec)
    assert values == {"slot": 7, "items": ("1", "2", "3")}
    assert line_of == {"slot": 3, "items": 5}
    with pytest.raises(ParseError, match="^test line 2: a: would replace line 1$"):
        read_directives(["n 7", "a z"], "test", spec)
    with pytest.raises(ParseError, match="^test line 1: n: invalid literal"):
        read_directives(["n x"], "test", spec)
    with pytest.raises(ParseError, match="^test line 1: a: takes one argument, got 2$"):
        read_directives(["a x y"], "test", spec)
    with pytest.raises(ParseError, match="^test line 1: m: unknown directive$"):
        read_directives(["m"], "test", spec)
