"""The brute-force oracles and the period-scan reference stay independent.

``oracles.py`` imports nothing from the library, and ``period_scan.py``
nothing from ``wordlab.repetitions``, so the differential tests never
compare the scanners with themselves.
"""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def _imported(source):
    """Every module, and every name taken from one, that the source imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def _within(names, package):
    return sorted(n for n in names if n == package or n.startswith(package + "."))


def _imported_by(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return _imported(fh.read())


def test_import_scan_sees_every_form():
    for source in (
        "import wordlab.repetitions as r",
        "from wordlab import repetitions",
        "from wordlab.repetitions import long_runs",
        "def f():\n    from wordlab.repetitions import SuffixRuns\n",
    ):
        assert _within(_imported(source), "wordlab.repetitions"), source
    assert not _within(_imported("from wordlab.constraints import check"), "wordlab.repetitions")


def test_oracles_import_nothing_from_the_library():
    assert _within(_imported_by("oracles.py"), "wordlab") == []


def test_period_scan_imports_nothing_from_repetitions():
    assert _within(_imported_by("period_scan.py"), "wordlab.repetitions") == []
