"""The package holds only what a route reads.

A route is a CLI command, a registered kernel, a name the benchmark in
`perfbench/` reads, an acceptance criterion, an oracle comparison or an
open roadmap item.  A definition whose name occurs nowhere in `src/` but
on its own `def` or `class` line, and nowhere in `perfbench/`, is read by
tests alone; such helpers belong in `tests/` (exact ones in
`tests/oracles.py`).  The allowlist gives the route of each definition
that only a criterion, an oracle comparison or an open item reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twinrelay"

ALLOWED = {
    "bsc_exchange_rate_bound": "pinned against oracles.binary_entropy_hp "
                               "(test_bsc::test_exchange_rate_bound)",
    "anc_multihop_baseline": "the ANC comparison of ROADMAP item 2, step 3",
    "canonical_json": "criterion 13's canonical form of a TrialReport",
}


def _definitions():
    """(module, name, line) of each top-level function and class, and of each
    method and property, dunder methods left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in (node, *members):
                if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not (d.name.startswith("__") and d.name.endswith("__"))):
                    yield path.name, d.name, d.lineno


def _readers():
    """Every line of `src/` and `perfbench/`, keyed by (file name, line number)."""
    lines = {}
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]:
        prefix = "" if path.parent == PACKAGE else "perfbench/"
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            lines[prefix + path.name, i] = line
    return lines


def test_every_definition_has_a_reader():
    lines = _readers()
    unread = []
    for module, name, lineno in _definitions():
        if name in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for key, line in lines.items()
                   if key != (module, lineno)):
            unread.append(f"{module}:{lineno} {name}")
    assert not unread, "read by no route, only by tests: " + ", ".join(unread)


def test_allowlist_names_live_definitions():
    names = {name for _, name, _ in _definitions()}
    assert set(ALLOWED) <= names
