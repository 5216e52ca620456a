"""The package holds only what a route reads.

A route is a CLI command, a registered kernel, a name the benchmark in
`perfbench/` reads, an acceptance criterion, an oracle comparison or an
open roadmap item.  A definition whose name occurs in no code of `src/`
or `perfbench/` is read by tests alone; such helpers belong in `tests/`
(exact ones in `tests/oracles.py`).  Code is names and the words of
strings that are not docstrings; a docstring or comment that names a
definition does not read it.  The allowlist gives the route of each definition
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
    "session_row": "the scalar reference the twoway replay tests and criterion 05 "
                   "compare session_rows against (ROADMAP item 5's replay)",
    "bsc_row": "the scalar reference the bsc replay tests and criterion 08 compare "
               "bsc_rows against (ROADMAP item 5's replay)",
    "wrapped_sq_distances": "the exhaustive-scan oracle for lattice.quantize_fine "
                            "(test_lattice)",
    "generate_state": "numpy's Philox reads rng.generator's key through it "
                      "(the ISeedSequence interface)",
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


def _code_words(tree):
    """Each name in a module's code and each word of its strings, docstrings
    and comments left out; a definition's own name is not a read of it."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"\w+", node.value)


def test_every_definition_has_a_reader():
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        read.update(_code_words(ast.parse(path.read_text())))
    unread = [f"{module}:{lineno} {name}" for module, name, lineno in _definitions()
              if name not in ALLOWED and name not in read]
    assert not unread, "read by no route, only by tests: " + ", ".join(unread)


def test_allowlist_names_live_definitions():
    names = {name for _, name, _ in _definitions()}
    assert set(ALLOWED) <= names
