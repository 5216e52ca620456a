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
import subprocess
import sys
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twinrelay"

ALLOWED = {
    "bsc_exchange_rate_bound": "pinned against oracles.binary_entropy_hp "
                               "(test_bsc::test_exchange_rate_bound)",
    "anc_multihop_baseline": "the ANC comparison of ROADMAP item 2, step 3",
    "canonical_json": "criterion 13's canonical form of a TrialReport",
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


def _imported_names(tree):
    """The dotted name of each module an import statement may bind:
    `from . import a` gives `twinrelay` and `twinrelay.a`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["twinrelay" if node.level else None, node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_cli_imports_the_harness():
    # the harness finds each kernel through its EXPERIMENTS table, so no
    # kernel module imports it or registers itself
    importers, registrations = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "cli.py" and "twinrelay.harness" in set(_imported_names(tree)):
            importers.append(path.name)
        registrations += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Call)
                          and "register_experiment" in {getattr(node.func, "id", None),
                                                        getattr(node.func, "attr", None)}]
    assert not importers, "import twinrelay.harness: " + ", ".join(importers)
    assert not registrations, "register_experiment called at " + ", ".join(registrations)


def test_oracles_import_without_the_package():
    # the benchmark reads the quadrature oracle with tests/ on its path but
    # not the package, so oracles imports twinrelay only inside functions
    code = ("import sys; sys.modules['twinrelay'] = None; sys.path.insert(0, sys.argv[1]); "
            "import oracles; print(repr(oracles.relay_symbol_error_oracle(4, 1.0, 12.0)))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests")],
                         capture_output=True, text=True, check=True, timeout=120)
    assert float(out.stdout) == oracles.relay_symbol_error_oracle(4, 1.0, 12.0)
