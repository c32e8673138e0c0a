"""Guard against test-only code: every definition in ``src/rolemodel`` has a caller outside the tests.

An ``ast`` scan collects the top-level functions and classes of each
module and the methods of each class. It then collects every name that
``src/rolemodel`` and the non-test ``perfbench`` files use: identifiers,
attribute names, imported names, and the parts of string constants
(``perfbench/spans.py`` patches functions by name). A definition is not a
use of itself, and a re-export in ``rolemodel/__init__.py`` is not a use.
Matching is by bare name, so the scan errs toward passing: a dead method
that shares its name with a live attribute goes unflagged.
"""

import ast
from pathlib import Path

import rolemodel

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rolemodel"

#: Definitions that only tests call, each kept for the stated reason.
ALLOWLIST = {
    "minsum.surrogate_chain": "builds the exactly enumerable min-sum chain, the oracle "
                              "behind acceptance test 6",
    "minsum.SurrogateChain.sample_batch": "draws that oracle chain's training batch",
    "minsum.SurrogateChain.exact_ed": "scores a trained table exactly on that oracle chain",
}


def definitions() -> dict[str, str]:
    """Qualified name ("module.Class.method") -> bare name, dunder methods left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def used_names() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    defined = definitions()
    used = used_names()
    unused = sorted(q for q, name in defined.items() if name not in used and q not in ALLOWLIST)
    assert not unused, f"defined in src/rolemodel but used only by tests, or by nothing: {unused}"


def test_allowlist_names_live_definitions():
    assert set(ALLOWLIST) <= set(definitions())


def test_every_public_name_resolves():
    missing = [name for name in rolemodel.__all__ if not hasattr(rolemodel, name)]
    assert not missing
