"""Static checks over ``src/rolemodel``: test-only code and random-stream labels.

Test-only code: an ``ast`` scan collects the top-level functions and classes
of each module, and the members of each class: methods, properties and
dataclass fields. It then collects what ``src/rolemodel`` and the non-test
``perfbench`` files use. A top-level definition is used when its bare name
appears as an identifier, an attribute, an imported name or a part of a
string constant (``perfbench/spans.py`` patches functions by name). A member
is used only when it is read as an attribute (``.name``) or named in a
string constant, so a dead method or field that shares its name with a live
variable is flagged. A definition is not a use of itself, and a re-export in
``rolemodel/__init__.py`` is not a use.

Defaulted parameters: every parameter with a default, of a top-level
function or a method in ``src/rolemodel``, must be passed, by keyword or by
position, by some call in the package or the non-test ``perfbench`` files,
so no default is a knob that only tests turn. Calls match by the callee's
bare name (``f(...)`` and ``obj.f(...)`` alike), and ``__init__`` by its
class's name; a call with ``*args`` passes every positional parameter and
one with ``**kwargs`` every parameter. A short allowlist gives a reason per
entry.

Constructed classes: every class in ``src/rolemodel`` must be constructed
by name, ``Name(...)`` or ``obj.Name(...)``, by some package or non-test
``perfbench`` call, so no class is a wrapper that only tests build. A raise
counts, as it calls the exception class. A short allowlist gives a reason
per entry.

Traced functions: every function that ``perfbench/spans.py`` patches, by
each ``(owner, "name", ...)`` tuple there, must be called by that name
where the patch takes effect: ``owner.name(...)`` anywhere in the package,
or a bare ``name(...)`` inside the owner module itself; for a class owner,
any ``.name(...)`` call. A name that only a string or a test mentions is
no call, and a span that no run enters reads zero. A short allowlist gives
a reason per entry.

Package root: every name that ``rolemodel/__init__.py`` binds, dunders such
as ``__version__`` aside, must be imported from the root by a package,
perfbench or test file, so the root holds no re-export that nothing reads.

Stream labels: every ``make_rng`` call in the package passes a literal first
stream label that no other call site uses, so no two purposes share a
random stream.

Files: ``cli`` is the only module that imports ``json`` or calls ``open``,
and it calls ``open`` only in its four file helpers, so every input file is
read through ``_load`` and every load error names its file. No module
imports an underscore name from another package module.

Quiet: ``cli`` reads ``args.quiet`` only inside ``_say``, so ``--quiet``
suppresses the stdout summary and selects no computation.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rolemodel"

#: Definitions that only tests use, each kept for the stated reason.
ALLOWLIST = {
    "sudoku.BpResult.beliefs": "the solver's output to library callers",
    "sudoku.BpResult.decisions": "the solver's output to library callers",
}

#: Defaulted parameters that no package or perfbench call passes, each kept for the stated reason.
DEFAULTS_ALLOWLIST: dict[str, str] = {}

#: Classes that no package or perfbench call constructs, each kept for the stated reason.
CONSTRUCTED_ALLOWLIST = {
    "errors.RoleModelError": "cli.main catches it, and the package raises only its subclasses",
}

#: Functions that ``perfbench/spans.py`` patches but no package call reaches, each kept for the
#: stated reason.
SPANS_ALLOWLIST = {
    "sudoku.harvest_constraint_inputs": "perfbench's held-out check calls it; train_alpha "
                                        "harvests through _harvest",
    "sudoku.alpha_objective": "perfbench's held-out check calls it; train_alpha scores "
                              "through _alpha_divergences",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def definitions() -> dict[str, tuple[str, bool]]:
    """Qualified name ("module.Class.member") -> (bare name, is a class member).

    Dunder methods are left out.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found[f"{path.stem}.{node.name}"] = (node.name, False)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    name = item.name
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _is_dataclass(node)):
                    name = item.target.id
                else:
                    continue
                found[f"{path.stem}.{node.name}.{name}"] = (name, True)
    return found


def _sources() -> list[Path]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return files + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]


def used_names() -> tuple[set[str], set[str]]:
    """(every name used, the names read as attributes or named in strings)."""
    names, members = set(), set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    members.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                names.update(parts)
                members.update(parts)
    return names, members


def test_every_definition_has_a_caller_outside_the_tests():
    names, members = used_names()
    unused = sorted(q for q, (name, member) in definitions().items()
                    if name not in (members if member else names) and q not in ALLOWLIST)
    assert not unused, f"defined in src/rolemodel but used only by tests, or by nothing: {unused}"


def test_allowlist_names_live_definitions():
    assert set(ALLOWLIST) <= set(definitions())


def test_allowlist_names_only_definitions_without_a_caller():
    # an entry whose definition gained a caller outside the tests is stale
    names, members = used_names()
    stale = sorted(q for q, (name, member) in definitions().items()
                   if name in (members if member else names) and q in ALLOWLIST)
    assert not stale, f"allowlisted, but used in src/rolemodel or perfbench: {stale}"


def defaulted_parameters() -> dict[str, tuple[str, int | None, str]]:
    """"module.function(param)" or "module.Class.method(param)" -> how a call passes it.

    The value is (the bare name a call uses, the parameter's position among
    the call's positional arguments or None when it is keyword-only, its
    name). A method's ``self`` or ``cls`` takes no position; dunder methods
    other than ``__init__`` are left out.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            # (qualified name, bare name at a call, def, leading parameters a call does not pass)
            funcs = []
            if isinstance(node, ast.FunctionDef):
                funcs.append((f"{path.stem}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name != "__init__" and item.name.startswith("__"):
                        continue
                    callee = node.name if item.name == "__init__" else item.name
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    funcs.append((f"{path.stem}.{node.name}.{item.name}", callee, item,
                                  0 if static else 1))
            for qual, callee, func, bound in funcs:
                args = func.args
                positional = (args.posonlyargs + args.args)[bound:]
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(args.defaults):
                        found[f"{qual}({arg.arg})"] = (callee, i, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{qual}({arg.arg})"] = (callee, None, arg.arg)
    return found


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter at ``position`` (None: keyword-only) named ``name``."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # arg None: a **kwargs
        return True
    return position is not None and (position < len(call.args)
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def calls_by_callee() -> dict[str | None, list[ast.Call]]:
    """Every call in the package and the non-test perfbench files, by the callee's bare name."""
    calls = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    return calls


def unpassed_defaults() -> list[str]:
    """The defaulted parameters that no package or non-test perfbench call passes."""
    calls = calls_by_callee()
    return sorted(q for q, (callee, position, name) in defaulted_parameters().items()
                  if not any(_passes(call, position, name) for call in calls.get(callee, ())))


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = [q for q in unpassed_defaults() if q not in DEFAULTS_ALLOWLIST]
    assert not unpassed, f"defaulted parameters that only tests pass, or nothing: {unpassed}"


def test_defaults_allowlist_names_only_unpassed_parameters():
    # an entry whose parameter is gone, or gained a caller outside the tests, is stale
    stale = sorted(set(DEFAULTS_ALLOWLIST) - set(unpassed_defaults()))
    assert not stale, f"allowlisted, but gone or passed in src/rolemodel or perfbench: {stale}"


def unconstructed_classes() -> list[str]:
    """"module.Class" for each class in the package that no package or perfbench call constructs."""
    calls = calls_by_callee()
    return sorted(f"{path.stem}.{node.name}" for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name not in calls)


def test_every_class_is_constructed_outside_the_tests():
    unbuilt = [q for q in unconstructed_classes() if q not in CONSTRUCTED_ALLOWLIST]
    assert not unbuilt, f"classes that only tests construct, or nothing: {unbuilt}"


def test_constructed_allowlist_names_only_unconstructed_classes():
    # an entry whose class is gone, or gained a constructor call outside the tests, is stale
    stale = sorted(set(CONSTRUCTED_ALLOWLIST) - set(unconstructed_classes()))
    assert not stale, f"allowlisted, but gone or constructed in src/rolemodel or perfbench: {stale}"


def patched_by_spans() -> set[str]:
    """"owner.name" for each ``(owner, "name", ...)`` tuple in ``perfbench/spans.py``."""
    found = set()
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "spans.py").read_text())):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 3
                and isinstance(node.elts[0], (ast.Name, ast.Attribute))
                and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            found.add(f"{ast.unparse(node.elts[0])}.{node.elts[1].value}")
    return found


def traced_calls() -> set[str]:
    """"module.name" for each call in the package that a patch of ``module.name`` intercepts.

    ``module.name(...)`` anywhere and a bare ``name(...)`` inside the module
    give "module.name"; any ``x.name(...)`` also gives "*.name", the form a
    method call takes.
    """
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                found.add(f"{path.stem}.{node.func.id}")
            elif isinstance(node.func, ast.Attribute):
                found.add(f"*.{node.func.attr}")
                if isinstance(node.func.value, ast.Name):
                    found.add(f"{node.func.value.id}.{node.func.attr}")
    return found


def _uncalled_spans() -> list[str]:
    """The patched functions that no package call reaches, as :func:`patched_by_spans` names them."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    calls = traced_calls()
    uncalled = []
    for q in patched_by_spans():
        owner, _, name = q.rpartition(".")
        if (q if owner in modules else f"*.{name}") not in calls:
            uncalled.append(q)
    return sorted(uncalled)


def test_every_function_spans_patches_is_called_in_the_package():
    # the scan finds module, class and alpha_objective's tuples alike
    assert {"minsum.simulate_batch", "train.PostTable.ingest_batch",
            "sudoku.alpha_objective"} <= patched_by_spans()
    uncalled = [q for q in _uncalled_spans() if q not in SPANS_ALLOWLIST]
    assert not uncalled, f"patched by perfbench/spans.py, but no package call reaches: {uncalled}"


def test_spans_allowlist_names_only_patched_functions_without_a_call():
    # an entry that spans.py no longer patches, or that gained a package call, is stale
    stale = sorted(set(SPANS_ALLOWLIST) - set(_uncalled_spans()))
    assert not stale, f"allowlisted, but not patched or called in src/rolemodel: {stale}"


def _root_names() -> set[str]:
    """The names that ``rolemodel/__init__.py`` binds at top level, dunders left out."""
    bound = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {name for name in bound if not name.startswith("__")}


def test_every_root_name_is_imported_from_the_root():
    imported = set()
    for path in [*PACKAGE.glob("*.py"), *ROOT.glob("perfbench/*.py"), *ROOT.glob("tests/*.py")]:
        # the root is "rolemodel" from outside the package and "." inside it
        root = (1, None) if path.parent == PACKAGE else (0, "rolemodel")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) == root:
                imported.update(alias.name for alias in node.names)
    unread = sorted(_root_names() - imported)
    assert not unread, f"bound in rolemodel/__init__.py, but never imported from the root: {unread}"


def test_each_make_rng_call_has_its_own_literal_first_label():
    labels = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "make_rng"):
                where = f"{path.name}:{node.lineno}"
                assert len(node.args) >= 2, f"{where}: make_rng without a stream label"
                first = node.args[1]
                assert isinstance(first, ast.Constant) and isinstance(first.value, int), \
                    f"{where}: the first stream label is not a literal integer"
                labels.append(first.value)
    assert labels, "found no make_rng call"
    shared = sorted(label for label, count in Counter(labels).items() if count > 1)
    assert not shared, f"stream labels used by more than one make_rng call: {shared}"


def _opens(tree: ast.AST) -> list[ast.Call]:
    """The calls of ``open`` in ``tree``, bare or as an attribute (``io.open``)."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_cli_touches_json_or_files():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "json"
                                                    for a in node.names):
                found.append(f"{path.stem}: import json")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "json":
                found.append(f"{path.stem}: from json import")
        found += [f"{path.stem}: open at {call.lineno}" for call in _opens(tree)]
    assert not found, f"only cli may read or write files and JSON: {found}"


def test_cli_opens_files_only_in_its_file_helpers():
    helpers = {"_load", "_save_json", "_save_table", "_save_csv"}
    found = []
    for node in ast.parse((PACKAGE / "cli.py").read_text()).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in helpers):
            found += [f"{getattr(node, 'name', '?')}:{call.lineno}" for call in _opens(node)]
    assert not found, f"cli calls open outside {sorted(helpers)}: {found}"


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "rolemodel"):
                found += [f"{path.stem} imports {node.module}.{a.name}" for a in node.names
                          if a.name.startswith("_") and not a.name.startswith("__")]
    assert not found, f"private names imported across modules: {found}"


def test_cli_reads_quiet_only_in_say():
    reads = {}
    for node in ast.parse((PACKAGE / "cli.py").read_text()).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "quiet":
                reads.setdefault(getattr(node, "name", "?"), []).append(sub.lineno)
    assert "_say" in reads, "the scan found no read of args.quiet in _say"
    elsewhere = {name: lines for name, lines in reads.items() if name != "_say"}
    assert not elsewhere, f"cli reads args.quiet outside _say: {elsewhere}"
