"""Static checks on the package sources."""

import ast
import importlib.util
from pathlib import Path

import pytest

from circulant_terms.circulant import det_table, expand_det

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "circulant_terms"

# __init__.py is left out: its imports are the package's re-exports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _names_used(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_private_definition_is_referenced():
    # (module, name or None, names used) for each top-level statement; a
    # private function or class must be used by a statement not its own
    statements = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(path.name, getattr(stmt, "name", None),
                        _names_used(stmt)) for stmt in tree.body]
    unused = [f"{module}:{name}" for module, name, _ in statements
              if name and name.startswith("_") and not name.startswith("__")
              and not any(name in used for where, what, used in statements
                          if (where, what) != (module, name))]
    assert unused == []


def _module_containers(tree):
    # module-level names bound to a dict, list or set
    containers = (ast.Dict, ast.List, ast.Set,
                  ast.DictComp, ast.ListComp, ast.SetComp)
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if isinstance(value, containers) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _container_names(tree):
    # the private ones among the module-level containers
    return {name for name in _module_containers(tree)
            if name.startswith("_") and not name.startswith("__")}


def test_every_module_container_is_cleared():
    # a process-wide memo must be visible to clear_caches(); one it
    # misses grows for the life of the process
    held, cleared = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        held |= _container_names(tree)
        for stmt in tree.body:
            if (isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "clear_caches"):
                cleared |= {node.func.value.id for node in ast.walk(stmt)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "clear"
                            and isinstance(node.func.value, ast.Name)}
    assert held and sorted(held - cleared) == []


# the methods that change a dict, list or set in place
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop",
            "popitem", "remove", "setdefault", "update"}


def _foreign_writes(tree, foreign):
    """(line, name) for each write in tree to a container named in
    foreign, by subscript assignment or deletion or by a call of one of
    MUTATORS, reached by its name or as a module's attribute.  A .clear()
    inside clear_caches is not counted."""
    emptied = {id(node) for stmt in ast.walk(tree)
               if isinstance(stmt, ast.FunctionDef)
               and stmt.name == "clear_caches"
               for node in ast.walk(stmt)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "clear"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            held = node.value
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and id(node) not in emptied):
            held = node.func.value
        else:
            continue
        name = (held.id if isinstance(held, ast.Name)
                else held.attr if isinstance(held, ast.Attribute) else None)
        if name in foreign:
            found.append((node.lineno, name))
    return found


def test_no_module_writes_another_modules_container():
    # a process-wide container is written only by the module that holds
    # it, so each value in a memo is its own route's; clear_caches() may
    # empty any of them
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    held = {name: _module_containers(tree) for name, tree in trees.items()}
    found = [f"{name}:{line}: {what}"
             for name, tree in sorted(trees.items())
             for line, what in _foreign_writes(tree, set().union(*(
                 names for other, names in held.items() if other != name))
                 - held[name])]
    assert found == []


@pytest.mark.parametrize("source", [
    "_M[k] = 1", "_M[k] += 1", "del _M[k]", "_M.setdefault(k, 1)",
    "_M.update(d)", "_M.pop(k)", "_M.append(1)", "m._M[k] = 1",
    "m._M.pop(k)", "def f():\n    _M.clear()",
])
def test_foreign_write_check_finds_each_form(source):
    assert len(_foreign_writes(ast.parse(source), {"_M"})) == 1


@pytest.mark.parametrize("source", [
    "x = _M[k]", "x = _M.get(k, 1)", "_N[k] = 1",
    "def clear_caches():\n    _M.clear()",
])
def test_foreign_write_check_passes_reads_and_clear_caches(source):
    assert _foreign_writes(ast.parse(source), {"_M"}) == []


# the functions that report or empty every process-wide container
CACHE_KEEPERS = ("cache_sizes", "clear_caches")


def _foreign_reads(tree, foreign):
    """(line, name) for each reference in tree to a container named in
    foreign, by its name or as a module's attribute, outside the
    functions of CACHE_KEEPERS; an import is not a reference."""
    kept = {id(node) for stmt in ast.walk(tree)
            if isinstance(stmt, ast.FunctionDef)
            and stmt.name in CACHE_KEEPERS
            for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in foreign and id(node) not in kept:
            found.append((node.lineno, name))
    return found


def test_no_module_reads_another_modules_container():
    # a route reads only the memos its own module holds, so no value
    # passes from one route to another through a cache; cache_sizes()
    # and clear_caches() may reach any of them
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    held = {name: _module_containers(tree) for name, tree in trees.items()}
    found = [f"{name}:{line}: {what}"
             for name, tree in sorted(trees.items())
             for line, what in _foreign_reads(tree, set().union(*(
                 names for other, names in held.items() if other != name))
                 - held[name])]
    assert found == []


@pytest.mark.parametrize("source", [
    "x = _M[k]", "x = _M.get(k, 1)", "x = m._M.get(k)", "f(_M)",
    "def cache_size():\n    return len(_M)",
])
def test_foreign_read_check_finds_each_form(source):
    assert len(_foreign_reads(ast.parse(source), {"_M"})) == 1


@pytest.mark.parametrize("source", [
    "from m import _M", "x = _N[k]",
    "def cache_sizes():\n    return len(_M)",
    "def clear_caches():\n    _M.clear()",
])
def test_foreign_read_check_passes_imports_and_cache_keepers(source):
    assert _foreign_reads(ast.parse(source), {"_M"}) == []


# the math functions that take and return integers only
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _float_sources(tree):
    """(line, what) for each construct that can make a float: true
    division, a float or complex literal, the names float and round, and
    math beyond its integer functions (so `import math` as a whole)."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            found.append((node.lineno, "/"))
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, (float, complex))):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in ("float", "round"):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{alias.name}")
                      for alias in node.names
                      if alias.name not in INTEGER_MATH]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for alias in node.names
                      if alias.name == "math"]
    return found


def test_no_floating_point():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _float_sources(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


@pytest.mark.parametrize("source", [
    "x = a / b", "x /= 2", "x = 0.5", "x = 1e3", "x = 2j", "y = float(x)",
    "y = round(x)", "from math import sqrt", "from math import *",
    "import math",
])
def test_float_check_finds_each_form(source):
    assert len(_float_sources(ast.parse(source))) == 1


def _functions(tree):
    """(qualified name, node) for each function and method, nested ones
    under their own name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    found.append((name, child))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


# every cross-check between routes goes through admit; only these
# integrality self-checks raise RouteDisagreement themselves
RAISERS = {
    ("exactmath.py", "admit"),
    ("circulant.py", "p_count"),
    ("circulant.py", "_Engine.coeff"),
    ("circulant.py", "sign_epsilon"),
    ("bricks.py", "_row_weight"),
}


def test_route_disagreement_built_only_by_admit_and_integrality_checks():
    built = set()
    for path in MODULES:
        for name, node in _functions(ast.parse(path.read_text("utf-8"))):
            if any(isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name)
                   and call.func.id == "RouteDisagreement"
                   for call in ast.walk(node)):
                built.add((path.name, name))
    assert built == RAISERS


def _is_coeff_call(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "coeff")


def test_engine_queried_only_by_det_coeff_er():
    # every route to the engine takes det_coeff_er's query rule
    callers, calls = set(), 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(_is_coeff_call, ast.walk(tree)))
        callers |= {(path.name, name) for name, node in _functions(tree)
                    if any(map(_is_coeff_call, ast.walk(node)))}
    assert callers == {("circulant.py", "det_coeff_er")}
    assert calls == 1


def _is_leibniz_call(node):
    return isinstance(node, ast.Call) and "_leibniz" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_leibniz_called_only_by_the_oracle_routes():
    # one whole-table walk per n, by expand_det; the other callers each
    # walk under one term's budget
    callers, calls = set(), 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(_is_leibniz_call, ast.walk(tree)))
        callers |= {(path.name, name) for name, node in _functions(tree)
                    if any(map(_is_leibniz_call, ast.walk(node)))}
    assert callers == {("circulant.py", "det_coeff_oracle"),
                       ("circulant.py", "expand_det"),
                       ("circulant.py", "sign_epsilon")}
    assert calls == 3


def _is_det_coeff_er_call(node):
    return isinstance(node, ast.Call) and "det_coeff_er" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_det_coeff_er_called_only_by_the_orbit_stream_and_single_terms():
    # each orbit's coefficient is asked once, by affine_orbits, and the
    # stream's readers take it from there; the other callers each ask
    # for one term
    callers, calls = set(), 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(_is_det_coeff_er_call, ast.walk(tree)))
        callers |= {(path.name, name) for name, node in _functions(tree)
                    if any(map(_is_det_coeff_er_call, ast.walk(node)))}
    assert callers == {("circulant.py", "affine_orbits"),
                       ("circulant.py", "sign_epsilon"),
                       ("cli.py", "cmd_coeff"),
                       ("theorem.py", "dominance_check")}
    assert calls == 4


def _is_row_recursion_call(node):
    return isinstance(node, ast.Call) and "_w" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_row_recursion_called_only_by_filling_weight():
    # every w the package computes comes from the class walk; the row
    # recursion is filling_weight's own, the reference the tests hold
    # the class walk to
    callers, calls = set(), 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(_is_row_recursion_call, ast.walk(tree)))
        callers |= {(path.name, name) for name, node in _functions(tree)
                    if any(map(_is_row_recursion_call, ast.walk(node)))}
    assert callers == {("bricks.py", "filling_weight"), ("bricks.py", "_w")}
    assert calls == 2


def _is_whole_walk_call(node):
    # _residue_walk(n, n): every admissible term of n, uncapped
    return (isinstance(node, ast.Call) and "_residue_walk" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and len(node.args) == 2 and not node.keywords
        and ast.dump(node.args[0]) == ast.dump(node.args[1]))


def test_whole_table_walk_called_only_by_permanent_terms():
    # the coefficients of one n come from the orbit stream's capped
    # walks; a second pass over every term would be a second orbit walk
    callers, calls = set(), 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(_is_whole_walk_call, ast.walk(tree)))
        callers |= {(path.name, name) for name, node in _functions(tree)
                    if any(map(_is_whole_walk_call, ast.walk(node)))}
    assert callers == {("circulant.py", "permanent_terms")}
    assert calls == 1


@pytest.mark.parametrize("source, found", [
    ("_residue_walk(n, n)", True), ("circ._residue_walk(m, m)", True),
    ("_residue_walk(n, k)", False), ("_residue_walk(n, n, top, n - 1)", False),
])
def test_whole_walk_check_reads_the_arguments(source, found):
    assert any(map(_is_whole_walk_call, ast.walk(ast.parse(source)))) == found


def _cli_tree():
    return ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))


def test_cli_prints_inconsistency_only_in_main():
    # the one "inconsistency:" line, for every RouteDisagreement
    tree = _cli_tree()

    def literals(node):
        return [const for const in ast.walk(node)
                if isinstance(const, ast.Constant)
                and isinstance(const.value, str)
                and const.value.startswith("inconsistency")]

    holders = [name for name, node in _functions(tree) if literals(node)]
    assert holders == ["main"]
    assert len(literals(tree)) == 1


def test_no_handler_returns_2():
    returns = [name for name, node in _functions(_cli_tree())
               if name.startswith("cmd_")
               for ret in ast.walk(node)
               if isinstance(ret, ast.Return)
               and isinstance(ret.value, ast.Constant)
               and ret.value.value == 2]
    assert returns == []


def test_main_catches_only_named_errors():
    # a bug or a MemoryError is left to the interpreter, exit 1; 2 is
    # only for a disagreement between routes
    main = dict(_functions(_cli_tree()))["main"]
    handlers = {}
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
                else [handler.type]
            codes = {ret.value.value for ret in ast.walk(handler)
                     if isinstance(ret, ast.Return)
                     and isinstance(ret.value, ast.Constant)}
            for kind in kinds:
                handlers[getattr(kind, "id", None)] = codes
    assert set(handlers) <= {"_Help", "_UsageError", "ValueError",
                             "_OutputError", "RouteDisagreement"}
    assert [name for name, codes in handlers.items() if 2 in codes] == \
        ["RouteDisagreement"]


def _benchmark_child():
    # perfbench/child.py as it stands, loaded by path
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_benchmark_spans_name_live_functions():
    # the traced benchmark skips a name that is gone, and its span's
    # metrics then read 0 or null
    child = _benchmark_child()
    missing = [f"{module}.{attr}" for module, attr in child.SPANNED
               if not callable(getattr(importlib.import_module(
                   f"{child.PACKAGE}.{module}"), attr, None))]
    assert missing == []


def test_benchmark_cache_sizes_all_read():
    det_table(6)
    expand_det(4)
    sizes = _benchmark_child().cache_sizes()
    assert sizes and None not in sizes.values()
