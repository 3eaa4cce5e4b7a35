"""No dead helpers in the package: every private module-level function or
class is used somewhere in src/fraclode other than its own definition, and
no module imports a name it never uses (`__init__.py`'s re-exports in
`__all__` excepted).  Test code and perfbench/ are not checked."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fraclode"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}


def _used_names(node: ast.AST) -> set[str]:
    """Names the node reads: plain names, attributes and imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _all_exports(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            return set(ast.literal_eval(stmt.value))
    return set()


#: (statement, the names it reads) for every top-level statement in src/fraclode.
STATEMENTS = [(stmt, _used_names(stmt)) for tree in MODULES.values() for stmt in tree.body]


def test_modules_found():
    assert {"__init__.py", "solver.py", "specfun.py"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_helper_is_used(module):
    unused = []
    for stmt in MODULES[module].body:
        if not (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name.startswith("_") and not stmt.name.startswith("__")):
            continue
        # Every top-level statement of every module but the helper's own def.
        if not any(stmt.name in used for other, used in STATEMENTS if other is not stmt):
            unused.append(stmt.name)
    assert unused == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    exempt = _all_exports(tree) if module == "__init__.py" else set()
    unused = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and sub.module == "__future__":
            continue
        if isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and bound not in exempt:
                    unused.append(bound)
    assert unused == []
