"""Properties of the package as a whole."""

import ast
import sys
from pathlib import Path

import vitalink

PACKAGE_DIR = Path(vitalink.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def parse_all(directory: Path) -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def names_read(trees: dict) -> set:
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def names_read_anywhere() -> set:
    """Every name the package, its tests or the bench reads."""
    used = set()
    for directory in (PACKAGE_DIR, REPO / "tests", REPO / "bench"):
        used |= names_read(parse_all(directory))
    return used


def top_level_names(trees: dict) -> list:
    """(module, name) for each constant, function and class a module defines."""
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [(name, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    return out


def test_every_private_top_level_name_is_used():
    # a module-private constant, function or class that nothing reads is dead code
    trees = parse_all(PACKAGE_DIR)
    used = names_read(trees)
    dead = [f"{module}: {d}" for module, d in top_level_names(trees)
            if d.startswith("_") and not d.startswith("__") and d not in used]
    assert dead == []


def test_every_public_top_level_name_is_read_somewhere():
    # a public name that neither the package, its tests nor the bench reads is dead code
    trees = parse_all(PACKAGE_DIR)
    used = names_read_anywhere()
    dead = [f"{module}: {d}" for module, d in top_level_names(trees)
            if not d.startswith("_") and d not in used]
    assert dead == []


def test_every_public_method_is_read_somewhere():
    # a public method that nothing reads is dead code, which the checks on
    # top-level names and assigned attributes do not see
    trees = parse_all(PACKAGE_DIR)
    used = names_read_anywhere()
    dead = [f"{module}: {cls.name}.{node.name}" for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in used]
    assert dead == []


def test_every_attribute_the_package_assigns_is_read_in_it():
    # state that only `obj.name = …` touches is dead; `obj.name += …` reads it
    assigned, read = {}, set()
    for module, tree in parse_all(PACKAGE_DIR).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    assigned.setdefault(node.attr, module)
                else:
                    read.add(node.attr)
    dead = [f"{module}: {attr}" for attr, module in assigned.items() if attr not in read]
    assert dead == []
