"""Source hygiene: every name a module of the package imports is used,
and so is every private name it defines."""

import ast
from pathlib import Path

import pytest

import dunklweyl

SOURCES = sorted(Path(dunklweyl.__file__).parent.glob("*.py"))


def _imported(tree):
    """``{bound name: line}`` for every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _private_definitions(tree):
    """``{name: line}`` for the module-level private functions, classes
    and constants.  Decorated definitions are left out: the decorator
    reads them (a registry decorator, say), not the module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [] if node.decorator_list else [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id] if isinstance(node.target, ast.Name) else []
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _used(tree):
    """Every name the module reads, including names inside quoted
    annotations and the strings of ``__all__``."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _private_definitions(tree).items()
                    if name not in used)
    assert not unused, \
        f"{path.name} defines private names it never uses: {unused}"


def _two_product_brackets(tree):
    """Lines of every ``x * y +/- y * x``: a bracket written as two
    products instead of through the kernel's one pass over both orders."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and all(isinstance(side, ast.BinOp)
                        and isinstance(side.op, ast.Mult)
                        for side in (node.left, node.right))):
            left, right = node.left, node.right
            if (ast.dump(left.left) == ast.dump(right.right)
                    and ast.dump(left.right) == ast.dump(right.left)):
                out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_brackets_use_one_kernel_pass(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = _two_product_brackets(tree)
    assert not lines, (f"{path.name} writes a bracket as two products on "
                       f"lines {lines}; call commutator/anticommutator")


def _reads_outside(tree, name, owner):
    """Lines where ``name`` is read outside the function ``owner``, each
    read charged to its innermost enclosing function."""
    out = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    and isinstance(child.ctx, ast.Load) and inside != owner):
                out.append(child.lineno)
            visit(child, inside)

    visit(tree, None)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_pair_loop(path):
    """Only ``_product`` lifts operands, so every product, bracket and
    flattening runs its one pair loop and no second loop can appear."""
    tree = ast.parse(path.read_text(), str(path))
    lines = _reads_outside(tree, "_plan", "_product")
    assert not lines, (f"{path.name} uses _plan outside _product on lines "
                       f"{lines}; add a pair rule to _product instead")


def test_ratios_in_one_place():
    """Exact quotients are taken by ``ratio`` on the value types of
    ``opalg``; ``scalars`` defines ``exact_div`` and nothing else reads it."""
    readers = {}
    for path in SOURCES:
        if path.name in ("opalg.py", "scalars.py"):
            continue
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "exact_div"]
        if lines:
            readers[path.name] = lines
    assert not readers, (f"exact_div read outside opalg on lines {readers}; "
                         f"call ratio on the value types instead")


def test_one_place_flattens():
    """A product kept factored is flattened by ``kernel_op`` alone: no
    ``__getattr__`` builds the flat form on a stray read, and no module
    but ``opalg`` and ``scalars`` reads the slots behind it or the base
    that a power records."""
    path = Path(dunklweyl.__file__).parent / "opalg.py"
    tree = ast.parse(path.read_text(), str(path))
    lines = _reads_outside(tree, "_flatten", "kernel_op")
    assert not lines, f"opalg.py reads _flatten outside kernel_op on {lines}"
    hooks = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name == "__getattr__"]
    assert not hooks, f"opalg.py defines __getattr__ on lines {hooks}"
    readers = {}
    for path in SOURCES:
        if path.name in ("opalg.py", "scalars.py"):
            continue
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("_data", "_factors", "_power")]
        if lines:
            readers[path.name] = lines
    assert not readers, (f"_data, _factors or _power read outside opalg on "
                         f"lines {readers}; read kernel_op or len() instead")
