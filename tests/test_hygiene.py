"""Source hygiene: every name a module of the package imports is used,
and so is every private name it defines."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dunklweyl
from dunklweyl import builders, relations
from dunklweyl.builders import build, names

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
    """Only ``_product`` lifts operands, so product, bracket, action and
    adjoint all run its one pair loop, with its per-call tables of first
    and rest entries, and differ only in the rows that fill them; no
    second loop can appear."""
    tree = ast.parse(path.read_text(), str(path))
    lines = _reads_outside(tree, "_plan", "_product")
    assert not lines, (f"{path.name} uses _plan outside _product on lines "
                       f"{lines}; add a pair rule to _product instead")


def test_shortcuts_only_in_the_rule_table():
    """Every shortcut of the factored path is reached through
    ``opalg._RULES`` alone: ``_decide`` is the one reader of the table, and
    nothing but the table reads the name of a rule it lists.  A shortcut
    added later then either sits in the table, where emptying it switches
    the shortcut off, or fails here."""
    path = Path(dunklweyl.__file__).parent / "opalg.py"
    tree = ast.parse(path.read_text(), str(path))
    (table,) = [node for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["_RULES"]]
    rules = {n.id for n in ast.walk(table.value) if isinstance(n, ast.Name)}
    assert len(rules) >= 5
    lines = {line for name in rules
             for line in _reads_outside(tree, name, None)}
    lines |= {n.lineno for node in tree.body
              if node is not table and not isinstance(node, ast.FunctionDef)
              for n in ast.walk(node)
              if isinstance(n, ast.Name) and n.id in rules}
    assert not lines, (f"opalg.py reads a rule of _RULES outside the table "
                       f"on lines {sorted(lines)}; reach it through _decide")
    readers = _reads_outside(tree, "_RULES", "_decide")
    assert not readers, f"opalg.py reads _RULES outside _decide on {readers}"


def test_one_reordering_rule():
    """Every cached row of the kernel other than ``_block`` is built from
    ``dx_rows`` or ``_block``, so monomials are reordered by one rule."""
    path = Path(dunklweyl.__file__).parent / "_kernel.py"
    tree = ast.parse(path.read_text(), str(path))
    cached = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name != "_block"
              and any(getattr(d, "id", None) == "cache"
                      for d in node.decorator_list)]
    assert cached
    own = sorted(f"{node.name} (line {node.lineno})" for node in cached
                 if not {"dx_rows", "_block"} & {
                     n.id for n in ast.walk(node) if isinstance(n, ast.Name)})
    assert not own, (f"_kernel.py cached rows with their own reordering: "
                     f"{own}; build them from dx_rows or _block")


def test_ratios_in_one_place():
    """Exact quotients are taken by ``ratio`` on the value types of
    ``opalg``; ``_kernel`` defines ``poly_div`` and, outside it, only
    ``opalg`` reads it."""
    readers = {}
    for path in SOURCES:
        if path.name in ("_kernel.py", "opalg.py"):
            continue
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if "poly_div" in (getattr(node, "id", None),
                                   getattr(node, "attr", None),
                                   getattr(node, "name", None))]
        if lines:
            readers[path.name] = lines
    assert not readers, (f"poly_div read outside opalg on lines {readers}; "
                         f"call ratio on the value types instead")


def test_every_kernel_function_has_a_reader():
    """Every public function of ``_kernel`` is read somewhere in the
    package outside its own body, so that no entry point that only tests
    call, a second way to do what the kernel does once, can creep back."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    public = [node.name for node in trees["_kernel.py"].body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    assert len(public) >= 15
    unread = [name for name in public
              if not _reads_outside(trees["_kernel.py"], name, name)
              and not any(isinstance(node, ast.Name) and node.id == name
                          for path, tree in trees.items()
                          if path != "_kernel.py" for node in ast.walk(tree))]
    assert not unread, (f"_kernel.py defines functions nothing in the "
                        f"package reads: {unread}")


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


def test_one_reader_of_the_terms():
    """An operator's terms are read only through ``_parts``, which
    builds a pending power first: outside it, no code of
    ``opalg`` but the linear-space base and the Laurent polynomials reads
    the slot ``_data`` or ``_factors``."""
    path = Path(dunklweyl.__file__).parent / "opalg.py"
    tree = ast.parse(path.read_text(), str(path))
    own = {"_Combination", "LaurentPolynomial"}
    lines = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name if child.name in own else owner)
            elif isinstance(child, ast.FunctionDef):
                visit(child, owner or (child.name == "_parts" or None))
            else:
                if (isinstance(child, ast.Attribute)
                        and child.attr in ("_data", "_factors")
                        and isinstance(child.ctx, ast.Load) and not owner):
                    lines.append(child.lineno)
                visit(child, owner)

    visit(tree, None)
    assert not lines, (f"opalg.py reads _data or _factors outside _parts on "
                       f"lines {lines}")


def _render_path():
    """``(path, trees)``: ``path`` lists ``(module file, function node)``
    for the functions that write values as text, every ``__str__`` of
    ``scalars`` and ``opalg`` and the module-level functions of either
    that they name, transitively, whether they call one or hand it on, as
    to ``map`` or ``reduce`` (a name ``opalg`` imports from ``scalars``
    resolves there); ``trees`` maps each file to its AST.  A function's
    node holds its closures, such as the writers ``poly_renderer``
    returns."""
    trees = {name: ast.parse((Path(dunklweyl.__file__).parent / name)
                             .read_text(), name)
             for name in ("scalars.py", "opalg.py")}
    functions = {name: {node.name: node for node in tree.body
                        if isinstance(node, ast.FunctionDef)}
                 for name, tree in trees.items()}
    todo = [(name, node) for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__str__"]
    seen = {}
    while todo:
        name, fn = todo.pop()
        if (name, fn.name, fn.lineno) in seen:
            continue
        seen[name, fn.name, fn.lineno] = (name, fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                for owner in (name, "scalars.py"):
                    callee = functions[owner].get(node.id)
                    if callee is not None:
                        todo.append((owner, callee))
                        break
    return list(seen.values()), trees


def _mu_powers(tree):
    """Lines of every f-string that writes a mu power, ``mu{i}^{e}``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            parts = node.values
            for k in range(len(parts) - 3):
                a, b, c, d = parts[k:k + 4]
                if (isinstance(a, ast.Constant) and a.value.endswith("mu")
                        and isinstance(b, ast.FormattedValue)
                        and isinstance(c, ast.Constant)
                        and c.value == "^"
                        and isinstance(d, ast.FormattedValue)):
                    out.append(node.lineno)
    return out


def _tables(body, displays=(ast.Dict, ast.DictComp),
            calls=("dict", "defaultdict", "OrderedDict")):
    """Names bound in the statements ``body`` to one of ``displays`` or to
    a call of one of ``calls``; by default, the dicts."""
    out = set()
    for node in body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if (isinstance(value, displays)
                or (isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) in calls)):
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def test_one_renderer():
    """Numbers and mu-monomials are written only in ``scalars``, without
    building a Fraction, and the memo that writes each distinct one once
    per output lives in the call, not in the module.  The path reaches
    the writer of a product kept factored, the one that multiplies the
    factors' numbers with ``bn_mul``."""
    path, trees = _render_path()
    names = {name for name, _ in path}
    assert {"scalars.py", "opalg.py"} <= names
    assert any(isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "bn_mul"
               for _, fn in path for node in ast.walk(fn)), (
        "no function on the render path multiplies with bn_mul")
    module_dicts = {name: _tables(tree.body)
                    for name, tree in trees.items()}
    faults = []
    for name, fn in path:
        where = f"{name} {fn.name} (line {fn.lineno})"
        for node in ast.walk(fn):
            if isinstance(node, ast.FunctionDef) and node.decorator_list:
                faults.append(f"{where}: {node.name} is decorated, so it "
                              f"may cache")
            elif isinstance(node, ast.Global):
                faults.append(f"{where} writes a global")
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and node.id in module_dicts[name]):
                faults.append(f"{where} reads the module-level dict {node.id}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "Fraction"):
                faults.append(f"{where} builds a Fraction")
            elif (name != "scalars.py" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("Scalar", "BaseNumber")):
                faults.append(f"{where} builds a {node.func.id} to write "
                              f"it instead of passing the shared renderer "
                              f"its kernel data")
    for path_ in SOURCES:
        if path_.name != "scalars.py":
            lines = _mu_powers(ast.parse(path_.read_text(), str(path_)))
            if lines:
                faults.append(f"{path_.name} writes a mu power on {lines}")
    assert not faults, "; ".join(faults)


# The module-level tables of ``builders`` that build operators in code.
_GENERATOR_TABLES = ("_GENERATORS", "_VARIABLE_GENERATORS")
# Names through which code could build or combine operators.
_OPERATOR_CODE = {"commutator", "anticommutator", "Scalar", "I", "SQRT2",
                  "INV_SQRT2", "OperatorElement"}


def test_registry_builds_only_the_generators_in_code():
    """``builders`` builds the six generators x<k>, d<k>, R<k>, mu<k>, i
    and sqrt2 in code and nothing else: outside their two tables it
    names no bracket function, scalar or operator constructor, and does
    no arithmetic on what ``build`` or ``parse_eval`` returns.  Every
    other name at dims 1-3 is defined by a text."""
    path = Path(builders.__file__)
    tree = ast.parse(path.read_text(), str(path))
    allowed = {id(n) for node in tree.body
               if isinstance(node, ast.AnnAssign)
               and getattr(node.target, "id", None) in _GENERATOR_TABLES
               for n in ast.walk(node.value)}
    assert allowed, "no generator table found"
    # An annotation names a type without building anything.
    allowed |= {id(n) for annotation in _annotations(tree) if annotation
                for n in ast.walk(annotation)}
    faults = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        line = f"builders.py:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id in _OPERATOR_CODE:
            faults.append(f"{line} uses {node.id}")
        elif (isinstance(node, (ast.BinOp, ast.UnaryOp))
              and any(isinstance(n, ast.Call)
                      and getattr(n.func, "id", None) in ("build",
                                                          "parse_eval")
                      for n in ast.walk(node))):
            faults.append(f"{line} does arithmetic on an operator")
    assert not faults, "; ".join(faults)
    for dims in (1, 2, 3):
        generators = {*builders._GENERATORS} | {
            f"{kind}{k}" for kind in builders._VARIABLE_GENERATORS
            for k in range(1, dims + 1)}
        texts = {name: write(dims) for name, write in builders._GLOBAL.items()}
        if dims == 2:
            texts.update(builders._TWO_VARIABLE)
        texts.update({f"{kind}{k}": text.format(k=k)
                      for kind, text in builders._PER_VARIABLE.items()
                      for k in range(1, dims + 1)})
        assert len(generators) == 2 + 4 * dims
        assert all(isinstance(text, str) for text in texts.values())
        assert not generators & texts.keys()
        assert set(names(dims)) == generators | texts.keys()


@pytest.mark.parametrize("module", ["dunklweyl.builders", "dunklweyl.dsl"])
def test_either_module_imports_first(module):
    """``builders`` and ``dsl`` call each other; each imported alone, in
    a fresh interpreter, builds a composite through the other."""
    src = str(Path(dunklweyl.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = f"import {module} as m; print(m.build('C', 2))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{build('C', 2)}\n"


# Methods that fill a dict, list or set in place.
_FILLS = {"append", "extend", "insert", "update", "setdefault", "add",
          "__setitem__"}


def test_prepared_action_lives_on_the_value():
    """``_kernel`` and ``opalg`` call no ``id()``, fill no dict, list or
    set of the module or of a class at run time, and cache nothing but
    rows: the prepared operand of an action, on the operator side and on
    the function side alike, is kept on its value and dies with it, never
    in a process-wide table of operands, which is what raises
    ``peak_rss_mb``.  The ``@cache``d row functions of one ``key`` and the
    constant tables ``_UNIT_PRODUCTS`` and ``_BRACKET_ROWS`` (whose
    entries are such caches, per sign) are allowed."""
    faults = []
    for name in ("_kernel.py", "opalg.py"):
        path = Path(dunklweyl.__file__).parent / name
        tree = ast.parse(path.read_text(), str(path))
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        tables = set().union(*(_tables(
            body, (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set,
                   ast.SetComp),
            ("dict", "defaultdict", "OrderedDict", "list", "set"))
            for body in bodies))
        rows = {id(n) for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and [a.arg for a in node.args.args] == ["key"]
                for d in node.decorator_list for n in ast.walk(d)}
        rows |= {id(n) for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["_BRACKET_ROWS"] for n in ast.walk(node.value)}

        def table(node):
            return getattr(node, "id", getattr(node, "attr", None)) in tables

        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                line = f"{name}:{getattr(node, 'lineno', '?')}"
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "id"):
                    faults.append(f"{line} calls id()")
                elif isinstance(node, ast.Global):
                    faults.append(f"{line} writes a global")
                elif (isinstance(node, ast.Subscript)
                      and isinstance(node.ctx, (ast.Store, ast.Del))
                      and table(node.value)):
                    faults.append(f"{line} fills a module or class table")
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _FILLS and table(node.func.value)):
                    faults.append(f"{line} fills a module or class table")
                elif isinstance(node, ast.AugAssign) and table(node.target):
                    faults.append(f"{line} fills a module or class table")
        for node in ast.walk(tree):
            if (getattr(node, "id", getattr(node, "attr", None))
                    in ("cache", "lru_cache") and id(node) not in rows):
                faults.append(f"{name}:{node.lineno} caches something "
                              f"other than a row of one key")
    assert not faults, "; ".join(faults)


# The arithmetic a number type could carry beside the kernel's.
_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
               "__neg__"}


def test_arithmetic_only_in_the_kernel():
    """``BaseNumber`` and ``Scalar`` view the kernel's data and define no
    arithmetic of their own: numbers and mu-polynomials are added,
    multiplied, evaluated and divided by the ``bn_*`` and ``poly_*``
    functions of ``_kernel`` alone, and no method of either runs a
    ``for`` or ``while`` loop of its own.  A state is a
    ``LaurentPolynomial``: ``states`` defines no value type, only its
    exception and its result records, none with a method."""
    from dunklweyl import scalars
    faults = [f"{cls.__name__} defines {name}"
              for cls in (scalars.BaseNumber, scalars.Scalar)
              for name in sorted(_ARITHMETIC & set(vars(cls)))]
    path = Path(scalars.__file__)
    faults += [f"scalars.py:{node.lineno} loops in {cls.name}.{fn.name}"
               for cls in ast.parse(path.read_text()).body
               if isinstance(cls, ast.ClassDef)
               and cls.name in ("BaseNumber", "Scalar")
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, (ast.For, ast.While))]
    path = Path(dunklweyl.__file__).parent / "states.py"
    faults += [f"states.py:{node.lineno} defines class {node.name} with "
               f"methods" for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(item, ast.FunctionDef)
                       for item in node.body)]
    assert not faults, "; ".join(faults)



def test_one_parsed_form():
    """The parser writes the evaluation program itself: ``dsl`` defines
    no class but its error and its parser, and no dataclass, so no tree
    of the parsed text is kept beside the program's steps."""
    path = Path(dunklweyl.__file__).parent / "dsl.py"
    tree = ast.parse(path.read_text())
    faults = [f"dsl.py:{node.lineno} defines class {node.name}"
              for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              and node.name not in ("ParseError", "_Parser")]
    faults += [f"dsl.py:{node.lineno} uses dataclass"
               for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
               and "dataclass" in (getattr(node, "id", None)
                                   or getattr(node, "attr", None)
                                   or getattr(node, "name", ""))]
    assert not faults, "; ".join(faults)


def test_evaluator_holds_no_algebra():
    """``dsl`` evaluates operators only: it imports no ``Fraction``, and
    ``_apply`` and ``run`` neither test a value's type nor raise, nor read
    ``as_scalar`` or ``coordinate_power``, so which quotients and powers
    exist is decided by ``OperatorElement`` alone."""
    path = Path(dunklweyl.__file__).parent / "dsl.py"
    tree = ast.parse(path.read_text())
    faults = [f"dsl.py:{line} imports Fraction"
              for name, line in _imported(tree).items() if name == "Fraction"]
    evaluator = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 and fn.name in ("_apply", "run")]
    assert len(evaluator) == 2
    for fn in evaluator:
        for node in ast.walk(fn):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.Raise):
                faults.append(f"dsl.py:{node.lineno} raises in {fn.name}")
            elif name in ("isinstance", "as_scalar", "coordinate_power"):
                faults.append(f"dsl.py:{node.lineno} reads {name} in "
                              f"{fn.name}")
    assert not faults, "; ".join(faults)


def test_lexer_keeps_no_per_dims_state():
    """``dsl`` lexes by looking each word up in the registry's name table
    and keeps no copy of it: it imports nothing from ``functools``, so it
    caches nothing per dims, and it calls ``re.compile`` only at module
    level, so no pattern is written from the names of a dims."""
    path = Path(dunklweyl.__file__).parent / "dsl.py"
    tree = ast.parse(path.read_text())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    faults = ["dsl.py imports functools"] if "functools" in modules else []
    module_level = {id(node) for stmt in tree.body
                    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    for node in ast.walk(stmt)}
    compiles = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "compile"]
    assert compiles
    faults += [f"dsl.py:{node.lineno} calls re.compile in a function"
               for node in compiles if id(node) not in module_level]
    assert not faults, "; ".join(faults)


def test_tracer_resolves_every_target(monkeypatch):
    """The benchmark's tracer finds every layer it wraps.  A target it
    cannot resolve drops that layer's metrics from a traced run without
    an error, so a renamed or deleted name must fail here instead."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracing
    assert tracing.Tracer().absent == []


def test_benchmark_families_match_the_registry(monkeypatch):
    """The benchmark keeps its own copy of the family ids, so that a
    family the program drops fails a request; a family dropped, added or
    reordered on purpose must be copied there too, or fail here."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads
    assert workloads.FAMILIES == relations.FAMILIES
    assert set(workloads.PERTURBED) == {
        fid for fid, fam in relations.REGISTRY.items()
        if fam.control is not None}
