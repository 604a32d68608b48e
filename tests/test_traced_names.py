"""Every span the benchmark reads must exist in the package, and every other
public name of the package must be used by it.

perfbench/layers.py names functions, methods and lru caches of flagstrata by
``module.name`` or ``module.Class.name``.  The tracer wraps only public names
defined in their own module, and a metric whose span is missing is reported
absent, so a rename or removal in the package would silently drop a metric
from every traced run.  These tests resolve each name the way the tracer
would.  Both benchmark files are loaded by path and left unchanged.

A public module-level name that no module of the package reads is code that
only the tests run; it either becomes a cell of a checks.CHECKS sweep or
leaves.  So does a public method or property of a package class whose name
the package never reads as an attribute.  The spans the benchmark reads are
exempt.
"""

import ast
import importlib
import importlib.util
import inspect
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load("layers")
tracer = load("tracer")


def span_keys():
    keys = set(layers.RESULT_HOOKS)
    for table in (layers.CALLS, layers.INCLUSIVE, layers.CACHES):
        keys |= set(table.values())
    return sorted(keys)


def resolve(key):
    """The object the tracer would wrap under key, or None if it would wrap none."""
    layer, *path = key.split(".")
    if layer not in layers.LAYERS:
        return None
    module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    owner, obj = None, module
    for name in path:
        # the tracer wraps its arithmetic dunders of a class, and no other private name
        if name.startswith("_") and not (obj is not module and name in tracer.WRAPPED_DUNDERS):
            return None
        owner, obj = obj, vars(obj).get(name)
        if obj is None:
            return None
    if owner is module:
        # a re-imported name is wrapped under the module that defines it
        return obj if obj.__module__ == module.__name__ and tracer._traceable(obj) else None
    methods = (classmethod, staticmethod, property)
    if inspect.isclass(owner) and (inspect.isfunction(obj) or isinstance(obj, methods)):
        return obj
    return None


def test_layers_are_package_modules():
    for layer in layers.LAYERS:
        importlib.import_module(f"{tracer.PACKAGE}.{layer}")


def test_every_traced_name_exists_and_is_public():
    assert [key for key in span_keys() if resolve(key) is None] == []


def test_every_traced_cache_has_cache_info():
    caches = [resolve(key) for key in layers.CACHES.values()]
    assert all(callable(getattr(fn, "cache_info", None)) for fn in caches), layers.CACHES


def public_names(statement):
    """The public names a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [target.id for target in statement.targets if isinstance(target, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def references(module, tree):
    """The (module, name) pairs that a module's code reads.

    A name read inside the statement that binds it, such as a recursive call,
    does not count; nor does a docstring, which holds no name nodes.
    """
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import gf
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
    found = set()
    for statement in tree.body:
        own = {(module, name) for name in public_names(statement)}
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                ref = imported.get(node.id, (module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                ref = (aliases[node.value.id], node.attr)
            else:
                continue
            if ref not in own:
                found.add(ref)
    return found


def package_trees():
    """(module, syntax tree) for each module of the package."""
    package = os.path.dirname(importlib.import_module(tracer.PACKAGE).__file__)
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as handle:
                yield filename[:-3], ast.parse(handle.read(), filename)


def test_every_public_name_is_read_by_the_package():
    defined, read = set(), set()
    for module, tree in package_trees():
        defined |= {(module, name) for statement in tree.body for name in public_names(statement)}
        read |= references(module, tree)
    spans = {tuple(key.split(".")[:2]) for key in span_keys()}
    assert sorted(defined - read - spans) == []


def test_every_public_member_is_read_by_the_package():
    """A public method or property of a package class is read as an attribute somewhere in the package."""
    members, attributes = set(), set()
    for module, tree in package_trees():
        for statement in tree.body:
            if isinstance(statement, ast.ClassDef):
                members |= {
                    (module, statement.name, node.name)
                    for node in statement.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                }
        attributes |= {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    spans = {tuple(key.split(".")) for key in span_keys()}
    assert sorted(member for member in members if member[2] not in attributes and member not in spans) == []
