"""The package's public surface: README's Library section, and no uncalled code."""

import ast
import importlib
import re
from pathlib import Path

import hyperjet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperjet"


def test_readme_library_section_is_the_exported_api():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n")[1].split("\n## ")[0]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    # the names the example imports, and every backticked name or call
    imported = re.search(r"^from hyperjet import (.+)$", code, re.M).group(1)
    documented = {name.strip() for name in imported.split(",")}
    documented |= set(re.findall(r"`([A-Za-z_]\w*)[(`]", section))
    assert set(hyperjet.__all__) == documented
    namespace = {}
    exec("from hyperjet import *", namespace)  # fails on a name that does not resolve
    assert set(hyperjet.__all__) <= namespace.keys()


def test_every_module_level_definition_is_called_or_exported():
    """Each function and class of src/hyperjet is named outside its own body.

    A name counts where it appears in another definition or in module-level
    code of any module but `__init__.py`; an exported name needs no caller.
    """
    definitions = set()  # (module, name)
    references = set()  # (name, (module, enclosing top-level definition or None))
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
                definitions.add((path.stem, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.add((node.id, (path.stem, owner)))
                elif isinstance(node, ast.Attribute):
                    references.add((node.attr, (path.stem, owner)))
    uncalled = {
        (module, name) for module, name in definitions
        if name not in hyperjet.__all__
        and not any(ref == name and where != (module, name) for ref, where in references)
    }
    assert uncalled == set()


def test_every_method_is_called():
    """Each method and property of src/hyperjet is named in src/ outside its own body.

    Dunders are exempt, and so is a method that overrides an attribute of a
    base class (such as `cli._Parser.error`): the base class calls it.
    """
    methods = []  # (module, class, method node)
    references = []  # (name, module, line) of every name and attribute in src/
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.stem, node.lineno))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                methods += [(path.stem, top.name, fn) for fn in top.body
                            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    uncalled = set()
    for module, owner, fn in methods:
        name = fn.name
        if name.startswith("__") and name.endswith("__"):
            continue
        cls = getattr(importlib.import_module(f"hyperjet.{module}"), owner)
        if any(hasattr(base, name) for base in cls.__mro__[1:]):
            continue
        if not any(ref == name and not (where == module and fn.lineno <= line <= fn.end_lineno)
                   for ref, where, line in references):
            uncalled.add(f"{module}.{owner}.{name}")
    assert uncalled == set()


def test_every_traced_layer_resolves():
    """Every `install("hyperjet...:...")` target of perfbench/tracer.py names an
    attribute of the package, as the tracer resolves it.

    A target that does not resolve drops its layer from the benchmark's
    traced run without an error; this catches a rename in tier-1.
    """
    text = (ROOT / "perfbench" / "tracer.py").read_text()
    targets = re.findall(r'install\(\s*"(hyperjet[\w.]*:[\w.]+)"', text)
    assert len(targets) >= 10
    absent = []
    for target in targets:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.append(target)
    assert absent == []
