"""The package's public surface: README's Library section, no uncalled code, what
an import loads, and the contracts of its value types."""

import ast
import importlib
import os
import pickle
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import hyperjet
from hyperjet import cli, configurations, engine, lp, nonfibre
from hyperjet.configurations import ABlock, Classification, JetConfiguration
from hyperjet.lattice import BlowupClass, DivisorClass
from hyperjet.surfaces import SINGULAR_A, SurfaceType, surface

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


# What a process pays before its first certificate, as the benchmark's set-up
# probe runs it: the package import and the shared LP battery
SETUP_PROBE = """
import sys, hyperjet.cli
from hyperjet import nonfibre
nonfibre.implication_battery()
print(sorted({"dataclasses", "inspect"} & sys.modules.keys()))
"""


def test_setup_loads_neither_dataclasses_nor_inspect():
    """No class is generated at import: value types are NamedTuples or plain
    classes, so `dataclasses` and the `inspect` it imports stay unloaded."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert out.stdout.strip() == "[]"


X = lp.Constraint((Fraction(1),), lp.GE, Fraction(0))  # x >= 0
XY = lp.Constraint((Fraction(1), Fraction(1)), lp.GE, Fraction(0))  # x + y >= 0


# each former `__post_init__` check, now made in `__new__` or `__init__`


@pytest.mark.parametrize("a, b", [(1, 2.0), ("1", 2), (None, 0)])
def test_divisor_class_rejects_a_non_integer_coordinate(a, b):
    with pytest.raises(TypeError):
        DivisorClass(a, b)


@pytest.mark.parametrize("exc", [(1, 1.5), ("1",), (Fraction(1),)])
def test_blowup_class_rejects_a_non_integer_exceptional_coefficient(exc):
    with pytest.raises(TypeError):
        BlowupClass(DivisorClass(3, 3), exc)


@pytest.mark.parametrize("rel", ["<=", "<", "=", ""])
def test_constraint_rejects_an_unknown_relation(rel):
    with pytest.raises(ValueError):
        lp.Constraint((Fraction(1),), rel, Fraction(0))


@pytest.mark.parametrize("variables, constraints, target", [
    ((), (), lp.Constraint((), lp.GE, Fraction(0))),  # no variable
    (("x", "x"), (), XY),  # a repeated name
    (("x", 1), (), XY),  # a name that is not a string
    (("x",), (), XY),  # the target's arity
    (("x",), (X, XY), X),  # a constraint's arity
])
def test_linear_system_rejects_a_malformed_system(variables, constraints, target):
    with pytest.raises(ValueError):
        lp.LinearSystem(variables, constraints, target)


@pytest.mark.parametrize("multiplicities, mu, gamma", [
    ((2, 3), 3, 6),  # mu is not the lcm
    ((2, 2), 2, 3),  # mu does not divide gamma
])
def test_surface_type_rejects_a_wrong_mu(multiplicities, mu, gamma):
    with pytest.raises(ValueError):
        SurfaceType(8, "G", multiplicities, mu, gamma)


def test_surface_type_values_are_computed_when_it_is_made():
    """Stored by `__init__`, not properties computed or cached on a read."""
    assert not any(isinstance(v, property) for v in vars(SurfaceType).values())
    s = SurfaceType(3, "Z4", (2, 4, 4), 4, 4)
    assert (s.b_fibre_coeff, s.has_unit_b_class, s.intermediate_fibre_coeffs) == (1, True, (2,))
    assert s.a_fibres == surface(3).a_fibres
    assert s.fresh_fibres == (((), "singular-A", 1), ((), "full-A", 4), ((), "B", 1))


@pytest.mark.parametrize("value, strict, passed", [
    (0, True, False), (0, False, True), (1, True, True), (1, False, True),
    (-1, True, False), (-1, False, False),
])
def test_check_record_verdict_is_stored_when_made(value, strict, passed):
    record = engine.CheckRecord("square", value, strict, "N")
    assert record.passed is passed
    assert record._fields[-1] == "passed" and record[-1] is passed  # a field, not a property
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is engine.CheckRecord


def test_divisor_class_arithmetic_is_not_tuple_arithmetic():
    d = DivisorClass(1, 2)
    assert 3 * d == DivisorClass(3, 6) and type(3 * d) is DivisorClass
    assert d + d == DivisorClass(2, 4) and d - d == DivisorClass(0, 0)
    with pytest.raises(TypeError):
        d * 3  # not the repeated pair (1, 2, 1, 2, 1, 2)


def test_a_certificate_is_weakly_referenceable():
    s = surface(1)
    cert = engine.verify(next(configurations.enumerate_configurations(2, s)), s)
    ref = weakref.ref(cert)
    assert ref() is cert


def test_certificate_init_can_be_replaced(monkeypatch):
    """What the benchmark's tracer does to count the certificates alive."""
    made = []
    init = engine.Certificate.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(engine.Certificate, "__init__", counted)
    cert = engine.certify_r1(2, surface(1))
    assert [ref() for ref in made] == [cert]


def _heavy_configuration() -> JetConfiguration:
    """A configuration of type 3 at k 3 with a heavy singular A-block."""
    return next(cfg for cfg in configurations.enumerate_configurations(3, surface(3))
                if cfg.validate().n_a is not None)


SYSTEM = lp.LinearSystem(("x",), (X,), X)

# every hashable value type of the package, and a value of it
VALUES = {
    "ABlock": lambda: ABlock((0,), SINGULAR_A, 1),
    "DivisorClass": lambda: DivisorClass(3, 4),
    "BlowupClass": lambda: BlowupClass(DivisorClass(3, 4), (2, 1)),
    "JetConfiguration": _heavy_configuration,
    "Core": lambda: _heavy_configuration().validate(),
    "Residual": lambda: _heavy_configuration().validate().n_a,
    "Classification": lambda: Classification("I"),
    "CheckRecord": lambda: engine.CheckRecord("fibre", 1, True, "N", (1, 0), (0,), SINGULAR_A),
    "Constraint": lambda: X,
    "LinearSystem": lambda: SYSTEM,
    "EntailmentResult": lambda: lp.entails(SYSTEM),
    "BoundedCellCheck": lambda: nonfibre.BoundedCellCheck(1, 1, 2, (1,), True),
    "RunConfig": lambda: cli.RunConfig("verify"),
}


@pytest.mark.parametrize("name", VALUES)
def test_the_interner_keeps_a_value_type_apart_from_its_plain_tuple(name):
    """`configurations._interned` is typed: a NamedTuple equals the plain tuple
    of its fields, and interning one must not hand back the other."""
    value = VALUES[name]()
    assert type(value).__name__ == name and value == tuple(value)
    plain = configurations._interned(tuple(value))
    typed = configurations._interned(value)
    assert typed is not plain
    assert type(typed) is type(value) and type(plain) is tuple
