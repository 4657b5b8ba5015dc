"""The public API: one name per operation, and no import left unused."""

import ast
import inspect
import os
import subprocess
import sys
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import sigrep
from sigrep import fnspace, laws, measure, signal


PACKAGE = Path(sigrep.__file__).parent


def test_every_exported_name_resolves_once():
    assert len(sigrep.__all__) == len(set(sigrep.__all__))
    for name in sigrep.__all__:
        assert hasattr(sigrep, name), name


def _top_level_definitions(source):
    """Names a module binds at its top level by def, class or assignment
    (imports aside)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {t.id for t in ast.walk(target) if isinstance(t, ast.Name)}
    return names


def test_star_import_binds_each_name_to_its_home_definition():
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            for name in _top_level_definitions(path.read_text()):
                homes.setdefault(name, []).append(path.stem)
    namespace = {}
    exec("from sigrep import *", namespace)
    for name in sigrep.__all__:
        assert len(homes.get(name, ())) == 1, (name, homes.get(name))
        home = import_module(f"sigrep.{homes[name][0]}")
        assert namespace[name] is getattr(home, name), name


def test_dir_lists_every_exported_name():
    assert set(sigrep.__all__) <= set(dir(sigrep))
    assert "__version__" in dir(sigrep)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sigrep.no_such_name  # noqa: B018


def test_importing_the_package_loads_no_module_until_a_name_is_used():
    script = """
import sys, types
import sigrep
assert sorted(m for m in sys.modules if m.startswith("sigrep")) == ["sigrep"]
from sigrep import measure
assert isinstance(measure, types.ModuleType)
assert measure is sys.modules["sigrep.measure"]
from sigrep import Segment
assert Segment is sys.modules["sigrep.signal"].Segment
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# a dataclass field is an attribute of its instances only
_HOM_LAW_REPORT = sigrep.check_hom_laws(sigrep.identity_hom(
    sigrep.MeasureAlgebra(sigrep.counting_space([0]))))


@pytest.mark.parametrize("module, name", [
    (sigrep, "transfer"),           # SegmentArrow.predict
    (signal, "transfer"),
    (sigrep, "amplitude_op"),       # scale
    (fnspace, "amplitude_op"),
    (fnspace, "add"),               # f + g
    (fnspace, "PullbackOperator"),  # pullback
    (sigrep, "classify_map"),       # MeasurableMap.flags
    (measure, "classify_map"),
    (sigrep, "null_ideal"),         # FiniteMeasureSpace.null_ideal()
    (measure, "null_ideal"),
    (sigrep, "FunctorGraph"),       # laws.suite_segment_category
    (signal, "FunctorGraph"),
    (sigrep, "FunctorLawReport"),
    (signal, "FunctorLawReport"),
    (sigrep, "verify_functor_laws"),
    (signal, "verify_functor_laws"),
    (sigrep.SegmentArrow, "is_identity"),       # == identity_arrow(...)
    (sigrep.PartialInjection, "__matmul__"),    # compose
    (sigrep.SigmaAlgebra, "is_member"),         # mask in sigma
    (sigrep.FiniteMeasureSpace, "weight"),      # weights[carrier.index(p)]
    (sigrep.FiniteMeasureSpace, "total_mass"),  # measure(carrier.full_mask)
    (sigrep.FiniteMeasureSpace, "is_null"),     # mask & ~null_mask == 0
    (sigrep.PartialInjection, "defined_at"),    # x in f.as_dict()
    (sigrep.PartialInjection, "apply"),         # f.as_dict()[x]
    (sigrep.PartialInjection, "domain_mask"),   # restriction(f).image_mask()
    (sigrep.PartialInjection, "is_partial_identity"),  # f == restriction(f)
    (sigrep.FnClass, "retag"),                  # FnClass(f.space, f.values, tag)
    (sigrep, "norm2"),                          # math.sqrt(norm2_sq(f))
    (fnspace, "norm2"),
    (sigrep, "mul"),                            # f * g
    (fnspace, "mul"),
    (sigrep.MeasurableMap, "is_measurable"),    # phi.flags.is_measurable
    (sigrep.MeasurableMap, "is_nonsingular"),   # phi.flags.is_nonsingular
    (sigrep.MeasurableMap, "is_imp"),           # phi.flags.is_imp
    (sigrep.BooleanHom, "is_soc"),              # is_hom
    pytest.param(_HOM_LAW_REPORT, "is_soc",     # is_hom
                 id="HomLawReport-is_soc"),
    (sigrep, "summand_slices"),                 # space.summands
    (measure, "summand_slices"),
])
def test_deleted_aliases_are_gone(module, name):
    assert not hasattr(module, name)
    assert name not in sigrep.__all__


@pytest.mark.parametrize("name", ["forward_coeffs", "forward",
                                  "used_source_positions"])
def test_segment_arrow_has_no_forward_views(name):
    # the lookup sigma and measure_factor carry the same information
    assert not hasattr(sigrep.SegmentArrow, name)


@pytest.mark.parametrize("name", [
    "atom_elements",  # 1 << j
    "sym_diff",       # a ^ b
    "meet",           # a & b
    "join",           # a | b
    "complement",     # alg.unit & ~a
    "leq",            # a & ~b == 0
    "sup",
    "inf",
])
def test_boolean_algebra_has_no_bit_op_wrappers(name):
    assert not hasattr(sigrep.BooleanAlgebra, name)


def test_weights_are_a_sequence_not_a_mapping():
    # list() of a dict would read its labels as the weights
    sigma = sigrep.power_set_algebra(sigrep.FiniteCarrier([0, 1]))
    with pytest.raises(TypeError, match="not a mapping"):
        sigrep.FiniteMeasureSpace(sigma, {0: Fraction(1), 1: Fraction(2)})


def _class_aliases(source):
    """``Class.alias`` for each name a class body binds to one of the
    functions it defines."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        defs = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        found += [f"{cls.name}.{t.id}" for node in cls.body
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Name) and node.value.id in defs
                  for t in node.targets if isinstance(t, ast.Name)]
    return found


def test_class_alias_scan_sees_only_bound_methods():
    source = ("class A:\n    def f(self):\n        pass\n    g = f\n"
              "    h = len\n    k = 1\n"
              "class B:\n    f = A.f\n")
    assert _class_aliases(source) == ["A.g"]


def test_no_class_binds_a_method_under_a_second_name():
    assert [alias for path in sorted(PACKAGE.glob("*.py"))
            for alias in _class_aliases(path.read_text())] == []


def _restated(source):
    """Public definitions whose body (a docstring aside) only restates
    another operation: a method or property that returns another public
    method or property of its own class (called with its own parameters in
    order), or an attribute of one, and a module function that applies one
    operator to its parameters in order."""
    found = []

    def body(fn):
        stmts = fn.body
        if (isinstance(stmts[0], ast.Expr) and isinstance(stmts[0].value, ast.Constant)
                and isinstance(stmts[0].value.value, str)):
            stmts = stmts[1:]
        if len(stmts) == 1 and isinstance(stmts[0], ast.Return):
            return stmts[0].value
        return None

    def public(name):
        return not name.startswith("_") or name.startswith("__")

    def params(fn):
        return [a.arg for a in fn.args.args]

    tree = ast.parse(source)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        defs = {n.name for n in cls.body
                if isinstance(n, ast.FunctionDef) and public(n.name)}
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or not public(fn.name):
                continue
            value = body(fn)
            if (isinstance(value, ast.Call) and not value.keywords
                    and [getattr(a, "id", None) for a in value.args] == params(fn)[1:]):
                value = value.func
            while isinstance(value, ast.Attribute):
                if (isinstance(value.value, ast.Name) and value.value.id == "self"
                        and value.attr in defs - {fn.name}):
                    found.append(f"{cls.name}.{fn.name}")
                    break
                value = value.value
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or not public(fn.name):
            continue
        value = body(fn)
        if isinstance(value, ast.BinOp):
            operands = [value.left, value.right]
        elif isinstance(value, ast.UnaryOp):
            operands = [value.operand]
        elif isinstance(value, ast.Compare) and len(value.ops) == 1:
            operands = [value.left, *value.comparators]
        else:
            continue
        if [getattr(o, "id", None) for o in operands] == params(fn):
            found.append(fn.name)
    return found


def test_restated_scan_sees_returned_members_and_lone_operators():
    source = ("class A:\n    __slots__ = ('sigma',)\n"
              "    @property\n    def hom(self):\n        return 1\n"
              "    @property\n    def soc(self):\n        'Doc.'\n"
              "        return self.hom\n"
              "    @property\n    def flags(self):\n        return 2\n"
              "    def imp(self):\n        return self.flags.is_imp\n"
              "    def pair(self, x):\n        return self.imp(x)\n"
              "    def add(self, x):\n        return self._combine(x)\n"
              "    def sub(self, x):\n        return self.pair(x, 1)\n"
              "    def _combine(self, x):\n        return x\n"
              "    @property\n    def carrier(self):\n"
              "        return self.sigma.carrier\n"
              "    def _private(self):\n        return self.hom\n"
              "    def busy(self):\n        x = 1\n        return self.hom\n"
              "def mul(f, g):\n    return f * g\n"
              "def neg(f):\n    return -f\n"
              "def rmul(f, g):\n    return g * f\n"
              "def scale(c, f):\n    return float(c) * f\n"
              "def _sub(f, g):\n    return f - g\n")
    assert _restated(source) == ["A.soc", "A.imp", "A.pair", "mul", "neg"]


def test_no_public_definition_restates_another_operation():
    # is_soc returning is_hom, is_imp returning flags.is_imp, mul returning
    # f * g: the caller writes the operation that stays
    assert [name for path in sorted(PACKAGE.glob("*.py"))
            for name in _restated(path.read_text())] == []


def _unused_imports(source):
    """Names a module imports (``__future__`` aside) and never mentions."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_scan_sees_through_attributes():
    source = "import os.path\nfrom typing import List, Tuple\nx: List = os.sep\n"
    assert _unused_imports(source) == ["Tuple"]


def test_no_module_imports_a_name_it_never_uses():
    # the package module included: it re-exports by __getattr__, not imports
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def _hand_scalar_checks(source):
    """Lines of ``source`` that test for a bool with ``isinstance`` or for
    an exact int with ``type(...) is not int``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                == "isinstance" and len(node.args) == 2):
            names = {getattr(n, "id", None) for n in ast.walk(node.args[1])}
            if "bool" in names:
                lines.append(node.lineno)
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and getattr(node.left.func, "id", None) == "type"
              and any(isinstance(op, ast.IsNot)
                      and getattr(right, "id", None) == "int"
                      for op, right in zip(node.ops, node.comparators))):
            lines.append(node.lineno)
    return lines


def test_hand_scalar_check_scan_sees_both_forms():
    source = ("a = isinstance(x, bool)\nb = isinstance(x, (int, bool))\n"
              "c = type(x) is not int\nd = type(x) is int\n"
              "e = isinstance(x, int)\nf = type(x) is not bool\n")
    assert _hand_scalar_checks(source) == [1, 2, 3]


# every site of the exact-scalar rule, by the function it sits in, and the
# helper from errors.py it calls
_SCALAR_SITES = {
    "codec.py": {"_grid": "_is_int"},
    "container.py": {"_check_samples": "_inexact", "_check_i64": "_is_int"},
    "errors.py": {"_as_weight": "_as_rational", "_as_rational": "_is_int"},
    "fnspace.py": {"_as_value": "_as_rational"},
    "formats.py": {"_check_pgm_samples": "_inexact"},
    "measure.py": {"__init__": "_inexact", "index": "_is_int"},
    "signal.py": {"__init__": "_is_int", "segment_signal": "_is_int",
                  "_check_strides": "_is_int", "_tol_sq": "_as_weight",
                  "prototype_decomposition": "_is_int"},
}


def test_only_errors_py_spells_out_the_exact_scalar_rule():
    # one rule for exact scalars: every other module calls errors.py's
    found = {path.name: _hand_scalar_checks(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    missing = [(module, where, rule)
               for module, sites in _SCALAR_SITES.items()
               for where, rule in sites.items()
               if (where, False) not in _mentions(
                   (PACKAGE / module).read_text(), rule)]
    assert missing == []


class _Two(IntEnum):
    TWO = 2


def _pgm(path, v):
    sigrep.write_pgm(path / "x.pgm", [[1, v]])


_SEGS = (sigrep.Segment(0, 2, [1, 2]), sigrep.Segment(2, 4, [1, 3]))

# (site, a call that puts v where the site checks it, what the site needs:
# "int", "i64" (an int, or an integral Fraction it normalises) or
# "rational", its exception, the start of its text, and the start of its
# text for a finite float where that differs)
_EXACT_SCALAR_SITES = [
    ("codec._grid origin", lambda p, v: sigrep.encode([1, 2, 3], origin=v),
     "int", ValueError, "origin must be an int, got", None),
    ("container._check_samples", lambda p, v: sigrep.encode([1, v]),
     "rational", TypeError, "samples must be ints or Fractions, got", None),
    ("container._check_i64", lambda p, v: sigrep.write_container(
        sigrep.EncodedSignal((1,), v, "predecessor", (5,), ())),
     "i64", ValueError, "origin must be an int, got", None),
    ("formats._check_pgm_samples", _pgm,
     "int", ValueError, "PGM samples must be nonnegative ints$", None),
    ("fnspace._as_value", lambda p, v: sigrep.FnClass(
        sigrep.counting_space([0, 1]), [v, 1]),
     "rational", TypeError, "function values must be exact rationals", None),
    ("measure._as_weight", lambda p, v: sigrep.FiniteMeasureSpace(
        sigrep.power_set_algebra(sigrep.FiniteCarrier([0, 1])), [v, 1]),
     "rational", TypeError, "weights must be exact rationals",
     "finite float weights are not accepted"),
    ("measure.FiniteCarrier", lambda p, v: sigrep.FiniteCarrier([0, v, 5]),
     "int", TypeError, "carrier points must be ints$", None),
    ("measure.FiniteCarrier.index",
     lambda p, v: sigrep.FiniteCarrier([0, 2, 5]).index(v),
     "int", KeyError, "[\"']label .* is not a carrier point", None),
    ("signal.Segment start", lambda p, v: sigrep.Segment(v, 4, [1, 2]),
     "int", TypeError, "interval endpoints must be ints$", None),
    ("signal.Segment end", lambda p, v: sigrep.Segment(0, v, [1, 2]),
     "int", TypeError, "interval endpoints must be ints$", None),
    ("signal.segment_signal breakpoint",
     lambda p, v: sigrep.segment_signal([1, 2, 3], 0, [v]),
     "int", sigrep.BadBreakpoints, "breakpoint .* is not an int$", None),
    ("signal.SegmentArrow stride", lambda p, v: sigrep.SegmentArrow(
        sigrep.Segment(0, 4, [1, 2, 3, 4]), sigrep.Segment(4, 6, [1, 3]),
        v, -8, 1, [0, 0]),
     "int", ValueError, "stride must be a nonzero int$", None),
    ("signal.SegmentArrow shift", lambda p, v: sigrep.SegmentArrow(
        sigrep.Segment(2, 4, [1, 2]), sigrep.Segment(0, 2, [1, 2]),
        1, v, 1, [0, 0]),
     "int", ValueError, "shift must be an int$", None),
    ("signal._check_strides", lambda p, v: sigrep.redundancy_report(
        _SEGS, strides=(1, v)),
     "int", ValueError, "strides must be nonzero ints$", None),
    ("signal.SegmentArrow amplitude", lambda p, v: sigrep.SegmentArrow(
        sigrep.Segment(0, 2, [1, 2]), sigrep.Segment(2, 4, [2, 4]),
        1, -2, v, [0, 0]),
     "rational", TypeError, "amplitude factors must be exact rationals", None),
    ("signal.redundancy_report tol",
     lambda p, v: sigrep.redundancy_report(_SEGS, tol=v),
     "rational", TypeError, "tolerances must be exact rationals",
     "finite float tolerances are not accepted"),
    ("signal.detect_translation tol",
     lambda p, v: sigrep.detect_translation(*_SEGS, tol=v),
     "rational", TypeError, "tolerances must be exact rationals",
     "finite float tolerances are not accepted"),
    ("signal.detect_affine tol",
     lambda p, v: sigrep.detect_affine(*_SEGS, tol=v),
     "rational", TypeError, "tolerances must be exact rationals",
     "finite float tolerances are not accepted"),
    ("signal.detect_amp_affine tol",
     lambda p, v: sigrep.detect_amp_affine(*_SEGS, tol=v),
     "rational", TypeError, "tolerances must be exact rationals",
     "finite float tolerances are not accepted"),
    ("signal.segment_signal origin",
     lambda p, v: sigrep.segment_signal([1, 2, 3], v, []),
     "int", TypeError, "origin must be an int, got", None),
    ("signal.prototype_decomposition origin",
     lambda p, v: sigrep.prototype_decomposition([1, 2], v),
     "int", TypeError, "origin must be an int, got", None),
]


@pytest.mark.parametrize("call, needs, exc, text, float_text",
                         [site[1:] for site in _EXACT_SCALAR_SITES],
                         ids=[site[0] for site in _EXACT_SCALAR_SITES])
def test_each_site_applies_the_one_exact_scalar_rule(tmp_path, call, needs,
                                                     exc, text, float_text):
    accepted = [2, _Two.TWO] + [Fraction(2)] * (needs != "int")
    refused = [True, False, None, "2", Decimal(2), complex(2)]
    for v in accepted:
        call(tmp_path, v)
    for v in refused + [Fraction(2)] * (needs == "int"):
        with pytest.raises(exc, match=f"^{text}"):
            call(tmp_path, v)
    with pytest.raises(exc, match=f"^{float_text or text}"):
        call(tmp_path, 2.0)


def _mentions(source, name):
    """Where ``source`` names ``name`` (as a variable, an attribute or an
    import): a set of (enclosing function or None, whether it assigns)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            named = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
            field = named.get(type(child))
            if field and getattr(child, field) == name:
                found.add((where, isinstance(getattr(child, "ctx", None), ast.Store)))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(ast.parse(source), None)
    return found


def test_mention_scan_sees_functions_attributes_and_imports():
    source = ("from m import CAP\nCAP = 1\n"
              "def f():\n    return m.CAP\n"
              "def g():\n    def h():\n        return CAP\n")
    assert _mentions(source, "CAP") == {(None, False), (None, True),
                                        ("f", False), ("h", False)}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _uncalled(sources):
    """Module-level private functions that no source names outside their
    own body.  Dunder functions are skipped: the interpreter calls them (a
    module's ``__getattr__`` and ``__dir__``)."""
    defined = [node.name for source in sources for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not _is_dunder(node.name)]
    return [name for name in defined
            if all(where == name for text in sources if name in text
                   for where, _ in _mentions(text, name))]


def test_caller_scan_skips_a_function_calling_itself():
    sources = ["def _a():\n    return _b()\n"
               "def _b(n):\n    return _b(n - 1)\n",
               "def _c():\n    pass\ndef d():\n    return m._e\n"
               "def _e():\n    pass\n",
               "def __getattr__(name):\n    raise AttributeError(name)\n"
               "def __dir__():\n    return []\n"
               "def _x():\n    pass\n"]
    assert _uncalled(sources) == ["_a", "_c", "_x"]


def test_every_private_function_has_a_caller():
    # a helper whose callers were deleted goes with them
    assert _uncalled([path.read_text()
                      for path in sorted(PACKAGE.glob("*.py"))]) == []


def _suite_definitions(source):
    """Names of the functions a module defines at its top level as
    ``suite_*``, in source order (a decorated def included)."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")]


def test_verify_runs_every_law_suite_once_in_source_order():
    # a suite left out of ALL_SUITES is a law sigrep verify never checks
    defined = _suite_definitions((PACKAGE / "laws.py").read_text())
    bound = [name for name, obj in vars(laws).items()
             if name.startswith("suite_") and inspect.isfunction(obj)]
    assert [fn.__name__ for fn in laws.ALL_SUITES] == defined == bound
    for fn in laws.ALL_SUITES:
        assert getattr(laws, fn.__name__) is fn, fn.__name__


def _module_imports(source):
    """What a module imports at its top level: ``sigrep.<name>`` for a
    relative import of a sigrep module, the top-level package otherwise.
    Imports inside a function are not counted."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                found.add(node.module.partition(".")[0])
            elif node.module:
                found.add(f"sigrep.{node.module.partition('.')[0]}")
            else:  # from . import codec
                found |= {f"sigrep.{a.name}" for a in node.names}
    return found


def test_import_scan_sees_top_level_imports_only():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from dataclasses import dataclass\nfrom . import codec\n"
              "from .signal import Segment\n"
              "def f():\n    from .laws import run_all\n")
    assert _module_imports(source) == {"__future__", "os", "dataclasses",
                                       "sigrep.codec", "sigrep.signal"}


CODEC_STACK = ("cli", "codec", "container", "formats", "errors")
_ABOVE_THE_CODEC = {"sigrep.signal", "sigrep.measure", "sigrep.quotient",
                    "sigrep.fnspace", "sigrep.partial", "sigrep.laws",
                    "dataclasses"}


def test_the_codec_stack_imports_no_layer_above_it():
    # encode, decode and stats load only these modules; a top-level import
    # of the detectors, the measure layer or the laws would load them too
    imports = {name: _module_imports((PACKAGE / f"{name}.py").read_text())
               for name in CODEC_STACK}
    assert {name: sorted(found & _ABOVE_THE_CODEC)
            for name, found in imports.items() if found & _ABOVE_THE_CODEC} == {}
    assert {m for m in imports["container"] if m.startswith("sigrep.")} == {
        "sigrep.errors"}


def test_the_null_mask_is_written_once_and_read_through_its_property():
    # one null rule: FiniteMeasureSpace.__init__ computes it, and every
    # other reader goes through the read-only null_mask property
    mentions = {path.name: _mentions(path.read_text(), "_null_mask")
                for path in sorted(PACKAGE.glob("*.py"))}
    expected = {("__init__", True), ("null_mask", False)}
    assert {name: m for name, m in mentions.items() if m} == {"measure.py": expected}
    assert _mentions(inspect.getsource(measure.FiniteMeasureSpace),
                     "_null_mask") == expected
    assert isinstance(measure.FiniteMeasureSpace.__dict__["null_mask"], property)


def test_only_the_table_builder_reads_max_carrier():
    # one guard: every 2**k table goes through measure._unions
    mentions = {path.name: _mentions(path.read_text(), "MAX_CARRIER")
                for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: m for name, m in mentions.items() if m} == {
        "measure.py": {(None, True), ("_unions", False)}}
