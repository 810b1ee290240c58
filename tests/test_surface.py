"""The public surface: every name in it has a caller outside the test suite,
and every parameter with a default has a caller that sets it."""

import ast
import functools
import importlib.util
import inspect
import pathlib

import sldlab
from sldlab import errors

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names with no caller yet, each with its reason
UNCALLED = {}

# public members of public classes with no caller yet, each with its reason
UNCALLED_MEMBERS = {}

# "name.parameter" of public parameters with a default that no caller sets,
# each with its reason
UNSET_PARAMETERS = {}


@functools.lru_cache(maxsize=None)
def _uses(path):
    """(name, line) of every name a file's code uses: names, attributes and
    imported names."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], getattr(node, "lineno", None)))
    return tuple(out)


def _named(path, skip=None):
    """Every name a file's code uses, leaving out the nodes on the lines of
    skip (a first, last line pair)."""
    return {name for name, line in _uses(path)
            if not (skip and line is not None and skip[0] <= line <= skip[1])}


def _files():
    files = [path for path in (ROOT / "src" / "sldlab").glob("*.py") if path.name != "__init__.py"]
    return files + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _own_lines(source, path):
    """The (first, last) lines that define source, where path is its file."""
    if path.resolve() != pathlib.Path(inspect.getsourcefile(source)).resolve():
        return None
    lines, first = inspect.getsourcelines(source)
    return first, first + len(lines) - 1


def _has_caller(name, source):
    """Whether some file names name outside the lines that define source."""
    return any(name in _named(path, _own_lines(source, path)) for path in _files())


def _uncalled():
    out = set()
    for name in sldlab.__all__:
        obj = getattr(sldlab, name)
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and not _has_caller(name, obj):
            out.add(name)
    return out


@functools.lru_cache(maxsize=None)
def _calls(path):
    """(callee name, line, positional count, keyword names) of every call
    in a file's code, by the name or attribute called. A * or ** expansion
    may set any parameter, so its call has None for both."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                keyword.arg is None for keyword in node.keywords):
            out.append((name, node.lineno, None, None))
        else:
            out.append((name, node.lineno, len(node.args),
                        frozenset(keyword.arg for keyword in node.keywords)))
    return tuple(out)


def _set_by_calls(name, params, path, skip=None):
    """The names among params (in signature order) that some call to name
    in a file sets, by position or keyword, leaving out the lines of skip."""
    out = set()
    for callee, line, count, keywords in _calls(path):
        if callee == name and not (skip and skip[0] <= line <= skip[1]):
            out.update(params if count is None else params[:count] + list(keywords))
    return out & set(params)


def _unset_parameters():
    out = set()
    for name in sldlab.__all__:
        obj = getattr(sldlab, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        # a class's parameters are those of its __init__, less self
        params = inspect.signature(obj).parameters.values()
        defaults = {p.name for p in params if p.default is not inspect.Parameter.empty}
        names = [p.name for p in params]
        for path in _files():
            defaults -= _set_by_calls(name, names, path, _own_lines(obj, path))
        out.update("%s.%s" % (name, param) for param in defaults)
    return out


def _member_function(attr):
    """The function behind a method, property, cached property or
    classmethod, or None for any other class attribute."""
    if isinstance(attr, property):
        return attr.fget
    if isinstance(attr, functools.cached_property):
        return attr.func
    if isinstance(attr, (classmethod, staticmethod)):
        return attr.__func__
    return attr if inspect.isfunction(attr) else None


def _uncalled_members():
    out = set()
    classes = [getattr(sldlab, name) for name in sldlab.__all__]
    for cls in filter(inspect.isclass, classes):
        for name, attr in vars(cls).items():
            function = _member_function(attr)
            if function is None or name.startswith("_"):
                continue
            if not _has_caller(name, function):
                out.add("%s.%s" % (cls.__name__, name))
    return out


def test_every_public_name_has_a_caller():
    assert _uncalled() == set(UNCALLED)


def test_every_public_member_has_a_caller():
    # by name alone: a member counts as called when any file uses its name
    assert _uncalled_members() == set(UNCALLED_MEMBERS)


def test_every_public_parameter_has_a_setter():
    # each default of a public function or class is a setting some caller
    # in src, scripts or perfbench varies; one that none sets is a constant
    assert _unset_parameters() == set(UNSET_PARAMETERS)


def test_positions_keywords_and_expansions_set_parameters(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("solve(1, 2)\n"
                    "pkg.solve(x, tol=3)\n"
                    "other(1, 2, 3, seed=4)\n"
                    "expand(*args)\n"
                    "expand_kw(1, **kw)\n"
                    "solve(1, 2, 3, 4)\n")
    params = ["f", "tol", "band", "seed"]
    assert _set_by_calls("solve", params, path, skip=(6, 6)) == {"f", "tol"}
    assert _set_by_calls("solve", params, path) == set(params)
    assert _set_by_calls("other", params, path, skip=(3, 3)) == set()
    assert _set_by_calls("expand", params, path) == set(params)
    assert _set_by_calls("expand_kw", params, path) == set(params)


def test_a_name_used_only_in_its_own_definition_is_uncalled(tmp_path):
    # the definition's own lines do not count as a use, nor does defining
    # a name; a use elsewhere, as a name, an attribute or an import, does
    path = tmp_path / "module.py"
    path.write_text("def lonely():\n"
                    "    return lonely\n"
                    "\n"
                    "from pkg.mod import imported\n"
                    "def user():\n"
                    "    return helper(), pkg.attribute\n")
    assert "lonely" in _named(path)
    named = _named(path, skip=(1, 2))
    assert "lonely" not in named
    assert {"imported", "helper", "attribute"} <= named
    assert "user" not in named


def test_members_are_methods_properties_and_classmethods():
    class Sample:
        value = 1

        def method(self):
            pass

        @property
        def prop(self):
            pass

        @functools.cached_property
        def cached(self):
            pass

        @classmethod
        def build(cls):
            pass

        @staticmethod
        def helper():
            pass

    members = {name for name, attr in vars(Sample).items()
               if _member_function(attr) is not None and not name.startswith("_")}
    assert members == {"method", "prop", "cached", "build", "helper"}
    assert _member_function(vars(Sample)["cached"]) is Sample.cached.func


# names deleted with the code only the tests called, or replaced (the
# orbit types by OrbitTable), or retired with the transform command and
# the Blaschke product helpers, which served none of the paper's claims;
# none may come back as a public name, alias or error class
DELETED = (
    "flip", "FlipSpec", "canonicalize", "quantize_phase", "theta_m", "auxiliary_rotate",
    "PhaseGrid", "eval_time", "eval_intensity", "sample_grid", "unlift", "ae_equal",
    "degree_match", "reconstruct", "mi_dmc", "DiscreteNoise", "ReciprocalOrbit", "JointOrbit",
    "measurement_transform", "autocorr_from_samples", "BlaschkeProduct", "factor_eval",
    "product_eval", "from_inside_zeros",
)
DELETED_ERRORS = ("InvalidSpec", "NotEquivalent", "OutOfRange", "ZeroDC", "InvalidNoiseSpec",
                  "NonInvertibleOnRange", "DegenerateSampling", "PoleEvaluation")
DELETED_MEMBERS = (
    ("CoeffPoly", "effective_degree"), ("CoeffPoly", "degree"), ("CoeffPoly", "__call__"),
    ("ClassSet", "representatives"),
)

# parameters that became private module constants, or that went when
# their function came to build or read an OrbitTable (assert_symmetric is
# now OrbitTable.halved, circle_pairs the tables' circle field); none may
# come back as a parameter of its function
DELETED_PARAMETERS = (
    ("find_roots", "max_iter"), ("find_roots_batch", "max_iter"),
    ("pair_reciprocal", "match_tol"), ("joint_orbits", "match_tol"),
    ("struct_magnitude_equiv", "match_tol"), ("numeric_magnitude_equiv", "tol"),
    ("enumerate_classes", "cap"), ("factor_sld", "cap"), ("factor_sld", "tol"),
    ("bundled_constellation", "period"), ("single_class_constellation", "period"),
    ("pair_reciprocal", "assert_symmetric"), ("kappa_ratio", "circle_pairs"),
)


def test_deleted_names_stay_out_of_the_surface():
    for name in DELETED:
        assert name not in sldlab.__all__ and not hasattr(sldlab, name), name
    for name in DELETED_ERRORS:
        assert not hasattr(errors, name) and not hasattr(sldlab, name), name
    for cls, name in DELETED_MEMBERS:
        assert name not in vars(getattr(sldlab, cls)), (cls, name)


def test_deleted_parameters_stay_out_of_the_signatures():
    for name, parameter in DELETED_PARAMETERS:
        assert parameter not in inspect.signature(getattr(sldlab, name)).parameters, (name, parameter)

def test_every_error_class_has_a_user():
    # each exception below the two bases is named in some module that raises
    # or passes it on, so no error class outlives its last raiser
    own = pathlib.Path(errors.__file__).resolve()
    files = [path for path in (ROOT / "src" / "sldlab").glob("*.py") if path.resolve() != own]
    used = set().union(*(_named(path) for path in files))
    classes = [name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.SldLabError)
               and name not in ("SldLabError", "DomainError")]
    assert len(classes) >= 10
    assert sorted(set(classes) - used) == []


# perfbench span targets that no longer exist, each with its reason; the
# tracer records them as absent
ABSENT_SPANS = {
    "capacity.mi_noiseless": "deleted with the rounding dedupe when classes went to spec order",
    "capacity.sld_keys": "deleted with the rounding dedupe when classes went to spec order",
}


def test_every_perfbench_span_resolves():
    # perfbench wraps each span target by its dotted name under sldlab
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = set()
    for name in tracer.SPANS:
        module_name, attr = name.rsplit(".", 1)
        module = importlib.import_module("sldlab." + module_name)
        if not callable(getattr(module, attr, None)):
            absent.add(name)
    assert absent == set(ABSENT_SPANS)
