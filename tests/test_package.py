"""The package namespace: every module's public names, re-exported on
first use; the layer each CLI command loads; the value classes' semantics;
the Python floor; no dependency outside the standard library."""

import ast
import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import surfcomplex
from surfcomplex import exactlin, seifert, toruscomplex


@pytest.mark.parametrize("module", [exactlin, seifert, toruscomplex], ids=lambda m: m.__name__)
def test_package_reexports_each_modules_all(module):
    assert module.__all__
    for name in module.__all__:
        assert getattr(surfcomplex, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    """The names an eager `from .module import *` of each module gave:
    every module's `__all__`, and the three modules themselves."""
    modules = (exactlin, seifert, toruscomplex)
    namespace = {}
    exec("from surfcomplex import *", namespace)
    del namespace["__builtins__"]
    expected = {m.__name__.rpartition(".")[2] for m in modules}
    expected.update(name for m in modules for name in m.__all__)
    assert set(namespace) == expected
    for m in modules:
        for name in m.__all__:
            assert namespace[name] is getattr(m, name), name


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(surfcomplex.__all__) <= set(dir(surfcomplex))
    assert "__version__" in dir(surfcomplex)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        surfcomplex.no_such_name


LAYER_PROBE = """
import contextlib, io, sys
import surfcomplex
assert [k for k in sys.modules if k.startswith("surfcomplex.")] == [], sorted(sys.modules)
from surfcomplex import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(sys.modules)))
"""


# Neither layer needs these: the value classes are not dataclasses, and
# annotations come from collections.abc.
UNUSED = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("argv, layer, absent", [
    (["torus", "path", "2,3,5", "0,0,1"], "toruscomplex", {"surfcomplex.seifert", "fractions"}),
    (["seifert", "info", "--genus", "0", "--b", "-1", "--fiber", "2:1", "--fiber", "2:1"],
     "seifert", {"surfcomplex.toruscomplex"}),
], ids=["torus", "seifert"])
def test_a_command_loads_only_its_own_layer(argv, layer, absent):
    """In a fresh interpreter without `site` (whose .pth files may import
    anything), `import surfcomplex` loads no module, and a command loads the
    layer it runs, not the other one, and none of UNUSED."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", LAYER_PROBE, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"surfcomplex.cli", "surfcomplex.exactlin", f"surfcomplex.{layer}"} <= loaded
    assert not (absent | UNUSED) & loaded, (absent | UNUSED) & loaded


I2 = exactlin.IntMatrix(((1, 0), (0, 1)))
I2_REPR = "IntMatrix(entries=((1, 0), (0, 1)))"
X, Y, Z = (toruscomplex.ProjVector(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
I3_REPR = "IntMatrix(entries=((1, 0, 0), (0, 1, 0), (0, 0, 1)))"

# (class, field names, values, repr).
VALUE_CLASSES = [
    (exactlin.IntMatrix, ("entries",), (((1, 2), (3, 4)),), "IntMatrix(entries=((1, 2), (3, 4)))"),
    (exactlin.SNFResult, ("U", "D", "V"), (I2, I2, I2), f"SNFResult(U={I2_REPR}, D={I2_REPR}, V={I2_REPR})"),
    (toruscomplex.ProjVector, ("coords",), ((1, 2, 3),), "ProjVector(coords=(1, 2, 3))"),
    (toruscomplex.PathCertificate, ("waypoints", "witnesses", "transform"),
     ((X, Y), (toruscomplex.edge_witness(X, Y),), exactlin.IntMatrix.identity(3)),
     "PathCertificate(waypoints=(ProjVector(coords=(1, 0, 0)), ProjVector(coords=(0, 1, 0))), "
     f"witnesses=({I3_REPR},), transform={I3_REPR})"),
    (toruscomplex.ComplexGraph, ("kind", "height", "vertices", "edges"),
     ("finegold-skeleton", 1, (toruscomplex.ProjVector((0, 1)), toruscomplex.ProjVector((1, 0))), ((0, 1),)),
     "ComplexGraph(kind='finegold-skeleton', height=1, "
     "vertices=(ProjVector(coords=(0, 1)), ProjVector(coords=(1, 0))), edges=((0, 1),))"),
    (seifert.SeifertInvariants, ("genus", "b", "fibers"), (0, 1, ()),
     "SeifertInvariants(genus=0, b=1, fibers=())"),
    (seifert.PresentationData, ("generators", "relators"), (("h",), ((-1,),)),
     "PresentationData(generators=('h',), relators=((-1,),))"),
    (seifert.HomologySummary, ("free_rank", "torsion", "eta_is_fiber_class"), (1, (2, 4), False),
     "HomologySummary(free_rank=1, torsion=(2, 4), eta_is_fiber_class=False)"),
    (seifert.StructureReport, ("verdict", "base_surface", "d", "diameter_bound", "theorem"),
     (seifert.Verdict.CONE_BOUNDED, (0, 2), 2, None, "spherical-base-cone-bound"),
     "StructureReport(verdict=<Verdict.CONE_BOUNDED: 'ConeBounded'>, base_surface=(0, 2), d=2, "
     "diameter_bound=None, theorem='spherical-base-cone-bound')"),
]


@pytest.mark.parametrize("cls, names, values, text", VALUE_CLASSES, ids=[c[0].__name__ for c in VALUE_CLASSES])
def test_value_classes_are_frozen_values(cls, names, values, text):
    """Each public value class compares and hashes by value, prints its
    fields, takes them by position or keyword, rejects a missing or extra
    one, and refuses assignment and deletion."""
    a, b = cls(*values), cls(**dict(zip(names, copy.deepcopy(values))))
    assert a == b and hash(a) == hash(b) and a is not b
    assert tuple(getattr(a, name) for name in names) == values
    assert a != values and repr(a) == repr(b) == text
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=None)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)


def test_value_class_defaults_and_order():
    """SeifertInvariants' fibers default to (), and ProjVector orders by its
    coordinates, within the class only."""
    SeifertInvariants = seifert.SeifertInvariants
    assert SeifertInvariants(0, 1) == SeifertInvariants(genus=0, b=1) == SeifertInvariants(0, 1, ())
    assert SeifertInvariants(0, 1).fibers == ()
    assert X > Y > Z and X >= Y >= Z and Z < Y < X and Z <= Y <= X
    assert X <= X and X >= X and not X < X and not X > X
    assert sorted([Y, X, Z]) == [Z, Y, X] and min(X, Z) is Z
    with pytest.raises(TypeError):
        X < (1, 0, 0)


def test_ci_matrix_meets_the_python_floor():
    """Each CI job runs the newest release of its minor version, so every
    version in the matrix must reach the floor's minor version, and the
    interpreter running the suite the floor itself."""
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)[1].split(".")))
    assert floor == (3, 10, 7)
    assert sys.version_info[:3] >= floor
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tests.yml").read_text())
    versions = workflow["jobs"]["test"]["strategy"]["matrix"]["python-version"]
    assert versions and all(tuple(map(int, v.split("."))) >= floor[:2] for v in versions)


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library module
    or the package itself, and pyproject.toml declares no dependencies."""
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "src" / "surfcomplex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "surfcomplex", (path.name, name)
    pyproject = (root / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=\s*(.*)$", pyproject, re.M) == ["[]"]
