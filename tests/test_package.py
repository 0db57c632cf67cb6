"""The package namespace: every module's public names, re-exported; the
Python floor; no dependency outside the standard library."""

import ast
import re
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
