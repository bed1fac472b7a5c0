"""Public-API integrity: every ``__all__`` name resolves, no stale exports."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

PACKAGES = [
    "repro",
    "repro.utils",
    "repro.nn",
    "repro.bert",
    "repro.text",
    "repro.data",
    "repro.weak",
    "repro.ir",
    "repro.core",
    "repro.conversation",
    "repro.obs",
    "repro.serve",
    "repro.analysis",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports(package_name):
    importlib.import_module(package_name)


@pytest.mark.parametrize("package_name", [p for p in PACKAGES if p != "repro"])
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), package_name
    # Before resolving: a lazy package lists names it has not loaded yet.
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        assert hasattr(module, name), f"{package_name}.{name} exported but missing"
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export  # noqa: B018 - the access is the test


@pytest.mark.parametrize("package_name", [p for p in PACKAGES if p != "repro"])
def test_all_is_sorted_and_unique(package_name):
    module = importlib.import_module(package_name)
    names = list(module.__all__)
    assert len(names) == len(set(names)), f"duplicate exports in {package_name}"


def _package_imports(directory):
    """Every ``from repro.<pkg> import <name>`` under ``directory``."""
    for path in sorted((ROOT / directory).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module in PACKAGES
                and node.module != "repro"
            ):
                for alias in node.names:
                    yield path.relative_to(ROOT), node.module, alias.name


@pytest.mark.parametrize("directory", ["benchmarks", "examples"])
def test_package_imports_in_benchmarks_and_examples_resolve(directory):
    imports = list(_package_imports(directory))
    assert imports, f"no package imports found under {directory}/"
    for path, package_name, name in imports:
        module = importlib.import_module(package_name)
        assert hasattr(module, name), f"{path}: from {package_name} import {name}"


def test_version_string():
    import repro

    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_cli_module_importable():
    from repro.cli import build_parser

    assert build_parser() is not None
