"""Sanity checks of the public API surface and documentation hygiene."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.dataset",
    "repro.anonymize",
    "repro.fuzzy",
    "repro.fusion",
    "repro.linkage",
    "repro.metrics",
    "repro.core",
    "repro.data",
    "repro.experiments",
    "repro.service",
]


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") >= 1

    def test_quickstart_symbols_present(self):
        for name in (
            "Table", "Schema", "MDAVAnonymizer", "WebFusionAttack", "AttackConfig",
            "FREDAnonymizer", "generate_faculty", "corpus_for_faculty",
        ):
            assert name in repro.__all__


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable_with_docstring_and_all(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a module docstring"
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_objects_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} has no docstring"


class TestErrorHierarchy:
    def test_every_library_exception_is_a_repro_error(self):
        from repro import exceptions

        for name in exceptions.__all__:
            error_class = getattr(exceptions, name)
            assert issubclass(error_class, exceptions.ReproError)

    def test_catching_repro_error_catches_subsystem_errors(self, simple_table):
        from repro.anonymize.mdav import MDAVAnonymizer
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            MDAVAnonymizer().anonymize(simple_table, 100)


def _referenced_names() -> set[str]:
    """Every identifier that program code outside ``tests/`` refers to.

    Collects imported names, bare names and attribute names from the AST of
    each non-``__init__`` module under ``src/``, ``examples/``,
    ``benchmarks/`` and ``perfbench/``, plus every word of the CI workflow.
    Definitions (``def``/``class``) and ``__all__`` strings are not
    references, so an exported name that only tests use is not in the set.
    """
    root = Path(__file__).resolve().parent.parent
    names: set[str] = set()
    for directory in ("src", "examples", "benchmarks", "perfbench"):
        for path in (root / directory).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    workflow = root / ".github" / "workflows" / "ci.yml"
    names.update(re.findall(r"\w+", workflow.read_text(encoding="utf-8")))
    return names


class TestReachability:
    def test_every_export_has_a_caller_outside_tests(self):
        """An exported name that only tests reach belongs in ``tests/``."""
        referenced = _referenced_names()
        unreached = [
            f"{module_name}.{name}"
            for module_name in SUBPACKAGES
            for name in importlib.import_module(module_name).__all__
            if name not in referenced
        ]
        assert unreached == []
