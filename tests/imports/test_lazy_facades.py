"""Contract of the lazy package façades (:func:`repro.lazy_exports`).

Each façade must behave exactly like the eager re-export block it
replaced: every name in ``__all__`` resolves to the defining
submodule's own object and shows in ``dir()``, ``import *`` binds them
all, and an unknown name raises ``AttributeError`` — the signal that
lets ``from package import submodule`` fall through to the import
system.
"""

import ast
import importlib
import inspect

import pytest

import repro

PACKAGES = ["repro.runtime", "repro.servers", "repro.obs", "repro.co2p3s",
            "repro.cache", "repro.http", "repro.lint", "repro.ftp"]


def facade_table(package):
    """The name → submodule table, read from the ``__init__`` source."""
    pkg = importlib.import_module(package)
    tree = ast.parse(inspect.getsource(pkg))
    call = next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", "") == "lazy_exports")
    return ast.literal_eval(call.args[2])


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_the_submodule_object(package):
    pkg = importlib.import_module(package)
    table = facade_table(package)
    assert sorted(pkg.__all__) == sorted(n for ns in table.values()
                                         for n in ns)
    listed = dir(pkg)
    for module, names in table.items():
        owner = importlib.import_module(f"{package}.{module}")
        for name in names:
            assert getattr(pkg, name) is getattr(owner, name), (package, name)
            assert name in listed, (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name), (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name


def test_from_import_of_a_submodule_falls_through():
    """Generated frameworks and the benchmark tracer import runtime
    submodules by name through the package."""
    from repro.runtime import handles

    assert handles is importlib.import_module("repro.runtime.handles")


def test_resolved_names_are_cached_in_the_package():
    pkg = importlib.import_module("repro.http")
    value = pkg.Headers
    assert vars(pkg)["Headers"] is value


def test_helper_is_exported_and_documented():
    assert "lazy_exports" in repro.__all__
    assert inspect.getdoc(repro.lazy_exports)
