"""Documentation hygiene: every public module, class, and function is
documented.  A reproduction package lives or dies by whether a downstream
reader can navigate it."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their source
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(obj):
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_"):
                    continue
                if not inspect.isfunction(meth):
                    continue
                if meth.__doc__ and meth.__doc__.strip():
                    continue
                # Overrides inherit the base method's documentation.
                inherited = any(
                    getattr(getattr(base, meth_name, None), "__doc__", None)
                    for base in obj.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{meth_name}")
    assert not undocumented, f"{module.__name__}: {undocumented}"


# -- names the prose documents --------------------------------------------------

#: The prose documents; docs/BENCHMARKING.md is a log of past runs, whose
#: names are those of the code as it was then.
ROOT = Path(__file__).parents[1]
PROSE = ["README.md", "DESIGN.md", *sorted(
    f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md") if p.name != "BENCHMARKING.md"
)]


def _resolves(dotted: str) -> bool:
    """``dotted`` imports as a module, or is an attribute path of one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", PROSE)
def test_documented_names_resolve(doc):
    """Every backticked dotted ``repro.…`` name in the prose is a module or
    an attribute one, so a rename that leaves the docs behind fails here."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", text)))
    assert [name for name in names if not _resolves(name)] == []
