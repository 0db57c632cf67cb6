"""Torus complexes, the surface-complex graph of the 3-torus, and Seifert
fibered space invariants, all over exact integer arithmetic.

The package re-exports each module's `__all__`, the one list of its
public names, on first use (PEP 562): a name resolves to the module's own
attribute, and `import surfcomplex` alone imports no module."""

import importlib

__version__ = "0.1.0"

_MODULES = ("exactlin", "toruscomplex", "seifert")


def __getattr__(name: str):
    # `from . import seifert` and `from surfcomplex import cli` ask here
    # before they import: import that module only.
    if name in (*_MODULES, "cli"):
        return importlib.import_module(f"{__name__}.{name}")
    modules = [__getattr__(m) for m in _MODULES]
    if name == "__all__":
        return [*_MODULES, *(n for m in modules for n in m.__all__)]
    for m in modules:
        if name in m.__all__:
            return getattr(m, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
