"""qbrittle: stability analysis of parametrized quantum circuits under gate pruning.

The package generates structurally-uniform layered circuits, compresses them
by leave-one-out causal importance, classifies robust vs. fragile outcomes,
and computes the angle-statistics signatures that predict fragility.

The public API is the union of the submodules' `__all__` lists, each
re-exported here; `codec` and `cli` stay internal. The names resolve on first
use (PEP 562), so `import qbrittle` loads no submodule and no numpy, and the
`qbrittle` command can choose numpy's BLAS threads before numpy loads (see `cli`).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("circuits", "errors", "simulator", "pruning", "stats", "protocol")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = ["__version__"] + [export for module in _SUBMODULES for export in __getattr__(module).__all__]
    else:
        # An internal module is looked up without loading the submodules, so
        # that `from qbrittle import cli` runs cli before numpy loads.
        internal = name in ("cli", "codec")
        owner = None if internal else next((m for m in _SUBMODULES if name in __getattr__(m).__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(__getattr__(owner), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
