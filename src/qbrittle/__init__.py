"""qbrittle: stability analysis of parametrized quantum circuits under gate pruning.

The package generates structurally-uniform layered circuits, compresses them
by leave-one-out causal importance, classifies robust vs. fragile outcomes,
and computes the angle-statistics signatures that predict fragility.

The public API is the union of the submodules' `__all__` lists, each
re-exported here; `codec` and `cli` stay internal.
"""

__version__ = "0.1.0"

from . import circuits, errors, protocol, pruning, simulator, stats
from .circuits import *
from .errors import *
from .simulator import *
from .pruning import *
from .stats import *
from .protocol import *

__all__ = ["__version__"] + [
    name for module in (circuits, errors, simulator, pruning, stats, protocol) for name in module.__all__
]
