"""The public API: the package re-exports every submodule's `__all__`, and
resolves it on first use, so that importing it loads no numpy; the `qbrittle`
command's own process defaults numpy's OpenBLAS to one thread, and nothing
else sets a thread variable; the README's import block uses only exported
names and its command lines parse, and the functions the benchmark tracer
wraps still exist."""
import ast
import collections
import functools
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbrittle
from qbrittle import cli
from qbrittle.circuits import Axis, Cnot, Rotation
from qbrittle.simulator import StateVector, apply_gate

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("circuits", "errors", "simulator", "pruning", "stats", "protocol")


def test_package_exports_every_submodule_name_as_the_same_object():
    for name in SUBMODULES:
        module = importlib.import_module(f"qbrittle.{name}")
        for export in module.__all__:
            assert getattr(qbrittle, export) is getattr(module, export), f"{name}.{export}"


def test_package_all_has_no_duplicates():
    assert len(qbrittle.__all__) == len(set(qbrittle.__all__))
    assert "__version__" in qbrittle.__all__


# Today's public names in today's order; `import qbrittle` must give them without loading numpy.
EXPORTS = ["__version__"] + [name for module in SUBMODULES
                             for name in importlib.import_module(f"qbrittle.{module}").__all__]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh(code: str, **preset: str):
    """What `code` prints as JSON in a fresh interpreter on the qbrittle this
    one imports, with no BLAS thread variable set other than `preset`."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_VARIABLES}
    src = os.path.dirname(os.path.dirname(qbrittle.__file__))
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


LAZY = """
import json, sys
import qbrittle
loaded = "numpy" in sys.modules
star = {}
exec("from qbrittle import *", star)
try:
    qbrittle.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps([loaded, qbrittle.__all__, [name for name in star if name != "__builtins__"], dir(qbrittle), unknown]))
"""


def test_import_loads_no_numpy_and_resolves_todays_names_on_use():
    loaded, exported, star, listed, unknown = fresh(LAZY)
    assert not loaded
    assert exported == star == EXPORTS == qbrittle.__all__
    assert listed == sorted(listed) and set(EXPORTS) | set(SUBMODULES) <= set(listed)
    assert unknown == "AttributeError"


# Prints the BLAS thread variables, in BLAS_VARIABLES' order, as a JSON list.
VARIABLES = f"import json, os; print(json.dumps([os.environ.get(name) for name in {BLAS_VARIABLES}]))"
UNSET = [None, None, None]


def test_importing_the_library_sets_no_blas_variable():
    imports = ["import qbrittle", "from qbrittle import *", *(f"import qbrittle.{name}" for name in SUBMODULES),
               "import qbrittle.codec"]
    assert fresh("\n".join([*imports, VARIABLES])) == UNSET


# Sets `threads` to the thread count numpy's OpenBLAS reports where protocol finds it, None elsewhere.
BLAS_THREADS = """
import ctypes
from qbrittle import protocol
threads = None
if (library := protocol._blas_library()) is not None:
    get_threads = ctypes.CDLL(library).scipy_openblas_get_num_threads64_
    get_threads.restype = ctypes.c_int
    threads = get_threads()
"""


@pytest.mark.parametrize("first", ["import qbrittle.cli", "from qbrittle import cli", "from qbrittle.cli import entry"])
def test_the_command_starts_numpy_on_one_blas_thread(first):
    assert fresh(f"{first}\n{VARIABLES}") == ["1", None, None]
    assert fresh(f"import json, sys\n{first}\n{BLAS_THREADS}\nprint(json.dumps(threads))") in (1, None)


def test_numpy_loaded_first_keeps_its_blas_and_environment():
    assert fresh(f"import numpy\nimport qbrittle.cli\n{VARIABLES}") == UNSET


@pytest.mark.parametrize("variable", BLAS_VARIABLES)
def test_a_thread_variable_the_user_set_is_kept(variable):
    expected = [("2" if name == variable else None) for name in BLAS_VARIABLES]
    assert fresh(f"import qbrittle.cli\n{VARIABLES}", **{variable: "2"}) == expected


def test_version_loads_numpy():
    # perfbench's setup_s times `qbrittle --version`; it must keep timing numpy's import.
    code = """
import contextlib, io, json, sys
from qbrittle.cli import main
with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):
    main(["--version"])
print(json.dumps("numpy" in sys.modules))
"""
    assert fresh(code) is True


def test_readme_imports_only_exported_names():
    blocks = re.findall(r"from qbrittle import \((.*?)\)", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks, "README has no `from qbrittle import (...)` block"
    names = [name.strip() for block in blocks for name in block.split(",") if name.strip()]
    assert "causal_prune" in names
    assert [name for name in names if name not in qbrittle.__all__] == []


def test_readme_command_lines_parse():
    # Parsed only, not run: a README that still names a retired flag fails here.
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("qbrittle ")]
    assert {argv[0] for argv in commands} == {"generate", "prune", "ensemble", "sweep", "report"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: qbrittle {shlex.join(argv)}") from None


def _traced() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED dict")


def test_benchmark_traced_functions_exist():
    for layer, names in _traced().items():
        module = importlib.import_module(f"qbrittle.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qbrittle.{layer}.{name}"


def test_benchmark_kernel_rows_calls_still_work():
    # perfbench's kernel rows build a state from raw amplitudes and apply single gates.
    n = 3
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    state = StateVector(n, amps)
    assert apply_gate(state, Rotation(Axis.X, 0, np.pi)) is state
    assert apply_gate(state, Cnot(0, 1)) is state
    assert np.isclose(abs(state.amplitudes[0b011]), 1.0)  # X on qubit 0, then CNOT 0 -> 1


# The traced functions whose spans the benchmark's layer metrics read.
TRACE_PATH = {"circuits": ("generate_uniform",), "pruning": ("causal_prune", "importance_profile"),
              "simulator": ("run",), "protocol": ("_build_record", "_probe_fidelity")}


def test_benchmark_trace_reaches_every_layer(tmp_path, monkeypatch, capsys):
    # Wrap each function wherever a qbrittle module binds it, as perfbench/tracing.py does.
    calls = collections.Counter()
    stack = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if name == "simulator.run" and "pruning.importance_profile" in stack:
                calls["simulator.run inside pruning.importance_profile"] += 1
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return traced

    modules = [m for name, m in list(sys.modules.items()) if name == "qbrittle" or name.startswith("qbrittle.")]
    for layer, names in TRACE_PATH.items():
        owner = importlib.import_module(f"qbrittle.{layer}")
        for fn_name in names:
            original = getattr(owner, fn_name)
            wrapped = wrap(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapped)

    assert cli.main(["ensemble", "--n", "6", "--alpha", "1.0", "--rho", "0.3", "--kappa", "0.15", "--count", "4",
                     "--out-dir", str(tmp_path / "ens"), "--threads", "1"]) == 0
    assert cli.main(["sweep", "--n", "6", "--alpha", "1.0", "--rho", "0.2", "--probes", "6", "--kappa-start", "0.25",
                     "--kappa-stop", "0.35", "--kappa-step", "0.05", "--threads", "1"]) == 0
    names = [f"{layer}.{name}" for layer, names in TRACE_PATH.items() for name in names]
    for name in names + ["simulator.run inside pruning.importance_profile"]:
        assert calls[name] >= 2, (name, dict(calls))
