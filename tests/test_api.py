"""The public API: the package re-exports every submodule's `__all__`, the
README's import block uses only exported names and its command lines parse,
and the functions the benchmark tracer wraps still exist."""
import ast
import collections
import functools
import importlib
import re
import shlex
import sys
from pathlib import Path

import numpy as np

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
