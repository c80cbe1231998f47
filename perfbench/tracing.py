"""Traced run: per-layer timings of every qbrittle module, measured from outside.

Spans are recorded by wrapping the public functions of each module (and the
two per-circuit task functions of `protocol`) wherever the package binds
them, then running each workload's command in process through
`qbrittle.cli.main`, serially (--threads 1) and with the workload's seeds.
Spans (name, start, end, parent) stay in memory and are written when the
run ends; self time is a span's duration minus what its children cover.
Per-gate work (`apply_gate`, `np.vdot`) is not wrapped, since a wrapper
would cost as much as a 10-qubit gate; the kernel rows time it directly.

The traced run measures every layer whichever workload is named, because
several layer metrics compare workloads or set one against its untraced
CLI run (pool efficiency of `ensemble-10q` and `sweep-10q`, the CPU/wall
ratio of `ensemble-14q`).
Its amount of work is fixed: one pass of each workload, traced and untraced,
plus the kernel rows.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import ALPHA, OUT, RHO, WORKLOADS, Invocation, Outcome, check, invoke, \
    load_reference, read_records, read_sweep, strip_numpy_repr, time_setup

# Wrapped functions, by module: the layers are the modules. These are the
# public functions the ensemble and sweep commands reach, so each layer's
# self time is its own.
TRACED = {
    "circuits": ("generate_uniform", "remove_gates", "circuit_depth"),
    "simulator": ("run", "fidelity"),
    "pruning": ("importance_profile", "causal_prune"),
    "stats": ("angle_stats", "angle_importance_r", "shannon_entropy", "gini", "classify",
              "fidelity_gap", "welch_t_test", "cohens_d"),
    "protocol": ("run_ensemble", "kappa_sweep", "report_to_dict", "write_records_csv",
                 "_build_record", "_probe_fidelity"),
    "cli": ("main",),
}
RECORD_STATS = {"stats.angle_stats", "stats.angle_importance_r", "stats.shannon_entropy",
                "stats.gini", "circuits.circuit_depth"}
KERNEL_SIZES = (10, 12, 14)
KERNEL_BATCHES = 15
CODEC_REPS = 7
ORACLE_CIRCUITS = 2
RUN_CIRCUITS = {10: 9, 12: 5, 14: 3}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    error: str | None = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent)
            self.spans.append(span)
            if parent is not None:
                self.spans[parent].children.append(index)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace each traced function in every qbrittle namespace that binds
        it, and restore the originals afterwards."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qbrittle" or name.startswith("qbrittle."))]
        patches = []
        for layer, names in TRACED.items():
            owner = sys.modules[f"qbrittle.{layer}"]
            for fn_name in names:
                original = getattr(owner, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def under(self, root: int, name: str) -> list[Span]:
        """Spans called `name` in the subtree of `root`."""
        found, todo = [], [root]
        while todo:
            span = self.spans[todo.pop()]
            if span.name == name:
                found.append(span)
            todo.extend(span.children)
        return found

    def layer_self_times(self, root: int) -> dict[str, float]:
        totals: dict[str, float] = {}
        todo = [root]
        while todo:
            index = todo.pop()
            layer = self.spans[index].name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self.self_time(index)
            todo.extend(self.spans[index].children)
        return totals


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(spans: list[Span]) -> list[float]:
    return [s.duration * 1e3 for s in spans]


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def kernel_rows(seed: int) -> list[dict]:
    """Median time per call of apply_gate for each rotation axis and qubit
    position, of CNOT at the low end, the middle and the ring wrap, and of
    the np.vdot the importance sweep takes per gate, at 10, 12 and 14 qubits.

    Bytes moved and operations are computed from the array sizes (each
    gate reads and writes the amplitudes it touches once, 16 bytes each),
    not measured; cache misses are ignored.
    """
    from qbrittle.circuits import Axis, Cnot, Rotation
    from qbrittle.simulator import StateVector, apply_gate

    rng = np.random.default_rng(seed)
    rows = []
    for n in KERNEL_SIZES:
        dim = 1 << n
        calls = max(16, 1 << (19 - n))
        state = StateVector(n, _random_state(rng, n))
        other = _random_state(rng, n)
        cases = []
        for axis in Axis:
            for pos, qubit in (("lo", 0), ("mid", n // 2), ("hi", n - 1)):
                # 6 flops per amplitude: a 2x2 update with one real and one
                # imaginary coefficient (x, y) or one complex scale (z).
                cases.append((f"{axis.value}{pos}", Rotation(axis, qubit, 0.7), 32 * dim, 6 * dim))
        for pos, (control, target) in (("lo", (0, 1)), ("mid", (n // 2, n // 2 + 1)), ("wrap", (n - 1, 0))):
            cases.append((f"cx{pos}", Cnot(control, target), 16 * dim, 0))
        for label, gate, moved, ops in cases:
            def batch(gate=gate):
                for _ in range(calls):
                    apply_gate(state, gate)
            batch()
            per_call = _median_time(batch, KERNEL_BATCHES) / calls
            rows.append({"name": f"simulator.apply_gate_us.{label}.{n}q", "value": per_call * 1e6,
                         "bytes_moved_computed": moved, "ops_computed": ops,
                         "ops_per_byte_computed": ops / moved})
        amps = state.amplitudes

        def vdots():
            for _ in range(calls):
                np.vdot(amps, other)
        vdots()
        per_call = _median_time(vdots, KERNEL_BATCHES) / calls
        # Conjugate multiply-add: 8 flops per amplitude pair, both arrays read.
        rows.append({"name": f"simulator.vdot_us.{n}q", "value": per_call * 1e6,
                     "bytes_moved_computed": 32 * dim, "ops_computed": 8 * dim,
                     "ops_per_byte_computed": 8 * dim / (32 * dim)})
    return rows


def run_times(seed: int) -> dict[str, float]:
    """Median of one intact `run` of workload-family circuits per qubit count."""
    from qbrittle.circuits import GenerationParams, generate_uniform
    from qbrittle.simulator import run

    out = {}
    for n in KERNEL_SIZES:
        times = []
        for k in range(RUN_CIRCUITS[n]):
            circuit = generate_uniform(GenerationParams(n, ALPHA, RHO, seed + k))
            start = time.perf_counter()
            run(circuit)
            times.append(time.perf_counter() - start)
        out[f"simulator.run_ms.{n}q"] = statistics.median(times) * 1e3
    return out


def oracle_check(seed: int) -> Outcome:
    """importance_profile against naive leave-one-out re-simulation with
    remove_gates + run, on 10-qubit workload circuits."""
    from qbrittle.circuits import GenerationParams, generate_uniform, remove_gates
    from qbrittle.pruning import importance_profile
    from qbrittle.simulator import fidelity, run

    outcome = Outcome()
    for k in range(ORACLE_CIRCUITS):
        circuit = generate_uniform(GenerationParams(10, ALPHA, RHO, seed + k))
        profile = importance_profile(circuit)
        intact = run(circuit)
        naive = np.array([1.0 - fidelity(intact, run(remove_gates(circuit, [i])))
                          for i in range(len(circuit.gates))])
        worst = float(np.max(np.abs(naive - profile.importances)))
        outcome.add(Outcome.one(worst <= 1e-9,
                                f"importance_profile off naive leave-one-out by {worst:.3g} (seed {seed + k})"))
    return outcome


def codec_times(report_text: str, records_text: str) -> tuple[dict[str, float], Outcome]:
    """The ensemble write path (report_to_dict, JSON dump, write_records_csv)
    and the read path behind `qbrittle report`, on a real report; both must
    reproduce the CLI's bytes."""
    from qbrittle.protocol import report_from_dict, report_to_dict, write_records_csv

    report = report_from_dict(json.loads(report_text))
    written = {}

    def write():
        written["json"] = json.dumps(report_to_dict(report), indent=1) + "\n"
        buf = io.StringIO()
        write_records_csv(buf, report.records)
        written["csv"] = buf.getvalue()

    times = {
        "protocol.serialize_ms": _median_time(write, CODEC_REPS) * 1e3,
        "protocol.report_from_dict_ms": _median_time(lambda: report_from_dict(json.loads(report_text)), CODEC_REPS) * 1e3,
    }
    outcome = Outcome.one(written["json"] == report_text,
                          "report.json does not round-trip byte-identically through the codec")
    outcome.add(Outcome.one(written["csv"] == strip_numpy_repr(records_text),
                            "records.csv rewritten from the decoded report differs"))
    return times, outcome


def _cross_check(name: str, code: int, traced: Path, cli_dir: Path) -> Outcome:
    """The traced serial run against the untraced CLI run of the same seeds."""
    w = WORKLOADS[name]
    if code != 0:
        ops = w.count + 1 if w.command == "ensemble" else 1
        return Outcome(ops, ops, [f"traced {name}: exit {code}"])
    if w.command == "sweep":
        return Outcome.one((traced / "sweep.csv").read_text() == (cli_dir / "sweep.csv").read_text(),
                           "traced sweep table differs from the CLI's")
    outcome = Outcome()
    (mine, _), (theirs, _) = read_records(traced), read_records(cli_dir)
    for k in range(w.count):
        outcome.add(Outcome.one(
            k < len(mine) and k < len(theirs) and abs(mine[k]["fidelity"] - theirs[k]["fidelity"]) <= 1e-9,
            f"traced {name} circuit {k}: fidelity differs from the CLI's records.csv"))
    outcome.add(Outcome.one((traced / "report.json").read_text() == (cli_dir / "report.json").read_text(),
                            f"traced {name}: report.json differs from the CLI's (--threads 1 vs {w.threads})"))
    return outcome


def run_traced(seed: int) -> dict:
    """One traced pass; returns the per-layer metrics, the outcome of every
    check made on the way, and the document of spans and kernel rows."""
    from qbrittle import cli
    from qbrittle.circuits import expected_gate_count

    base_seed = seed % 2**63
    references = load_reference()
    scratch = OUT / f"trace-{os.getpid()}"
    outcome = Outcome()
    tracer = Tracer()
    roots: dict[str, int] = {}
    untraced: dict[str, Invocation] = {}
    try:
        # Untraced references: set-up and one CLI run of each workload.
        invoke(["--version"], scratch / "setup")  # untimed: compiles the bytecode cache
        setup_s = statistics.median(time_setup(scratch / "setup", outcome) for _ in range(3))
        for name, w in WORKLOADS.items():
            workdir = scratch / "cli" / name
            inv = invoke(w.argv(base_seed, workdir), workdir)
            outcome.add(check(w, base_seed, workdir, inv, expected_gate_count(w.n, ALPHA, RHO), references))
            untraced[name] = inv

        # Traced in-process runs of the same commands, serial. ensemble-14q
        # also runs untraced in process just before, as the base of the
        # tracing overhead: the CLI run differs by process start-up, and
        # 14-qubit run times swing too much from run to run to compare two
        # different processes.
        untraced_14q_s = None
        for name, w in WORKLOADS.items():
            workdir = scratch / "traced" / name
            if name == "ensemble-14q":
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    cli.main(w.argv(base_seed, scratch / "untraced-14q", threads=1))
                    untraced_14q_s = time.perf_counter() - start
            workdir.mkdir(parents=True)
            with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
                roots[name] = len(tracer.spans)
                code = cli.main(w.argv(base_seed, workdir, threads=1))
            outcome.add(_cross_check(name, code, workdir, scratch / "cli" / name))
        sweep_rows, _ = read_sweep(scratch / "traced" / "sweep-10q", "")
        valid_frac = sum(row["valid"] for row in sweep_rows) / len(sweep_rows)

        kernels = kernel_rows(base_seed)
        runs = run_times(base_seed)
        outcome.add(oracle_check(base_seed))
        ens10 = scratch / "cli" / "ensemble-10q"
        codec, codec_outcome = codec_times((ens10 / "report.json").read_text(), (ens10 / "records.csv").read_text())
        outcome.add(codec_outcome)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics: dict[str, tuple[float, str]] = {}
    r10, r14, rsw = roots["ensemble-10q"], roots["ensemble-14q"], roots["sweep-10q"]

    def percentiles(name: str, values_ms: list[float]) -> None:
        metrics[f"{name}.p50"] = (_pct(values_ms, 50), "ms")
        metrics[f"{name}.p90"] = (_pct(values_ms, 90), "ms")

    percentiles("circuits.generate_uniform_ms",
                _ms(tracer.under(r10, "circuits.generate_uniform") + tracer.under(rsw, "circuits.generate_uniform")))
    metrics.update({k: (v, "ms") for k, v in runs.items()})
    metrics.update({row["name"]: (row["value"], "us") for row in kernels})
    for n, root in ((10, r10), (14, r14)):
        percentiles(f"pruning.importance_profile_ms.{n}q", _ms(tracer.under(root, "pruning.importance_profile")))
    profiles14 = tracer.under(r14, "pruning.importance_profile")
    baseline_runs14 = [tracer.spans[c] for p in profiles14 for c in p.children
                       if tracer.spans[c].name == "simulator.run"]
    metrics["pruning.profile_over_run.14q"] = (
        statistics.median(_ms(profiles14)) / statistics.median(_ms(baseline_runs14)), "ratio")
    percentiles("pruning.finish_ms", _ms(tracer.under(r10, "pruning.causal_prune")))
    percentiles("pruning.causal_prune_ms", _ms(tracer.under(rsw, "pruning.causal_prune")))
    percentiles("stats.record_ms", [
        sum(tracer.spans[c].duration for c in rec.children if tracer.spans[c].name in RECORD_STATS) * 1e3
        for rec in tracer.under(r10, "protocol._build_record")])
    metrics["stats.undefined_count"] = (sum(
        any(tracer.spans[c].error == "UndefinedStatisticError" for c in rec.children)
        for root in (r10, r14) for rec in tracer.under(root, "protocol._build_record")), "count")

    metrics.update({k: (v, "ms") for k, v in codec.items()})
    for name, root, task in (("ensemble-10q", r10, "protocol._build_record"),
                             ("sweep-10q", rsw, "protocol._probe_fidelity")):
        serial = sum(s.duration for s in tracer.under(root, task))
        busy = WORKLOADS[name].threads * (untraced[name].wall_s - setup_s)
        metrics[f"protocol.pool_efficiency.{name}"] = (serial / busy, "ratio")
    metrics["protocol.sweep_valid_frac"] = (valid_frac, "ratio")
    ens14 = untraced["ensemble-14q"]
    metrics["pruning.cpu_per_wall.ensemble-14q"] = (ens14.cpu_s / ens14.wall_s, "ratio")
    metrics["trace.overhead_frac"] = (tracer.spans[r14].duration / untraced_14q_s - 1.0, "ratio")
    metrics["cli.self_ms"] = (tracer.self_time(r10) * 1e3, "ms")

    t0 = tracer.spans[0].start
    document = {
        "seed": seed,
        "untraced": {name: {"wall_s": inv.wall_s, "cpu_s": inv.cpu_s, "peak_rss_mb": inv.peak_rss_mb}
                     for name, inv in untraced.items()},
        "setup_s": setup_s,
        "layer_self_ms": {name: {layer: t * 1e3 for layer, t in tracer.layer_self_times(root).items()}
                          for name, root in roots.items()},
        "kernels": kernels,
        "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.error] for s in tracer.spans],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
    }
    return {"metrics": metrics, "outcome": outcome, "document": document}
