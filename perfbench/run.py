"""qbrittle benchmark: end-to-end runs of the CLI, or a traced per-layer run.

Run from the root of a checkout (no install needed; the CLI is run from
./src):

    python3 perfbench/run.py --workload ensemble-10q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the workload's CLI command runs as a subprocess, one at a
time (closed loop, one client), until --seconds is used up; every run's
outputs are checked. With --trace 1 the traced run of tracing.py measures
every layer instead. Human-readable lines go first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
The full result, with the environment block and every sample, is also
written under .perfbench_out/. `--workload all` runs every workload from
this one process and exits non-zero if any output check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import ALPHA, OUT, RHO, ROOT, SRC, WORKLOADS, Outcome, check, invoke, load_reference, time_setup

MIN_RUNS = 5
# Base seeds of successive runs within one benchmark run are this far apart,
# so each run gets fresh circuits and the first one uses the seed itself.
RUN_SEED_STRIDE = 100_003

END_TO_END = {  # name: unit
    "wall_s": "s",
    "circuits_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """Where the numbers came from. The BLAS thread variables are recorded as
    found; the benchmark sets none of them."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_per_core": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
    }


def steal_s() -> float | None:
    """CPU time the hypervisor took from this machine so far, summed over
    CPUs: other guests' load, which slows every sample of a run alike."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict[str, list[float]], Outcome]:
    """Closed loop over one workload: the next CLI run starts when the
    previous one has exited and been checked. A `--version` run precedes
    each workload run, so set-up is sampled across the same stretch of time
    as the workload."""
    from qbrittle.circuits import expected_gate_count

    w = WORKLOADS[name]
    references = load_reference()
    expected_gates = expected_gate_count(w.n, ALPHA, RHO)
    scratch = OUT / f"work-{os.getpid()}"
    outcome = Outcome()
    samples = {key: [] for key in END_TO_END}
    try:
        invoke(["--version"], scratch)  # untimed: compiles the bytecode cache
        start = time.perf_counter()
        k = 0
        while True:
            samples["setup_s"].append(time_setup(scratch, outcome))
            base_seed = (seed + k * RUN_SEED_STRIDE) % 2**63
            workdir = scratch / f"run{k}"
            inv = invoke(w.argv(base_seed, workdir), workdir)
            outcome.add(check(w, base_seed, workdir, inv, expected_gates, references))
            shutil.rmtree(workdir)
            samples["wall_s"].append(inv.wall_s)
            samples["circuits_per_s"].append(w.circuits / inv.wall_s)
            samples["cpu_s"].append(inv.cpu_s)
            samples["peak_rss_mb"].append(inv.peak_rss_mb)
            k += 1
            # Stop before a round that would overrun the budget, after MIN_RUNS.
            elapsed = time.perf_counter() - start
            if k >= MIN_RUNS and elapsed + elapsed / k > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return samples, outcome


def print_table(name: str, samples: dict[str, list[float]], outcome: Outcome, stolen: float | None) -> None:
    print(f"== {name}")
    print(f"  {'metric':<16}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
    for key, unit in END_TO_END.items():
        q1, med, q3 = statistics.quantiles(samples[key], n=4)
        print(f"  {key:<16}{unit:>6}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{len(samples[key]):>5}")
    fail_frac = outcome.failed / outcome.attempted
    print(f"  {'fail_frac':<16}{'1':>6}{fail_frac:>12.5g}{'':>12}{'':>12}{outcome.attempted:>5}")
    ratio = statistics.median(samples["cpu_s"]) / statistics.median(samples["wall_s"])
    print(f"  cpu_s/wall_s (medians) = {ratio:.3f}")
    if stolen is not None:
        print(f"  host steal during the run = {stolen:.2f} s of CPU")
    print_checks(outcome)


def print_checks(outcome: Outcome) -> None:
    for problem in outcome.problems[:20]:
        print(f"  FAILED: {problem}")
    for note in outcome.notes:
        print(f"  note: {note}")


def print_layers(traced: dict) -> None:
    doc = traced["document"]
    kernels = {row["name"]: row for row in doc["kernels"]}
    print("== per-layer (traced run)")
    for key, (value, unit) in traced["metrics"].items():
        line = f"  {key:<44}{value:>12.5g} {unit}"
        if key in kernels:
            row = kernels[key]
            line += (f"   bytes_moved={row['bytes_moved_computed']} ops={row['ops_computed']}"
                     f" ops/byte={row['ops_per_byte_computed']:.3g} (computed)")
        print(line)
    print("== self time by layer, ms (traced serial runs)")
    for name, layers in doc["layer_self_ms"].items():
        print(f"  {name:<14}" + "  ".join(f"{k}={v:.1f}" for k, v in sorted(layers.items())))
    outcome = traced["outcome"]
    print(f"  fail_frac={outcome.failed / outcome.attempted:.5g} over {outcome.attempted} checked operations")
    print_checks(outcome)


def write_result(name: str, seed: int, trace: int, doc: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")


def finish(outcome: Outcome, metrics: dict[str, tuple[float, str]], section: str | None) -> int:
    """Print the result line; exit code 1 if any output check failed.

    With `section` ("end_to_end" or "per_layer"), the emitted metric names
    must be exactly those BENCHMARK.json declares there.
    """
    if section is not None:
        declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
        if declared != set(metrics):
            print(f"error: metrics differ from BENCHMARK.json {section}: {sorted(declared ^ set(metrics))}",
                  file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed, passed as --base-seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qbrittle" / "cli.py").is_file():
        print(f"error: no qbrittle source tree at {SRC}; run from the root of a qbrittle checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    print("environment: " + json.dumps(env))

    if args.trace:
        from tracing import run_traced

        traced = run_traced(args.seed)
        write_result(args.workload, args.seed, 1, {"environment": env, **traced["document"]})
        print_layers(traced)
        return finish(traced["outcome"], traced["metrics"], "per_layer")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Outcome()
    combined = {}
    for name in names:
        steal_before = steal_s()
        samples, outcome = run_untraced(name, args.seed, args.seconds)
        steal_after = steal_s()
        stolen = None if steal_before is None or steal_after is None else steal_after - steal_before
        total.add(outcome)
        print_table(name, samples, outcome, stolen)
        write_result(name, args.seed, 0, {
            "environment": env, "workload": name, "seed": args.seed, "seconds": args.seconds,
            "host_steal_s": stolen,
            "samples": samples, "attempted": outcome.attempted, "failed": outcome.failed,
            "problems": outcome.problems, "notes": outcome.notes,
        })
        combined[name] = {key: (statistics.median(samples[key]), unit) for key, unit in END_TO_END.items()}

    if len(names) == 1:
        return finish(total, combined[names[0]], "end_to_end")
    return finish(total, {f"{n}.{k}": v for n, m in combined.items() for k, v in m.items()}, None)


if __name__ == "__main__":
    sys.exit(main())
