"""Workload definitions, CLI invocation with per-child resource accounting,
and the correctness checks behind `failed` / `fail_frac`.

An operation is one circuit of an ensemble, one grid point of a sweep, or
one command. A non-zero exit fails every operation of that command; a failed
check fails the operation it concerns.
"""
from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference" / "seed0.json"

# Same entry point as the `qbrittle` console script (qbrittle.cli:entry),
# run from the checkout's source tree so no install is needed.
CLI_BOOT = "from qbrittle.cli import entry; entry()"

ALPHA = 2.3
RHO = 0.28
KAPPA = 0.20
CLASSIFY_THRESHOLD = 0.9
SWEEP_PROBES = 30
# The CLI's default grid: kappa 0.05 .. 0.40 in steps of 0.03.
SWEEP_GRID = tuple(round(0.05 + i * 0.03, 9) for i in range(12))
FLOAT_TOL = 1e-9
# A CLI run is killed, and all its operations fail, after this long.
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "ensemble" or "sweep"
    n: int
    threads: int
    count: int = 0  # ensemble circuits; unused for the sweep

    @property
    def operations(self) -> int:
        """Checked operations of one invocation: each circuit or grid point, and the command."""
        return (self.count if self.command == "ensemble" else len(SWEEP_GRID)) + 1

    @property
    def circuits(self) -> int:
        """Circuits fully processed by one invocation."""
        return self.count if self.command == "ensemble" else len(SWEEP_GRID) * SWEEP_PROBES

    def argv(self, base_seed: int, workdir: Path, threads: int | None = None) -> list[str]:
        threads = self.threads if threads is None else threads
        common = ["--n", str(self.n), "--alpha", str(ALPHA), "--rho", str(RHO),
                  "--base-seed", str(base_seed), "--threads", str(threads)]
        if self.command == "ensemble":
            return ["ensemble", *common, "--kappa", str(KAPPA), "--count", str(self.count),
                    "--out-dir", str(workdir)]
        return ["sweep", *common, "--out-csv", str(workdir / "sweep.csv")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble-10q", "ensemble", n=10, threads=2, count=100),
        Workload("ensemble-14q", "ensemble", n=14, threads=1, count=8),
        Workload("sweep-10q", "sweep", n=10, threads=2),
    )
}


def child_env() -> dict[str, str]:
    """The caller's environment, unchanged except that the checkout's source
    tree leads PYTHONPATH. BLAS thread variables are passed through as found."""
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    return env


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def invoke(cli_args: list[str], workdir: Path) -> Invocation:
    """Run the CLI once and account for it through wait4 on that child alone.

    wait4 returns the child's own usage plus that of the descendants it
    reaped, so pool workers' CPU and peak RSS are included; unlike
    RUSAGE_CHILDREN its ru_maxrss does not carry over from earlier runs.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT, *cli_args], cwd=workdir,
                                env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Invocation(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # observations that fail nothing

    @classmethod
    def one(cls, ok: bool, problem: str) -> "Outcome":
        """A single checked operation."""
        return cls(1, 0 if ok else 1, [] if ok else [problem])

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.notes.extend(n for n in other.notes if n not in self.notes)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def time_setup(workdir: Path, outcome: Outcome) -> float:
    """Wall time of `qbrittle --version`: interpreter, numpy and qbrittle
    import, argparse. The run is checked into `outcome`."""
    inv = invoke(["--version"], workdir)
    outcome.add(Outcome.one(inv.returncode == 0 and inv.stdout.startswith("qbrittle "),
                            f"--version exited {inv.returncode}"))
    return inv.wall_s


def _close(a: float | None, b: float | None) -> bool:
    """Both absent, or both present and within FLOAT_TOL."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= FLOAT_TOL


# Under numpy 2 the CLI writes records.csv fidelities as "np.float64(x)": the
# repr of a numpy scalar, not of a float. The value inside is exact, so it is
# read through that wrapper and the format is reported as a note.
NUMPY_SCALAR = re.compile(r"np\.float64\(([^()]*)\)")
NUMPY_NOTE = "records.csv writes fidelities as numpy reprs (np.float64(...)), not plain floats"


def strip_numpy_repr(text: str) -> str:
    return NUMPY_SCALAR.sub(r"\1", text)


def read_records(workdir: Path) -> tuple[list[dict], list[str]]:
    """records.csv rows with the fidelity parsed to a float, and notes."""
    text = (workdir / "records.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(strip_numpy_repr(text))))
    for row in rows:
        row["fidelity"] = float(row["fidelity"])
    return rows, [NUMPY_NOTE] if NUMPY_SCALAR.search(text) else []


def check_ensemble(w: Workload, base_seed: int, workdir: Path, inv: Invocation,
                   expected_gates: int, reference: dict | None) -> Outcome:
    """Invariants at any seed; exact/1e-9 agreement with `reference` when given."""
    attempted = w.operations
    if inv.returncode != 0:
        return Outcome(attempted, attempted, [f"{w.name}: exit {inv.returncode}: {inv.stderr.strip()[-300:]}"])
    rows, notes = read_records(workdir)
    report = json.loads((workdir / "report.json").read_text())

    problems = []
    bad_circuits = 0
    ref_records = reference["records"] if reference else None
    report_records = report.get("records", [])
    for k in range(w.count):
        why = []
        if k >= len(rows) or k >= len(report_records):
            why.append("missing")
        else:
            row, rec = rows[k], report_records[k]
            fid = row["fidelity"]
            if int(row["seed"]) != base_seed + k:
                why.append(f"seed {row['seed']}")
            if int(row["gate_count"]) != expected_gates:
                why.append(f"gate_count {row['gate_count']} != {expected_gates}")
            if not 0.0 <= fid <= 1.0:
                why.append(f"fidelity {fid} outside [0, 1]")
            if row["label"] != ("robust" if fid >= CLASSIFY_THRESHOLD else "fragile"):
                why.append(f"label {row['label']} disagrees with fidelity {fid}")
            if rec["fidelity"] != fid or rec["label"] != row["label"]:
                why.append("report.json and records.csv disagree")
            if ref_records is not None:
                ref = ref_records[k]
                if row["label"] != ref["label"] or int(row["gate_count"]) != ref["gate_count"]:
                    why.append("label/gate_count differ from reference")
                if not _close(fid, ref["fidelity"]):
                    why.append(f"fidelity {fid!r} != reference {ref['fidelity']!r}")
        if why:
            bad_circuits += 1
            problems.append(f"{w.name} circuit {k}: " + "; ".join(why))

    command_ok = True
    labels = [r["label"] for r in rows]
    summary = report.get("class_summary", {})
    counts = {name: summary.get(name, {}).get("count") for name in ("robust", "fragile")}
    if len(rows) != w.count or (counts["robust"] or 0) + (counts["fragile"] or 0) != w.count \
            or counts["robust"] != labels.count("robust"):
        command_ok = False
        problems.append(f"{w.name}: class counts {counts} do not sum to --count {w.count}")
    robust = [r["fidelity"] for r in rows if r["label"] == "robust"]
    fragile = [r["fidelity"] for r in rows if r["label"] == "fragile"]
    gap = report.get("fidelity_gap")
    expected_gap = min(robust) - max(fragile) if robust and fragile else None
    if not _close(gap, expected_gap):
        command_ok = False
        problems.append(f"{w.name}: fidelity_gap {gap!r} != min(robust) - max(fragile) {expected_gap!r}")
    if reference is not None:
        ref_gap = reference["fidelity_gap"]
        if not _close(gap, ref_gap):
            command_ok = False
            problems.append(f"{w.name}: fidelity_gap {gap!r} != reference {ref_gap!r}")
    return Outcome(attempted, bad_circuits + (0 if command_ok else 1), problems, notes)


def read_sweep(workdir: Path, stdout: str) -> tuple[list[dict], float | None]:
    with open(workdir / "sweep.csv", newline="") as fh:
        rows = [
            {"kappa": float(r["kappa"]), "gap": float(r["gap"]) if r["gap"] else None,
             "robust_fraction": float(r["robust_fraction"]), "valid": bool(int(r["valid"]))}
            for r in csv.DictReader(fh)
        ]
    selected = None
    lines = stdout.strip().splitlines()
    if lines and lines[-1].startswith("selected_kappa="):
        selected = float(lines[-1].split("=", 1)[1])
    return rows, selected


def expected_selection(rows: list[dict]) -> float | None:
    """Smallest-kappa argmax of gap among valid rows."""
    best = None
    for row in rows:
        if row["valid"] and (best is None or row["gap"] > best["gap"]):
            best = row
    return None if best is None else best["kappa"]


def check_sweep(w: Workload, workdir: Path, inv: Invocation, reference: dict | None) -> Outcome:
    attempted = w.operations
    if inv.returncode != 0:
        return Outcome(attempted, attempted, [f"{w.name}: exit {inv.returncode}: {inv.stderr.strip()[-300:]}"])
    rows, selected = read_sweep(workdir, inv.stdout)

    problems = []
    bad_points = 0
    ref_rows = reference["rows"] if reference else None
    for i, kappa in enumerate(SWEEP_GRID):
        why = []
        if i >= len(rows):
            why.append("missing")
        else:
            row = rows[i]
            rf = row["robust_fraction"]
            robust_count = rf * SWEEP_PROBES
            if row["kappa"] != kappa:
                why.append(f"kappa {row['kappa']} != {kappa}")
            if not 0.0 <= rf <= 1.0 or abs(robust_count - round(robust_count)) > 1e-9:
                why.append(f"robust_fraction {rf} is not a count over {SWEEP_PROBES} probes")
            if row["valid"] != (0.0 < rf < 1.0):
                why.append(f"valid={row['valid']} disagrees with robust_fraction {rf}")
            if row["valid"] != (row["gap"] is not None) or (row["gap"] is not None and not 0.0 < row["gap"] <= 1.0):
                why.append(f"gap {row['gap']} inconsistent with valid={row['valid']}")
            if ref_rows is not None:
                ref = ref_rows[i]
                if row["valid"] != ref["valid"] or rf != ref["robust_fraction"]:
                    why.append("valid/robust_fraction differ from reference")
                if not _close(row["gap"], ref["gap"]):
                    why.append(f"gap {row['gap']!r} != reference {ref['gap']!r}")
        if why:
            bad_points += 1
            problems.append(f"{w.name} kappa={kappa}: " + "; ".join(why))

    command_ok = len(rows) == len(SWEEP_GRID)
    if selected is None or selected != expected_selection(rows):
        command_ok = False
        problems.append(f"{w.name}: selected_kappa {selected!r} is not the smallest-kappa argmax of gap")
    if reference is not None and selected != reference["selected_kappa"]:
        command_ok = False
        problems.append(f"{w.name}: selected_kappa {selected!r} != reference {reference['selected_kappa']!r}")
    return Outcome(attempted, bad_points + (0 if command_ok else 1), problems)


def check(w: Workload, base_seed: int, workdir: Path, inv: Invocation,
          expected_gates: int, references: dict) -> Outcome:
    """Check one CLI run; outputs that are missing or malformed fail all of its operations."""
    reference = references.get(w.name) if base_seed == references.get("base_seed") else None
    try:
        if w.command == "ensemble":
            return check_ensemble(w, base_seed, workdir, inv, expected_gates, reference)
        return check_sweep(w, workdir, inv, reference)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return Outcome(w.operations, w.operations, [f"{w.name}: unreadable outputs: {exc!r}"])


def ensemble_reference(workdir: Path) -> dict:
    rows, _ = read_records(workdir)
    report = json.loads((workdir / "report.json").read_text())
    return {
        "records": [{"seed": int(r["seed"]), "gate_count": int(r["gate_count"]),
                     "label": r["label"], "fidelity": r["fidelity"]} for r in rows],
        "fidelity_gap": report["fidelity_gap"],
    }


def sweep_reference(workdir: Path, stdout: str) -> dict:
    rows, selected = read_sweep(workdir, stdout)
    return {"rows": rows, "selected_kappa": selected}
