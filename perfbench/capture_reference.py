"""Capture the reference outputs the benchmark compares against at seed 0.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/capture_reference.py

It runs every workload once through the CLI with base seed 0 and writes
perfbench/reference/seed0.json: per-circuit labels, gate counts and
fidelities of both ensembles, and the sweep table with its selected kappa.
"""
from __future__ import annotations

import json
import shutil
import sys

from workloads import OUT, REFERENCE, SRC, WORKLOADS, ensemble_reference, invoke, sweep_reference

BASE_SEED = 0


def main() -> int:
    if not (SRC / "qbrittle" / "cli.py").is_file():
        print(f"error: no qbrittle source tree at {SRC}", file=sys.stderr)
        return 2
    reference = {"base_seed": BASE_SEED}
    for w in WORKLOADS.values():
        workdir = OUT / "capture" / w.name
        shutil.rmtree(workdir, ignore_errors=True)
        inv = invoke(w.argv(BASE_SEED, workdir), workdir)
        if inv.returncode != 0:
            print(f"error: {w.name} exited {inv.returncode}: {inv.stderr}", file=sys.stderr)
            return 1
        if w.command == "ensemble":
            reference[w.name] = ensemble_reference(workdir)
        else:
            reference[w.name] = sweep_reference(workdir, inv.stdout)
        shutil.rmtree(workdir)
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
