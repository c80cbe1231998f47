"""Command-line interface: generate | prune | ensemble | sweep | report.

All commands are deterministic given their flags; every invocation writes a
run manifest next to its outputs so each artifact cites the configuration
that produced it. Exit codes: 0 success, 2 invalid arguments or input,
3 no transition found, 4 resource cap exceeded, 1 internal error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (GenerationParams, circuit_depth, expected_gate_count, export_qasm, from_json,
                       generate_uniform, to_json)
from .codec import loads, write_csv
from .errors import (CircuitFormatError, InvalidParameterError, NoTransitionError, ResourceLimitError,
                     UndefinedStatisticError, _shown)
from .pruning import causal_prune, importance_profile, removal_quota, write_importance_csv
from .protocol import (
    EnsembleConfig,
    SweepConfig,
    _aggregate,
    _by_class,
    _check_threads,
    _fmt,
    compare_classes,
    kappa_sweep,
    report_from_dict,
    report_to_dict,
    run_ensemble,
    write_records_csv,
)
from .simulator import _check_cap, qubit_cap
from .stats import DEFAULT_CLASSIFY_THRESHOLD, DEFAULT_SMALL_ANGLE_THRESHOLD, _check_thresholds, classify

HISTOGRAM_BINS = 40
# The exit code of each error a command reports as one line on stderr.
EXIT_CODES = {InvalidParameterError: 2, CircuitFormatError: 2, UndefinedStatisticError: 2,
              NoTransitionError: 3, ResourceLimitError: 4}


def _write_outputs(manifest: Path, command: str, config: dict, inputs: list[str], outputs: dict) -> None:
    """Write `outputs`, {path: text or a function that writes to a stream}, then
    the run manifest that lists them; None and empty paths are skipped.

    All or nothing: each file is written under a temporary name in its own
    directory, and the files are renamed into place, the manifest last, only
    once every one is complete. On failure the temporary files are removed.
    """
    outputs = {str(path): body for path, body in outputs.items() if path}
    doc = {
        "tool": "qbrittle",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config,
        "inputs": inputs,
        "outputs": list(outputs),
    }
    staged = {}
    try:
        for path, body in {**outputs, str(manifest): json.dumps(doc, indent=1) + "\n"}.items():
            staged[path] = f"{path}.{os.getpid()}.tmp"  # the paths are distinct files (see _claim)
            with open(staged[path], "w") as stream:
                body(stream) if callable(body) else stream.write(body)
        for path, temporary in staged.items():
            os.replace(temporary, path)
    except OSError as exc:  # name the output, not its temporary file; a failed write names neither
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for temporary in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)


def _claim(outputs: dict, inputs: dict | None = None) -> None:
    """Claim one command's output paths, {flag: path} with None paths skipped,
    the run manifest included: raise InvalidParameterError if one names a
    directory (an existing one, an empty name or a trailing separator) or
    unless they and the `inputs`, {flag: path}, resolve to distinct files,
    then make the outputs' directories, so an unwritable location fails before
    any compute."""
    outputs = {flag: path for flag, path in outputs.items() if path is not None}
    for flag, path in outputs.items():
        if os.path.basename(path) in ("", ".", "..") or Path(path).is_dir():
            raise InvalidParameterError(f"{flag} must name a file, not a directory, got {os.fspath(path)!r}")
    seen = {}
    for flag, path in {**(inputs or {}), **outputs}.items():
        if (first := seen.setdefault(Path(path).resolve(), flag)) != flag:
            raise InvalidParameterError(f"{first} and {flag} name the same file {Path(path).resolve()}")
    for path in outputs.values():
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def _optional_path(text: str) -> str | None:
    """The value of an optional output flag: an empty path means the flag is not given."""
    return text or None


def _read_text(path: Path) -> str:
    """An input file's text; a file that cannot be read or is not UTF-8 is a format error naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CircuitFormatError(f"cannot read {path}: {exc}") from None


def _config_from_args(cls, args):
    """Build the config dataclass `cls` from the flags whose dests name its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def histogram_rows(robust_vals, fragile_vals, lo: float, hi: float) -> list[tuple[float, float, int, int]]:
    """Shared-edge counts of both classes in HISTOGRAM_BINS equal bins over [lo, hi]."""
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    robust_counts, _ = np.histogram(np.asarray(robust_vals, dtype=float), bins=edges)
    fragile_counts, _ = np.histogram(np.asarray(fragile_vals, dtype=float), bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(robust_counts[i]), int(fragile_counts[i]))
        for i in range(HISTOGRAM_BINS)
    ]


def render_histogram_svg(rows, title: str, x_label: str) -> str:
    """Minimal grouped-bar SVG: robust in blue, fragile in red."""
    width, height = 640, 360
    left, right, top, bottom = 55, 15, 35, 45
    plot_w = width - left - right
    plot_h = height - top - bottom
    peak = max([max(rc, fc) for _, _, rc, fc in rows] + [1])
    bin_w = plot_w / len(rows)
    bar_w = bin_w / 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for i, (_, _, rc, fc) in enumerate(rows):
        x = left + i * bin_w
        for j, (count, color) in enumerate(((rc, "#4878cf"), (fc, "#d65f5f"))):
            if count == 0:
                continue
            h = plot_h * count / peak
            parts.append(
                f'<rect x="{x + j * bar_w:.2f}" y="{top + plot_h - h:.2f}" '
                f'width="{bar_w:.2f}" height="{h:.2f}" fill="{color}"/>'
            )
    axis_y = top + plot_h
    parts.append(f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" y2="{axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{axis_y}" stroke="black"/>')
    lo = rows[0][0]
    hi = rows[-1][1]
    for frac in (0.0, 0.5, 1.0):
        x = left + frac * plot_w
        value = lo + frac * (hi - lo)
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 18}" text-anchor="middle" font-size="11">{value:.2f}</text>')
    parts.append(f'<text x="{left - 8}" y="{axis_y + 4}" text-anchor="end" font-size="11">0</text>')
    parts.append(f'<text x="{left - 8}" y="{top + 4}" text-anchor="end" font-size="11">{peak}</text>')
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="{left + plot_w - 4}" y="{top + 14}" text-anchor="end" font-size="11" fill="#4878cf">robust</text>'
    )
    parts.append(
        f'<text x="{left + plot_w - 4}" y="{top + 28}" text-anchor="end" font-size="11" fill="#d65f5f">fragile</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_generate(args) -> int:
    params = _config_from_args(GenerationParams, args)
    expected_gate_count(params.n, params.alpha, params.rho)  # no layer or too many gates: exit 2 before any directory
    out, manifest = Path(args.out), Path(f"{args.out}.manifest.json")
    _claim({"--out": args.out, "--qasm": args.qasm, "the run manifest": manifest})
    circuit = generate_uniform(params)
    outputs = {out: to_json(circuit) + "\n"}
    if args.qasm:
        outputs[Path(args.qasm)] = export_qasm(circuit)
    _write_outputs(manifest, "generate", asdict(params), [], outputs)
    print(f"wrote {out}: {len(circuit)} gates, depth {circuit_depth(circuit)}")
    return 0


def cmd_prune(args) -> int:
    _check_thresholds(args.classify_threshold)
    # Without --out, a name beside the input that leaves the input's own manifest alone.
    manifest = Path(f"{args.out}.manifest.json" if args.out else f"{args.in_path}.prune.manifest.json")
    in_path = Path(args.in_path)
    circuit = from_json(_read_text(in_path))
    removal_quota(args.kappa, len(circuit))
    _check_cap(circuit.n_qubits)
    _claim({"--out": args.out, "--importance-csv": args.importance_csv, "--dump-state-csv": args.dump_state_csv,
            "the run manifest": manifest}, {"--in": in_path})
    profile = importance_profile(circuit)
    result = causal_prune(circuit, args.kappa, profile)

    label = classify(result.fidelity, args.classify_threshold)
    config = {"kappa": args.kappa, "classify_threshold": args.classify_threshold}
    amplitudes = profile.baseline_state.amplitudes
    _write_outputs(manifest, "prune", config, [str(in_path)], {
        args.out and Path(args.out): lambda stream: stream.write(to_json(result.compressed) + "\n"),
        args.importance_csv: partial(write_importance_csv, profile=profile),
        args.dump_state_csv: partial(write_csv, header=["index", "re", "im"],
                                     rows=((i, amp.real, amp.imag) for i, amp in enumerate(amplitudes))),
    })
    print(
        f"removed {len(result.removed_indices)} of {len(circuit)} gates; "
        f"fidelity={result.fidelity:.6f}; label={label.value}; "
        f"kappa_effective={result.kappa_effective:.4f}"
    )
    return 0


def _print_summary(report) -> None:
    summary = report.class_summary
    print(f"robust: {summary['robust'].count} ({summary['robust'].fraction:.2f}), "
          f"fragile: {summary['fragile'].count} ({summary['fragile'].fraction:.2f})")
    print(f"fidelity gap: {_fmt(report.fidelity_gap, '0.6f', 'absent')}; "
          f"cohens d: {_fmt(report.cohens_d_fidelity, '0.4f', 'absent')}")


def cmd_ensemble(args) -> int:
    config = _config_from_args(EnsembleConfig, args)
    _check_cap(config.n)
    out_dir = Path(args.out_dir)
    _claim({"the run manifest": out_dir / "manifest.json"})
    report = run_ensemble(config, threads=args.threads)

    outputs = {
        out_dir / "report.json": json.dumps(report_to_dict(report), indent=1) + "\n",
        out_dir / "records.csv": partial(write_records_csv, records=report.records),
    }
    fidelities = _by_class((r.label, r.fidelity) for r in report.records)
    correlations = _by_class((r.label, r.angle_importance_r) for r in report.records)
    histograms = [
        ("fidelity", "Post-compression fidelity", "fidelity", histogram_rows(*fidelities, 0.0, 1.0)),
        ("correlation", "Angle-importance correlation", "r", histogram_rows(*correlations, -1.0, 1.0)),
    ]
    for name, _, _, rows in histograms:
        outputs[out_dir / f"{name}_hist.csv"] = partial(
            write_csv, header=["bin_lo", "bin_hi", "robust_count", "fragile_count"], rows=rows)
    if args.svg:
        for name, title, x_label, rows in histograms:
            outputs[out_dir / f"{name}_hist.svg"] = render_histogram_svg(rows, title, x_label)
    _write_outputs(out_dir / "manifest.json", "ensemble", asdict(config), [], outputs)

    _print_summary(report)
    print(f"wrote {out_dir}")
    if not all(fidelities):
        print("warning: one outcome class is empty; gap and class comparisons are reported as null",
              file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(SweepConfig, args)
    _check_cap(config.n)
    out_csv = args.out_csv and Path(args.out_csv)
    manifest = args.out_csv and Path(f"{args.out_csv}.manifest.json")
    _claim({"--out-csv": args.out_csv, "the run manifest": manifest})
    result = kappa_sweep(config, threads=args.threads)

    if out_csv:
        rows = [(p.kappa, p.gap, p.robust_fraction, p.valid) for p in result.grid]
        _write_outputs(manifest, "sweep", asdict(config), [], {
            out_csv: partial(write_csv, header=["kappa", "gap", "robust_fraction", "valid"], rows=rows)})

    for point in result.grid:
        print(f"kappa={point.kappa:.2f} robust_fraction={point.robust_fraction:.3f} "
              f"gap={_fmt(point.gap, '0.6f', 'absent')} valid={int(point.valid)}")
    print(f"selected_kappa={result.selected_kappa!r}")
    return 0


def _first_difference(got, want, path: str) -> tuple[str, object, object] | None:
    """(JSON path, got, want) at the first leaf where two encoded documents differ, or None."""
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        pairs = ((got[key], want[key], f"{path}.{key}") for key in want)
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = ((g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want)))
    else:
        return None if got == want else (path, got, want)
    return next(filter(None, (_first_difference(*pair) for pair in pairs)), None)


def _check_consistent(report) -> None:
    """Raise CircuitFormatError at the first JSON path where the report is not
    what its config and records give: circuit_count records of seeds
    base_seed + k, each with a fidelity in [0, 1] and labelled by `classify`,
    and `protocol._aggregate`'s summaries."""
    c = report.config
    if len(report.records) != c.circuit_count:
        raise CircuitFormatError(f"report.records: must hold circuit_count={c.circuit_count} records, "
                                 f"got {len(report.records)}")
    for k, r in enumerate(report.records):
        if not 0.0 <= r.fidelity <= 1.0:  # also NaN
            raise CircuitFormatError(f"report.records[{k}].fidelity: must be a number in [0, 1], "
                                     f"got {r.fidelity!r}")
    records = [replace(r, seed=c.base_seed + k, label=classify(r.fidelity, c.classify_threshold))
               for k, r in enumerate(report.records)]
    if difference := _first_difference(report_to_dict(report), report_to_dict(_aggregate(c, records)), "report"):
        where, got, want = difference
        raise CircuitFormatError(f"{where}: must be {_shown(want, repr)} as the config and records give, "
                                 f"got {_shown(got, repr)}")


def cmd_report(args) -> int:
    path = Path(args.in_path)
    report = report_from_dict(loads(_read_text(path), path))
    _check_consistent(report)

    c = report.config
    print(f"ensemble: n={c.n} alpha={c.alpha} rho={c.rho} kappa={c.kappa} "
          f"count={c.circuit_count} base_seed={c.base_seed}")
    _print_summary(report)
    print()
    print(compare_classes(report), end="")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser, config: type[EnsembleConfig | SweepConfig]) -> None:
    """Flags shared by `ensemble` and `sweep`, defaults from their `config` class."""
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--rho", type=float, required=True)
    parser.add_argument("--base-seed", type=int, default=config.base_seed)
    parser.add_argument("--threads", type=int, default=None, help="parallel workers (default: all cores)")
    parser.add_argument("--classify-threshold", type=float, default=DEFAULT_CLASSIFY_THRESHOLD)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbrittle",
        description="Generate, compress and statistically analyze uniform parametrized quantum circuits.",
    )
    parser.add_argument("--version", action="version", version=f"qbrittle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one structurally-uniform circuit")
    gen.add_argument("--n", type=int, required=True, help="qubit count (even, >= 4)")
    gen.add_argument("--alpha", type=float, required=True, help="depth factor; layers = floor(n * alpha)")
    gen.add_argument("--rho", type=float, required=True, help="redundancy rate in [0, 1]")
    gen.add_argument("--seed", type=int, required=True, help="generator seed")
    gen.add_argument("--out", required=True, help="output circuit JSON path")
    gen.add_argument("--qasm", type=_optional_path, help="also export OpenQASM 2.0 to this path")
    gen.set_defaults(func=cmd_generate)

    prn = sub.add_parser("prune", help="compress a circuit by leave-one-out importance")
    prn.add_argument("--in", dest="in_path", required=True, help="input circuit JSON path")
    prn.add_argument("--kappa", type=float, required=True, help="fraction of gates to remove")
    prn.add_argument("--out", type=_optional_path, help="compressed circuit JSON path")
    prn.add_argument("--importance-csv", type=_optional_path, help="per-gate importance CSV path")
    prn.add_argument("--dump-state-csv", type=_optional_path, help="debug dump of the intact final state")
    prn.add_argument("--classify-threshold", type=float, default=DEFAULT_CLASSIFY_THRESHOLD)
    prn.set_defaults(func=cmd_prune)

    ens = sub.add_parser("ensemble", help="run a full ensemble experiment")
    _add_run_flags(ens, EnsembleConfig)
    ens.add_argument("--kappa", type=float, required=True)
    ens.add_argument("--small-angle-threshold", type=float, default=DEFAULT_SMALL_ANGLE_THRESHOLD)
    ens.add_argument("--count", dest="circuit_count", metavar="COUNT", type=int, default=EnsembleConfig.circuit_count,
                     help="number of circuits")
    ens.add_argument("--out-dir", required=True)
    ens.add_argument("--svg", action="store_true", help="also render histogram SVGs")
    ens.set_defaults(func=cmd_ensemble)

    swp = sub.add_parser("sweep", help="search the kappa grid for the clearest transition")
    _add_run_flags(swp, SweepConfig)
    swp.add_argument("--probes", dest="probe_count", metavar="PROBES", type=int, default=SweepConfig.probe_count,
                     help="probe circuits per grid point")
    swp.add_argument("--kappa-start", type=float, default=SweepConfig.kappa_start)
    swp.add_argument("--kappa-stop", type=float, default=SweepConfig.kappa_stop)
    swp.add_argument("--kappa-step", type=float, default=SweepConfig.kappa_step)
    swp.add_argument("--out-csv", type=_optional_path, help="sweep table CSV path")
    swp.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="re-render the class-comparison tables from a report JSON")
    rep.add_argument("--in", dest="in_path", required=True, help="report JSON path")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        qubit_cap()  # a malformed QBRITTLE_MAX_QUBITS exits 2 before any work,
        _check_threads(getattr(args, "threads", None))  # and so does a bad --threads
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except BrokenPipeError:
        raise  # stdout's reader left; entry() handles it
    except OSError as exc:
        if exc.filename is None:
            raise
        # Inputs are read under their own handlers, so this is an output path.
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the handler
    except BrokenPipeError:
        # The reader left (e.g. `| head`): send the interpreter's final flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
