import dataclasses
import errno
import io
import json
import os
import subprocess
import sys

import pytest

from qbrittle import cli, protocol
from qbrittle.circuits import Axis, Circuit, Cnot, GenerationParams, Rotation, from_json, to_json
from qbrittle.cli import HISTOGRAM_BINS, entry, histogram_rows, main, render_histogram_svg
from qbrittle.protocol import RECORD_CSV_COLUMNS, EnsembleConfig, SweepConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    return main([str(a) for a in args])


def no_compute(*args, **kwargs):
    raise AssertionError("nothing may be computed")


def test_generate_writes_reference_circuit(tmp_path, capsys):
    out = tmp_path / "circuit.json"
    code = run_cli("generate", "--n", 12, "--alpha", 2.5, "--rho", 0.25, "--seed", 7, "--out", out)
    assert code == 0
    circuit = from_json(out.read_text())
    assert len(circuit.gates) == 537
    assert "537 gates" in capsys.readouterr().out
    assert (tmp_path / "circuit.json.manifest.json").exists()


def test_generate_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 4, "--out", a)
    run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 4, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_odd_n(tmp_path, capsys):
    code = run_cli("generate", "--n", 11, "--alpha", 2.0, "--rho", 0.2, "--seed", 0,
                   "--out", tmp_path / "x.json")
    assert code == 2
    assert "even" in capsys.readouterr().err


def test_generate_rejects_a_qubit_count_beyond_a_float(tmp_path, capsys):
    code = run_cli("generate", "--n", 10**400, "--alpha", 1.0, "--rho", 0.1, "--seed", 0,
                   "--out", tmp_path / "new" / "x.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha=1.0 yields more than 1000000 gates for n=1000") and "Traceback" not in err
    assert not (tmp_path / "new").exists()


def test_generate_qasm_sidecar(tmp_path):
    out = tmp_path / "c.json"
    qasm = tmp_path / "c.qasm"
    assert run_cli("generate", "--n", 4, "--alpha", 1.0, "--rho", 0.0, "--seed", 1,
                   "--out", out, "--qasm", qasm) == 0
    assert qasm.read_text().startswith("OPENQASM 2.0;")
    assert "qreg q[4];" in qasm.read_text()


@pytest.fixture()
def small_circuit_file(tmp_path):
    path = tmp_path / "in.json"
    run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 9, "--out", path)
    return path


def test_prune_summary_and_outputs(tmp_path, small_circuit_file, capsys):
    out = tmp_path / "compressed.json"
    imp = tmp_path / "importance.csv"
    code = run_cli("prune", "--in", small_circuit_file, "--kappa", 0.15,
                   "--out", out, "--importance-csv", imp)
    assert code == 0
    summary = capsys.readouterr().out
    assert "removed 7 of 52 gates" in summary  # floor(0.15 * 52) = 7
    assert "label=" in summary
    compressed = from_json(out.read_text())
    assert len(compressed.gates) == 45
    lines = imp.read_text().strip().splitlines()
    assert lines[0].startswith("gate_index,")
    assert len(lines) == 53


def test_prune_reference_circuit_summary(tmp_path, capsys):
    path = tmp_path / "ref.json"
    run_cli("generate", "--n", 10, "--alpha", 2.3, "--rho", 0.28, "--seed", 0, "--out", path)
    capsys.readouterr()
    assert run_cli("prune", "--in", path, "--kappa", 0.11, "--out", tmp_path / "out.json") == 0
    assert "removed 37 of 342 gates" in capsys.readouterr().out


def test_prune_state_dump(tmp_path, small_circuit_file):
    dump = tmp_path / "state.csv"
    assert run_cli("prune", "--in", small_circuit_file, "--kappa", 0.15,
                   "--dump-state-csv", dump) == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 1 + 2 ** 6


def test_prune_zero_quota_is_usage_error(tmp_path, small_circuit_file, capsys):
    code = run_cli("prune", "--in", small_circuit_file, "--kappa", 0.01,
                   "--out", tmp_path / "o.json")
    assert code == 2
    assert "removes no gates" in capsys.readouterr().err


def test_prune_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"gates": []}')
    code = run_cli("prune", "--in", bad, "--kappa", 0.2, "--out", tmp_path / "o.json")
    assert code == 2
    assert "n_qubits" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [("prune", ["--kappa", 0.5, "--out", "new/p.json"]), ("report", [])])
def test_an_input_that_is_not_utf8_exits_2(tmp_path, capsys, monkeypatch, command, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bin.json").write_bytes(b"{\x80\xff}" * 25)
    assert run_cli(command, "--in", "bin.json", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read bin.json: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


def test_prune_honors_qubit_cap_env(tmp_path, small_circuit_file, monkeypatch, capsys):
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", "4")
    code = run_cli("prune", "--in", small_circuit_file, "--kappa", 0.15,
                   "--out", tmp_path / "o.json")
    assert code == 4
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("kappa, message", [(1.5, "must lie in (0, 1)"), (0.01, "removes no gates")])
def test_prune_rejects_kappa_before_any_work(tmp_path, small_circuit_file, monkeypatch, capsys, kappa, message):
    monkeypatch.setattr(cli, "importance_profile", no_compute)
    code = run_cli("prune", "--in", small_circuit_file, "--kappa", kappa, "--out", tmp_path / "new" / "p.json")
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_ensemble_workers_honor_qubit_cap_env(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, QBRITTLE_MAX_QUBITS="4")
    proc = subprocess.run([sys.executable, "-m", "qbrittle.cli", "ensemble", "--n", "6", "--alpha", "1.0",
                           "--rho", "0.2", "--kappa", "0.3", "--count", "4", "--threads", "2",
                           "--out-dir", str(tmp_path / "ens")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4
    assert "exceeds the simulator cap of 4" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "ens").exists()


@pytest.mark.parametrize("command, flags", [
    ("ensemble", ["--n", 6, "--alpha", 1.0, "--rho", 0.2, "--kappa", 0.3, "--count", 4, "--threads", 2,
                  "--out-dir", "{new}/ens"]),
    ("sweep", ["--n", 6, "--alpha", 1.0, "--rho", 0.2, "--threads", 2, "--out-csv", "{new}/s.csv"]),
    ("prune", ["--in", "{circuit}", "--kappa", 0.2, "--out", "{new}/p.json"]),
])
def test_a_width_above_the_qubit_cap_exits_4_before_any_directory(tmp_path, capsys, monkeypatch, command, flags):
    circuit = tmp_path / "c.json"
    assert run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.2, "--seed", 1, "--out", circuit) == 0
    capsys.readouterr()
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", "4")
    for name in ("run_ensemble", "kappa_sweep", "importance_profile"):
        monkeypatch.setattr(cli, name, no_compute)
    new = tmp_path / "new"
    assert run_cli(command, *[str(a).format(new=new, circuit=circuit) for a in flags]) == 4
    assert capsys.readouterr().err == "error: 6 qubits exceeds the simulator cap of 4\n"
    assert not new.exists()


def test_malformed_qubit_cap_env_fails_before_any_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", "x")
    monkeypatch.setattr(cli, "kappa_sweep", no_compute)
    code = run_cli("sweep", "--n", 6, "--alpha", 1.0, "--rho", 0.2, "--threads", 1,
                   "--out-csv", tmp_path / "new" / "s.csv")
    assert code == 2
    assert "QBRITTLE_MAX_QUBITS must be an integer, got 'x'" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_a_qubit_cap_below_one_exits_2_before_any_output(tmp_path, small_circuit_file, monkeypatch, capsys, raw):
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", raw)
    monkeypatch.setattr(cli, "importance_profile", no_compute)
    assert run_cli("prune", "--in", small_circuit_file, "--kappa", 0.5, "--out", tmp_path / "new" / "p.json") == 2
    assert capsys.readouterr().err == f"error: QBRITTLE_MAX_QUBITS must be at least 1, got '{raw}'\n"
    assert not (tmp_path / "new").exists()


def test_prune_of_a_wire_beyond_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(to_json(Circuit(2, (Rotation(Axis.X, 1, 0.1),))).replace('"n_qubits": 2', f'"n_qubits": {2**64}')
                    .replace('"qubit": 1', f'"qubit": {2**63}'))
    assert run_cli("prune", "--in", path, "--kappa", 0.5, "--out", tmp_path / "new" / "p.json") == 2
    assert capsys.readouterr().err == f"error: gate 0: qubit {2**63} must be an integer in [0, {2**63})\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("theta, message", [
    (str(10**400), "error: circuit.gates[0].theta: must be a number within a float's range, got "),
    ("7" * 5000, "error: document is not valid JSON: Exceeds the limit"),
])
def test_prune_of_an_integer_angle_beyond_a_float_exits_2(tmp_path, capsys, theta, message):
    path = tmp_path / "big.json"
    text = to_json(Circuit(2, (Rotation(Axis.X, 0, 0.5), Cnot(0, 1))))
    path.write_text(text.replace('"theta": 0.5', f'"theta": {theta}'))
    assert run_cli("prune", "--in", path, "--kappa", 0.5, "--out", tmp_path / "new" / "p.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "new").exists()


def test_ensemble_outputs(tmp_path, capsys):
    out_dir = tmp_path / "ens"
    code = run_cli("ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.15,
                   "--count", 8, "--base-seed", 3, "--out-dir", out_dir, "--threads", 1, "--svg")
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["records"]) == 8
    assert report["config"]["kappa"] == 0.15
    records = (out_dir / "records.csv").read_text().strip().splitlines()
    assert records[0] == ",".join(RECORD_CSV_COLUMNS)
    assert len(records) == 9
    hist = (out_dir / "fidelity_hist.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_lo,bin_hi,robust_count,fragile_count"
    assert (out_dir / "correlation_hist.csv").exists()
    assert (out_dir / "fidelity_hist.svg").read_text().startswith("<svg")
    assert (out_dir / "manifest.json").exists()
    assert "robust:" in capsys.readouterr().out


def test_ensemble_report_json_thread_independent(tmp_path):
    dirs = [tmp_path / "t1", tmp_path / "t2"]
    for threads, out_dir in zip((1, 3), dirs):
        assert run_cli("ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.15,
                       "--count", 6, "--base-seed", 0, "--out-dir", out_dir,
                       "--threads", threads) == 0
    assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()
    assert (dirs[0] / "records.csv").read_bytes() == (dirs[1] / "records.csv").read_bytes()


def test_ensemble_with_empty_class_warns_but_succeeds(tmp_path, capsys):
    out_dir = tmp_path / "ens"
    code = run_cli("ensemble", "--n", 4, "--alpha", 1.0, "--rho", 1.0, "--kappa", 0.2,
                   "--count", 6, "--base-seed", 5, "--out-dir", out_dir, "--threads", 1)
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    report = json.loads((out_dir / "report.json").read_text())
    assert report["fidelity_gap"] is None


def test_report_command_renders_tables(tmp_path, capsys):
    out_dir = tmp_path / "ens"
    run_cli("ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.15,
            "--count", 6, "--base-seed", 3, "--out-dir", out_dir, "--threads", 1)
    capsys.readouterr()
    assert run_cli("report", "--in", out_dir / "report.json") == 0
    rendered = capsys.readouterr().out
    assert "Rotation-angle fingerprint by class" in rendered
    assert "ensemble: n=6" in rendered


def test_report_command_rejects_non_report(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text('{"foo": 1}')
    assert run_cli("report", "--in", path) == 2


@pytest.mark.parametrize("table, key, bad, where", [
    ("class_summary", "robust", {"count": 3, "fraction": "0.5", "mean_fidelity": None},
     "report.class_summary.robust.fraction"),
    ("per_axis_p", "x", "0.1", "report.per_axis_p.x"),
    ("class_summary", "fragile", None, "report.class_summary"),  # None: the key is deleted
])
def test_report_command_names_the_bad_path_without_traceback(tmp_path, table, key, bad, where):
    out_dir = tmp_path / "ens"
    assert run_cli("ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.15,
                   "--count", 4, "--base-seed", 3, "--out-dir", out_dir, "--threads", 1) == 0
    doc = json.loads((out_dir / "report.json").read_text())
    if bad is None:
        del doc[table][key]
    else:
        doc[table][key] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "qbrittle.cli", "report", "--in", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert f"error: {where}:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def genuine_report(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ens")
    assert run_cli("ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.15,
                   "--count", 6, "--base-seed", 3, "--out-dir", out_dir, "--threads", 1) == 0
    return json.loads((out_dir / "report.json").read_text())


def _flip_label(record):
    record["label"] = "fragile" if record["label"] == "robust" else "robust"


@pytest.mark.parametrize("edit, where", [
    (lambda doc: doc["class_summary"]["robust"].update(count=-3), "report.class_summary.robust.count"),
    (lambda doc: doc["class_summary"]["fragile"].update(fraction=7.0), "report.class_summary.fragile.fraction"),
    (lambda doc: _flip_label(doc["records"][4]), "report.records[4].label"),
    (lambda doc: doc.update(records=[]), "report.records"),
    (lambda doc: doc["records"][2].update(seed=0), "report.records[2].seed"),
    (lambda doc: doc["records"][3].update(fidelity=7.0), "report.records[3].fidelity"),
], ids=["count", "fraction", "label", "no-records", "seed", "fidelity"])
def test_report_command_rejects_summaries_its_records_do_not_give(tmp_path, capsys, genuine_report, edit, where):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(genuine_report))
    assert run_cli("report", "--in", path) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert run_cli("report", "--in", path) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}: ") and captured.out == ""


@pytest.mark.parametrize("argv, clash", [
    (["generate", "--out", "q.json", "--qasm", "q.json"], "--out and --qasm"),
    (["generate", "--out", "new/q.json", "--qasm", "./new/q.json"], "--out and --qasm"),
    (["generate", "--out", "q.json", "--qasm", "q.json.manifest.json"], "--qasm and the run manifest"),
    (["prune", "--out", "a.json", "--importance-csv", "./a.json"], "--out and --importance-csv"),
    (["prune", "--out", "new/a.json", "--dump-state-csv", "new/../new/a.json"], "--out and --dump-state-csv"),
    (["prune", "--importance-csv", "c.json.prune.manifest.json"], "--importance-csv and the run manifest"),
    (["prune", "--out", "a.json", "--dump-state-csv", "a.json.manifest.json"], "--dump-state-csv and the run manifest"),
    (["prune", "--out", "c.json"], "--in and --out"),
    (["prune", "--importance-csv", "./c.json"], "--in and --importance-csv"),
    (["prune", "--dump-state-csv", "new/../c.json"], "--in and --dump-state-csv"),
])
def test_outputs_that_name_one_file_exit_2_and_write_nothing(tmp_path, capsys, monkeypatch, argv, clash):
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 1, "--out", "c.json") == 0
    capsys.readouterr()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}  # the input and its manifest
    monkeypatch.setattr(cli, "generate_uniform", no_compute)
    monkeypatch.setattr(cli, "importance_profile", no_compute)
    flags = {"generate": ["--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 1],
             "prune": ["--in", "c.json", "--kappa", 0.2]}[argv[0]]
    assert run_cli(*argv, *flags) == 2
    assert capsys.readouterr().err.startswith(f"error: {clash} name the same file {tmp_path}")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("argv, flag, value", [
    (["generate", "--out", "."], "--out", "."),
    (["generate", "--out", ""], "--out", ""),
    (["generate", "--out", "/"], "--out", "/"),
    (["generate", "--out", "sub/"], "--out", "sub/"),
    (["generate", "--out", "g.json", "--qasm", "."], "--qasm", "."),
    (["generate", "--out", "g.json", "--qasm", "d"], "--qasm", "d"),
    (["sweep", "--out-csv", "."], "--out-csv", "."),
    (["sweep", "--out-csv", "d"], "--out-csv", "d"),
    (["sweep", "--out-csv", "d/"], "--out-csv", "d/"),
    (["prune", "--out", "."], "--out", "."),
    (["prune", "--out", ".."], "--out", ".."),
    (["prune", "--importance-csv", "sub/"], "--importance-csv", "sub/"),
    (["prune", "--dump-state-csv", "d/."], "--dump-state-csv", "d/."),
])
def test_an_output_path_that_names_a_directory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                          argv, flag, value):
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 1, "--out", "c.json") == 0
    (tmp_path / "d").mkdir()
    capsys.readouterr()
    before = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    for compute in ("generate_uniform", "importance_profile", "kappa_sweep"):
        monkeypatch.setattr(cli, compute, no_compute)
    flags = {"generate": ["--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 1],
             "prune": ["--in", "c.json", "--kappa", 0.2],
             "sweep": ["--n", 6, "--alpha", 1.0, "--rho", 0.2, "--threads", 1]}[argv[0]]
    assert run_cli(*argv, *flags) == 2
    assert capsys.readouterr().err == f"error: {flag} must name a file, not a directory, got {value!r}\n"
    assert {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")} == before
    assert not (tmp_path / "g.json").exists()


def test_an_empty_optional_output_path_is_not_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 1, "--out", "c.json") == 0
    before = set(tmp_path.iterdir())
    assert run_cli("prune", "--in", "c.json", "--kappa", 0.2, "--out", "", "--importance-csv", "",
                   "--dump-state-csv", "") == 0
    assert set(tmp_path.iterdir()) - before == {tmp_path / "c.json.prune.manifest.json"}
    assert json.loads((tmp_path / "c.json.prune.manifest.json").read_text())["outputs"] == []


def test_sweep_outputs_and_selected_kappa(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--n", 6, "--alpha", 1.0, "--rho", 0.2, "--base-seed", 0,
                   "--probes", 10, "--kappa-start", 0.20, "--kappa-stop", 0.40,
                   "--kappa-step", 0.05, "--out-csv", out_csv, "--threads", 1)
    assert code == 0
    out = capsys.readouterr().out
    final = out.strip().splitlines()[-1]
    assert final.startswith("selected_kappa=")
    float(final.split("=", 1)[1])  # parseable by scripts
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "kappa,gap,robust_fraction,valid"
    assert len(lines) == 1 + 5  # grid 0.20..0.40 step 0.05


def test_sweep_without_transition_exits_3(tmp_path, capsys):
    code = run_cli("sweep", "--n", 4, "--alpha", 1.0, "--rho", 1.0, "--base-seed", 5,
                   "--probes", 5, "--kappa-start", 0.1, "--kappa-stop", 0.35,
                   "--kappa-step", 0.05, "--threads", 1)
    assert code == 3
    assert "no compression transition" in capsys.readouterr().err


def test_sweep_rejects_oversized_grid_before_building_it(tmp_path, capsys, monkeypatch):
    def no_grid(config):
        raise AssertionError("the grid must not be built")

    monkeypatch.setattr(protocol, "sweep_grid", no_grid)
    code = run_cli("sweep", "--n", 6, "--alpha", 1.0, "--rho", 0.2, "--kappa-step", 1e-9,
                   "--threads", 1)
    assert code == 2
    assert "kappa grid" in capsys.readouterr().err


@pytest.mark.parametrize("command, compute, out_flag", [
    ("ensemble", "run_ensemble", ["--out-dir", "{blocker}/ens", "--n", 6, "--alpha", 1.0, "--rho", 0.2,
                                  "--kappa", 0.3, "--count", 4, "--threads", 1]),
    ("sweep", "kappa_sweep", ["--out-csv", "{blocker}/s.csv", "--n", 6, "--alpha", 1.0, "--rho", 0.2,
                              "--threads", 1]),
    ("prune", "importance_profile", ["--out", "{blocker}/p.json", "--in", "{circuit}", "--kappa", 0.2]),
    ("generate", "generate_uniform", ["--out", "{blocker}/g.json", "--n", 6, "--alpha", 1.0, "--rho", 0.2,
                                      "--seed", 1]),
])
def test_unwritable_output_fails_before_compute(tmp_path, capsys, monkeypatch, command, compute, out_flag):
    # a regular file where an output directory should go
    blocker = tmp_path / "file"
    blocker.write_text("")
    circuit = tmp_path / "c.json"
    assert run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.2, "--seed", 1, "--out", circuit) == 0
    capsys.readouterr()

    monkeypatch.setattr(cli, compute, no_compute)
    flags = [str(a).format(blocker=blocker, circuit=circuit) for a in out_flag]
    assert run_cli(command, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {blocker}")  # the path that cannot be written
    assert "Traceback" not in err


def _manifest_config(path):
    return json.loads(path.read_text())["config"]


def test_manifest_config_is_the_run_config(tmp_path):
    circuit = tmp_path / "c.json"
    assert run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 4, "--out", circuit) == 0
    assert _manifest_config(tmp_path / "c.json.manifest.json") == dataclasses.asdict(
        GenerationParams(n=6, alpha=1.0, rho=0.3, seed=4))

    # prune without --out writes its own manifest beside the input and keeps generate's
    assert run_cli("prune", "--in", circuit, "--kappa", 0.3, "--importance-csv", tmp_path / "imp.csv") == 0
    assert json.loads((tmp_path / "c.json.manifest.json").read_text())["command"] == "generate"
    prune_manifest = json.loads((tmp_path / "c.json.prune.manifest.json").read_text())
    assert prune_manifest["command"] == "prune"
    assert prune_manifest["config"] == {"kappa": 0.3, "classify_threshold": 0.9}

    assert run_cli("ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.2, "--kappa", 0.3, "--count", 4,
                   "--base-seed", 2, "--classify-threshold", 0.8,
                   "--small-angle-threshold", 0.05, "--out-dir", tmp_path / "ens", "--threads", 1) == 0
    assert _manifest_config(tmp_path / "ens" / "manifest.json") == dataclasses.asdict(EnsembleConfig(
        n=6, alpha=1.0, rho=0.2, kappa=0.3, circuit_count=4, base_seed=2, classify_threshold=0.8,
        small_angle_threshold=0.05))

    sweep_csv = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--n", 6, "--alpha", 1.0, "--rho", 0.2, "--probes", 6,
                   "--kappa-start", 0.25, "--kappa-stop", 0.35, "--kappa-step", 0.05,
                   "--classify-threshold", 0.85, "--out-csv", sweep_csv, "--threads", 1) == 0
    assert _manifest_config(tmp_path / "sweep.csv.manifest.json") == dataclasses.asdict(SweepConfig(
        n=6, alpha=1.0, rho=0.2, probe_count=6, kappa_start=0.25, kappa_stop=0.35, kappa_step=0.05,
        classify_threshold=0.85))


def test_histogram_rows_counts_both_classes():
    rows = histogram_rows([0.96, 0.97, 1.0], [0.1, 0.12], 0.0, 1.0)
    assert len(rows) == HISTOGRAM_BINS == 40
    assert (rows[0][0], rows[-1][1]) == (0.0, 1.0)
    assert sum(rc for _, _, rc, _ in rows) == 3
    assert sum(fc for _, _, _, fc in rows) == 2
    assert [rc for _, _, rc, _ in rows[-2:]] == [2, 1]  # the 1.0 edge lands in the final bin
    assert rows[4][3] == 2  # 0.1 and 0.12 share [0.1, 0.125)
    svg = render_histogram_svg(rows, "demo", "fidelity")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_entry_exits_quietly_on_broken_pipe(tmp_path, monkeypatch, capsys):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)  # the reader is gone, as after `| head`

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def fileno(self):
            return write_fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "argv", ["qbrittle", "generate", "--n", "4", "--alpha", "1.0", "--rho", "0.0",
                                      "--seed", "1", "--out", str(tmp_path / "c.json")])
    try:
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 1
        assert capsys.readouterr().err == ""
        assert os.write(write_fd, b"x") == 1  # stdout's descriptor now leads to devnull
    finally:
        os.close(write_fd)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("writer, failing, flags", [
    ("write_records_csv", "records.csv", ["ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.15,
                                          "--count", 4, "--threads", 1, "--svg", "--out-dir", "{out}"]),
    ("write_importance_csv", "imp.csv", ["prune", "--in", "{circuit}", "--kappa", 0.2, "--out", "{out}/p.json",
                                         "--importance-csv", "{out}/imp.csv", "--dump-state-csv", "{out}/s.csv"]),
])
def test_failed_write_leaves_no_output_and_no_temporary_file(tmp_path, capsys, monkeypatch, writer, failing, flags):
    circuit = tmp_path / "c.json"
    assert run_cli("generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3, "--seed", 2, "--out", circuit) == 0
    out = tmp_path / "out"
    monkeypatch.setattr(cli, writer, _disk_full)
    assert run_cli(*[str(a).format(out=out, circuit=circuit) for a in flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / failing}: No space left on device")
    assert "Traceback" not in err
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "c.json.manifest.json", "out"]


@pytest.mark.parametrize("flags, message", [
    (["--kappa", 0.001], "removes no gates"),
    (["--kappa", 0.2, "--alpha", 0.1], "yields zero layers"),
])
def test_ensemble_that_cannot_run_exits_before_making_its_directory(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(cli, "run_ensemble", no_compute)
    code = run_cli("ensemble", "--n", 4, "--alpha", 1.0, "--rho", 0.3, "--count", 4, "--threads", 1,
                   "--out-dir", tmp_path / "ens", *flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ens").exists()


def _argv_into(command, circuit, out) -> list:
    """A valid `command` line whose outputs go into the directory `out`."""
    return {
        "ensemble": ["ensemble", "--n", 4, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.2, "--out-dir", out],
        "sweep": ["sweep", "--n", 4, "--alpha", 1.0, "--rho", 0.3, "--out-csv", out / "s.csv"],
        "prune": ["prune", "--in", circuit, "--kappa", 0.2, "--out", out / "p.json"],
    }[command]


@pytest.mark.parametrize("command, flag, value, message", [
    *((command, "--classify-threshold", value, "classify_threshold must lie in [0, 1]")
      for command in ("ensemble", "sweep", "prune") for value in ("nan", "1.5", "-0.1")),
    *(("ensemble", "--small-angle-threshold", value, "small_angle_threshold must be finite and >= 0")
      for value in ("nan", "-1", "inf")),
])
def test_bad_thresholds_exit_2_before_any_directory(tmp_path, small_circuit_file, capsys, monkeypatch,
                                                    command, flag, value, message):
    for name in ("run_ensemble", "kappa_sweep", "importance_profile"):
        monkeypatch.setattr(cli, name, no_compute)
    out = tmp_path / "new"
    assert run_cli(*_argv_into(command, small_circuit_file, out), flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}, got ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, retired", [
    ("prune", ["--mode", "aware"]),
    ("ensemble", ["--mode", "aware"]),
    ("sweep", ["--mode", "aware"]),
    ("prune", ["--small-angle-threshold", "0.1"]),
    ("sweep", ["--small-angle-threshold", "0.1"]),
], ids=["prune-mode", "ensemble-mode", "sweep-mode", "prune-small-angle-threshold", "sweep-small-angle-threshold"])
def test_retired_pruning_flags_exit_2_before_any_directory(tmp_path, small_circuit_file, capsys, command, retired):
    out = tmp_path / "new"
    with pytest.raises(SystemExit) as exc:
        run_cli(*_argv_into(command, small_circuit_file, out), *retired)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(retired)}" in capsys.readouterr().err
    assert not out.exists()


def test_a_report_that_still_names_its_pruning_mode_renders_without_it(tmp_path, capsys, genuine_report):
    # Reports written while aware pruning existed carry config.pruning_mode; the reader ignores it.
    path = tmp_path / "report.json"
    path.write_text(json.dumps(genuine_report))
    assert run_cli("report", "--in", path) == 0
    current = capsys.readouterr().out
    old = json.loads(json.dumps(genuine_report))
    old["config"]["pruning_mode"] = "causal"
    path.write_text(json.dumps(old))
    assert run_cli("report", "--in", path) == 0
    assert capsys.readouterr().out == current
    assert current.startswith("ensemble: n=6 alpha=1.0 rho=0.3 kappa=0.15 count=6 base_seed=3\n")


SEED_BEYOND = "puts the run's last seed at {}, beyond the unsigned 64-bit range"


@pytest.mark.parametrize("argv, message", [
    (["ensemble", "--kappa", 0.2, "--count", 3, "--threads", 1, "--base-seed", 2**64 - 2, "--out-dir", "{new}"],
     "base_seed=18446744073709551614 " + SEED_BEYOND.format(18446744073709551616)),
    (["sweep", "--probes", 2, "--threads", 1, "--base-seed", 18446744073709551000, "--out-csv", "{new}/s.csv"],
     "base_seed=18446744073709551000 " + SEED_BEYOND.format(18446744073709562101)),
    (["sweep", "--probes", 101, "--threads", 1, "--out-csv", "{new}/s.csv"],
     "probe_count must lie in [2, 100], got 101"),
    (["ensemble", "--kappa", 0.2, "--count", 10001, "--threads", 1, "--out-dir", "{new}"],
     "circuit_count must lie in [2, 10000], got 10001"),
    (["ensemble", "--kappa", 0.2, "--count", 3, "--threads", 0, "--out-dir", "{new}"],
     "threads must be a positive integer or None, got 0"),
    (["sweep", "--probes", 2, "--threads", -3, "--out-csv", "{new}/s.csv"],
     "threads must be a positive integer or None, got -3"),
    (["sweep", "--kappa-start", 0.3, "--kappa-stop", 0.3, "--kappa-step", "inf", "--out-csv", "{new}/s.csv"],
     "kappa_step must be positive and finite, got inf"),
    (["sweep", "--kappa-start", 0.3, "--kappa-stop", 0.2, "--out-csv", "{new}/s.csv"],
     "kappa_start must not exceed kappa_stop, got 0.3 > 0.2"),
    (["sweep", "--kappa-start", 0.3, "--kappa-stop", 1.2, "--out-csv", "{new}/s.csv"],
     "kappa grid [0.3, 1.2] must lie inside (0, 1)"),
], ids=["ensemble seed", "sweep seed", "probes", "count", "ensemble threads", "sweep threads", "infinite step",
        "reversed grid", "grid outside (0, 1)"])
def test_a_bad_run_input_exits_2_before_any_work_or_directory(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(protocol, "generate_uniform", no_compute)
    new = tmp_path / "new"
    command, *flags = [str(a).replace("{new}", str(new)) for a in argv]
    assert run_cli(command, "--n", 4, "--alpha", 1, "--rho", 0.3, *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not new.exists()


def test_report_command_rejects_a_record_without_an_axis(tmp_path, capsys):
    out_dir = tmp_path / "ens"
    assert run_cli("ensemble", "--n", 4, "--alpha", 1.0, "--rho", 0.3, "--kappa", 0.2,
                   "--count", 3, "--out-dir", out_dir, "--threads", 1) == 0
    doc = json.loads((out_dir / "report.json").read_text())
    del doc["records"][0]["angle_stats"]["per_axis"]["y"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", "--in", path) == 2
    assert capsys.readouterr().err == (
        "error: report.records[0].angle_stats.per_axis: keys must be ['x', 'y', 'z'], got ['x', 'z']\n")


@pytest.mark.parametrize("n", [58, 60])
def test_a_state_that_cannot_be_allocated_exits_4(tmp_path, capsys, monkeypatch, n):
    # Numpy refuses 4 EiB and more at once on any address space, so no memory is touched.
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", str(n))
    path = tmp_path / "c.json"
    path.write_text(to_json(Circuit(n, (Rotation(Axis.X, 0, 0.5), Rotation(Axis.Y, 1, 0.5)))))
    assert run_cli("prune", "--in", path, "--kappa", 0.5) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot allocate the state of {n} qubits: ") and err.count("\n") == 1
