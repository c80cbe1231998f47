"""Golden outputs: the README commands at small sizes, pinned by SHA-256.

Every file a command writes is hashed, except the manifests, which carry a
timestamp. Stdout is pinned too, with the run directory replaced by `<tmp>`.
A refactor that keeps these hashes keeps report.json, the CSVs, the SVGs and
the stdout contracts byte-identical.
"""
import contextlib
import hashlib
import io

import pytest

from qbrittle.cli import main

GOLDEN = {
    "generate": {
        "stdout": "3beea31b81a765e7c7985429b9c13692b0533b6cf9632998a693fc42adb5ac09",
        "circuit.json": "9064ca68efc74a081d510953c5a1a05a5f4ebc9ac6dd17069161891e81173a9d",
        "circuit.qasm": "f2803046f3fe2255e529825594217096335595541ce734ce82e453c13fbd51b7",
    },
    "prune-causal": {
        "stdout": "55d27d76c2b5802081c5a655b09b18a5544bf2966fff6357455a4e4e6aecbf41",
        "causal-importance.csv": "471da24395e4fe4a50e2c1b99658f929fee2c9ff000115c6420d18355c3b6805",
        "causal-state.csv": "e9db7fe23d9ac48ba0ace85d62442b2ac611df126f00119aab443f5d5dc231e8",
        "causal.json": "4cefa07935588e616ecc35e6d97cb937ecfba9b1746d8db8dd2cff4e00f37592",
    },
    "ensemble": {
        "stdout": "04509f024736421e4d5fc03fdc3dacddf2a4d56f058b7d0243adddb966949eb5",
        "ens/correlation_hist.csv": "c9fa09133071f96ea78ffed550b92151ec94c4d6625f3c8885389f9813f1a6fd",
        "ens/correlation_hist.svg": "29f312b7c78e61bbfae662ec92573529dfb3bad0d755a71c1455be45b615c04c",
        "ens/fidelity_hist.csv": "8eea233de1cc2d311b76f4a21f720126d3dc6519de993cfede53cdb74a7774c8",
        "ens/fidelity_hist.svg": "53326f7472d0d4b5aa9123a7adb486bac815755a222806be9d949c3fe6e9ba6b",
        "ens/records.csv": "823dd2f1c9405b3e92726a2e47304d370d634afead954c5cdf7afc3f7522a7db",
        "ens/report.json": "e89fdd2d9a5286877bff534a5b08a202463839384a5cbb050bbf902ab9fc5112",
    },
    "report": {
        "stdout": "f3d1444a33799d42233abe2f359d2d5cc2cdb5a8d266def87377205c29fae3f5",
    },
    "sweep": {
        "stdout": "b59c31ec2adc9b594b61f84d64d9cc700b11ee11f86b495eeea2418a0ecda34b",
        "sweep.csv": "8655b643103af542fe587f712cf9512e5169842ba324a4466b53e0f0f7cb0537",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(tmp_path, *args) -> dict:
    """Run one command; hash its stdout and every non-manifest file it wrote."""
    before = {p for p in tmp_path.rglob("*") if p.is_file()}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(a) for a in args]) == 0
    stdout = buf.getvalue().replace(str(tmp_path), "<tmp>")
    hashes = {"stdout": _sha(stdout.encode())}
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        if path not in before and not path.name.endswith("manifest.json"):
            hashes[path.relative_to(tmp_path).as_posix()] = _sha(path.read_bytes())
    return hashes


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("golden")
    circuit = tmp_path / "circuit.json"
    runs = {
        "generate": _run(tmp_path, "generate", "--n", 6, "--alpha", 1.0, "--rho", 0.3,
                         "--seed", 3, "--out", circuit, "--qasm", tmp_path / "circuit.qasm"),
    }
    runs["prune-causal"] = _run(tmp_path, "prune", "--in", circuit, "--kappa", 0.15,
                                "--out", tmp_path / "causal.json",
                                "--importance-csv", tmp_path / "causal-importance.csv",
                                "--dump-state-csv", tmp_path / "causal-state.csv")
    runs["ensemble"] = _run(tmp_path, "ensemble", "--n", 6, "--alpha", 1.0, "--rho", 0.2,
                            "--kappa", 0.3, "--count", 8, "--base-seed", 3,
                            "--out-dir", tmp_path / "ens", "--svg", "--threads", 1)
    runs["report"] = _run(tmp_path, "report", "--in", tmp_path / "ens" / "report.json")
    runs["sweep"] = _run(tmp_path, "sweep", "--n", 6, "--alpha", 1.0, "--rho", 0.2,
                         "--base-seed", 0, "--probes", 6, "--kappa-start", 0.20,
                         "--kappa-stop", 0.40, "--kappa-step", 0.05,
                         "--out-csv", tmp_path / "sweep.csv", "--threads", 1)
    return runs


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_outputs(golden_runs, command):
    assert golden_runs[command] == GOLDEN[command]
