"""The circuit generator: pinned bytes, the per-draw oracle, rejected draws, the gate cap.

`generate_uniform` decodes one bulk PCG64 draw in a fixed layout: five words
per pair of layered gates (both axis draws in the halves of the first word,
then each gate's branch and angle words) and three per pair of appended gates
(both qubit draws, then each angle word). If Lemire's method rejects one of
the 32-bit draws, the circuit comes from the Generator's own calls instead.
The words come from `circuits._pcg64_words`, which is checked against numpy's
PCG64 stream; the tests inject words there and in numpy's PCG64 for the
fallback. `helpers.reference_generate` makes one Generator call per draw. The
hash below was taken from the per-draw generator, so it pins the bytes every
seed gave before the bulk decode; it is checked with the Generator made
unavailable, so the bulk decode is what gives them.
"""
import hashlib
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from helpers import reference_generate
from qbrittle import circuits, cli
from qbrittle.circuits import (
    MAX_GATES,
    Circuit,
    GenerationParams,
    expected_gate_count,
    from_json,
    generate_uniform,
    layer_count,
    to_json,
)
from qbrittle.errors import InvalidParameterError

GENERATED_SHA256 = "59599e629014d7b79ab6a7740746a8afce2548f1b4a1707dec53a70fa0053c6d"
GENERATED_CASES = [(n, alpha, rho) for n in (4, 6, 10, 14, 16)
                   for alpha, rho in ((1.0, 0.0), (2.3, 0.28), (1.5, 1.0), (0.5, 0.5), (3.0, 0.2))]
GENERATED_SEEDS = (0, 1, 12345, 2**63, 2**64 - 1)

PCG64 = np.random.PCG64
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _no_generator(*args, **kwargs):
    raise AssertionError("the circuit came from the Generator fallback, not the bulk decode")


def test_generated_circuits_are_pinned(monkeypatch):
    monkeypatch.setattr(np.random, "Generator", _no_generator)  # none of these seeds has a rejected draw
    digest = hashlib.sha256()
    for n, alpha, rho in GENERATED_CASES:
        for seed in GENERATED_SEEDS:
            digest.update(to_json(generate_uniform(GenerationParams(n, alpha, rho, seed))).encode())
    assert digest.hexdigest() == GENERATED_SHA256


def pcg64_with_word(index: int, word: int, seed: int = 0) -> np.random.PCG64:
    """A PCG64 whose output word number `index` (from 0) is `word`.

    PCG64 steps its 128-bit state s -> s * M + inc, then outputs the XOR of the
    new state's halves rotated right by its top 6 bits. Choose the high half,
    solve for the low half, and step the LCG back index + 1 times.
    """
    bit_generator = PCG64(seed)
    state = bit_generator.state
    inc = state["state"]["inc"]
    high = 0x0123456789ABCDEF
    rotation = high >> 58
    low = high ^ ((word << rotation | word >> (64 - rotation)) & (2**64 - 1))
    s = high << 64 | low
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(index + 1):
        s = (s - inc) * inverse % 2**128
    state["state"]["state"] = s
    bit_generator.state = state
    return bit_generator


ORACLE_SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1) + tuple(random.Random(32).randrange(2**64)
                                                                    for _ in range(300))


@pytest.mark.parametrize("counts, seeds", [((0, 1, 7, 600, 4096), ORACLE_SEEDS),
                                           ((4095, 4096, 4097, 8192, 10000), ORACLE_SEEDS[:43])],
                         ids=["short", "across chunks"])
def test_pcg64_words_are_numpys_stream(counts, seeds):
    for seed in seeds:
        for count in counts:
            words = circuits._pcg64_words(seed, count)
            expected = PCG64(seed).random_raw(count)
            assert words.dtype == expected.dtype and words.shape == expected.shape, (seed, count)
            assert np.array_equal(words, expected), (seed, count)


IMPORT_PIN = """
import sys
from qbrittle import cli, protocol
from qbrittle.circuits import GenerationParams, generate_uniform
from qbrittle.pruning import causal_prune, importance_profile
circuit = generate_uniform(GenerationParams(10, 2.3, 0.28, 5))
causal_prune(circuit, 0.2, importance_profile(circuit))
config = protocol.EnsembleConfig(n=10, alpha=2.3, rho=0.28, kappa=0.2, circuit_count=3)
protocol.run_ensemble(config, threads=1)
protocol._build_records(config, range(3))
print(sorted({"numpy.random", "_hashlib", "concurrent.futures.process", "multiprocessing"} & set(sys.modules)))
"""


def test_generation_and_pruning_load_neither_numpy_random_nor_openssl():
    # A fresh interpreter, since this one has numpy.random loaded, on the qbrittle this one imports.
    # Nor does the CLI or a one-thread ensemble load the process pool's stack.
    src = os.path.dirname(os.path.dirname(circuits.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", IMPORT_PIN], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def inject_word(monkeypatch, index: int, word: int) -> None:
    """Make word number `index` of every seed's stream `word`, both in the bulk
    draw and in the Generator fallback."""
    monkeypatch.setattr(circuits, "_pcg64_words",
                        lambda seed, count: pcg64_with_word(index, word, seed).random_raw(count))
    monkeypatch.setattr(np.random, "PCG64", lambda seed: pcg64_with_word(index, word, seed))


def test_pcg64_with_word_sets_the_word():
    assert int(pcg64_with_word(7, 0xDEADBEEF00000000).random_raw(8)[7]) == 0xDEADBEEF00000000


# (params, word index, word): layered pairs read 5 words (both axis draws, then
# branch and angle of each gate); appended pairs 3 (both qubit draws, then angles).
# A zero low or high half is a 32-bit draw of 0, which Lemire's method rejects
# for bound 3 and for bound 6.
REJECTIONS = {
    "first axis draw": (GenerationParams(6, 1.0, 0.5, 7), 0, 0xDEADBEEF00000000),
    "second axis draw": (GenerationParams(6, 1.0, 0.5, 7), 10, 0x00000000DEADBEEF),
    "both halves, then the next word": (GenerationParams(6, 1.0, 0.5, 7), 5, 0),
    "last axis draw": (GenerationParams(6, 1.0, 0.5, 7), 85, 0x00000000DEADBEEF),
    "first appended qubit draw": (GenerationParams(6, 1.0, 0.5, 7), 90, 0xDEADBEEF00000000),
    "last appended qubit draw, odd count": (GenerationParams(6, 1.0, 0.5, 7), 93, 0xDEADBEEF00000000),
}


@pytest.mark.parametrize("params, index, word", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejected_draw_gives_the_generator_circuit(params, index, word, monkeypatch):
    inject_word(monkeypatch, index, word)
    expected = reference_generate(params, np.random.Generator(pcg64_with_word(index, word, params.seed)))
    assert generate_uniform(params) == expected


def test_unread_half_of_an_odd_last_qubit_word_is_not_tested(monkeypatch):
    # Word 93 holds the third appended qubit draw in its low half; the Generator
    # never draws its high half, so a zero there, which bound 6 would reject, is no rejection.
    params, index, word = GenerationParams(6, 1.0, 0.5, 7), 93, 0x00000000DEADBEEF
    inject_word(monkeypatch, index, word)
    expected = reference_generate(params, np.random.Generator(pcg64_with_word(index, word, params.seed)))
    monkeypatch.setattr(np.random, "Generator", _no_generator)
    assert generate_uniform(params) == expected


def test_gate_cap_admits_max_gates():
    assert expected_gate_count(4, 41666.75, 0.0) == MAX_GATES  # 166,667 layers


@pytest.mark.parametrize("alpha", [math.inf, 1e300, 41666.75])
def test_gate_count_is_capped_before_any_draw(alpha, monkeypatch):
    monkeypatch.setattr(circuits, "_pcg64_words", None)  # a draw would fail with a TypeError
    monkeypatch.setattr(np.random, "PCG64", None)
    params = GenerationParams(4, alpha, 0.25, 0)  # 41666.75 with rho 0.25: MAX_GATES + 1
    with pytest.raises(InvalidParameterError, match=f"more than {MAX_GATES}"):
        expected_gate_count(params.n, params.alpha, params.rho)
    with pytest.raises(InvalidParameterError, match=f"more than {MAX_GATES}"):
        generate_uniform(params)


@pytest.mark.parametrize("alpha", [math.inf, 1e300])
def test_layer_count_rejects_an_unbounded_product(alpha):
    with pytest.raises(InvalidParameterError, match=f"more than {MAX_GATES}"):
        layer_count(10, alpha)


def _fail(*args, **kwargs):
    raise AssertionError("nothing may be generated")


@pytest.mark.parametrize("alpha", ["inf", "1e300", "41666.75"])
@pytest.mark.parametrize("command", [
    ["generate", "--seed", "0", "--out", "{out}/c.json"],
    ["ensemble", "--kappa", "0.1", "--out-dir", "{out}"],
    ["sweep", "--out-csv", "{out}/s.csv"],
])
def test_oversized_circuits_exit_2_before_any_directory(tmp_path, capsys, monkeypatch, command, alpha):
    for name in ("generate_uniform", "run_ensemble", "kappa_sweep"):
        monkeypatch.setattr(cli, name, _fail)
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in command] + ["--n", "4", "--alpha", alpha, "--rho", "0.25"]
    assert cli.main(argv) == 2
    assert f"more than {MAX_GATES}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["n", "alpha", "rho", "seed"])
def test_generation_params_reject_bools(field):
    values = dict(n=4, alpha=1.0, rho=0.25, seed=3)
    with pytest.raises(InvalidParameterError, match=f"{field} must be"):
        GenerationParams(**{**values, field: True})


@pytest.mark.parametrize("params", [GenerationParams(4, 1, 0, 0), GenerationParams(4, 1.0, 1, 2**64 - 1),
                                    GenerationParams(4, 0.1, 0.25, 5)])
def test_accepted_generation_params_round_trip(params):
    circuit = Circuit(4, (), params)
    assert from_json(to_json(circuit)) == circuit


def test_non_numbers_are_rejected_as_parameters():
    with pytest.raises(InvalidParameterError, match="alpha must be a number"):
        GenerationParams(4, "1.0", 0.25, 0)
    with pytest.raises(InvalidParameterError, match="rho must be a number"):
        GenerationParams(4, 1.0, np.float32(0.25), 0)
