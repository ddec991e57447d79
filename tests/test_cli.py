import json
import math
import os
import subprocess
import sys
import time
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import entangler_lab.braid as braid_module
import entangler_lab.cli as cli_module
import entangler_lab.state_core as state_core_module
from entangler_lab.braid import check_ybe, factor_swap
from entangler_lab.cli import EXIT_IO, EXIT_OK, EXIT_SCHEMA, format_float, main, render_json
from entangler_lab.entangler import EntanglerSpec, build_r
from entangler_lab.state_core import monomial_entries

try:
    import resource
except ImportError:  # not a POSIX system
    resource = None

GOLDEN = Path(__file__).parent / "golden"


def data_file(name: str) -> str:
    return str(files("entangler_lab").joinpath(f"data/{name}"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# formatting


def test_format_float_twelve_significant_digits():
    assert format_float(1 / 3) == "3.33333333333e-01"
    assert format_float(0.5) == "5.00000000000e-01"
    assert format_float(-0.0) == "0.00000000000e+00"
    assert format_float(12345.678) == "1.23456780000e+04"


def test_render_json_is_valid_json():
    doc = {"a": [1, 2.5, True, None], "b": {"c": "x"}, "empty": [], "none": {}}
    parsed = json.loads(render_json(doc))
    assert parsed["a"] == [1, 2.5, True, None]
    assert parsed["b"] == {"c": "x"}


# ---------------------------------------------------------------------------
# classify


def test_classify_ghz_matches_golden(capsys):
    code, out, _ = run(capsys, "classify", data_file("ghz_state.json"), "--json")
    assert code == EXIT_OK
    assert out == (GOLDEN / "classify_ghz.json").read_text()


def test_classify_w_matches_golden(capsys):
    code, out, _ = run(capsys, "classify", data_file("w_state.json"), "--json")
    assert code == EXIT_OK
    assert out == (GOLDEN / "classify_w.json").read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        # a two-qubit family gate: its Yang-Baxter residual is rounding, pinned here
        (["braid", "--r-file", "braid_d2.json", "--strands", "4", "--json"], "braid_d2.json"),
        (["braid", "--r-file", "braid_d3.json", "--strands", "4", "--json"], "braid_d3.json"),
        (
            ["entangler", "entangler_2x2.json", "--check-unitary", "--check-ybe", "--apply-uniform", "--json"],
            "entangler_2x2.json",
        ),
    ],
)
def test_gate_commands_match_golden(capsys, monkeypatch, argv, golden):
    monkeypatch.delenv(cli_module.TOL_ENV_VAR, raising=False)
    argv = [str(GOLDEN / "inputs" / a) if a.endswith(".json") else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the golden, as in CI
        code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == (GOLDEN / golden).read_text()


def test_classify_product_state(capsys):
    code, out, _ = run(capsys, "classify", data_file("product_state.json"), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "NO_CONDITION_FIRES"
    assert doc["oracle"]["label"] == "PRODUCT"
    assert doc["agreement"] == "AGREE"


def test_classify_human_readable(capsys):
    code, out, _ = run(capsys, "classify", data_file("ghz_state.json"))
    assert code == EXIT_OK
    assert "verdict: GHZ_CLASS_CONDITIONS" in out
    assert "agreement: AGREE" in out


def test_classify_truncated_amplitudes_names_expected_length(tmp_path, capsys):
    path = write_json(
        tmp_path, "bad.json", {"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 7}
    )
    code, _, err = run(capsys, "classify", path)
    assert code == EXIT_SCHEMA
    assert "amplitudes" in err and "8" in err


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/does/not/exist.json")
    assert code == EXIT_IO
    assert "error" in err


def test_classify_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == EXIT_SCHEMA


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_classify_tiny_amplitudes_keep_the_verdict(tmp_path, capsys):
    w = json.loads(Path(data_file("w_state.json")).read_text())
    tiny = dict(w, amplitudes=[[math.ldexp(re, -600), math.ldexp(im, -600)] for re, im in w["amplitudes"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "classify", write_json(tmp_path, "tiny.json", tiny), "--json")
        assert run(capsys, "classify", data_file("w_state.json"), "--json")[0] == EXIT_OK
    reference = json.loads((GOLDEN / "classify_w.json").read_text())
    assert code == EXIT_OK
    doc = _strict_json(out)
    assert doc["verdict"] == reference["verdict"]
    assert doc["oracle"]["label"] == reference["oracle"]["label"]
    normalized = [c["normalized_magnitude"] for c in doc["conditions"]]
    assert normalized == [c["normalized_magnitude"] for c in reference["conditions"]]


@pytest.mark.parametrize(
    "amplitudes",
    [
        [[2.0**600, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0**600, 0.0]],  # Bell x 2^600: |a|^2 overflows
        [[1e160, 0.0]] + [[0.0, 0.0]] * 6 + [[1e160, 0.0]],  # GHZ x 1e160: sum |a|^2 overflows
    ],
    ids=["bell", "ghz"],
)
def test_classify_overflowing_amplitudes_name_the_range(tmp_path, capsys, amplitudes):
    dims = [2] * (len(amplitudes).bit_length() - 1)
    path = write_json(tmp_path, "big.json", {"dims": dims, "amplitudes": amplitudes})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "classify", path, "--json")
    assert code == EXIT_SCHEMA
    assert out == ""
    assert "1.8e308" in err and "scale the amplitudes down" in err


def test_classify_bad_dims(tmp_path, capsys):
    path = write_json(tmp_path, "bad_dims.json", {"dims": [2, 1], "amplitudes": [[1, 0], [0, 0]]})
    code, _, err = run(capsys, "classify", path)
    assert code == EXIT_SCHEMA
    assert "dims" in err


def test_classify_bad_amplitude_entry(tmp_path, capsys):
    path = write_json(
        tmp_path, "bad_amp.json", {"dims": [2], "amplitudes": [[1, 0], ["x", 0]]}
    )
    code, _, err = run(capsys, "classify", path)
    assert code == EXIT_SCHEMA
    assert "amplitudes" in err and "[1]" in err


def test_classify_non_three_qubit_has_no_oracle(tmp_path, capsys):
    bell = {"dims": [2, 2], "amplitudes": [[1 / math.sqrt(2), 0], [0, 0], [0, 0], [1 / math.sqrt(2), 0]]}
    path = write_json(tmp_path, "bell.json", bell)
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert "oracle" not in doc and "agreement" not in doc
    assert doc["verdict"] == "BOTH"  # m = 2: the EPR and GHZ pair operators coincide


def test_classify_env_var_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLER_LAB_TOL", "2.0")
    code, out, _ = run(capsys, "classify", data_file("ghz_state.json"), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "NO_CONDITION_FIRES"  # nothing clears tol=2


def test_classify_cli_tol_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLER_LAB_TOL", "2.0")
    code, out, _ = run(capsys, "classify", data_file("ghz_state.json"), "--json", "--tol", "1e-9")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "GHZ_CLASS_CONDITIONS"


def test_classify_invalid_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLER_LAB_TOL", "not-a-number")
    code, _, err = run(capsys, "classify", data_file("ghz_state.json"))
    assert code == EXIT_SCHEMA
    assert "ENTANGLER_LAB_TOL" in err


def test_classify_zero_state_is_validation_error(tmp_path, capsys):
    path = write_json(tmp_path, "zero.json", {"dims": [2], "amplitudes": [[0, 0], [0, 0]]})
    code, _, err = run(capsys, "classify", path)
    assert code == EXIT_SCHEMA


# ---------------------------------------------------------------------------
# entangler


def test_entangler_witness_gate(capsys):
    code, out, _ = run(
        capsys,
        "entangler",
        data_file("ghz_witness_gate.json"),
        "--check-unitary",
        "--apply-uniform",
        "--json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["unitarity"]["passed"] is True
    assert doc["phase_swap"]["ordering_with_ascending_diagonal"] == "P@R"
    assert doc["uniform_output"]["amplitudes"][7] == [-1.0, 0.0]
    for section in ("conditions_on_coefficients", "conditions_on_output"):
        ghz = [c for c in doc[section]["conditions"] if c["kind"] == "GHZ"]
        assert all(c["fires"] for c in ghz)
    assert doc["conditions_on_output"]["oracle"]["label"] == "GHZ_CLASS"


def test_entangler_check_ybe_two_strands(tmp_path, capsys):
    gate = {"m": 2, "N": 2, "alpha": [[1, 0]] * 4}
    path = write_json(tmp_path, "gate2.json", gate)
    code, out, _ = run(capsys, "entangler", path, "--check-ybe", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ybe"]["passed"] is True
    assert doc["ybe"]["residual"] < 1e-12


def test_entangler_check_ybe_rejected_for_three_parties(capsys):
    code, _, err = run(capsys, "entangler", data_file("ghz_witness_gate.json"), "--check-ybe")
    assert code == EXIT_SCHEMA
    assert "m = 2" in err


def test_entangler_check_ybe_window_cap(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense gate built")

    monkeypatch.setattr(cli_module, "build_r", refuse)
    gate = {"m": 2, "N": 32, "alpha": [[1, 0]] * 1024}  # strand dimension 32
    path = write_json(tmp_path, "gate32.json", gate)
    code, out, err = run(capsys, "entangler", path, "--check-unitary", "--check-ybe", "--json")
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("error: ") and "32^3 exceeds the dense-verification cap 4096" in err


def test_entangler_non_unimodular_reported(tmp_path, capsys):
    gate = {"m": 2, "N": 2, "alpha": [[2, 0], [1, 0], [1, 0], [1, 0]]}
    path = write_json(tmp_path, "gate_nonunitary.json", gate)
    code, out, _ = run(capsys, "entangler", path, "--check-unitary", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["unitarity"]["passed"] is False
    assert doc["unitarity"]["max_deviation"] == pytest.approx(3.0)


def test_entangler_alpha_length_check(tmp_path, capsys):
    gate = {"m": 2, "N": 2, "alpha": [[1, 0]] * 3}
    path = write_json(tmp_path, "gate_short.json", gate)
    code, _, err = run(capsys, "entangler", path)
    assert code == EXIT_SCHEMA
    assert "alpha" in err and "4" in err


def test_entangler_human_readable(capsys):
    code, out, _ = run(capsys, "entangler", data_file("ghz_witness_gate.json"))
    assert code == EXIT_OK
    assert "phase/swap" in out
    assert "COEFFICIENTS" in out and "OUTPUT" in out


def test_sizes_that_print_keep_the_spelled_out_count(tmp_path, capsys):
    cases = [
        ({"dims": [2, 2, 3], "amplitudes": [[1, 0]] * 7}, "amplitudes (for dims [2, 2, 3]): expected 12 entries, got 7"),
        ({"m": 4299, "N": 10, "alpha": []}, f"alpha (for N^m = 10^4299): expected 1{'0' * 4299} entries, got 0"),
    ]
    for doc, message in cases:
        command = "classify" if "dims" in doc else "entangler"
        code, out, err = run(capsys, command, write_json(tmp_path, "short.json", doc))
        assert code == EXIT_SCHEMA and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"m": 20000, "N": 2, "alpha": []}, "alpha (for N^m = 2^20000): expected 2^20000 entries, got 0"),
        ({"m": 300000000, "N": 2, "alpha": []}, "alpha (for N^m = 2^300000000): expected 2^300000000 entries, got 0"),
        ({"m": 4300, "N": 10, "alpha": []}, "alpha (for N^m = 10^4300): expected 10^4300 entries, got 0"),
        ({"dims": [2] * 20000, "amplitudes": []}, "amplitudes: expected 2^20000 entries, got 0"),
        (
            {"dims": [3] + [2] * 20000 + [5, 5], "amplitudes": [[1, 0]]},
            "amplitudes: expected 3 x 2^20000 x 5^2 entries, got 1",
        ),
    ],
    ids=["2^20000", "2^300000000", "10^4300", "dims 2^20000", "mixed dims"],
)
def test_sizes_too_long_to_print_are_named_by_their_shape(tmp_path, capsys, doc, message):
    command = "classify" if "dims" in doc else "entangler"
    path = write_json(tmp_path, "huge.json", doc)
    start = time.perf_counter()
    code, out, err = run(capsys, command, path)
    assert time.perf_counter() - start < 1.0  # the full power is never formed
    assert code == EXIT_SCHEMA and out == ""
    assert err == f"error: {message}\n"


def unimodular_gate_doc(N, seed):
    alpha = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, N * N))
    return {"m": 2, "N": N, "alpha": [[float(z.real), float(z.imag)] for z in alpha]}


def test_entangler_checks_build_no_dense_gate(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense gate built")

    monkeypatch.setattr(state_core_module, "_monomial_matrix", refuse)
    path = write_json(tmp_path, "gate16.json", unimodular_gate_doc(16, 16))
    code, out, err = run(
        capsys, "entangler", path, "--check-unitary", "--check-ybe", "--apply-uniform", "--json"
    )
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["unitarity"]["passed"] is True
    assert doc["ybe"]["residual"] >= 1 - 1e-12  # no unimodular N >= 3 gate solves it
    assert len(doc["uniform_output"]["amplitudes"]) == 256


@pytest.mark.skipif(resource is None, reason="needs POSIX address-space limits")
def test_entangler_check_unitary_runs_in_a_one_gigabyte_address_space(tmp_path):
    # m=2, N=128: d = 16384, so a dense gate alone would take 4 GiB
    path = write_json(tmp_path, "gate128.json", unimodular_gate_doc(128, 128))
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli_module.__file__).parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "entangler_lab.cli", "entangler", path, "--check-unitary", "--apply-uniform", "--json"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=60,
    )
    assert result.returncode == EXIT_OK and result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["unitarity"]["passed"] is True
    assert len(doc["uniform_output"]["amplitudes"]) == 128 * 128


# ---------------------------------------------------------------------------
# braid


def identity_matrix_doc(n):
    return [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(n)] for i in range(n)]


def swap_matrix_doc():
    m = identity_matrix_doc(4)
    m[1], m[2] = m[2], m[1]
    return m


def test_braid_identity(tmp_path, capsys):
    path = write_json(tmp_path, "id.json", identity_matrix_doc(4))
    code, out, _ = run(capsys, "braid", "--r-file", path, "--strands", "3", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ybe"]["residual"] == 0.0
    assert doc["braid_relations"]["max_adjacent_residual"] == 0.0
    assert doc["quasitriangular"]["residual"] == 0.0


def test_braid_swap_four_strands(tmp_path, capsys):
    path = write_json(tmp_path, "swap.json", swap_matrix_doc())
    code, out, _ = run(capsys, "braid", "--r-file", path, "--strands", "4", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ybe"]["residual"] < 1e-12
    assert doc["braid_relations"]["max_adjacent_residual"] < 1e-12
    assert doc["braid_relations"]["commuting"] == [{"i": 1, "j": 3, "residual": 0.0}]


def test_braid_random_matrix_exit_zero(tmp_path, capsys):
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(4, 4))
    doc = [[[float(x), 0.0] for x in row] for row in mat]
    path = write_json(tmp_path, "rand.json", doc)
    code, out, _ = run(capsys, "braid", "--r-file", path, "--strands", "3", "--json")
    assert code == EXIT_OK  # residuals are data, not failures
    parsed = json.loads(out)
    assert parsed["ybe"]["passed"] is False
    assert parsed["braid_relations"]["commuting"] == []


def test_braid_twelve_strands_at_the_cap(tmp_path, capsys):
    rng = np.random.default_rng(12)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    doc = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    path = write_json(tmp_path, "rand12.json", doc)
    code, out, _ = run(capsys, "braid", "--r-file", path, "--strands", "12", "--json")
    assert code == EXIT_OK
    parsed = json.loads(out)
    relations = parsed["braid_relations"]
    assert [a["i"] for a in relations["adjacent"]] == list(range(1, 11))
    assert all(a["residual"] == parsed["ybe"]["residual"] for a in relations["adjacent"])
    assert len(relations["commuting"]) == 45


def test_braid_computes_the_ybe_residual_once(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    doc = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    path = write_json(tmp_path, "rand5.json", doc)
    calls = []

    def counting(R, *args, **kwargs):
        calls.append(np.array(R))
        return check_ybe(R, *args, **kwargs)

    monkeypatch.setattr(cli_module, "check_ybe", counting)
    monkeypatch.setattr(braid_module, "check_ybe", counting)
    code, out, _ = run(capsys, "braid", "--r-file", path, "--strands", "5", "--json")
    assert code == EXIT_OK
    assert len(calls) == 2
    assert np.array_equal(calls[0], mat)  # R itself
    assert np.array_equal(calls[1], factor_swap(2) @ mat)  # the quasitriangular check's swap @ R
    parsed = json.loads(out)
    assert all(a["residual"] == parsed["ybe"]["residual"] for a in parsed["braid_relations"]["adjacent"])


def test_braid_ybe_window_cap(tmp_path, capsys):
    path = write_json(tmp_path, "id17.json", identity_matrix_doc(17 * 17))  # 17^3 > 4096
    code, out, err = run(capsys, "braid", "--r-file", path, "--strands", "2")
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("error: ") and "17^3 exceeds the dense-verification cap 4096" in err


def test_braid_strand_count_far_over_the_cap(tmp_path, capsys):
    path = write_json(tmp_path, "id.json", identity_matrix_doc(4))
    code, out, err = run(capsys, "braid", "--r-file", path, "--strands", str(10**15))
    assert code == EXIT_SCHEMA and out == ""
    assert "exceeds the dense-verification cap 4096" in err


def test_braid_non_square_dimension(tmp_path, capsys):
    path = write_json(tmp_path, "odd.json", identity_matrix_doc(3))
    code, _, err = run(capsys, "braid", "--r-file", path, "--strands", "3")
    assert code == EXIT_SCHEMA
    assert "d^2" in err


def test_braid_strand_cap(tmp_path, capsys):
    path = write_json(tmp_path, "id2.json", identity_matrix_doc(4))
    code, _, err = run(capsys, "braid", "--r-file", path, "--strands", "13")
    assert code == EXIT_SCHEMA
    assert "4096" in err


def test_braid_ragged_matrix(tmp_path, capsys):
    doc = identity_matrix_doc(4)
    doc[2] = doc[2][:3]
    path = write_json(tmp_path, "ragged.json", doc)
    code, _, err = run(capsys, "braid", "--r-file", path, "--strands", "3")
    assert code == EXIT_SCHEMA
    assert "row 2" in err


def test_braid_scans_a_monomial_matrix_once(tmp_path, monkeypatch, capsys):
    alpha = np.exp(1j * np.random.default_rng(9).uniform(0, 2 * np.pi, 9))
    mat = build_r(EntanglerSpec(2, 3, alpha)).mat
    path = write_json(tmp_path, "gate3.json", [[[float(z.real), float(z.imag)] for z in row] for row in mat])
    scans = []

    def counting(op):
        if isinstance(op, np.ndarray):
            scans.append(op.shape)
        return monomial_entries(op)

    argv = ("braid", "--r-file", path, "--strands", "4", "--json")
    monkeypatch.setattr(braid_module, "monomial_entries", counting)
    monkeypatch.setattr(cli_module, "monomial_entries", lambda op: None)
    code, per_check, _ = run(capsys, *argv)  # the checks get the array and each scans it
    assert code == EXIT_OK and scans == [(9, 9)] * 3
    scans.clear()
    monkeypatch.setattr(cli_module, "monomial_entries", counting)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and scans == [(9, 9)]
    assert out == per_check
