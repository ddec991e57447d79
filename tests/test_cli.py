import json
import math
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from entangler_lab.cli import EXIT_IO, EXIT_OK, EXIT_SCHEMA, format_float, main, render_json

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
