"""Command-line front end: classify states, build gates, run braid checks.

Subcommands
    classify <state.json>   pair conditions + verdict, oracle cross-check for
                            three qubits
    entangler <gate.json>   build the gate, decomposition/unitarity/YBE
                            checks, conditions on the parameters and on the
                            produced state
    braid --r-file <m.json> Yang-Baxter, braid-relation, and quasitriangular
                            residuals for an explicit two-strand operator

All files are JSON with complex numbers as [re, im] pairs.  Machine output
(--json) renders floats at 12 significant digits in lowercase scientific
notation so reports are byte-reproducible.  Exit codes: 0 success, 1 I/O
error, 2 schema or validation error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from .braid import (
    StrandRep,
    check_braid_relations,
    check_quasitriangular,
    check_ybe,
    require_ybe_window,
)
from .concurrence import ConditionReport, classify
from .entangler import (
    EntanglerSpec,
    apply_entangler,
    build_r,
    check_unitary,
    coefficient_state,
    phase_swap_decomposition,
)
from .oracle import OracleVerdict, crosscheck
from .state_core import DEFAULT_TOL, PureState, uniform_input

SCHEMA_VERSION = 1
TOL_ENV_VAR = "ENTANGLER_LAB_TOL"

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2


class SchemaError(Exception):
    """Input file or option failed validation; message names the field."""


# ---------------------------------------------------------------------------
# formatting: 12 significant digits, lowercase scientific, stable JSON layout


def format_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.11e}"


def _render(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}{json.dumps(k)}: {_render(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        rendered = [_render(v, indent + 1) for v in value]
        flat = "[" + ", ".join(rendered) + "]"
        if "\n" not in flat and len(flat) <= 88:
            return flat
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "null"
    return json.dumps(value)


def render_json(doc: dict) -> str:
    return _render(doc) + "\n"


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


# a size with more digits than this is named by its shape ("2^20000"): it is
# past Python's default limit for int -> str, and no JSON list is that long
_SPELLED_OUT_DIGITS = 4300


def _expected_entries(factors, shape: str) -> int | str:
    """The product of `factors`, or `shape` if it has too many digits to spell out.

    The product is formed one factor at a time and abandoned once it passes
    that size, so a shape like 2^300000000 costs a few thousand
    multiplications, not the full power.
    """
    limit = 10**_SPELLED_OUT_DIGITS
    size = 1
    for n in factors:
        size *= n
        if size >= limit:
            return shape
    return size


def _complex_vector(entries, name: str, expected: int | str) -> np.ndarray:
    """Parse [re, im] pairs; `expected` is their count, or the shape of a count no list reaches."""
    if not isinstance(entries, list):
        raise SchemaError(f"{name}: expected a list of [re, im] pairs")
    if len(entries) != expected:
        raise SchemaError(f"{name}: expected {expected} entries, got {len(entries)}")
    out = np.empty(len(entries), dtype=complex)
    for i, entry in enumerate(entries):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise SchemaError(f"{name}[{i}]: expected an [re, im] pair of numbers")
        if not all(math.isfinite(v) for v in entry):
            raise SchemaError(f"{name}[{i}]: entries must be finite")
        out[i] = complex(entry[0], entry[1])
    return out


def _parse_state_file(doc, path: str) -> tuple[PureState, str | None]:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object with dims and amplitudes")
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) < 1
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in dims)
    ):
        raise SchemaError("dims: expected a list of integers >= 2")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError("label: expected a string")
    runs = [(n, len(list(run))) for n, run in itertools.groupby(dims)]
    shape = " x ".join(f"{n}^{k}" if k > 1 else str(n) for n, k in runs)
    expected = _expected_entries(dims, shape)
    name = f"amplitudes (for dims {dims})" if isinstance(expected, int) else "amplitudes"
    amps = _complex_vector(doc.get("amplitudes"), name, expected)
    return PureState(tuple(dims), amps), label


def _parse_entangler_file(doc, path: str) -> EntanglerSpec:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object with m, N, alpha")
    m = doc.get("m")
    n = doc.get("N")
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise SchemaError("m: expected an integer >= 2")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise SchemaError("N: expected an integer >= 2")
    expected = _expected_entries(itertools.repeat(n, m), f"{n}^{m}")
    alpha = _complex_vector(doc.get("alpha"), f"alpha (for N^m = {n}^{m})", expected)
    return EntanglerSpec(m, n, alpha)


def _parse_matrix_file(doc, path: str) -> np.ndarray:
    if not isinstance(doc, list) or len(doc) < 1:
        raise SchemaError(f"{path}: expected a JSON list of matrix rows")
    size = len(doc)
    rows = [_complex_vector(row, f"row {i}", size) for i, row in enumerate(doc)]
    return np.array(rows, dtype=complex)


def _resolve_tol(cli_tol: float | None) -> float:
    if cli_tol is not None:
        tol = cli_tol
    elif TOL_ENV_VAR in os.environ:
        raw = os.environ[TOL_ENV_VAR]
        try:
            tol = float(raw)
        except ValueError:
            raise SchemaError(f"{TOL_ENV_VAR}: not a number: {raw!r}") from None
    else:
        tol = DEFAULT_TOL
    if not (tol > 0 and math.isfinite(tol)):
        raise SchemaError(f"tolerance must be a positive finite number, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# report assembly


def _conditions_list(report: ConditionReport) -> list[dict]:
    return [
        {
            "kind": v.kind.value,
            "pair": list(v.pair),
            "value": _pair(v.value),
            "magnitude": v.magnitude,
            "normalized_magnitude": v.normalized_magnitude,
            "fires": v.fires(report.tol),
        }
        for v in report.values
    ]


def _oracle_dict(verdict: OracleVerdict) -> dict:
    pairwise = None
    if verdict.pairwise_concurrence is not None:
        pairwise = [
            {"pair": list(pair), "concurrence": value}
            for pair, value in sorted(verdict.pairwise_concurrence.items())
        ]
    return {
        "label": verdict.label.value,
        "split": verdict.split,
        "purities": list(verdict.purities),
        "pairwise_concurrence": pairwise,
        "three_tangle": verdict.three_tangle,
        "ties": [t.value for t in verdict.ties],
    }


def _state_analysis(state: PureState, tol: float, label: str | None) -> dict:
    report = classify(state, tol, label=label)
    # classify and the oracle rescale out-of-range states; only the reported
    # float64 numbers can overflow, and JSON has no inf
    with np.errstate(over="ignore"):
        norm2 = state.norm2
    if not (math.isfinite(norm2) and all(math.isfinite(v.magnitude) for v in report.values)):
        raise SchemaError(
            f"{label or 'state'}: sum |a|^2 and every condition value must stay below 1.8e308 "
            "(the float64 range); scale the amplitudes down"
        )
    doc = {
        "label": label,
        "dims": list(state.dims),
        "norm_squared": norm2,
        "conditions": _conditions_list(report),
        "verdict": report.verdict.value,
    }
    oracle, agreement = crosscheck(state, report.verdict, tol)
    if oracle is not None:
        doc["oracle"] = _oracle_dict(oracle)
        doc["agreement"] = agreement
    return doc


def _print_state_analysis(doc: dict, out) -> None:
    name = doc["label"] or "state"
    print(f"{name}  dims={doc['dims']}  norm2={format_float(doc['norm_squared'])}", file=out)
    for c in doc["conditions"]:
        re, im = c["value"]
        fires = "fires" if c["fires"] else "quiet"
        print(
            f"  {c['kind']:<3} pair ({c['pair'][0]},{c['pair'][1]})  "
            f"value=({format_float(re)}, {format_float(im)})  "
            f"normalized={format_float(c['normalized_magnitude'])}  [{fires}]",
            file=out,
        )
    print(f"  verdict: {doc['verdict']}", file=out)
    if "oracle" in doc:
        o = doc["oracle"]
        tangle = "-" if o["three_tangle"] is None else format_float(o["three_tangle"])
        print(
            f"  oracle: {o['label']}"
            + (f" (split at subsystem {o['split']})" if o["split"] else "")
            + f"  three_tangle={tangle}",
            file=out,
        )
        print(f"  agreement: {doc['agreement']}", file=out)


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args, out) -> int:
    state, label = _parse_state_file(_load_json(args.file), args.file)
    tol = _resolve_tol(args.tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "tolerance": tol,
    }
    doc.update(_state_analysis(state, tol, label))
    if args.json:
        out.write(render_json(doc))
    else:
        _print_state_analysis(doc, out)
    return EXIT_OK


def _cmd_entangler(args, out) -> int:
    spec = _parse_entangler_file(_load_json(args.file), args.file)
    tol = _resolve_tol(args.tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "entangler",
        "m": spec.m,
        "N": spec.N,
        "tolerance": tol,
    }
    decomposition = phase_swap_decomposition(spec)
    doc["phase_swap"] = {
        "ordering_with_ascending_diagonal": decomposition.ordering,
        "ascending_diagonal": [_pair(z) for z in decomposition.pr_diagonal],
    }
    if args.check_ybe:
        if spec.m != 2:
            raise SchemaError("--check-ybe: requires m = 2 (the gate must act on two strands)")
        require_ybe_window(spec.N)
    r = build_r(spec) if args.check_unitary or args.check_ybe else None
    if args.check_unitary:
        unit = check_unitary(r, tol)
        doc["unitarity"] = {"max_deviation": unit.max_deviation, "passed": unit.passed}
    if args.check_ybe:
        ybe = check_ybe(r, tol)
        doc["ybe"] = {"residual": ybe.residual, "passed": ybe.passed}
    output_state = apply_entangler(spec, uniform_input(spec.m, spec.N))
    if args.apply_uniform:
        doc["uniform_output"] = {
            "dims": list(output_state.dims),
            "amplitudes": [_pair(z) for z in output_state.amps],
        }
    doc["conditions_on_coefficients"] = _state_analysis(coefficient_state(spec), tol, "COEFFICIENTS")
    doc["conditions_on_output"] = _state_analysis(output_state, tol, "OUTPUT")
    if args.json:
        out.write(render_json(doc))
    else:
        print(f"gate m={spec.m} N={spec.N}", file=out)
        print(f"phase/swap: ascending diagonal from {decomposition.ordering}", file=out)
        if "unitarity" in doc:
            u = doc["unitarity"]
            print(
                f"unitarity: deviation={format_float(u['max_deviation'])}  "
                f"{'ok' if u['passed'] else 'NOT unitary'}",
                file=out,
            )
        if "ybe" in doc:
            y = doc["ybe"]
            print(
                f"yang-baxter: residual={format_float(y['residual'])}  "
                f"{'ok' if y['passed'] else 'violated'}",
                file=out,
            )
        if "uniform_output" in doc:
            amps = ", ".join(
                f"({format_float(re)}, {format_float(im)})"
                for re, im in doc["uniform_output"]["amplitudes"]
            )
            print(f"output on uniform input: [{amps}]", file=out)
        _print_state_analysis(doc["conditions_on_coefficients"], out)
        _print_state_analysis(doc["conditions_on_output"], out)
    return EXIT_OK


def _cmd_braid(args, out) -> int:
    mat = _parse_matrix_file(_load_json(args.r_file), args.r_file)
    tol = _resolve_tol(args.tol)
    rep = StrandRep(args.strands, mat)  # the checks read R as StrandRep kept it, scanned once
    ybe = check_ybe(rep.operator, tol)
    relations = check_braid_relations(rep, tol, ybe)
    quasi = check_quasitriangular(rep.operator, tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "braid",
        "d": ybe.d,
        "strands": args.strands,
        "tolerance": tol,
        "ybe": {"residual": ybe.residual, "passed": ybe.passed},
        "braid_relations": {
            "commuting": [
                {"i": i, "j": j, "residual": r} for i, j, r in relations.commuting
            ],
            "adjacent": [{"i": i, "residual": r} for i, r in relations.adjacent],
            "max_commuting_residual": relations.max_commuting_residual,
            "max_adjacent_residual": relations.max_adjacent_residual,
            "passed": relations.passed,
        },
        "quasitriangular": {
            "residual": quasi.residual,
            "passed": quasi.passed,
            "induced_ybe_residual": quasi.induced_ybe.residual,
            "induced_ybe_passed": quasi.induced_ybe.passed,
        },
    }
    if args.json:
        out.write(render_json(doc))
    else:
        print(f"two-strand operator: d={ybe.d}, strands={args.strands}", file=out)
        print(f"yang-baxter residual: {format_float(ybe.residual)}  ({'ok' if ybe.passed else 'violated'})", file=out)
        for i, j, r in relations.commuting:
            print(f"commuting ({i},{j}): residual {format_float(r)}", file=out)
        for i, r in relations.adjacent:
            print(f"adjacent ({i},{i + 1}): residual {format_float(r)}", file=out)
        print(
            f"quasitriangular residual: {format_float(quasi.residual)}  "
            f"(induced YBE residual {format_float(quasi.induced_ybe.residual)})",
            file=out,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entangler-lab",
        description="Gate entanglers, pair-condition classification, and braid checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="evaluate pair conditions for a state file")
    p_classify.add_argument("file", help="state JSON file (dims + amplitudes)")
    p_classify.add_argument("--tol", type=float, default=None)
    p_classify.add_argument("--json", action="store_true")

    p_ent = sub.add_parser("entangler", help="build a gate from a parameter file and analyze it")
    p_ent.add_argument("file", help="gate JSON file (m, N, alpha)")
    p_ent.add_argument("--check-unitary", action="store_true")
    p_ent.add_argument("--apply-uniform", action="store_true")
    p_ent.add_argument("--check-ybe", action="store_true", help="m = 2 only")
    p_ent.add_argument("--tol", type=float, default=None)
    p_ent.add_argument("--json", action="store_true")

    p_braid = sub.add_parser("braid", help="Yang-Baxter and braid-relation residuals")
    p_braid.add_argument("--r-file", required=True, help="matrix JSON file (rows of [re, im])")
    p_braid.add_argument("--strands", type=int, required=True)
    p_braid.add_argument("--tol", type=float, default=None)
    p_braid.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"classify": _cmd_classify, "entangler": _cmd_entangler, "braid": _cmd_braid}
    try:
        return commands[args.command](args, sys.stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
