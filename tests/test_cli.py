"""Command line behavior: exit codes, payload shapes, determinism."""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from livsic.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    payload = json.loads(out) if out else None
    error = json.loads(err) if err else None
    return code, payload, error


def _example(name: str) -> str:
    return str(EXAMPLES / name)


def test_validate_reports_system_shape(capsys):
    code, payload, _ = _run_json(capsys, "validate", _example("gm-c2.json"))
    assert code == 0
    assert payload["ok"] is True
    assert payload["k"] == 2
    assert payload["aperiodic"] is True
    assert payload["group"] == {"type": "cyclic", "order": 2, "rank": None}
    assert payload["cocycle"] == {"kind": "rational", "range": 1}


def test_validate_rejects_reducible_document(capsys):
    code, payload, error = _run_json(capsys, "validate", _example("bad-reducible.json"))
    assert code == 2
    assert payload is None
    assert error["error"] == "NotIrreducible"
    assert error["witness"] == [2, 1]


def test_missing_file_and_broken_json(capsys, tmp_path):
    code, _, error = _run_json(capsys, "validate", tmp_path / "absent.json")
    assert code == 2
    assert error["error"] == "IOError"

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, error = _run_json(capsys, "validate", broken)
    assert code == 2
    assert error["error"] == "JSONDecodeError"


def test_matrix_cell_too_large_for_a_float_is_refused(capsys, tmp_path):
    doc = json.loads(Path(_example("full2-c2-halfturn.json")).read_text())
    doc["cocycle"]["values"]["2"][1][1] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, payload, error = _run_json(capsys, "validate", path)
    assert code == 2
    assert payload is None
    assert error["error"] == "DocumentError"
    assert error["pointer"] == "/cocycle/values/2/1/1"


def test_non_canonical_word_key_is_refused_with_its_pointer(capsys, tmp_path):
    doc = json.loads(Path(_example("gm-c2.json")).read_text())
    values = doc["cocycle"]["values"]
    # The word 12, its 1 written as an Arabic-Indic digit.
    values["\u0661" "2"] = values.pop("12")
    path = tmp_path / "spelled.json"
    path.write_text(json.dumps(doc))
    code, payload, error = _run_json(capsys, "validate", path)
    assert code == 2
    assert payload is None
    assert error["error"] == "DocumentError"
    assert error["pointer"] == "/cocycle/values/\u0661" "2"


def test_check_transitivity_exit_codes(capsys):
    code, payload, _ = _run_json(capsys, "check-transitivity", _example("gm-c2.json"))
    assert code == 0 and payload["status"] == "transitive"

    code, payload, _ = _run_json(
        capsys, "check-transitivity", _example("full2-z-drift.json")
    )
    assert code == 1
    assert payload["status"] == "not_transitive"
    assert payload["certificate"]["kind"] == "one_sided"

    code, payload, _ = _run_json(capsys, "check-transitivity", _example("full2-z.json"))
    assert code == 1
    assert payload["status"] == "unknown"
    assert payload["evidence"]["heuristic_transitive"] is True


def test_orbits_listing(capsys):
    code, payload, _ = _run_json(
        capsys, "orbits", _example("gm-c2.json"), "--max-period", "3"
    )
    assert code == 0
    assert payload["count"] == 3
    words = [entry["word"] for entry in payload["orbits"]]
    assert words == ["1", "12", "112"]

    code, payload, _ = _run_json(
        capsys,
        "orbits",
        _example("gm-c2.json"),
        "--max-period",
        "3",
        "--trivial-only",
    )
    assert code == 0
    assert payload["count"] == 1
    assert payload["orbits"][0]["word"] == "112"
    assert payload["orbits"][0]["class"] == {"trivial": True, "members": ["e"]}


def test_verify_vanishing(capsys):
    code, payload, _ = _run_json(
        capsys, "verify-vanishing", _example("full2-z.json"), "--max-period", "6"
    )
    assert code == 0
    assert payload == {"holds": True, "max_period": 6}

    code, payload, _ = _run_json(
        capsys,
        "verify-vanishing",
        _example("full2-z-perturbed.json"),
        "--max-period",
        "6",
    )
    assert code == 1
    assert payload["holds"] is False
    assert payload["witness"] == {
        "kind": "orbit",
        "orbit": "1122",
        "multiplicity": 1,
        "word": "1122",
        "sum": "1/2",
    }


def test_verify_vanishing_needs_rational_cocycle(capsys):
    code, _, error = _run_json(
        capsys,
        "verify-vanishing",
        _example("full2-c2-halfturn.json"),
        "--max-period",
        "4",
    )
    assert code == 2
    assert error["error"] == "DocumentError"
    assert error["pointer"] == "/cocycle"


def test_solve_rational_document(capsys):
    code, payload, _ = _run_json(capsys, "solve", _example("full2-z.json"))
    assert code == 0
    assert payload["kind"] == "rational"
    assert payload["alpha"] == ["1/2"]
    assert payload["u"] == {"1": "0", "2": "1"}
    assert payload["alpha_is_zero"] is False
    assert payload["certification"]["certified"] is True
    assert payload["provenance"]["tool"] == "livsic"

    code, payload, _ = _run_json(capsys, "solve", _example("full2-z-perturbed.json"))
    assert code == 1
    assert payload["solvable"] is False
    assert payload["witness"]["orbit"] == "1122"
    assert payload["witness"]["sum"] == "1/2"


def test_solve_matrix_documents(capsys):
    code, payload, _ = _run_json(capsys, "solve", _example("full2-c2-halfturn.json"))
    assert code == 0
    assert payload["kind"] == "matrix"
    assert payload["alpha"]["g"] == [[-1.0, 0.0], [0.0, -1.0]]
    assert payload["certification"]["certified"] is True

    code, payload, _ = _run_json(capsys, "solve", _example("full2-c2-quarterturn.json"))
    assert code == 1
    assert payload["solvable"] is False
    witness = payload["witness"]
    assert witness["orbit"] == "1"
    assert witness["multiplicity"] == 2
    assert witness["deviation"] == pytest.approx(2.8284271247461903)


def test_solve_reports_a_deck_factor_that_differs_between_fibers(capsys, tmp_path):
    # The cocycle of test_matrix.test_deck_factor_not_constant_over_fibers:
    # every edge closes, but the fibers over block 2 read G F G^-1, not F.
    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    f_mat = [[c, -s], [s, c]]
    g_mat, g_inv = [[2.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 2.0]]
    f_g_inv = [[sum(f_mat[i][t] * g_inv[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    doc = {
        "sft": {"k": 2, "transition": [[1, 1], [1, 1]]},
        "group": {"type": "cyclic", "payload": {"order": 3}},
        "psi": ["g", "e"],
        "cocycle": {
            "kind": "matrix",
            "dim": 2,
            "range": 1,
            "values": {"11": f_mat, "12": g_mat, "21": f_g_inv, "22": [[1.0, 0.0], [0.0, 1.0]]},
        },
    }
    path = tmp_path / "deck-factor.json"
    path.write_text(json.dumps(doc))
    code, payload, error = _run_json(capsys, "solve", path)
    assert code == 1 and error is None
    assert sorted(payload) == ["reason", "solvable", "witness"]
    assert payload["solvable"] is False
    assert payload["reason"] == "alpha_not_constant"
    witness = payload["witness"]
    assert sorted(witness) == ["block", "deviation", "eta", "gamma"]
    assert (witness["block"], witness["eta"]) == ("2", "e")
    assert witness["gamma"] in ("g", "g^2")
    # G F G^-1 - F has off-diagonal entries -3 s and -3 s / 4.
    assert witness["deviation"] == pytest.approx(3.0 * s * math.sqrt(17.0) / 4.0, rel=1e-12)


def test_solve_without_cocycle(capsys, tmp_path):
    doc = json.loads((EXAMPLES / "gm-c2.json").read_text())
    del doc["cocycle"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    code, _, error = _run_json(capsys, "solve", path)
    assert code == 2
    assert error["pointer"] == "/cocycle"


def test_solve_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "solution.json"
    code, stdout, _ = _run(capsys, "solve", _example("full2-z.json"), "--out", out)
    assert code == 0
    assert out.read_text() == stdout


def test_verify_solution_roundtrip_and_tamper(capsys, tmp_path):
    out = tmp_path / "solution.json"
    code, _, _ = _run(capsys, "solve", _example("full2-z.json"), "--out", out)
    assert code == 0

    code, payload, _ = _run_json(
        capsys, "verify-solution", _example("full2-z.json"), "--solution", out
    )
    assert code == 0
    assert payload["certified"] is True
    assert payload["failures"] == []

    doc = json.loads(out.read_text())
    doc["u"]["2"] = "7/3"
    out.write_text(json.dumps(doc))
    code, payload, _ = _run_json(
        capsys, "verify-solution", _example("full2-z.json"), "--solution", out
    )
    assert code == 1
    assert payload["certified"] is False
    assert payload["failures"]
    for failure in payload["failures"]:
        assert failure["residual"] != "0"


def _drop_a_block(doc):
    del doc["u"][min(doc["u"])]


def _drop_an_element(doc):
    del doc["alpha"]["g"]


def _other_alphabet(doc):
    doc["k"] += 1


def _other_dim(doc):
    # Every matrix gains a trailing identity block, so the document parses.
    n = doc["dim"]
    doc["dim"] = n + 1
    for table in (doc["u"], doc["alpha"]):
        for key, mat in table.items():
            table[key] = [row + [0.0] for row in mat] + [[0.0] * n + [1.0]]


@pytest.mark.parametrize(
    "example, tamper",
    [
        ("full2-z.json", _drop_a_block),
        ("gm-c2.json", _drop_a_block),
        ("full2-c2-halfturn.json", _drop_a_block),
        ("full2-c2-halfturn.json", _drop_an_element),
        ("full2-z.json", _other_alphabet),
        ("full2-c2-halfturn.json", _other_alphabet),
        ("full2-c2-halfturn.json", _other_dim),
    ],
)
def test_verify_solution_refuses_a_malformed_solution(capsys, tmp_path, example, tamper):
    out = tmp_path / "solution.json"
    assert _run(capsys, "solve", _example(example), "--out", out)[0] == 0
    doc = json.loads(out.read_text())
    tamper(doc)
    out.write_text(json.dumps(doc))
    code, payload, error = _run_json(
        capsys, "verify-solution", _example(example), "--solution", out
    )
    assert code == 2
    assert payload is None
    assert error["error"] == "DimensionMismatch"


def test_verify_matrix_solution_roundtrip(capsys, tmp_path):
    out = tmp_path / "matrix-solution.json"
    code, _, _ = _run(
        capsys, "solve", _example("full2-c2-halfturn.json"), "--out", out
    )
    assert code == 0
    code, payload, _ = _run_json(
        capsys,
        "verify-solution",
        _example("full2-c2-halfturn.json"),
        "--solution",
        out,
    )
    assert code == 0
    assert payload["certified"] is True
    assert payload["hom_defect"] == 0.0
    assert payload["centrality_defect"] == 0.0

    # A tampered u with a loose stated tolerance must not pass: the recheck
    # tolerance comes from the caller, never from the document under test.
    doc = json.loads(out.read_text())
    doc["u"]["2"] = [[2.05, 0.0], [0.0, 1.0]]
    doc["tolerance"] = 1e6
    doc["certification"]["tolerance"] = 1e6
    out.write_text(json.dumps(doc))
    code, payload, _ = _run_json(
        capsys,
        "verify-solution",
        _example("full2-c2-halfturn.json"),
        "--solution",
        out,
    )
    assert code == 1
    assert payload["certified"] is False
    assert payload["max_residual"] == pytest.approx(1.05)
    assert payload["tolerance"] < 1e-7



def test_verify_matrix_solution_inverts_u_once(capsys, tmp_path, monkeypatch):
    import livsic.matrix as matrix

    out = tmp_path / "matrix-solution.json"
    assert _run(capsys, "solve", _example("full2-c2-halfturn.json"), "--out", out)[0] == 0
    calls = []
    checked_inverse = matrix._checked_inverse

    def counted(mat, context, labels=None):
        calls.append((context, mat.shape))
        return checked_inverse(mat, context, labels)

    monkeypatch.setattr(matrix, "_checked_inverse", counted)
    args = ("verify-solution", _example("full2-c2-halfturn.json"), "--solution", out)
    code, payload, _ = _run_json(capsys, *args)
    assert code == 0 and payload["certified"] is True
    assert [c for c in calls if c[0] == "u"] == [("u", (2, 2, 2))]

    # The stacked inversion still names the singular block.
    doc = json.loads(out.read_text())
    doc["u"]["2"] = [[1.0, 2.0], [0.5, 1.0]]
    out.write_text(json.dumps(doc))
    code, _, error = _run_json(capsys, *args)
    assert code == 2
    assert error["error"] == "SingularMatrix"
    assert error["message"].startswith("u at (2,): determinant")


@pytest.mark.parametrize(
    "command, example, flag, value",
    [
        ("check-distortion", "full2-diag-sl2.json", "--theta", "nan"),
        ("check-distortion", "full2-diag-sl2.json", "--theta", "inf"),
        ("solve", "full2-c2-halfturn.json", "--tol", "inf"),
        ("solve", "full2-c2-halfturn.json", "--tol", "nan"),
        ("solve", "full2-c2-halfturn.json", "--tol", "-1"),
        ("verify-solution", "full2-c2-halfturn.json", "--tol", "nan"),
        ("verify-solution", "full2-c2-halfturn.json", "--tol", "-0.5"),
        ("orbits", "gm-c2.json", "--max-period", "0"),
        ("orbits", "gm-c2.json", "--max-period", "-1"),
        ("verify-vanishing", "full2-z-perturbed.json", "--max-period", "0"),
        ("verify-vanishing", "full2-z-perturbed.json", "--max-period", "-1"),
    ],
)
def test_non_finite_or_negative_flags_are_refused(
    capsys, tmp_path, command, example, flag, value
):
    extra = []
    if command == "verify-solution":
        out = tmp_path / "solution.json"
        assert _run(capsys, "solve", _example(example), "--out", out)[0] == 0
        extra = ["--solution", out]
    code, payload, error = _run_json(
        capsys, command, _example(example), *extra, flag, value
    )
    assert code == 2
    assert payload is None
    assert error["error"] == "BadShape"
    assert flag in error["message"]


@pytest.mark.parametrize(
    "variable, value",
    [
        ("LIVSIC_MAX_PERIOD", "abc"),
        ("LIVSIC_MAX_PERIOD", "0"),
        ("LIVSIC_MAX_PERIOD", "2.5"),
        ("LIVSIC_MAX_STATES", "0"),
        ("LIVSIC_MAX_STATES", "-3"),
        ("LIVSIC_MAX_STATES", ""),
    ],
)
def test_malformed_cap_variable_is_refused(capsys, monkeypatch, variable, value):
    monkeypatch.setenv(variable, value)
    code, payload, error = _run_json(
        capsys, "orbits", _example("gm-c2.json"), "--max-period", "3"
    )
    assert code == 2
    assert payload is None
    assert error["error"] == "BadShape"
    assert variable in error["message"]


def test_generate_reproduces_committed_document(capsys):
    code, stdout, _ = _run(
        capsys,
        "generate",
        _example("full2-z.json"),
        "--u",
        _example("u-table.json"),
        "--alpha",
        "1/2",
    )
    assert code == 0
    assert stdout == (EXAMPLES / "full2-z.json").read_text()


def test_generate_random_requires_seed(capsys):
    code, _, error = _run_json(
        capsys, "generate", _example("full2-z.json"), "--random"
    )
    assert code == 2
    assert error["error"] == "InvalidCocycle"


def test_distortion_payloads(capsys):
    code, payload, _ = _run_json(
        capsys, "distortion", _example("full2-diag-sl2.json"), "--depth", "4"
    )
    assert code == 0
    assert payload["algebra_dim"] == 3
    assert payload["mu_s"] == pytest.approx(4.0)
    assert payload["theta_threshold"] == pytest.approx(2.0)
    assert len(payload["mu_s_by_n"]) == 4

    code, payload, _ = _run_json(
        capsys,
        "distortion",
        _example("full2-diag-sl2.json"),
        "--depth",
        "4",
        "--ambient",
    )
    assert code == 0
    assert payload["algebra_dim"] == 4


@pytest.mark.parametrize(
    "text, pointer",
    [
        ('[[["x", "1"], ["0", "1"]]]', "/0/0/0"),
        ("[[[1e400, 0], [0, 1]]]", "/0/0/0"),
        ("[[[1, 0]]]", "/0"),
        ('{"0": [[1, 0], [0, 1]]}', "/"),
        ("[]", "/"),
    ],
)
def test_distortion_refuses_a_malformed_algebra_file(capsys, tmp_path, text, pointer):
    # The basis file goes through the document reader, so every fault is
    # named by a pointer into the file.
    basis = tmp_path / "basis.json"
    basis.write_text(text)
    code, payload, error = _run_json(
        capsys, "distortion", _example("full2-diag-sl2.json"), "--depth", "2",
        "--algebra", basis,
    )
    assert code == 2
    assert payload is None
    assert error["error"] == "DocumentError"
    assert error["pointer"] == pointer


def test_matrix_solution_block_of_the_wrong_length_is_refused(capsys, tmp_path):
    out = tmp_path / "solution.json"
    assert _run(capsys, "solve", _example("full2-c2-halfturn.json"), "--out", out)[0] == 0
    doc = json.loads(out.read_text())
    doc["u"]["12"] = doc["u"]["1"]
    out.write_text(json.dumps(doc))
    code, payload, error = _run_json(
        capsys, "verify-solution", _example("full2-c2-halfturn.json"), "--solution", out
    )
    assert code == 2
    assert payload is None
    assert error["error"] == "DocumentError"
    assert error["pointer"] == "/u/12"


def test_generate_refuses_a_u_file_that_is_not_an_object(capsys, tmp_path):
    u_file = tmp_path / "u.json"
    u_file.write_text("[1, 2]")
    code, payload, error = _run_json(
        capsys, "generate", _example("full2-z.json"), "--u", u_file
    )
    assert code == 2
    assert payload is None
    assert error["error"] == "DocumentError"
    assert error["pointer"] == "/"


def test_check_distortion_exit_codes(capsys):
    code, payload, _ = _run_json(
        capsys,
        "check-distortion",
        _example("full2-diag-sl2.json"),
        "--theta",
        "3",
        "--depth",
        "4",
    )
    assert code == 0
    assert payload["status"] == "satisfied"

    code, payload, _ = _run_json(
        capsys,
        "check-distortion",
        _example("full2-diag-sl2.json"),
        "--theta",
        "2",
        "--depth",
        "4",
    )
    assert code == 1
    assert payload["status"] == "violated"


def test_stdout_is_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        _, stdout, _ = _run(capsys, "solve", _example("full3-z2.json"))
        outputs.add(stdout)
    assert len(outputs) == 1
