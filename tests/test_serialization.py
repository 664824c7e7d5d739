"""Canonical JSON documents: byte-stable roundtrips and pointer errors."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from livsic import (
    DocumentError,
    NotIrreducible,
    canonical_json,
    parse_solution_document,
    parse_system_document,
    solution_to_doc,
    solve_finite_gamma,
    solve_free_abelian,
    solve_matrix_finite,
    system_to_doc,
)
from livsic.serialization import (
    SolutionEnvelope,
    _plain,
    error_doc,
    make_provenance,
    parse_rational,
    parse_word_key,
    transitivity_doc,
    word_to_key,
)
from livsic.skew import check_transitivity

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
AUXILIARY = {"bad-reducible.json", "u-table.json", "so2-basis.json"}


def _system_doc_paths():
    return sorted(p for p in EXAMPLES.glob("*.json") if p.name not in AUXILIARY)


def _load(name: str):
    return json.loads((EXAMPLES / name).read_text())


@pytest.mark.parametrize("path", _system_doc_paths(), ids=lambda p: p.name)
def test_system_documents_roundtrip_bytes(path):
    text = path.read_text()
    env = parse_system_document(json.loads(text))
    assert canonical_json(system_to_doc(env)) == text


def test_canonical_json_is_stable_and_strict():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert canonical_json(json.loads(text)) == text
    with pytest.raises(ValueError):
        canonical_json({"x": math.inf})


def test_word_keys_both_regimes():
    assert word_to_key((1, 2), 2) == "12"
    assert word_to_key((1, 12), 12) == "1,12"
    assert parse_word_key("12", 2, "/u/12") == (1, 2)
    assert parse_word_key("1,12", 12, "/u") == (1, 12)
    with pytest.raises(DocumentError):
        parse_word_key("13", 2, "/u/13")
    with pytest.raises(DocumentError):
        parse_word_key("", 2, "/u/")


def test_parse_rational_rejects_floats_and_booleans():
    assert parse_rational(3, "/x") == Fraction(3)
    assert parse_rational("7/2", "/x") == Fraction(7, 2)
    for bad in (0.5, True, "x", "1/0", None):
        with pytest.raises(DocumentError):
            parse_rational(bad, "/x")


def test_rational_solution_document_roundtrip():
    env = parse_system_document(_load("full2-z.json"))
    solution = solve_free_abelian(env.system, env.cocycle)
    envelope = SolutionEnvelope(
        kind="rational",
        k=env.system.sft.k,
        solution=solution,
        provenance=make_provenance("livsic solve full2-z.json"),
    )
    text = canonical_json(solution_to_doc(envelope))
    parsed = parse_solution_document(json.loads(text))
    assert parsed.kind == "rational"
    assert parsed.solution.u == solution.u
    assert parsed.solution.alpha == solution.alpha
    again = SolutionEnvelope(
        kind=parsed.kind,
        k=parsed.k,
        solution=parsed.solution,
        provenance=parsed.provenance,
    )
    assert canonical_json(solution_to_doc(again)) == text


def test_degenerate_report_survives_roundtrip():
    env = parse_system_document(_load("gm-c2.json"))
    solution = solve_finite_gamma(env.system, env.cocycle)
    envelope = SolutionEnvelope(
        kind="rational",
        k=2,
        solution=solution,
        provenance=make_provenance("livsic solve gm-c2.json"),
    )
    doc = solution_to_doc(envelope)
    assert doc["alpha"] is None
    assert doc["alpha_is_zero"] is True
    parsed = parse_solution_document(doc)
    assert parsed.solution.alpha is None
    assert parsed.solution.certificate.certified


def test_matrix_solution_document_roundtrip():
    env = parse_system_document(_load("full2-c2-halfturn.json"))
    solution = solve_matrix_finite(env.system, env.cocycle)
    envelope = SolutionEnvelope(
        kind="matrix",
        k=2,
        solution=solution,
        provenance=make_provenance("livsic solve full2-c2-halfturn.json"),
    )
    text = canonical_json(solution_to_doc(envelope))
    parsed = parse_solution_document(json.loads(text))
    assert parsed.kind == "matrix"
    assert set(parsed.solution.alpha) == {"e", "g"}
    again = SolutionEnvelope(
        kind=parsed.kind,
        k=parsed.k,
        solution=parsed.solution,
        provenance=parsed.provenance,
    )
    assert canonical_json(solution_to_doc(again)) == text


def _base_doc():
    return _load("full2-z.json")


def _pointer_of(doc) -> str:
    with pytest.raises(DocumentError) as err:
        parse_system_document(doc)
    return err.value.pointer


def test_document_error_pointers():
    doc = _base_doc()
    del doc["sft"]
    assert _pointer_of(doc) == "/sft"

    doc = _base_doc()
    doc["sft"]["transition"][0][1] = 2
    assert _pointer_of(doc) == "/sft/transition/0/1"

    doc = _base_doc()
    doc["group"]["type"] = "dihedral"
    assert _pointer_of(doc) == "/group/type"

    doc = _base_doc()
    doc["group"] = {"type": "cyclic", "payload": {"order": 0}}
    assert _pointer_of(doc) == "/group/payload/order"

    doc = _base_doc()
    doc["psi"][1] = [1, 2]
    assert _pointer_of(doc) == "/psi/1"

    doc = _base_doc()
    doc["cocycle"]["values"]["11"] = 0.5
    assert _pointer_of(doc) == "/cocycle/values/11"

    doc = _base_doc()
    del doc["cocycle"]["values"]["11"]
    assert _pointer_of(doc) == "/cocycle/values"

    doc = _base_doc()
    doc["cocycle"]["kind"] = "quaternionic"
    assert _pointer_of(doc) == "/cocycle/kind"


def test_finite_psi_requires_known_names():
    doc = _load("gm-c2.json")
    doc["psi"][0] = "h"
    assert _pointer_of(doc) == "/psi/0"


def test_semantic_errors_are_not_document_errors():
    doc = _load("bad-reducible.json")
    with pytest.raises(NotIrreducible) as err:
        parse_system_document(doc)
    assert err.value.witness == (2, 1)


def test_solution_document_error_pointers():
    with pytest.raises(DocumentError) as err:
        parse_solution_document({"kind": "splines"})
    assert err.value.pointer == "/k"

    base = {
        "kind": "rational",
        "k": 2,
        "block_length": 1,
        "u": {"112": "0"},
        "alpha": None,
        "provenance": make_provenance("test"),
    }
    with pytest.raises(DocumentError) as err:
        parse_solution_document(base)
    assert err.value.pointer == "/u/112"


def test_error_doc_payloads():
    doc = _load("bad-reducible.json")
    with pytest.raises(NotIrreducible) as err:
        parse_system_document(doc)
    payload = error_doc(err.value)
    assert payload["error"] == "NotIrreducible"
    assert payload["witness"] == [2, 1]

    pointer_err = DocumentError("/sft/k", "expected an integer")
    payload = error_doc(pointer_err)
    assert payload["pointer"] == "/sft/k"
    assert "expected an integer" in payload["message"]


def test_plain_maps_arrays_scalars_and_fractions():
    # numpy scalars have tolist too; only arrays (ndim > 0) become lists.
    scalar = _plain(np.float64(0.5))
    assert isinstance(scalar, float) and scalar == 0.5
    matrix = _plain(np.array([[1.0, -0.25], [0.0, 2.0]]))
    assert matrix == [[1.0, -0.25], [0.0, 2.0]]
    assert all(type(x) is float for row in matrix for x in row)
    assert _plain((Fraction(1, 2), Fraction(-3))) == ["1/2", "-3"]
    witness = ((1, 2), "e", "g", np.float64(0.5), np.eye(2))
    assert canonical_json(_plain(witness)) == canonical_json(
        [[1, 2], "e", "g", 0.5, [[1.0, 0.0], [0.0, 1.0]]]
    )


def test_transitivity_doc_shapes():
    env = parse_system_document(_load("full2-z-drift.json"))
    verdict = check_transitivity(env.system)
    doc = transitivity_doc(verdict, env.system.sft.k)
    assert doc["status"] == "not_transitive"
    assert doc["certificate"]["kind"] == "one_sided"
    assert doc["evidence"]["probe_covers_simple_cycles"] is True

    env2 = parse_system_document(_load("gm-c2.json"))
    doc2 = transitivity_doc(check_transitivity(env2.system), 2)
    assert doc2 == {"status": "transitive"}
