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
from livsic.abelian import DegenerateReport, EqualWeightPair, VerificationReport
from livsic.matrix import MatrixVerificationReport
from livsic.serialization import (
    _READERS,
    SolutionEnvelope,
    _plain,
    error_doc,
    fields_doc,
    fields_from_doc,
    make_provenance,
    parse_rational,
    parse_word_key,
    transitivity_doc,
    word_table,
    word_to_key,
)
from livsic.skew import NonTransitivityCertificate, check_transitivity

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
AUXILIARY = {
    "bad-reducible.json", "u-table.json", "so2-basis.json",
    "full2-z.solution.json", "full2-c2-halfturn.solution.json",
}


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


def test_word_keys_are_read_only_in_their_canonical_spelling():
    # int() would read each of these as a spelling of the word (1, 2).
    for key, k in (("01,2", 10), (" 1,2", 10), ("+1,2", 10), ("1, 2", 10), ("\u0661" "2", 2)):
        with pytest.raises(DocumentError, match="not canonical") as err:
            parse_word_key(key, k, f"/values/{key}")
        assert err.value.pointer == f"/values/{key}"
    # So a table cannot hold two spellings of one word.
    with pytest.raises(DocumentError) as err:
        word_table({"1,2": "1", "01,2": "5"}, 10, "/values", parse_rational)
    assert err.value.pointer == "/values/01,2"
    assert word_table({"1,2": "1", "2,1": "5"}, 10, "/values", parse_rational) == {
        (1, 2): Fraction(1),
        (2, 1): Fraction(5),
    }


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

    # A matrix cell too large for a float, as an int or a rational string.
    for bad in (10**400, "1e400"):
        doc = _load("full2-c2-halfturn.json")
        doc["cocycle"]["values"]["1"][0][1] = bad
        assert _pointer_of(doc) == "/cocycle/values/1/0/1"


def test_finite_table_group_roundtrips_and_needs_its_full_name():
    doc = _load("gm-c2.json")
    doc["group"] = {
        "type": "finite_table",
        "payload": {"names": ["e", "g"], "table": [["e", "g"], ["g", "e"]]},
    }
    text = canonical_json(doc)
    env = parse_system_document(json.loads(text))
    assert env.system.group.order == 2
    assert canonical_json(system_to_doc(env)) == text
    # A cell that is no name, even one that cannot be hashed, is refused
    # with its pointer.
    doc["group"]["payload"]["table"][1][0] = ["g"]
    assert _pointer_of(doc) == "/group/payload/table/1/0"
    doc["group"]["type"] = "table"
    assert _pointer_of(doc) == "/group/type"


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

    # Numbers and integer lists of a well-formed document, one at a time
    # replaced by a value of the wrong type, fail at their own pointer.
    rational = dict(base, u={"1": "0", "2": "1/2"}, alpha=["1"])
    rational["degenerate"] = {
        "lattice_rank": 0, "lattice_diagonal": [], "pinned_coordinates": [0]
    }
    rational["certification"] = {
        "certified": True, "edges_checked": 4, "max_residual": "0", "tolerance": None
    }
    cert = {"certified": True, "edges_checked": 4, "max_residual": 0.0}
    cert.update(hom_defect=0.0, centrality_defect=0.0, tolerance=1e-9)
    matrix = {
        "kind": "matrix",
        "k": 2,
        "block_length": 1,
        "dim": 1,
        "u": {"1": [[1.0]], "2": [[2.0]]},
        "alpha": {"e": [[1.0]]},
        "alpha_constancy_defect": 0.0,
        "max_residual": 0.0,
        "tolerance": 1e-9,
        "certification": cert,
        "provenance": make_provenance("test"),
    }
    numbers = [
        ("certification", "max_residual"),
        ("certification", "hom_defect"),
        ("certification", "centrality_defect"),
        ("certification", "tolerance"),
        ("alpha_constancy_defect",),
        ("max_residual",),
        ("tolerance",),
    ]
    lists = [("degenerate", "lattice_diagonal"), ("degenerate", "pinned_coordinates")]
    cells = [("u", "2", "0", "0"), ("alpha", "e", "0", "0")]
    cases = [
        (matrix, path, bad)
        for path in numbers
        for bad in ("0.5", [0.5], None, True, math.inf, 10**400)
    ]
    cases += [(rational, path, bad) for path in lists for bad in ("0", 3, None, {"0": 1})]
    cases += [(matrix, path, bad) for path in cells for bad in (10**400, "1e400")]
    cases += [
        (good, ("certification", "certified"), bad)
        for good in (rational, matrix)
        for bad in ("false", 0, None)
    ]
    for good, path, bad in cases:
        parse_solution_document(good)
        doc = json.loads(json.dumps(good))
        parent = doc
        for key in path[:-1]:
            parent = parent[int(key) if isinstance(parent, list) else key]
        parent[int(path[-1]) if isinstance(parent, list) else path[-1]] = bad
        with pytest.raises(DocumentError) as err:
            parse_solution_document(doc)
        assert err.value.pointer == "/" + "/".join(path), (path, bad)
    doc = json.loads(json.dumps(rational))
    doc["degenerate"]["pinned_coordinates"] = [0, "1"]
    with pytest.raises(DocumentError) as err:
        parse_solution_document(doc)
    assert err.value.pointer == "/degenerate/pinned_coordinates/1"


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


# Each record read back with fields_from_doc, with its key renames and
# the fields its parser supplies rather than reads.
READ_BACK = [
    (DegenerateReport(lattice_rank=1, lattice_diagonal=(2,), pinned_coordinates=(0, 3)), None, {}),
    (VerificationReport(certified=False, edges_checked=4, failures=()), None, {"failures": ()}),
    (
        MatrixVerificationReport(
            certified=True, edges_checked=4, max_residual=0.5, hom_defect=0.0,
            centrality_defect=1e-12, tol=2e-8,
        ),
        {"tol": "tolerance"},
        {},
    ),
]


@pytest.mark.parametrize(
    "record, rename, extra", READ_BACK, ids=[type(case[0]).__name__ for case in READ_BACK]
)
def test_field_walk_reads_back_what_it_writes(record, rename, extra):
    cls = type(record)
    # A field type without a reader fails here, not on a user's document.
    unread = {name: annotation for name, annotation in cls.__annotations__.items()
              if name not in extra and annotation not in _READERS}
    assert unread == {}
    doc = json.loads(canonical_json(fields_doc(record, 2, rename)))
    assert fields_from_doc(cls, doc, "", rename, **extra) == record


def test_field_walk_writes_words_as_keys_and_drops_none():
    pair = EqualWeightPair(
        word_a=(1, 2), word_b=(1, 11), weight=(2, -1), sum_a=Fraction(0), sum_b=Fraction(2, 3)
    )
    assert fields_doc(pair, 11) == {
        "word_a": "1,2", "word_b": "1,11", "weight": [2, -1], "sum_a": "0", "sum_b": "2/3"
    }
    cert = NonTransitivityCertificate(kind="one_sided", functional=(1, -2))
    assert fields_doc(cert, 2, {"kind": "type"}, k=2) == {
        "type": "one_sided", "functional": [1, -2], "k": 2
    }
