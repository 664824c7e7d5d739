"""JSON document model shared by the command line tool and the tests.

All output is canonical: sorted keys, two-space indent, rationals as
"p/q" strings in lowest terms, words as digit strings (comma-separated
once the alphabet passes nine symbols), and no timestamps.  Identical
inputs therefore serialize to identical bytes, which the golden-file
tests rely on.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BadShape, DocumentError, LivsicError
from .groups import Group, GroupSpec, build_group
from .record import record
from .sft import LocallyConstantCocycle, SftSpec, make_cocycle, validate_sft
from .skew import (
    FrobeniusClassTag,
    SkewSystem,
    TransitivityVerdict,
    make_skew_system,
)

# The solver layer is imported only by the solution parser, and the
# matrix layer, with numpy, only by the branches that handle matrix
# documents, so commands that solve nothing load neither.
if TYPE_CHECKING:
    from .abelian import CohomologySolution, EqualWeightPair, ViolationWitness
    from .matrix import MatrixCocycle, MatrixSolution, MatrixViolationWitness

TOOL_NAME = "livsic"
TOOL_VERSION = "0.1.0"

Word = tuple[int, ...]


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def fraction_to_str(x) -> str:
    return str(Fraction(x))


def word_to_key(word, k: int) -> str:
    sep = "" if k <= 9 else ","
    return sep.join(str(s) for s in word)


def _fail(pointer: str, reason: str):
    raise DocumentError(pointer, reason)


def _get(doc, key: str, pointer: str):
    if not isinstance(doc, dict):
        _fail(pointer, "expected an object")
    if key not in doc:
        _fail(f"{pointer}/{key}", "missing field")
    return doc[key]


def _as_int(value, pointer: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(pointer, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(pointer, f"must be at least {minimum}")
    return value


def _get_int_list(doc, key: str, pointer: str) -> tuple[int, ...]:
    raw = _get(doc, key, pointer)
    if not isinstance(raw, list):
        _fail(f"{pointer}/{key}", "expected a list of integers")
    return tuple(_as_int(x, f"{pointer}/{key}/{i}") for i, x in enumerate(raw))


def _get_number(doc, key: str, pointer: str, default: float | None = None) -> float:
    """doc[key] as a finite float; a missing key reads as default if one is given."""
    value = _get(doc, key, pointer) if default is None else doc.get(key, default)
    return _as_finite_float(value, f"{pointer}/{key}")


def _as_finite_float(value, pointer: str) -> float:
    """A JSON number or parsed rational as a finite float.  NaN fails the
    comparison, and so does an int or Fraction too large for a float,
    where float() would raise OverflowError."""
    number = isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        _fail(pointer, "expected a finite number")
    return float(value)


def parse_rational(value, pointer: str) -> Fraction:
    """Exact pipelines reject JSON floats; integers and strings are fine."""
    if isinstance(value, bool):
        _fail(pointer, "expected a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(pointer, f"not a rational: {value!r}")
    _fail(pointer, "expected a rational string")
    raise AssertionError  # unreachable


def parse_word_key(key: str, k: int, pointer: str) -> Word:
    try:
        if k <= 9:
            word = tuple(int(c) for c in key)
        else:
            word = tuple(int(part) for part in key.split(","))
    except ValueError:
        word = ()
    if not word:
        _fail(pointer, f"bad word key {key!r}")
    if any(s < 1 or s > k for s in word):
        _fail(pointer, f"symbol out of range in word key {key!r}")
    return word


# ---------------------------------------------------------------------------
# System documents.


@record
class SystemEnvelope:
    """Parsed system document: the live objects plus a canonical group block."""

    system: SkewSystem
    cocycle: LocallyConstantCocycle | MatrixCocycle | None
    group_doc: dict


def parse_group(doc, pointer: str) -> tuple[Group, dict]:
    gtype = _get(doc, "type", pointer)
    payload = _get(doc, "payload", pointer)
    pp = f"{pointer}/payload"
    if gtype == "cyclic":
        order = _as_int(_get(payload, "order", pp), f"{pp}/order", minimum=1)
        spec = GroupSpec.cyclic(order)
        canon = {"type": "cyclic", "payload": {"order": order}}
    elif gtype == "free_abelian":
        rank = _as_int(_get(payload, "rank", pp), f"{pp}/rank", minimum=1)
        spec = GroupSpec.free_abelian(rank)
        canon = {"type": "free_abelian", "payload": {"rank": rank}}
    elif gtype == "finite_table":
        names = _get(payload, "names", pp)
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            _fail(f"{pp}/names", "expected a list of element names")
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            _fail(f"{pp}/names", "element names are not distinct")
        table_doc = _get(payload, "table", pp)
        if not isinstance(table_doc, list) or len(table_doc) != len(names):
            _fail(f"{pp}/table", f"expected {len(names)} rows")
        rows = []
        for i, row in enumerate(table_doc):
            if not isinstance(row, list) or len(row) != len(names):
                _fail(f"{pp}/table/{i}", f"expected {len(names)} entries")
            out_row = []
            for j, cell in enumerate(row):
                if cell not in index:
                    _fail(f"{pp}/table/{i}/{j}", f"unknown element {cell!r}")
                out_row.append(index[cell])
            rows.append(out_row)
        spec = GroupSpec.finite_table(names, rows)
        canon = {
            "type": "finite_table",
            "payload": {"names": list(names), "table": [list(r) for r in table_doc]},
        }
    elif gtype == "permutation":
        degree = _as_int(_get(payload, "degree", pp), f"{pp}/degree", minimum=1)
        gens_doc = _get(payload, "generators", pp)
        if not isinstance(gens_doc, list) or not gens_doc:
            _fail(f"{pp}/generators", "expected a nonempty list")
        gens = []
        for i, gen in enumerate(gens_doc):
            if not isinstance(gen, list) or len(gen) != degree:
                _fail(f"{pp}/generators/{i}", f"expected {degree} images")
            gens.append(tuple(_as_int(x, f"{pp}/generators/{i}") for x in gen))
        names = payload.get("names")
        if names is not None and (
            not isinstance(names, list)
            or len(names) != len(gens)
            or not all(isinstance(x, str) for x in names)
        ):
            _fail(f"{pp}/names", "expected one name per generator")
        spec = GroupSpec.permutation(degree, gens, names)
        canon = {
            "type": "permutation",
            "payload": {
                "degree": degree,
                "generators": [list(g) for g in gens],
                "names": list(spec.generator_names),
            },
        }
    else:
        _fail(f"{pointer}/type", f"unknown group type {gtype!r}")
        raise AssertionError  # unreachable
    return build_group(spec), canon


def _parse_psi(doc, group: Group, k: int, pointer: str) -> list:
    if not isinstance(doc, list) or len(doc) != k:
        _fail(pointer, f"psi must list one entry per symbol ({k})")
    out = []
    if group.is_finite:
        for i, name in enumerate(doc):
            if not isinstance(name, str):
                _fail(f"{pointer}/{i}", "expected an element name")
            try:
                out.append(group.element_by_name(name))
            except BadShape:
                _fail(f"{pointer}/{i}", f"unknown element {name!r}")
    else:
        for i, vec in enumerate(doc):
            if not isinstance(vec, list) or len(vec) != group.rank:
                _fail(f"{pointer}/{i}", f"expected an integer vector of length {group.rank}")
            out.append(tuple(_as_int(x, f"{pointer}/{i}") for x in vec))
    return out


def parse_cocycle(doc, sft: SftSpec, pointer: str):
    kind = _get(doc, "kind", pointer)
    rng = _as_int(_get(doc, "range", pointer), f"{pointer}/range", minimum=0)
    values_doc = _get(doc, "values", pointer)
    if not isinstance(values_doc, dict):
        _fail(f"{pointer}/values", "expected an object keyed by words")
    if kind == "rational":
        values = {}
        for key, raw in values_doc.items():
            vp = f"{pointer}/values/{key}"
            values[parse_word_key(key, sft.k, vp)] = parse_rational(raw, vp)
        try:
            return make_cocycle(sft, rng, values)
        except LivsicError as exc:
            raise DocumentError(f"{pointer}/values", str(exc)) from exc
    if kind == "matrix":
        from .matrix import make_matrix_cocycle

        values = {}
        for key, raw in values_doc.items():
            vp = f"{pointer}/values/{key}"
            values[parse_word_key(key, sft.k, vp)] = _parse_matrix(raw, vp)
        algebra_doc = doc.get("algebra")
        algebra = None
        if algebra_doc is not None:
            if not isinstance(algebra_doc, list) or not algebra_doc:
                _fail(f"{pointer}/algebra", "expected a nonempty list of matrices")
            algebra = [
                _parse_matrix(m, f"{pointer}/algebra/{i}")
                for i, m in enumerate(algebra_doc)
            ]
        try:
            return make_matrix_cocycle(sft, rng, values, algebra=algebra)
        except LivsicError as exc:
            raise DocumentError(f"{pointer}/values", str(exc)) from exc
    _fail(f"{pointer}/kind", f"unknown cocycle kind {kind!r}")
    raise AssertionError  # unreachable


def _parse_matrix(raw, pointer: str) -> list[list[float]]:
    if not isinstance(raw, list) or not raw:
        _fail(pointer, "expected a matrix as a list of rows")
    width = None
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            _fail(f"{pointer}/{i}", "expected a row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{pointer}/{i}", "ragged matrix")
        out_row = []
        for j, cell in enumerate(row):
            at = f"{pointer}/{i}/{j}"
            if isinstance(cell, bool):
                _fail(at, "expected a number")
            if isinstance(cell, str):
                cell = parse_rational(cell, at)
            elif not isinstance(cell, (int, float)):
                _fail(at, "expected a number or rational string")
            out_row.append(_as_finite_float(cell, at))
        rows.append(out_row)
    if len(rows) != width:
        _fail(pointer, "matrix must be square")
    return rows


def parse_system_document(doc) -> SystemEnvelope:
    if not isinstance(doc, dict):
        _fail("", "expected a system document object")
    sft_doc = _get(doc, "sft", "")
    k = _as_int(_get(sft_doc, "k", "/sft"), "/sft/k", minimum=1)
    rows = _get(sft_doc, "transition", "/sft")
    if not isinstance(rows, list) or len(rows) != k:
        _fail("/sft/transition", f"expected {k} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != k:
            _fail(f"/sft/transition/{i}", f"expected {k} entries")
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or cell not in (0, 1):
                _fail(f"/sft/transition/{i}/{j}", "entries must be 0 or 1")
    spec = SftSpec.from_rows(rows)
    validate_sft(spec)
    group, group_doc = parse_group(_get(doc, "group", ""), "/group")
    psi = _parse_psi(_get(doc, "psi", ""), group, k, "/psi")
    system = make_skew_system(spec, group, psi)
    cocycle_doc = doc.get("cocycle")
    cocycle = None
    if cocycle_doc is not None:
        cocycle = parse_cocycle(cocycle_doc, spec, "/cocycle")
    return SystemEnvelope(system=system, cocycle=cocycle, group_doc=group_doc)


def cocycle_to_doc(cocycle) -> dict:
    k = cocycle.sft.k
    if isinstance(cocycle, LocallyConstantCocycle):
        return {
            "kind": "rational",
            "range": cocycle.block_range,
            "values": {
                word_to_key(w, k): fraction_to_str(v)
                for w, v in cocycle.values.items()
            },
        }
    doc = {
        "kind": "matrix",
        "range": cocycle.block_range,
        "dim": cocycle.dim,
        "values": {
            word_to_key(w, k): _matrix_to_doc(v) for w, v in cocycle.values.items()
        },
    }
    if cocycle.algebra is not None:
        doc["algebra"] = [_matrix_to_doc(m) for m in cocycle.algebra]
    return doc


def _matrix_to_doc(mat) -> list[list[float]]:
    return [[float(x) for x in row] for row in mat]


def system_to_doc(env: SystemEnvelope) -> dict:
    system = env.system
    spec = system.sft
    if system.group.is_finite:
        psi_doc = [system.group.name_of(e) for e in system.psi]
    else:
        psi_doc = [list(vec) for vec in system.psi]
    doc = {
        "sft": {"k": spec.k, "transition": [list(row) for row in spec.transitions]},
        "group": env.group_doc,
        "psi": psi_doc,
    }
    if env.cocycle is not None:
        doc["cocycle"] = cocycle_to_doc(env.cocycle)
    return doc


# ---------------------------------------------------------------------------
# Solution documents.


@record
class SolutionEnvelope:
    kind: str
    k: int
    solution: CohomologySolution | MatrixSolution
    provenance: dict


def make_provenance(command: str, seed: int | None = None) -> dict:
    return {
        "command": command,
        "seed": seed,
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
    }


def solution_to_doc(env: SolutionEnvelope) -> dict:
    if env.kind == "rational":
        return _rational_solution_doc(env)
    if env.kind == "matrix":
        return _matrix_solution_doc(env)
    raise ValueError(f"unknown solution kind {env.kind!r}")


def _rational_solution_doc(env: SolutionEnvelope) -> dict:
    sol = env.solution
    doc = {
        "kind": "rational",
        "k": env.k,
        "block_length": sol.block_length,
        "u": {
            word_to_key(w, env.k): fraction_to_str(v) for w, v in sol.u.items()
        },
        "alpha": None
        if sol.alpha is None
        else [fraction_to_str(a) for a in sol.alpha],
        "alpha_is_zero": sol.alpha_is_zero,
        "degenerate": None
        if sol.degenerate is None
        else {
            "lattice_rank": sol.degenerate.lattice_rank,
            "lattice_diagonal": list(sol.degenerate.lattice_diagonal),
            "pinned_coordinates": list(sol.degenerate.pinned_coordinates),
        },
        "certification": None
        if sol.certificate is None
        else {
            "certified": sol.certificate.certified,
            "edges_checked": sol.certificate.edges_checked,
            "max_residual": "0",
            "tolerance": None,
        },
        "provenance": dict(env.provenance),
    }
    return doc


def _matrix_solution_doc(env: SolutionEnvelope) -> dict:
    import numpy as np

    sol = env.solution
    dim = next(iter(sol.u.values())).shape[0]
    identity = np.eye(dim)
    zero = all(
        float(np.linalg.norm(a - identity)) <= sol.tol for a in sol.alpha.values()
    )
    cert = sol.certificate
    return {
        "kind": "matrix",
        "k": env.k,
        "block_length": sol.block_length,
        "dim": dim,
        "u": {word_to_key(w, env.k): _matrix_to_doc(v) for w, v in sol.u.items()},
        "alpha": {name: _matrix_to_doc(v) for name, v in sol.alpha.items()},
        "alpha_is_zero": zero,
        "alpha_constancy_defect": float(sol.alpha_constancy_defect),
        "max_residual": float(sol.max_residual),
        "tolerance": float(sol.tol),
        "certification": None
        if cert is None
        else {
            "certified": cert.certified,
            "edges_checked": cert.edges_checked,
            "max_residual": float(cert.max_residual),
            "hom_defect": float(cert.hom_defect),
            "centrality_defect": float(cert.centrality_defect),
            "tolerance": float(cert.tol),
        },
        "provenance": dict(env.provenance),
    }


def parse_solution_document(doc) -> SolutionEnvelope:
    if not isinstance(doc, dict):
        _fail("", "expected a solution document object")
    kind = _get(doc, "kind", "")
    k = _as_int(_get(doc, "k", ""), "/k", minimum=1)
    block_length = _as_int(
        _get(doc, "block_length", ""), "/block_length", minimum=1
    )
    prov_doc = _get(doc, "provenance", "")
    if not isinstance(prov_doc, dict):
        _fail("/provenance", "expected an object")
    provenance = dict(prov_doc)
    if kind == "rational":
        solution = _parse_rational_solution(doc, k, block_length)
    elif kind == "matrix":
        solution = _parse_matrix_solution(doc, k, block_length)
    else:
        _fail("/kind", f"unknown solution kind {kind!r}")
        raise AssertionError  # unreachable
    return SolutionEnvelope(kind=kind, k=k, solution=solution, provenance=provenance)


def _parse_rational_solution(doc, k: int, block_length: int) -> CohomologySolution:
    from .abelian import CohomologySolution, DegenerateReport, VerificationReport

    u_doc = _get(doc, "u", "")
    if not isinstance(u_doc, dict) or not u_doc:
        _fail("/u", "expected a nonempty object keyed by blocks")
    u = {}
    for key, raw in u_doc.items():
        word = parse_word_key(key, k, f"/u/{key}")
        if len(word) != block_length:
            _fail(f"/u/{key}", f"block must have length {block_length}")
        u[word] = parse_rational(raw, f"/u/{key}")
    alpha_doc = _get(doc, "alpha", "")
    alpha = None
    if alpha_doc is not None:
        if not isinstance(alpha_doc, list):
            _fail("/alpha", "expected null or a list of rationals")
        alpha = tuple(
            parse_rational(a, f"/alpha/{i}") for i, a in enumerate(alpha_doc)
        )
    degenerate = None
    deg_doc = doc.get("degenerate")
    if deg_doc is not None:
        degenerate = DegenerateReport(
            lattice_rank=_as_int(
                _get(deg_doc, "lattice_rank", "/degenerate"),
                "/degenerate/lattice_rank",
            ),
            lattice_diagonal=_get_int_list(deg_doc, "lattice_diagonal", "/degenerate"),
            pinned_coordinates=_get_int_list(deg_doc, "pinned_coordinates", "/degenerate"),
        )
    certificate = None
    cert_doc = doc.get("certification")
    if cert_doc is not None:
        certificate = VerificationReport(
            certified=bool(_get(cert_doc, "certified", "/certification")),
            edges_checked=_as_int(
                _get(cert_doc, "edges_checked", "/certification"),
                "/certification/edges_checked",
            ),
            failures=(),
        )
    return CohomologySolution(
        block_length=block_length,
        u=u,
        alpha=alpha,
        degenerate=degenerate,
        certificate=certificate,
    )


def _parse_matrix_solution(doc, k: int, block_length: int) -> MatrixSolution:
    import numpy as np

    from .matrix import MatrixSolution, MatrixVerificationReport

    dim = _as_int(_get(doc, "dim", ""), "/dim", minimum=1)
    u_doc = _get(doc, "u", "")
    if not isinstance(u_doc, dict) or not u_doc:
        _fail("/u", "expected a nonempty object keyed by blocks")
    u = {}
    for key, raw in u_doc.items():
        word = parse_word_key(key, k, f"/u/{key}")
        mat = np.array(_parse_matrix(raw, f"/u/{key}"), dtype=float)
        if mat.shape != (dim, dim):
            _fail(f"/u/{key}", f"expected a {dim}x{dim} matrix")
        u[word] = mat
    alpha_doc = _get(doc, "alpha", "")
    if not isinstance(alpha_doc, dict) or not alpha_doc:
        _fail("/alpha", "expected a nonempty object keyed by element names")
    alpha = {}
    for name, raw in alpha_doc.items():
        mat = np.array(_parse_matrix(raw, f"/alpha/{name}"), dtype=float)
        if mat.shape != (dim, dim):
            _fail(f"/alpha/{name}", f"expected a {dim}x{dim} matrix")
        alpha[name] = mat
    certificate = None
    cert_doc = doc.get("certification")
    if cert_doc is not None:
        certificate = MatrixVerificationReport(
            certified=bool(_get(cert_doc, "certified", "/certification")),
            edges_checked=_as_int(
                _get(cert_doc, "edges_checked", "/certification"),
                "/certification/edges_checked",
            ),
            max_residual=_get_number(cert_doc, "max_residual", "/certification"),
            hom_defect=_get_number(cert_doc, "hom_defect", "/certification"),
            centrality_defect=_get_number(cert_doc, "centrality_defect", "/certification"),
            tol=_get_number(cert_doc, "tolerance", "/certification"),
        )
    return MatrixSolution(
        block_length=block_length,
        u=u,
        alpha=alpha,
        alpha_constancy_defect=_get_number(doc, "alpha_constancy_defect", "", 0.0),
        max_residual=_get_number(doc, "max_residual", "", 0.0),
        tol=_get_number(doc, "tolerance", ""),
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# Witness and verdict payloads for command line output.


def violation_witness_doc(witness: ViolationWitness, k: int) -> dict:
    return {
        "kind": "orbit",
        "orbit": word_to_key(witness.orbit.word, k),
        "multiplicity": witness.multiplicity,
        "word": word_to_key(witness.word, k),
        "sum": fraction_to_str(witness.total),
    }


def pair_witness_doc(witness: EqualWeightPair, k: int) -> dict:
    return {
        "kind": "pair",
        "word_a": word_to_key(witness.word_a, k),
        "word_b": word_to_key(witness.word_b, k),
        "weight": list(witness.weight),
        "sum_a": fraction_to_str(witness.sum_a),
        "sum_b": fraction_to_str(witness.sum_b),
    }


def matrix_witness_doc(witness: MatrixViolationWitness, k: int) -> dict:
    return {
        "kind": "orbit",
        "orbit": word_to_key(witness.orbit.word, k),
        "multiplicity": witness.multiplicity,
        "deviation": float(witness.deviation),
    }


def class_tag_doc(tag: FrobeniusClassTag, group: Group) -> dict:
    if tag.members is not None:
        return {
            "trivial": tag.trivial,
            "members": [group.name_of(m) for m in tag.members],
        }
    return {"trivial": tag.trivial, "vector": list(tag.vector or ())}


def transitivity_doc(verdict: TransitivityVerdict, k: int) -> dict:
    doc: dict = {"status": verdict.status}
    if verdict.witness is not None:
        (block_a, name_a), (block_b, name_b) = verdict.witness
        doc["witness"] = {
            "from": {"block": word_to_key(block_a, k), "element": name_a},
            "to": {"block": word_to_key(block_b, k), "element": name_b},
        }
    if verdict.certificate is not None:
        cert = verdict.certificate
        cert_doc: dict = {"kind": cert.kind}
        if cert.functional is not None:
            cert_doc["functional"] = list(cert.functional)
        if cert.lattice_rank is not None:
            cert_doc["lattice_rank"] = cert.lattice_rank
            cert_doc["lattice_diagonal"] = list(cert.lattice_diagonal or ())
        doc["certificate"] = cert_doc
    if verdict.evidence is not None:
        ev = verdict.evidence
        doc["evidence"] = {
            "probe_depth": ev.probe_depth,
            "probe_covers_simple_cycles": ev.probe_covers_simple_cycles,
            "orbit_count": ev.orbit_count,
            "distinct_classes": [list(v) for v in ev.distinct_classes],
            "lattice_rank": ev.lattice_rank,
            "lattice_diagonal": list(ev.lattice_diagonal),
            "lattice_full": ev.lattice_full,
            "zero_in_interior": ev.zero_in_interior,
            "heuristic_transitive": ev.heuristic_transitive,
        }
    return doc


def _plain(value):
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    # Arrays by duck type, so no numpy import; numpy scalars have tolist
    # too, but ndim 0, and float64 is already a float.
    if getattr(value, "ndim", 0):
        return _plain(value.tolist())
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(key): _plain(v) for key, v in value.items()}
    return value


def error_doc(exc: Exception) -> dict:
    doc: dict = {"error": type(exc).__name__, "message": str(exc)}
    pointer = getattr(exc, "pointer", None)
    if pointer is not None:
        doc["pointer"] = pointer
    witness = getattr(exc, "witness", None)
    if witness is not None:
        doc["witness"] = _plain(witness)
    return doc
