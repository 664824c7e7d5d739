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
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import BadShape, DocumentError, LivsicError, max_states_cap
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
    """The key of a word over the symbols 1 to k."""
    sep = "" if k <= 9 else ","
    return sep.join(map(_symbol_names(k).__getitem__, word))


@lru_cache(maxsize=8)
def _symbol_names(k: int) -> dict[int, str]:
    """str(s) for each symbol s from 1 to k: a word is written with one
    lookup per symbol, not a str call."""
    return {s: str(s) for s in range(1, k + 1)}


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
    """The word a key names.  DocumentError at pointer unless the key is
    the word's one spelling, ``word_to_key(word, k)``, so no two keys of a
    table can name the same word.  The spelling is made from the word's
    own symbols, with no table over all k, as a document's k is not yet
    checked against anything."""
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
    canonical = ("" if k <= 9 else ",").join(map(str, word))
    if key != canonical:
        _fail(pointer, f"word key {key!r} is not canonical; write {canonical!r}")
    return word


def _table(doc, pointer: str, read, key=None) -> dict:
    """The object ``doc`` at ``pointer`` as a dict.  Each entry is read as
    ``read(value, pointer/name)`` and, given ``key``, its name as
    ``key(name, pointer/name)``, names before values."""
    if not isinstance(doc, dict):
        _fail(pointer, "expected an object")
    table = {}
    for name, raw in doc.items():
        at = f"{pointer}/{name}"
        if key is not None:
            name = key(name, at)
        table[name] = read(raw, at)
    return table


def word_table(doc, k: int, pointer: str, read) -> dict:
    """A ``_table`` keyed by words over ``k`` symbols."""
    return _table(doc, pointer, read, lambda name, at: parse_word_key(name, k, at))


def word_table_doc(table, k: int) -> dict:
    """The reverse of ``word_table``: word keys, values as ``_plain`` writes them."""
    return {word_to_key(w, k): _plain(v) for w, v in table.items()}


def _as_bool(value, pointer: str) -> bool:
    if not isinstance(value, bool):
        _fail(pointer, "expected true or false")
    return value


def _as_int_tuple(value, pointer: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        _fail(pointer, "expected a list of integers")
    return tuple(_as_int(x, f"{pointer}/{i}") for i, x in enumerate(value))


# Readers by annotation.  The modules that declare records import
# `annotations` from `__future__`, so each annotation is its source text.
_READERS = {
    "int": _as_int,
    "float": _as_finite_float,
    "bool": _as_bool,
    "tuple[int, ...]": _as_int_tuple,
}


def fields_doc(obj, k: int, rename: dict | None = None, /, **extra) -> dict:
    """One key per annotated field of ``obj``, renamed through ``rename``.

    ``None`` values are left out.  A ``Word`` or ``PeriodicOrbit`` field
    is written as a word key over ``k`` symbols, any other value as
    ``_plain`` writes it; the ``extra`` keys are set last.
    """
    doc = {}
    for name, annotation in type(obj).__annotations__.items():
        value = getattr(obj, name)
        if value is None:
            continue
        if annotation in ("Word", "PeriodicOrbit"):
            value = word_to_key(getattr(value, "word", value), k)
        doc[rename.get(name, name) if rename else name] = _plain(value)
    doc.update(extra)
    return doc


def fields_from_doc(cls, doc, pointer: str, rename: dict | None = None, **extra):
    """Build ``cls`` from the object ``doc`` at ``pointer``, the reverse of
    ``fields_doc``: each annotated field not given in ``extra`` is read at
    its renamed key with the reader its annotation names."""
    values = dict(extra)
    for name, annotation in cls.__annotations__.items():
        if name not in extra:
            key = rename.get(name, name) if rename else name
            values[name] = _READERS[annotation](_get(doc, key, pointer), f"{pointer}/{key}")
    return cls(**values)


# ---------------------------------------------------------------------------
# System documents.


@record
class SystemEnvelope:
    """Parsed system document: the live objects plus a canonical group block."""

    system: SkewSystem
    cocycle: LocallyConstantCocycle | MatrixCocycle | None
    group_doc: dict


def parse_group(doc, pointer: str) -> GroupSpec:
    gtype = _get(doc, "type", pointer)
    payload = _get(doc, "payload", pointer)
    pp = f"{pointer}/payload"
    if gtype == "cyclic":
        return GroupSpec.cyclic(_as_int(_get(payload, "order", pp), f"{pp}/order", minimum=1))
    if gtype == "free_abelian":
        return GroupSpec.free_abelian(_as_int(_get(payload, "rank", pp), f"{pp}/rank", minimum=1))
    if gtype == "finite_table":
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
                if not isinstance(cell, str) or cell not in index:
                    _fail(f"{pp}/table/{i}/{j}", f"unknown element {cell!r}")
                out_row.append(index[cell])
            rows.append(out_row)
        return GroupSpec.finite_table(names, rows)
    if gtype == "permutation":
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
        return GroupSpec.permutation(degree, gens, names)
    _fail(f"{pointer}/type", f"unknown group type {gtype!r}")
    raise AssertionError  # unreachable


def group_doc(spec: GroupSpec) -> dict:
    """The canonical group block of ``spec``: its set fields as the payload,
    a permutation group's generator names as ``names`` and a Cayley table
    by element names."""
    payload = fields_doc(spec, 0, {"generator_names": "names"})
    del payload["variant"]
    if spec.table is not None:
        payload["table"] = [[spec.names[j] for j in row] for row in spec.table]
    return {"type": spec.variant, "payload": payload}


def _parse_psi(doc, group: Group, k: int, pointer: str) -> list:
    """psi by factor: element names of F, or integer vectors of Z^d."""
    if not isinstance(doc, list) or len(doc) != k:
        _fail(pointer, f"psi must list one entry per symbol ({k})")
    out, d = [], group.rank
    for i, entry in enumerate(doc):
        p = f"{pointer}/{i}"
        if d:
            if not isinstance(entry, list) or len(entry) != d:
                _fail(p, f"expected an integer vector of length {d}")
            out.append(group.join(0, tuple(_as_int(x, p) for x in entry)))
        elif not isinstance(entry, str):
            _fail(p, "expected an element name")
        else:
            try:
                out.append(group.join(group.element_by_name(entry)))
            except BadShape:
                _fail(p, f"unknown element {entry!r}")
    return out


def parse_cocycle(doc, sft: SftSpec, pointer: str):
    kind = _get(doc, "kind", pointer)
    rng = _as_int(_get(doc, "range", pointer), f"{pointer}/range", minimum=0)
    values_doc = _get(doc, "values", pointer)
    vp = f"{pointer}/values"
    # A table has one value per admissible window, and those are capped, so
    # an oversized table is refused before any value is read.
    cap = max_states_cap()
    if isinstance(values_doc, dict) and len(values_doc) > cap:
        _fail(vp, f"{len(values_doc)} windows exceed the state cap {cap}")
    if kind == "rational":
        values = word_table(values_doc, sft.k, vp, parse_rational)
        make, extra = make_cocycle, {}
    elif kind == "matrix":
        from .matrix import make_matrix_cocycle

        values = word_table(values_doc, sft.k, vp, _parse_matrix)
        algebra = doc.get("algebra")
        if algebra is not None:
            algebra = parse_matrix_list(algebra, f"{pointer}/algebra")
        make, extra = make_matrix_cocycle, {"algebra": algebra}
    else:
        _fail(f"{pointer}/kind", f"unknown cocycle kind {kind!r}")
    try:
        return make(sft, rng, values, **extra)
    except LivsicError as exc:
        raise DocumentError(vp, str(exc)) from exc


def _parse_matrix(raw, pointer: str, dim: int | None = None):
    """A square matrix of JSON numbers or rational strings, each a finite
    float, as a float array; with ``dim``, it must be dim x dim."""
    import numpy as np

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
            if isinstance(cell, str):
                cell = parse_rational(cell, at)
            out_row.append(_as_finite_float(cell, at))
        rows.append(out_row)
    if len(rows) != width:
        _fail(pointer, "matrix must be square")
    if dim is not None and width != dim:
        _fail(pointer, f"expected a {dim}x{dim} matrix")
    return np.array(rows)


def parse_matrix_list(raw, pointer: str) -> list:
    """A nonempty list of matrices, as a Lie algebra basis is written."""
    if not isinstance(raw, list) or not raw:
        _fail(pointer, "expected a nonempty list of matrices")
    return [_parse_matrix(m, f"{pointer}/{i}") for i, m in enumerate(raw)]


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
    group_spec = parse_group(_get(doc, "group", ""), "/group")
    group = build_group(group_spec)
    psi = _parse_psi(_get(doc, "psi", ""), group, k, "/psi")
    system = make_skew_system(spec, group, psi)
    cocycle_doc = doc.get("cocycle")
    cocycle = None
    if cocycle_doc is not None:
        cocycle = parse_cocycle(cocycle_doc, spec, "/cocycle")
    return SystemEnvelope(system=system, cocycle=cocycle, group_doc=group_doc(group_spec))


def cocycle_to_doc(cocycle) -> dict:
    doc = {
        "kind": cocycle.kind,
        "range": cocycle.block_range,
        "values": word_table_doc(cocycle.values, cocycle.sft.k),
    }
    if cocycle.kind == "matrix":
        doc["dim"] = cocycle.dim
        if cocycle.algebra is not None:
            doc["algebra"] = _plain(cocycle.algebra)
    return doc


def system_to_doc(env: SystemEnvelope) -> dict:
    system = env.system
    spec = system.sft
    names = system.group.names
    psi_doc = [list(z) if z else names[f] for f, z in zip(system.psi_f, system.psi_z)]
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


def make_provenance(command: str) -> dict:
    return {
        "command": command,
        "seed": None,
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
    return {
        "kind": "rational",
        "k": env.k,
        "block_length": sol.block_length,
        "u": word_table_doc(sol.u, env.k),
        "alpha": _plain(sol.alpha),
        "alpha_is_zero": sol.alpha_is_zero,
        "degenerate": None
        if sol.degenerate is None
        else fields_doc(sol.degenerate, env.k),
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
        "u": word_table_doc(sol.u, env.k),
        "alpha": _plain(sol.alpha),
        "alpha_is_zero": zero,
        "alpha_constancy_defect": float(sol.alpha_constancy_defect),
        "max_residual": float(sol.max_residual),
        "tolerance": float(sol.tol),
        "certification": None
        if cert is None
        else fields_doc(cert, env.k, {"tol": "tolerance"}),
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


def _solution_u(doc, k: int, block_length: int, read) -> dict:
    """A solution's u: a nonempty table keyed by blocks of block_length."""

    def block(name, at):
        word = parse_word_key(name, k, at)
        if len(word) != block_length:
            _fail(at, f"block must have length {block_length}")
        return word

    u = _table(_get(doc, "u", ""), "/u", read, block)
    if not u:
        _fail("/u", "expected a nonempty object keyed by blocks")
    return u


def _parse_rational_solution(doc, k: int, block_length: int) -> CohomologySolution:
    from .abelian import CohomologySolution, DegenerateReport, VerificationReport

    u = _solution_u(doc, k, block_length, parse_rational)
    alpha_doc = _get(doc, "alpha", "")
    alpha = None
    if alpha_doc is not None:
        if not isinstance(alpha_doc, list):
            _fail("/alpha", "expected null or a list of rationals")
        alpha = tuple(
            parse_rational(a, f"/alpha/{i}") for i, a in enumerate(alpha_doc)
        )
    deg_doc = doc.get("degenerate")
    cert_doc = doc.get("certification")
    return CohomologySolution(
        block_length=block_length,
        u=u,
        alpha=alpha,
        degenerate=None
        if deg_doc is None
        else fields_from_doc(DegenerateReport, deg_doc, "/degenerate"),
        certificate=None
        if cert_doc is None
        else fields_from_doc(VerificationReport, cert_doc, "/certification", failures=()),
    )


def _parse_matrix_solution(doc, k: int, block_length: int) -> MatrixSolution:
    from .matrix import MatrixSolution, MatrixVerificationReport

    dim = _as_int(_get(doc, "dim", ""), "/dim", minimum=1)

    def read(raw, at):
        return _parse_matrix(raw, at, dim)

    u = _solution_u(doc, k, block_length, read)
    alpha = _table(_get(doc, "alpha", ""), "/alpha", read)
    cert_doc = doc.get("certification")
    return MatrixSolution(
        block_length=block_length,
        u=u,
        alpha=alpha,
        alpha_constancy_defect=_get_number(doc, "alpha_constancy_defect", "", 0.0),
        max_residual=_get_number(doc, "max_residual", "", 0.0),
        tol=_get_number(doc, "tolerance", ""),
        certificate=None
        if cert_doc is None
        else fields_from_doc(
            MatrixVerificationReport, cert_doc, "/certification", {"tol": "tolerance"}
        ),
    )


# ---------------------------------------------------------------------------
# Witness and verdict payloads for command line output.


def violation_witness_doc(witness: ViolationWitness | MatrixViolationWitness, k: int) -> dict:
    """An orbit witness with its unrolled word: a rational one writes its
    total as ``sum``, a matrix one its float ``deviation``."""
    word = word_to_key(witness.word, k)
    return fields_doc(witness, k, {"total": "sum"}, kind="orbit", word=word)


def pair_witness_doc(witness: EqualWeightPair, k: int) -> dict:
    return fields_doc(witness, k, kind="pair")


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
        doc["certificate"] = fields_doc(verdict.certificate, k)
    if verdict.evidence is not None:
        doc["evidence"] = fields_doc(verdict.evidence, k)
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
