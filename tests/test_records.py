"""Every ``@record`` type behaves like the frozen dataclass it replaced.

The reference for each record is a ``dataclasses`` class built here from
the same class body: the field names and literal defaults are read from
the module source with the standard library's ast, so the reference does
not depend on the record helper.  Records check no field types, so
distinct tuples stand in for field values.
"""
from __future__ import annotations

import ast
import itertools
import pickle
from dataclasses import field, make_dataclass
from pathlib import Path

import pytest

import livsic.abelian
import livsic.groups
import livsic.matrix
import livsic.oracles
import livsic.serialization
import livsic.sft
import livsic.skew
from livsic.record import FrozenInstanceError

MODULES = (
    livsic.abelian,
    livsic.groups,
    livsic.matrix,
    livsic.oracles,
    livsic.serialization,
    livsic.sft,
    livsic.skew,
)


def _record_bodies(module):
    """(name, [(field, default, has_default)]) per @record class."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if not (isinstance(target, ast.Name) and target.id == "record"):
                continue
            fields = [
                (stmt.target.id, ast.literal_eval(stmt.value), True)
                if stmt.value else (stmt.target.id, None, False)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
            ]
            yield node.name, fields


CASES = [
    pytest.param(getattr(module, name), fields, id=f"{module.__name__}.{name}")
    for module in MODULES
    for name, fields in _record_bodies(module)
]


def _reference(cls, fields):
    spec = [
        (name, object, field(default=default)) if has_default else (name, object)
        for name, default, has_default in fields
    ]
    return make_dataclass(cls.__name__, spec, frozen=True)


def _values(fields, tag):
    return {name: (i, tag) for i, (name, _, _) in enumerate(fields)}


def test_every_converted_type_is_found():
    found = {case.values[0].__name__ for case in CASES}
    assert found == {
        # abelian
        "DegenerateReport", "VerificationReport",
        # groups
        "Group", "GroupSpec", "SubgroupReport",
        # matrix
        "DistortionReport", "DistortionVerdict", "MatrixCocycle",
        "MatrixVerificationReport", "MatrixViolationWitness",
        # oracles
        "OracleConfig",
        # serialization
        "SolutionEnvelope", "SystemEnvelope",
        # sft
        "BlockGraph", "LocallyConstantCocycle", "PeriodicOrbit", "SftSpec", "ValidationReport",
        # skew
        "FrobeniusClassTag", "NonTransitivityCertificate", "ProductGraph", "SkewSystem",
        "TransitivityEvidence", "TransitivityVerdict",
    }


@pytest.mark.parametrize("cls, fields", CASES)
def test_record_matches_frozen_dataclass(cls, fields):
    ref = _reference(cls, fields)
    assert cls._fields == tuple(name for name, _, _ in fields)
    tags = ("a", "b", "c")
    recs = [cls(**_values(fields, tag)) for tag in tags]
    refs = [ref(**_values(fields, tag)) for tag in tags]
    positional = cls(*_values(fields, "a").values())

    for rec, rf in zip(recs, refs):
        assert repr(rec) == repr(rf)
        assert hash(rec) == hash(rf)
        assert not hasattr(rec, "__dict__")
    assert positional == recs[0] and not positional != recs[0]
    assert recs[0] != recs[1] and not recs[0] == recs[1]
    assert recs[0] != refs[0] and recs[0] != tuple(_values(fields, "a").values())

    for (x, rx), (y, ry) in itertools.product(zip(recs, refs), repeat=2):
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    with pytest.raises(TypeError):
        recs[0] < recs[1]  # noqa: B015

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(recs[0], protocol))
        assert type(copy) is cls and copy == recs[0]
        assert repr(copy) == repr(recs[0])

    required = {name: value for (name, _, has_default), value in
                zip(fields, _values(fields, "a").values()) if not has_default}
    filled, rf = cls(**required), ref(**required)
    assert [getattr(filled, n) for n in cls._fields] == [getattr(rf, n) for n in cls._fields]

    name = cls._fields[0]
    with pytest.raises(FrozenInstanceError):
        setattr(recs[0], name, 0)
    with pytest.raises(FrozenInstanceError):
        delattr(recs[0], name)
    with pytest.raises(AttributeError):
        recs[0].not_a_field = 0
    assert issubclass(FrozenInstanceError, AttributeError)
    assert getattr(recs[0], name) == (0, "a")

    args = list(_values(fields, "a").values())
    for make in (cls, ref):
        with pytest.raises(TypeError):
            make(*args, (99, "extra"))
        with pytest.raises(TypeError):
            make(*args, not_a_field=1)
        with pytest.raises(TypeError):
            make(args[0], **{name: args[0]})
        if required:
            with pytest.raises(TypeError):
                make()
