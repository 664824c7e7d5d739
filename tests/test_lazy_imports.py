"""numpy and the matrix layer load only when a matrix document needs them,
and the solver layer only for the commands that solve or verify.

The package resolves its solver, matrix and oracle names on first use
(PEP 562), and the command line imports those layers inside the handlers
that use them.  A command that solves nothing loads no ``dataclasses``
either: its value types are records.
Each command here runs in a fresh interpreter, exactly as `python -m
livsic.cli` does, and reports which modules it loaded once main returned.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import livsic

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_cli.json").read_text())
EX = "docs/examples"
LAZY = ("numpy", "livsic.matrix", "livsic.oracles")
SOLVER_LAYER = ("livsic.abelian", "dataclasses", "inspect")
SOLVE_NOTHING = ("validate", "check-transitivity", "orbits")

# Runs the module as `python -m livsic.cli` would (its exit code passes
# through) and writes the loaded module names to the file named by the
# first argument once main has returned.
PROBE = """
import json, runpy, sys
report, sys.argv = sys.argv[1], ["livsic", *sys.argv[2:]]
try:
    runpy.run_module("livsic.cli", run_name="__main__", alter_sys=True)
finally:
    with open(report, "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""

# Every public name livsic/__init__.py bound before the matrix and oracle
# names became lazy, less psi_n_cyclic, birkhoff_sum, adjoint_norm,
# enumerate_trivial_class_orbits and is_primitive, which had no caller in
# the package and were dropped.
PUBLIC = """
AlgebraNotClosed AlphaNotConstant BadShape BlockGraph CentralityImpossible
ClosureTooLarge CocycleObstruction CohomologySolution DeadSymbol
DegenerateReport DimensionMismatch DistortionReport DistortionVerdict
DocumentError EqualWeightPair FrobeniusClassTag Group GroupSpec
InadmissibleWord InfiniteGroup InvalidCocycle InvariantViolation LivsicError
LocallyConstantCocycle MatrixCocycle MatrixSolution MatrixVerificationReport
MatrixViolationWitness NonTransitivityCertificate NotAGroup NotAHomomorphism
NotIrreducible NotStronglyConnected NotTransitiveError
PeriodicOrbit ProductGraph RangeTooLarge SftSpec SingularMatrix SkewSystem
SolutionEnvelope StateSpaceTooLarge SubgroupReport SystemEnvelope
TOOL_VERSION TorsionAlpha TransitivityEvidence TransitivityVerdict
ValidationReport VerificationReport ViolationWitness
brute_matrix_solution_check brute_orbit_list
brute_periodic_census brute_solution_check brute_transitivity
brute_vanishing build_block_graph build_group build_product_graph
canonical_json canonical_rotation check_distortion_assumption
check_transitivity count_periodic_points cyclic_product
enumerate_periodic_orbits
estimate_distortion frobenius_class generate_cocycle
generate_matrix_cocycle make_cocycle make_matrix_cocycle
make_skew_system orbit_weights parse_solution_document
parse_system_document primitive_root psi_n smith_diagonal
solution_to_doc solve_finite_gamma solve_free_abelian solve_matrix_finite
subgroup_rank_and_index system_to_doc validate_sft verify_matrix_solution
verify_solution verify_vanishing walk_primitive_orbits __version__
""".split()


def _probe(tmp_path: Path, *args: str):
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(report), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    return proc, set(json.loads(report.read_text()))


def test_rational_commands_load_no_numpy(tmp_path):
    solved, _ = _probe(tmp_path, "solve", f"{EX}/full2-z.json")
    solution = tmp_path / "solution.json"
    solution.write_text(solved.stdout)
    runs = [
        (["validate", f"{EX}/gm-c2.json"], 0),
        (["check-transitivity", f"{EX}/full3-z2.json"], None),
        (["check-transitivity", f"{EX}/gm-s3.json"], None),
        (["orbits", f"{EX}/full3-z2.json", "--max-period", "6"], None),
        (["verify-vanishing", f"{EX}/full2-z-perturbed.json", "--max-period", "6"], None),
        (["solve", f"{EX}/full2-z.json"], None),
        (["solve", f"{EX}/gm-s3.json"], None),
        (["verify-solution", f"{EX}/full2-z.json", "--solution", str(solution)], 0),
        (["generate", f"{EX}/full2-z.json", "--u", f"{EX}/u-table.json", "--alpha", "1/2"], 0),
    ]
    for args, expected in runs:
        proc, modules = _probe(tmp_path, *args)
        golden = GOLDEN.get(" ".join(args))
        if golden is not None:
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                golden["exit"], golden["stdout"], golden["stderr"]
            ), args
        else:
            assert proc.returncode == expected, (args, proc.stderr)
        assert "livsic.serialization" in modules, args
        assert not modules.intersection(LAZY), (args, modules.intersection(LAZY))
        if args[0] in SOLVE_NOTHING:
            loaded = modules.intersection(SOLVER_LAYER)
            assert not loaded, (args, loaded)
        else:
            assert "livsic.abelian" in modules, args


def test_matrix_commands_still_load_the_matrix_layer(tmp_path):
    args = ["distortion", f"{EX}/full2-diag-sl2.json", "--depth", "4"]
    proc, modules = _probe(tmp_path, *args)
    golden = GOLDEN[" ".join(args)]
    assert (proc.returncode, proc.stdout) == (golden["exit"], golden["stdout"])
    assert {"numpy", "livsic.matrix"} <= modules


def test_package_namespace_keeps_every_public_name():
    listed = set(dir(livsic))
    for name in PUBLIC:
        assert getattr(livsic, name) is not None, name
        assert name in listed, name
    from livsic import abelian, matrix, oracles

    assert livsic.solve_free_abelian is abelian.solve_free_abelian
    assert livsic.make_cocycle is abelian.make_cocycle
    assert livsic.estimate_distortion is matrix.estimate_distortion
    assert livsic.MatrixCocycle is matrix.MatrixCocycle
    assert livsic.brute_transitivity is oracles.brute_transitivity
    from livsic import MatrixSolution, brute_vanishing  # noqa: F401


def test_package_namespace_rejects_unknown_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        livsic.no_such_name  # noqa: B018
    assert not hasattr(livsic, "no_such_name")
    with pytest.raises(ImportError):
        from livsic import no_such_name  # noqa: F401
