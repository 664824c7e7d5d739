"""End-to-end acceptance gate for the package.

Each test covers one release criterion and ends with a single PASS line
summarizing the counts and timing.  All corpora are seeded through
corpus.py, so reruns draw byte-identical instances.
"""
from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import corpus
from livsic import (
    CocycleObstruction,
    EqualWeightPair,
    GroupSpec,
    SftSpec,
    ViolationWitness,
    brute_transitivity,
    brute_vanishing,
    build_block_graph,
    build_group,
    build_product_graph,
    check_distortion_assumption,
    check_transitivity,
    count_periodic_points,
    cyclic_product,
    enumerate_periodic_orbits,
    estimate_distortion,
    generate_cocycle,
    generate_matrix_cocycle,
    make_cocycle,
    make_matrix_cocycle,
    make_skew_system,
    orbit_weights,
    parse_system_document,
    smith_diagonal,
    solve_finite_gamma,
    solve_free_abelian,
    solve_matrix_finite,
    verify_vanishing,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

ROTATION_GENERATOR = [[0.0, -1.0], [1.0, 0.0]]
E12 = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
E13 = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
SL2_BASIS = [
    [[0.0, 1.0], [0.0, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 0.0], [1.0, 0.0]],
]


def _weight_of(system, word):
    """Cyclic weight of a word, multiplied out symbol by symbol."""
    acc = system.group.identity
    for s in word:
        acc = system.group.mul(system.psi_of(s), acc)
    return acc


def _sum_of(cocycle, word) -> Fraction:
    """Cyclic window sum of a word, written out directly."""
    rf = cocycle.block_range
    ext = tuple(word) * (1 + rf)
    total = Fraction(0)
    for i in range(len(word)):
        total += cocycle.window_value(ext[i : i + rf + 1])
    return total


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _unitriangular(rng) -> np.ndarray:
    mat = np.eye(3)
    mat[0, 1] = rng.uniform(-2.0, 2.0)
    mat[1, 2] = rng.uniform(-2.0, 2.0)
    mat[0, 2] = rng.uniform(-2.0, 2.0)
    return mat


def _windows(spec: SftSpec, length: int):
    return [
        word
        for word in itertools.product(range(1, spec.k + 1), repeat=length)
        if spec.is_admissible(word)
    ]


def _word_key(word) -> str:
    return "".join(str(s) for s in word)


# ---------------------------------------------------------------------------
# Shared corpora.  The finite corpus drives criteria 1 through 5, the
# lattice corpus criteria 2 and 3; both are frozen by their seed bases.


@pytest.fixture(scope="module")
def finite_corpus():
    instances = []
    for i in range(100):
        rng = corpus.rng_for(71, i)
        system = corpus.random_transitive_system(rng)
        rf = rng.randint(1, 2)
        blocks = build_block_graph(system.sft, rf).vertices
        u = {b: corpus.random_rational(rng) for b in blocks}
        cocycle = generate_cocycle(system, u=u, block_range=rf)
        instances.append((system, cocycle, u))
    return instances


@pytest.fixture(scope="module")
def lattice_corpus():
    instances = []
    for i in range(100):
        rng = corpus.rng_for(72, i)
        d = 1 + i % 2
        for _ in range(100):
            system = corpus.random_lattice_system(rng, d)
            rf = rng.randint(1, 2)
            bg = build_block_graph(system.sft, rf)
            # A single perturbed value is only detectable when the cycle
            # space is strictly bigger than the weight lattice it has to
            # match, so thin instances are redrawn.
            if len(bg.edges) - len(bg.vertices) + 1 <= d:
                continue
            alpha = corpus.random_alpha(rng, d)
            u = {b: corpus.random_rational(rng) for b in bg.vertices}
            cocycle = generate_cocycle(system, u=u, alpha=alpha, block_range=rf)
            if solve_free_abelian(system, cocycle).degenerate is not None:
                continue
            instances.append((system, cocycle, u, alpha))
            break
        else:
            raise AssertionError(f"no usable lattice instance at index {i}")
    return instances


@pytest.fixture(scope="module")
def raw_systems():
    """Finite-group systems drawn without any transitivity screening."""
    systems = []
    for i in range(30):
        rng = corpus.rng_for(73, i)
        k = rng.randint(2, 5)
        spec = corpus.random_irreducible_sft(rng, k)
        group = corpus.random_finite_group(rng)
        psi = [rng.randrange(group.order) for _ in range(k)]
        systems.append(make_skew_system(spec, group, psi))
    return systems


def test_criterion_1_finite_group_roundtrip(finite_corpus):
    start = time.monotonic()
    for system, cocycle, u in finite_corpus:
        assert verify_vanishing(system, cocycle, 10) is None
        solution = solve_finite_gamma(system, cocycle)
        assert solution.alpha is None
        offsets = {solution.u[b] - u[b] for b in u}
        assert len(offsets) == 1
        report = solution.certificate
        assert report is not None and report.certified
        assert report.failures == ()
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(f"criterion 1 finite-group roundtrip: PASS (100/100, {elapsed:.1f}s)")


def test_criterion_2_lattice_roundtrip(finite_corpus, lattice_corpus):
    for system, cocycle, u, alpha in lattice_corpus:
        solution = solve_free_abelian(system, cocycle)
        assert solution.degenerate is None
        assert solution.alpha == alpha
        offsets = {solution.u[b] - u[b] for b in u}
        assert len(offsets) == 1
    # Finite fibers force alpha = 0, so a solvable cocycle must telescope
    # to zero around every orbit, not only the trivial-class ones.
    sums = 0
    for system, cocycle, _ in finite_corpus:
        for orbit in enumerate_periodic_orbits(system.sft, 10):
            assert corpus.orbit_sum(cocycle, orbit.word) == 0
            sums += 1
    print(
        "criterion 2 lattice roundtrip: PASS "
        f"(100/100 alpha exact, {sums} orbit sums zero)"
    )


def test_criterion_3_perturbation_soundness(finite_corpus, lattice_corpus):
    for index, (system, cocycle, _) in enumerate(finite_corpus):
        rng = corpus.rng_for(74, index)
        perturbed, _, _ = corpus.perturb_one_value(cocycle, rng)
        with pytest.raises(CocycleObstruction) as err:
            solve_finite_gamma(system, perturbed)
        witness = err.value.witness
        assert isinstance(witness, ViolationWitness)
        assert _weight_of(system, witness.word) == system.group.identity
        total = _sum_of(perturbed, witness.word)
        assert total == witness.total
        assert total != 0

    pairs = 0
    for index, (system, cocycle, _, _) in enumerate(lattice_corpus):
        rng = corpus.rng_for(75, index)
        delta = Fraction(0)
        while delta == 0:
            delta = corpus.random_rational(rng)
        witness = None
        perturbed = None
        for word in sorted(cocycle.values):
            values = dict(cocycle.values)
            values[word] += delta
            candidate = make_cocycle(system.sft, cocycle.block_range, values)
            try:
                solve_free_abelian(system, candidate)
            except CocycleObstruction as err:
                witness = err.witness
                perturbed = candidate
                break
        assert witness is not None, "no admissible window exposed the perturbation"
        if isinstance(witness, ViolationWitness):
            assert _weight_of(system, witness.word) == system.group.identity
            total = _sum_of(perturbed, witness.word)
            assert total == witness.total
            assert total != 0
        else:
            assert isinstance(witness, EqualWeightPair)
            assert _weight_of(system, witness.word_a) == tuple(witness.weight)
            assert _weight_of(system, witness.word_b) == tuple(witness.weight)
            assert _sum_of(perturbed, witness.word_a) == witness.sum_a
            assert _sum_of(perturbed, witness.word_b) == witness.sum_b
            assert witness.sum_a != witness.sum_b
            pairs += 1
    print(
        "criterion 3 perturbation soundness: PASS "
        f"(finite 100/100, lattice 100/100, {pairs} equal-weight pairs)"
    )


def test_criterion_4_transitivity_matches_oracle(finite_corpus, raw_systems):
    start = time.monotonic()
    systems = [inst[0] for inst in finite_corpus] + raw_systems
    checked = 0
    for system in systems:
        if system.sft.k * system.group.order > 64:
            continue
        verdict = check_transitivity(system)
        assert verdict.status in ("transitive", "not_transitive")
        assert (verdict.status == "transitive") == brute_transitivity(system)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    print(
        f"criterion 4 transitivity vs oracle: PASS ({checked} systems, {elapsed:.1f}s)"
    )


def _closed_lift_words(system, max_period: int):
    """Primitive orbit words whose identity-fiber lift closes in one loop.

    The walk follows product-graph edges directly, so agreement with the
    class-based enumeration checks the orbit/cycle correspondence.
    """
    pg = build_product_graph(system, 1)
    vertex_index = {block: i for i, block in enumerate(pg.base.vertices)}
    edge_index = {edge: i for i, edge in enumerate(pg.base.edges)}
    order = pg.order
    closed = set()
    for orbit in enumerate_periodic_orbits(system.sft, max_period):
        word = orbit.word
        start = vertex_index[(word[0],)] * order + system.group.identity
        vid = start
        for i, symbol in enumerate(word):
            base_edge = edge_index[(symbol, word[(i + 1) % len(word)])]
            eid = base_edge * order + vid % order
            assert pg.edge_tail[eid] == vid
            vid = pg.edge_head[eid]
        if vid == start:
            closed.add(word)
    return closed


def test_criterion_5_orbit_cycle_duality(finite_corpus, raw_systems):
    systems = [inst[0] for inst in finite_corpus] + raw_systems
    total = 0
    for system in systems:
        expected = set(corpus.trivial_orbit_words(system, 8))
        assert _closed_lift_words(system, 8) == expected
        total += len(expected)
    print(
        "criterion 5 orbit/cycle duality: PASS "
        f"({len(systems)} systems, {total} orbits matched)"
    )


def _check_matrix_recovery(system, cocycle, gen_u, alpha):
    solution = solve_matrix_finite(system, cocycle, tol=1e-9)
    report = solution.certificate
    assert report is not None and report.certified
    assert report.hom_defect <= 1e-9
    assert report.centrality_defect <= 1e-9
    for name, expected in alpha.items():
        assert float(np.max(np.abs(solution.alpha[name] - expected))) <= 1e-9
    blocks = sorted(gen_u)
    anchor = blocks[0]
    gauge = np.linalg.inv(gen_u[anchor]) @ solution.u[anchor]
    for block in blocks:
        deviation = float(np.max(np.abs(solution.u[block] - gen_u[block] @ gauge)))
        assert deviation <= 1e-9


def test_criterion_6_matrix_roundtrip():
    start = time.monotonic()
    for i in range(50):
        rng = corpus.rng_for(76, i)
        m = rng.randint(2, 8)
        group = build_group(GroupSpec.cyclic(m))
        system = corpus.random_transitive_system(rng, group=group)
        rf = rng.randint(1, 2)
        blocks = build_block_graph(system.sft, rf).vertices
        gen_u = {b: _rotation(rng.uniform(0.0, 2.0 * math.pi)) for b in blocks}
        turns = rng.randrange(m)
        alpha = {
            group.name_of(j): _rotation(2.0 * math.pi * turns * j / m)
            for j in range(m)
        }
        cocycle = generate_matrix_cocycle(
            system,
            {_word_key(b): mat for b, mat in gen_u.items()},
            alpha,
            block_range=rf,
        )
        _check_matrix_recovery(system, cocycle, gen_u, alpha)

    for i in range(25):
        rng = corpus.rng_for(77, i)
        system = corpus.random_transitive_system(rng)
        rf = rng.randint(1, 2)
        blocks = build_block_graph(system.sft, rf).vertices
        gen_u = {b: _unitriangular(rng) for b in blocks}
        group = system.group
        alpha = {group.name_of(j): np.eye(3) for j in range(group.order)}
        cocycle = generate_matrix_cocycle(
            system,
            {_word_key(b): mat for b, mat in gen_u.items()},
            None,
            block_range=rf,
        )
        _check_matrix_recovery(system, cocycle, gen_u, alpha)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(
        f"criterion 6 matrix roundtrip: PASS (50 rotation + 25 unipotent, {elapsed:.1f}s)"
    )


def test_criterion_7_distortion_constants():
    specs = [
        SftSpec.full_shift(2),
        SftSpec.from_rows([[1, 1], [1, 0]]),
        corpus.random_irreducible_sft(corpus.rng_for(78, 0), 3),
        corpus.random_irreducible_sft(corpus.rng_for(78, 1), 4),
    ]
    for i, spec in enumerate(specs):
        rf = i % 2
        rng = corpus.rng_for(79, i)
        values = {
            w: _rotation(rng.uniform(0.0, 2.0 * math.pi))
            for w in _windows(spec, rf + 1)
        }
        cocycle = make_matrix_cocycle(
            spec, rf, values, algebra=[ROTATION_GENERATOR]
        )
        report = estimate_distortion(cocycle, 10)
        assert abs(report.mu_s - 1.0) <= 1e-6
        assert abs(report.mu_u - 1.0) <= 1e-6

        values = {}
        for w in _windows(spec, rf + 1):
            mat = np.eye(3)
            mat[0, 1] = rng.uniform(-2.0, 2.0)
            mat[0, 2] = rng.uniform(-2.0, 2.0)
            values[w] = mat
        cocycle = make_matrix_cocycle(spec, rf, values, algebra=[E12, E13])
        report = estimate_distortion(cocycle, 10)
        assert abs(report.mu_s - 1.0) <= 1e-6
        assert abs(report.mu_u - 1.0) <= 1e-6

    diag = [[2.0, 0.0], [0.0, 0.5]]
    full2 = SftSpec.full_shift(2)
    cocycle = make_matrix_cocycle(
        full2, 0, {(1,): diag, (2,): diag}, algebra=SL2_BASIS
    )
    report = estimate_distortion(cocycle, 10)
    assert abs(report.mu_s - 4.0) <= 1e-6
    assert abs(report.theta_threshold - 2.0) <= 1e-6
    assert check_distortion_assumption(report, 3.0).status == "satisfied"
    assert check_distortion_assumption(report, 2.0).status == "violated"
    print(
        "criterion 7 distortion constants: PASS "
        "(8 unit-rate families, diagonal rates 4/threshold 2)"
    )


def test_criterion_8_census_matches_orbit_counts():
    start = time.monotonic()
    specs = [SftSpec.full_shift(2), SftSpec.from_rows([[1, 1], [1, 0]])]
    for i in range(5):
        rng = corpus.rng_for(80, i)
        specs.append(corpus.random_irreducible_sft(rng, rng.randint(2, 5)))
    for spec in specs:
        by_period = Counter(
            len(orbit.word) for orbit in enumerate_periodic_orbits(spec, 12)
        )
        for n in range(1, 13):
            expected = sum(d * by_period[d] for d in range(1, n + 1) if n % d == 0)
            assert count_periodic_points(spec, n) == expected
    elapsed = time.monotonic() - start
    assert elapsed <= 5.0
    print(f"criterion 8 periodic census: PASS ({len(specs)} shifts, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# CLI determinism.  Every documented command runs three times through a
# fresh interpreter; stdout, stderr, exit codes and any written artifacts
# must agree byte for byte, and every witness carried by an exit-1 payload
# is rechecked against the slow oracles.


def _ex(name: str) -> str:
    return str(EXAMPLES / name)


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "livsic.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _load_envelope(name: str):
    return parse_system_document(json.loads((EXAMPLES / name).read_text()))


def _revalidate_rational_witness(name: str, payload) -> None:
    env = _load_envelope(name)
    witness = payload["witness"]
    word = tuple(int(ch) for ch in witness["word"])
    assert _weight_of(env.system, word) == env.system.group.identity
    total = _sum_of(env.cocycle, word)
    assert total == Fraction(witness["sum"])
    assert total != 0
    assert brute_vanishing(env.system, env.cocycle, len(word)) is not None


def _revalidate_matrix_witness(name: str, payload) -> None:
    env = _load_envelope(name)
    witness = payload["witness"]
    orbit = tuple(int(ch) for ch in witness["orbit"])
    word = orbit * witness["multiplicity"]
    assert _weight_of(env.system, word) == env.system.group.identity
    product = cyclic_product(env.cocycle, word)
    deviation = float(np.linalg.norm(product - np.eye(env.cocycle.dim)))
    assert deviation == pytest.approx(witness["deviation"], rel=1e-9)
    assert deviation > 1e-9


def _revalidate_refutation(name: str, payload) -> None:
    certificate = payload["certificate"]
    assert certificate["kind"] == "one_sided"
    functional = certificate["functional"]
    assert any(functional)
    assert corpus.closed_walks_nonnegative(_load_envelope(name).system, functional)


def _revalidate_lattice_evidence(name: str, payload) -> None:
    evidence = payload["evidence"]
    system = _load_envelope(name).system
    vectors = sorted({w for _, w in orbit_weights(system, system.sft.k)})
    diagonal = smith_diagonal(vectors, system.group.rank)
    assert list(diagonal) == evidence["lattice_diagonal"]
    assert evidence["lattice_full"] == all(x == 1 for x in diagonal)
    assert evidence["heuristic_transitive"] == (
        evidence["lattice_full"] and evidence["zero_in_interior"]
    )


def _revalidate_distortion_verdict(name: str, payload) -> None:
    env = _load_envelope(name)
    report = estimate_distortion(env.cocycle, payload["depth"])
    verdict = check_distortion_assumption(report, payload["theta"])
    assert verdict.status == payload["status"]
    assert abs(report.theta_threshold - payload["threshold"]) <= 1e-6


def test_criterion_9_cli_determinism(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli")
    solved_z = str(out_dir / "full2-z-solution.json")
    solved_halfturn = str(out_dir / "halfturn-solution.json")
    commands = [
        (["validate", _ex("gm-c2.json")], 0),
        (["validate", _ex("bad-reducible.json")], 2),
        (["check-transitivity", _ex("gm-c2.json")], 0),
        (["check-transitivity", _ex("full2-z.json")], 1),
        (["check-transitivity", _ex("full2-z-drift.json")], 1),
        (["check-transitivity", _ex("full3-z2.json")], 1),
        (["orbits", _ex("gm-c2.json"), "--max-period", "6"], 0),
        (["orbits", _ex("gm-c2.json"), "--max-period", "3", "--trivial-only"], 0),
        (["verify-vanishing", _ex("full2-z.json"), "--max-period", "6"], 0),
        (["verify-vanishing", _ex("full2-z-perturbed.json"), "--max-period", "6"], 1),
        (["solve", _ex("gm-c2.json")], 0),
        (["solve", _ex("gm-s3.json")], 0),
        (["solve", _ex("full2-z.json"), "--out", solved_z], 0),
        (["solve", _ex("full3-z2.json")], 0),
        (["solve", _ex("full2-z-drift.json")], 0),
        (["solve", _ex("full2-z-perturbed.json")], 1),
        (["solve", _ex("full2-c2-halfturn.json"), "--out", solved_halfturn], 0),
        (["solve", _ex("full2-c2-quarterturn.json")], 1),
        (["verify-solution", _ex("full2-z.json"), "--solution", solved_z], 0),
        (
            [
                "verify-solution",
                _ex("full2-c2-halfturn.json"),
                "--solution",
                solved_halfturn,
            ],
            0,
        ),
        (
            [
                "generate",
                _ex("full2-z.json"),
                "--u",
                _ex("u-table.json"),
                "--alpha",
                "1/2",
            ],
            0,
        ),
        (["distortion", _ex("full2-diag-sl2.json"), "--depth", "4"], 0),
        (
            [
                "distortion",
                _ex("full2-c2-quarterturn.json"),
                "--depth",
                "6",
                "--algebra",
                _ex("so2-basis.json"),
            ],
            0,
        ),
        (["check-distortion", _ex("full2-diag-sl2.json"), "--theta", "3"], 0),
        (["check-distortion", _ex("full2-diag-sl2.json"), "--theta", "2"], 1),
    ]

    transcripts = [[] for _ in commands]
    for _ in range(3):
        for slot, (args, expected_code) in enumerate(commands):
            code, stdout, stderr = _run_cli(args)
            assert code == expected_code, (args, code, stderr)
            artifacts = tuple(
                Path(arg).read_bytes()
                for flag, arg in zip(args, args[1:])
                if flag in ("--out",)
            )
            transcripts[slot].append((code, stdout, stderr, artifacts))
    for slot, runs in enumerate(transcripts):
        assert runs[0] == runs[1] == runs[2], commands[slot][0]

    payloads = {
        tuple(args): json.loads(runs[0][1])
        for (args, _), runs in zip(commands, transcripts)
        if runs[0][1]
    }

    def payload_for(*args):
        return payloads[tuple(args)]

    _revalidate_rational_witness(
        "full2-z-perturbed.json",
        payload_for("verify-vanishing", _ex("full2-z-perturbed.json"), "--max-period", "6"),
    )
    _revalidate_rational_witness(
        "full2-z-perturbed.json", payload_for("solve", _ex("full2-z-perturbed.json"))
    )
    _revalidate_matrix_witness(
        "full2-c2-quarterturn.json",
        payload_for("solve", _ex("full2-c2-quarterturn.json")),
    )
    _revalidate_refutation(
        "full2-z-drift.json", payload_for("check-transitivity", _ex("full2-z-drift.json"))
    )
    _revalidate_lattice_evidence(
        "full2-z.json", payload_for("check-transitivity", _ex("full2-z.json"))
    )
    _revalidate_lattice_evidence(
        "full3-z2.json", payload_for("check-transitivity", _ex("full3-z2.json"))
    )
    _revalidate_distortion_verdict(
        "full2-diag-sl2.json",
        payload_for("check-distortion", _ex("full2-diag-sl2.json"), "--theta", "2"),
    )

    generate_stdout = next(
        runs[0][1]
        for (args, _), runs in zip(commands, transcripts)
        if args[0] == "generate"
    )
    assert generate_stdout == (EXAMPLES / "full2-z.json").read_text()

    solve_stdout = next(
        runs[0][1]
        for (args, _), runs in zip(commands, transcripts)
        if args[:2] == ["solve", _ex("full2-z.json")]
    )
    assert Path(solved_z).read_text() == solve_stdout

    print(
        f"criterion 9 CLI determinism: PASS ({len(commands)} commands x 3 runs, "
        "witness payloads revalidated)"
    )
