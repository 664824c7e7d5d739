"""Independent answer checks, run after the timed region.

Each check takes an op's inputs and its answer and returns None when the
answer is right, or a one-line reason when it is not.  Certificates are
rechecked at tolerances fixed here, never at a tolerance read from the
answer under test.  Witnesses are recomputed from the words they name,
with the slow oracles where the search space is small enough.  Lattice
transitivity verdicts pass when the mathematics permits them: `unknown`
claims nothing, and a decisive verdict must carry a certificate that
holds.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from livsic import abelian, matrix, oracles
from livsic.errors import CocycleObstruction

MATRIX_TOL = 1e-8
DISTORTION_RTOL = 1e-9
BRUTE_WORD_LIMIT = 120_000


# ---------------------------------------------------------------------------
# Plain arithmetic on words, written without the package's graph machinery.


def cyclic_ok(spec, word) -> bool:
    n = len(word)
    return n > 0 and all(spec.allows(word[i], word[(i + 1) % n]) for i in range(n))


def weight(system, word):
    group = system.group
    if group.is_finite:
        acc = group.identity
        for s in word:
            acc = group.mul(system.psi_of(s), acc)
        return acc
    acc = [0] * group.rank
    for s in word:
        for j, x in enumerate(system.psi_of(s)):
            acc[j] += x
    return tuple(acc)


def is_identity(system, w) -> bool:
    return w == system.group.identity if system.group.is_finite else not any(w)


def cyclic_sum(cocycle, word) -> Fraction:
    rf = cocycle.block_range
    ext = tuple(word) * (2 + rf // max(len(word), 1))
    return sum(
        (cocycle.window_value(ext[i : i + rf + 1]) for i in range(len(word))),
        Fraction(0),
    )


def words_up_to(k: int, n: int) -> int:
    """Words of length 1..n over k symbols: what brute_vanishing scans,
    admissible or not."""
    return sum(k**i for i in range(1, n + 1))


def mat_power_traces(rows, n: int) -> list[int]:
    """tr(A^m) for m = 1..n, by repeated integer multiplication."""
    k = len(rows)
    power = [list(r) for r in rows]
    traces = []
    for m in range(1, n + 1):
        if m > 1:
            power = [
                [sum(power[i][t] * rows[t][j] for t in range(k)) for j in range(k)]
                for i in range(k)
            ]
        traces.append(sum(power[i][i] for i in range(k)))
    return traces


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def primitive_orbit_counts(rows, max_period: int) -> list[int]:
    """Number of primitive periodic orbits of each period 1..max_period."""
    traces = mat_power_traces(rows, max_period)
    return [
        sum(mobius(n // d) * traces[d - 1] for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, max_period + 1)
    ]


# ---------------------------------------------------------------------------
# Rational cocycles.


def _check_rational_witness(system, cocycle, witness, max_period=None):
    if isinstance(witness, abelian.ViolationWitness):
        word = witness.word
        if not cyclic_ok(system.sft, word):
            return f"witness word {word} is not cyclically admissible"
        if not is_identity(system, weight(system, word)):
            return f"witness word {word} does not have identity weight"
        total = cyclic_sum(cocycle, word)
        if total == 0 or total != witness.total:
            return f"witness sum {witness.total} does not recompute ({total})"
        n = len(word) if max_period is None else max_period
        if words_up_to(system.sft.k, n) <= BRUTE_WORD_LIMIT:
            if oracles.brute_vanishing(system, cocycle, n) is None:
                return "brute_vanishing finds no violation the witness claims"
        return None
    if isinstance(witness, abelian.EqualWeightPair):
        if system.group.is_finite:
            return "equal-weight pair reported over a finite group"
        for word, total in ((witness.word_a, witness.sum_a), (witness.word_b, witness.sum_b)):
            if not cyclic_ok(system.sft, word):
                return f"pair word {word} is not cyclically admissible"
            if weight(system, word) != tuple(witness.weight):
                return f"pair word {word} does not have weight {witness.weight}"
            if cyclic_sum(cocycle, word) != total:
                return f"pair word {word} sum does not recompute"
        if witness.sum_a == witness.sum_b:
            return "pair sums are equal"
        return None
    return f"unexpected witness type {type(witness).__name__}"


def check_rational_solve(system, cocycle, answer):
    """A solution must verify exactly; an obstruction must carry a witness."""
    if isinstance(answer, CocycleObstruction):
        return _check_rational_witness(system, cocycle, answer.witness)
    if not isinstance(answer, abelian.CohomologySolution):
        return f"unexpected answer {type(answer).__name__}"
    if system.group.is_finite and answer.alpha is not None and any(answer.alpha):
        return "nonzero alpha over a finite group"
    report = abelian.verify_solution(system, cocycle, answer)
    if not report.certified:
        return f"solution fails on {len(report.failures)} edges"
    return None


def check_vanishing(system, cocycle, max_period, solvable, answer):
    if answer is None:
        if solvable:
            return None
        if words_up_to(system.sft.k, max_period) > BRUTE_WORD_LIMIT:
            return "no witness reported and the brute search is too large to confirm"
        found = oracles.brute_vanishing(system, cocycle, max_period)
        return None if found is None else f"missed violation {found[0]}"
    if len(answer.word) > max_period * answer.multiplicity:
        return "witness longer than the requested period"
    return _check_rational_witness(system, cocycle, answer, max_period)


# ---------------------------------------------------------------------------
# Transitivity and orbits.


def check_finite_transitivity(system, verdict):
    expected = oracles.brute_transitivity(system)
    got = verdict.status
    if got not in ("transitive", "not_transitive"):
        return f"finite verdict {got!r} is not decisive"
    if (got == "transitive") != expected:
        return f"verdict {got} disagrees with brute_transitivity ({expected})"
    return None


def _simple_cycle_weights(system):
    """Weights of all cyclically admissible words of length <= k.

    Every closed walk in the k-vertex symbol graph splits into simple
    cycles, which have length <= k, so these weights generate the monoid
    of closed-walk weights.
    """
    spec = system.sft
    out = set()
    for n in range(1, spec.k + 1):
        for word in itertools.product(range(1, spec.k + 1), repeat=n):
            if cyclic_ok(spec, word):
                out.add(weight(system, word))
    return sorted(out)


def _has_negative_cycle(system, functional) -> bool:
    """Bellman-Ford on the symbol graph with edge a->b weighted by lam.psi(a)."""
    spec = system.sft
    k = spec.k
    cost = [sum(l * x for l, x in zip(functional, system.psi_of(a))) for a in range(1, k + 1)]
    dist = [0] * k
    for _ in range(k):
        changed = False
        for a in range(1, k + 1):
            for b in spec.successors(a):
                if dist[a - 1] + cost[a - 1] < dist[b - 1]:
                    dist[b - 1] = dist[a - 1] + cost[a - 1]
                    changed = True
        if not changed:
            return False
    return True


def _lattice_full(vectors, d: int) -> bool:
    g = 0
    for combo in itertools.combinations(vectors, d):
        if d == 1:
            det = combo[0][0]
        elif d == 2:
            det = combo[0][0] * combo[1][1] - combo[0][1] * combo[1][0]
        else:
            det = int(round(np.linalg.det(np.array(combo, dtype=float))))
        g = math.gcd(g, abs(det))
        if g == 1:
            return True
    return False


def _cone_is_whole_space(vectors, d: int) -> bool:
    nonzero = [v for v in vectors if any(v)]
    if d == 1:
        return any(v[0] > 0 for v in nonzero) and any(v[0] < 0 for v in nonzero)
    if d != 2 or not nonzero:
        return False
    angles = sorted(math.atan2(v[1], v[0]) for v in nonzero)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    return max(gaps) < math.pi - 1e-12


def check_lattice_transitivity(system, status, certificate_kind=None, functional=None):
    """Verdict fields as the library or the CLI report them."""
    d = system.group.rank
    if status == "unknown":
        return None
    cycles = _simple_cycle_weights(system)
    if status == "transitive":
        if _lattice_full(cycles, d) and _cone_is_whole_space(cycles, d):
            return None
        return "transitive verdict, but cycle weights miss a full lattice or cone"
    if status != "not_transitive":
        return f"unexpected lattice verdict {status!r}"
    if certificate_kind == "one_sided":
        if not functional or not any(functional) or len(functional) != d:
            return "one-sided certificate without a nonzero functional"
        if _has_negative_cycle(system, functional):
            return f"functional {functional} is negative on some closed walk"
        return None
    if certificate_kind == "proper_subgroup":
        if _lattice_full(cycles, d):
            return "proper-subgroup certificate, but cycle weights span Z^d"
        return None
    return f"not_transitive without a known certificate ({certificate_kind!r})"


def check_lattice_verdict(system, verdict):
    cert = verdict.certificate
    return check_lattice_transitivity(
        system,
        verdict.status,
        cert.kind if cert else None,
        tuple(cert.functional) if cert and cert.functional is not None else None,
    )


def check_orbit_words(spec, max_period, words):
    """Words must be exactly the least rotations of primitive cycles."""
    expected = primitive_orbit_counts([list(r) for r in spec.transitions], max_period)
    counts = [0] * max_period
    previous = None
    for word in words:
        key = (len(word), word)
        if previous is not None and key <= previous:
            return "orbits are not strictly sorted by (period, word)"
        previous = key
        n = len(word)
        if not 1 <= n <= max_period or not cyclic_ok(spec, word):
            return f"orbit {word} is not a cyclic word of allowed period"
        for i in range(1, n):
            rotated = word[i:] + word[:i]
            if rotated == word:
                return f"orbit {word} is not primitive"
            if rotated < word:
                return f"orbit {word} is not its least rotation"
        counts[n - 1] += 1
    if counts != expected:
        return f"orbit counts {counts} differ from the trace formula {expected}"
    return None


def check_orbits(spec, max_period, orbits):
    return check_orbit_words(spec, max_period, [o.word for o in orbits])


# ---------------------------------------------------------------------------
# Matrix cocycles.


def _matrix_residual(system, cocycle, u, alpha) -> float:
    """Largest ||f(w) - alpha(psi(w0)) u(w[1:]) u(w[:-1])^-1|| over windows.

    The benchmark only builds cocycles whose windows are one symbol longer
    than the solution's blocks, so every window is one block-graph edge.
    """
    group = system.group
    worst = 0.0
    for window, value in cocycle.values.items():
        step = alpha[group.name_of(system.psi_of(window[0]))]
        expected = step @ u[window[1:]] @ np.linalg.inv(u[window[:-1]])
        worst = max(worst, float(np.linalg.norm(value - expected)))
    return worst


def check_matrix_solve(system, cocycle, answer):
    if isinstance(answer, CocycleObstruction):
        witness = answer.witness
        if not isinstance(witness, matrix.MatrixViolationWitness):
            return f"unexpected witness type {type(witness).__name__}"
        word = witness.word
        if not cyclic_ok(system.sft, word):
            return f"witness word {word} is not cyclically admissible"
        if not is_identity(system, weight(system, word)):
            return f"witness word {word} does not have identity weight"
        dev = float(np.linalg.norm(matrix.cyclic_product(cocycle, word) - np.eye(cocycle.dim)))
        if dev <= MATRIX_TOL or not math.isclose(dev, witness.deviation, rel_tol=1e-6):
            return f"witness deviation {witness.deviation} does not recompute ({dev})"
        return None
    if not isinstance(answer, matrix.MatrixSolution):
        return f"unexpected answer {type(answer).__name__}"
    report = matrix.verify_matrix_solution(system, cocycle, answer, tol=MATRIX_TOL)
    if not report.certified:
        return f"matrix solution fails at tolerance {MATRIX_TOL}"
    if not oracles.brute_matrix_solution_check(
        system, cocycle, answer, samples=40, length=12, tol=1e-6
    ):
        return "sampled telescoping check fails"
    return None


def check_matrix_verify(system, cocycle, solution, report):
    """The report must agree with a residual recomputed here."""
    worst = _matrix_residual(system, cocycle, solution.u, solution.alpha)
    expected = worst <= MATRIX_TOL
    if report.certified != expected:
        return f"certified={report.certified} but recomputed residual is {worst:.3e}"
    return None


def _adjoint_norms(products, basis):
    """||Ad(g)|| for a stack of matrices g, on the ambient or declared algebra."""
    inverses = np.linalg.inv(products)
    if basis is None:
        return np.linalg.norm(products, 2, axis=(1, 2)) * np.linalg.norm(
            inverses, 2, axis=(1, 2)
        )
    b_mat = np.stack([b.reshape(-1) for b in basis], axis=1)
    conj = np.einsum("nij,bjk,nkl->nbil", products, np.stack(basis), inverses)
    vecs = conj.reshape(len(products), len(basis), -1)
    coeffs = np.linalg.lstsq(b_mat, vecs.reshape(-1, b_mat.shape[0]).T, rcond=None)[0]
    coeffs = coeffs.T.reshape(len(products), len(basis), len(basis)).transpose(0, 2, 1)
    return np.linalg.norm(coeffs, 2, axis=(1, 2))


def distortion_rates(cocycle, n_max: int) -> tuple[float, float]:
    """Forward and backward rates at depth n_max, from every admissible word.

    Backward products multiply the inverted window values, as the inverse
    of a long product is too ill-conditioned to take directly.
    """
    spec = cocycle.sft
    rf = cocycle.block_range
    words = [(a,) for a in range(1, spec.k + 1)]
    for _ in range(n_max + rf - 1):
        words = [w + (b,) for w in words for b in spec.successors(w[-1])]
    dim = cocycle.dim
    prods = np.broadcast_to(np.eye(dim), (len(words), dim, dim)).copy()
    inv_prods = prods.copy()
    inverse = {w: np.linalg.inv(m) for w, m in cocycle.values.items()}
    for i in range(n_max):
        windows = [w[i : i + rf + 1] for w in words]
        prods = np.stack([cocycle.window_value(w) for w in windows]) @ prods
        inv_prods = inv_prods @ np.stack([inverse[w] for w in windows])
    forward = _adjoint_norms(prods, cocycle.algebra)
    backward = _adjoint_norms(inv_prods, cocycle.algebra)
    return float(forward.max()) ** (1.0 / n_max), float(backward.max()) ** (1.0 / n_max)


def check_distortion(cocycle, n_max, report):
    mu_s, mu_u = distortion_rates(cocycle, n_max)
    if report.n_max != n_max:
        return f"report depth {report.n_max} != {n_max}"
    for name, got, want in (("mu_s", report.mu_s, mu_s), ("mu_u", report.mu_u, mu_u)):
        if not math.isclose(got, want, rel_tol=DISTORTION_RTOL):
            return f"{name} {got!r} differs from recomputed {want!r}"
    return None


def check_distortion_verdict(cocycle, n_max, theta, verdict):
    mu_s, mu_u = distortion_rates(cocycle, n_max)
    threshold = max(abs(math.log(mu_s)), abs(math.log(mu_u))) / math.log(2)
    if abs(theta - threshold) <= 1e-6:
        return None
    expected = "satisfied" if theta > threshold else "violated"
    if verdict.status != expected:
        return f"status {verdict.status} but theta {theta} vs threshold {threshold}"
    return None
