"""Brute-force oracles used to validate the optimized implementations.

Everything here is written the slow, obvious way on purpose: exhaustive
word enumeration, direct reachability, independent rotation handling.
None of the graph or orbit machinery from the other modules is reused, so
agreement between an oracle and the real implementation is meaningful.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import InfiniteGroup, StateSpaceTooLarge
from .record import record


@record
class OracleConfig:
    max_period: int = 16
    max_state_count: int = 50_000


def _cyclic_ok(spec, word) -> bool:
    n = len(word)
    return all(spec.allows(word[i], word[(i + 1) % n]) for i in range(n))


def _weight(system, word):
    acc = system.group.identity
    for s in word:
        acc = system.group.mul(system.psi_of(s), acc)
    return acc


def _cyclic_sum(cocycle, word) -> Fraction:
    rf = cocycle.block_range
    ext = tuple(word) * (1 + rf)
    total = Fraction(0)
    for i in range(len(word)):
        total += cocycle.window_value(ext[i : i + rf + 1])
    return total


def brute_transitivity(system, config: OracleConfig = OracleConfig()) -> bool:
    """Pairwise reachability on (symbol, element) states, from first principles."""
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("the transitivity oracle needs a finite group")
    spec = system.sft
    if spec.k * group.order > config.max_state_count:
        raise StateSpaceTooLarge(
            f"{spec.k * group.order} product states exceed the oracle cap"
        )
    states = [(a, g) for a in range(1, spec.k + 1) for g in range(group.order)]
    step: dict = {}
    for a, g in states:
        nxt = []
        for b in range(1, spec.k + 1):
            if spec.allows(a, b):
                nxt.append((b, group.mul(system.psi_of(a), g)))
        step[(a, g)] = nxt
    for source in states:
        seen = {source}
        frontier = [source]
        while frontier:
            x = frontier.pop()
            for y in step[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) != len(states):
            return False
    return True


def brute_vanishing(
    system, cocycle, max_period: int, config: OracleConfig = OracleConfig()
):
    """First identity-weight cyclic word with nonzero sum, scanning all words.

    Unlike the orbit-based check this sees imprimitive words too, so a
    torsion weight whose power closes up cannot hide.  Returns (word, sum)
    or None.
    """
    if max_period > config.max_period:
        raise StateSpaceTooLarge(
            f"period {max_period} exceeds the oracle cap {config.max_period}"
        )
    spec = system.sft
    for n in range(1, max_period + 1):
        for word in itertools.product(range(1, spec.k + 1), repeat=n):
            if not _cyclic_ok(spec, word):
                continue
            if _weight(system, word) != system.group.identity:
                continue
            total = _cyclic_sum(cocycle, word)
            if total != 0:
                return word, total
    return None


def brute_periodic_census(spec, n: int) -> int:
    """Count cyclically admissible words of length n one by one."""
    count = 0
    for word in itertools.product(range(1, spec.k + 1), repeat=n):
        if _cyclic_ok(spec, word):
            count += 1
    return count


def brute_orbit_list(spec, max_period: int):
    """All primitive orbit representatives, via explicit rotation classes."""
    reps = set()
    for n in range(1, max_period + 1):
        for word in itertools.product(range(1, spec.k + 1), repeat=n):
            if not _cyclic_ok(spec, word):
                continue
            rotations = [word[i:] + word[:i] for i in range(n)]
            primitive = all(word != word[d:] + word[:d] for d in range(1, n))
            if primitive:
                reps.add(min(rotations))
    return sorted(reps, key=lambda w: (len(w), w))


def _random_word(spec, rng, length: int):
    word = [rng.choice(range(1, spec.k + 1))]
    for _ in range(length - 1):
        options = [b for b in range(1, spec.k + 1) if spec.allows(word[-1], b)]
        word.append(rng.choice(options))
    return tuple(word)


def brute_solution_check(
    system,
    cocycle,
    solution,
    *,
    samples: int = 1000,
    length: int = 50,
    seed: int = 0,
) -> bool:
    """Sampled telescoping check of the solved identity, exact arithmetic.

    Along a random admissible word, the partial sums of f must equal a
    difference of u values plus alpha applied to the accumulated weight.
    """
    spec = system.sft
    group = system.group
    r = solution.block_length
    rng = random.Random(seed)
    alpha = solution.alpha
    for _ in range(samples):
        word = _random_word(spec, rng, length + r)
        total = Fraction(0)
        for i in range(length):
            total += cocycle.window_value(word[i : i + cocycle.block_range + 1])
        expected = solution.u[word[length : length + r]] - solution.u[word[0:r]]
        if group.rank and alpha is not None:
            acc = [0] * group.rank
            for i in range(length):
                step = system.psi_of(word[i])
                acc = [a + b for a, b in zip(acc, step)]
            expected += sum((a * x for a, x in zip(alpha, acc)), Fraction(0))
        if total != expected:
            return False
    return True


def brute_matrix_solution_check(
    system,
    cocycle,
    solution,
    *,
    samples: int = 1000,
    length: int = 50,
    seed: int = 0,
    tol: float = 1e-7,
) -> bool:
    """Float analogue of brute_solution_check for matrix solutions."""
    import numpy as np

    spec = system.sft
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("the matrix oracle needs a finite group")
    r = solution.block_length
    rng = random.Random(seed)
    for _ in range(samples):
        word = _random_word(spec, rng, length + r)
        prod = np.eye(cocycle.dim)
        for i in range(length):
            prod = cocycle.window_value(word[i : i + cocycle.block_range + 1]) @ prod
        acc = group.identity
        for i in range(length):
            acc = group.mul(system.psi_of(word[i]), acc)
        expected = (
            solution.alpha[group.name_of(acc)]
            @ solution.u[word[length : length + r]]
            @ np.linalg.inv(solution.u[word[0:r]])
        )
        gap = float(np.linalg.norm(prod - expected))
        if gap > tol * (1.0 + float(np.linalg.norm(expected))):
            return False
    return True
