"""Exception types and desk-scale resource caps shared across the package."""
from __future__ import annotations

import os

DEFAULT_MAX_PERIOD = 16
DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_WORK = 2_000_000
DEFAULT_MAX_GROUP_ORDER = 4096
ASSOCIATIVITY_CHECK_LIMIT = 128


def max_period_cap() -> int:
    """Longest cyclic word any enumeration will consider (env LIVSIC_MAX_PERIOD)."""
    return _cap("LIVSIC_MAX_PERIOD", DEFAULT_MAX_PERIOD)


def max_states_cap() -> int:
    """Largest vertex count any graph construction will accept (env LIVSIC_MAX_STATES)."""
    return _cap("LIVSIC_MAX_STATES", DEFAULT_MAX_STATES)


def _cap(variable: str, default: int) -> int:
    """The cap set in the environment, or default when unset.  BadShape
    names the variable when its value is not an integer >= 1."""
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise BadShape(f"{variable} must be an integer >= 1, got {raw!r}")
    return value


class LivsicError(Exception):
    """Base class for all structured failures raised by this package."""


class InvariantViolation(RuntimeError):
    """An internal certification or witness invariant failed.

    This signals a bug, never bad input, so it is deliberately not a
    LivsicError: the CLI must not report it as invalid input (exit 2), and
    unlike ``assert`` it still fires under ``python -O``.
    """


def check_invariant(condition: bool, what: str) -> None:
    if not condition:
        raise InvariantViolation(what)


class BadShape(LivsicError):
    pass


class DeadSymbol(LivsicError):
    def __init__(self, symbol: int, axis: str):
        self.symbol = symbol
        self.axis = axis
        super().__init__(f"symbol {symbol} has no {axis}")


class NotIrreducible(LivsicError):
    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"no admissible path from symbol {witness[0]} to {witness[1]}")


class RangeTooLarge(LivsicError):
    pass


class StateSpaceTooLarge(RangeTooLarge):
    pass


class NotAGroup(LivsicError):
    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(reason if witness is None else f"{reason}: {witness}")


class ClosureTooLarge(LivsicError):
    pass


class InfiniteGroup(LivsicError):
    pass


class DimensionMismatch(LivsicError):
    pass


class InadmissibleWord(LivsicError):
    def __init__(self, word):
        self.word = tuple(word)
        super().__init__(f"word {self.word} is not admissible")


class InvalidCocycle(LivsicError):
    pass


class DocumentError(LivsicError):
    """A JSON document deviates from the schema at the given JSON pointer."""

    def __init__(self, pointer: str, reason: str):
        self.pointer = pointer or "/"
        self.reason = reason
        super().__init__(f"{self.pointer}: {reason}")


class NotTransitiveError(LivsicError):
    """The product graph is not strongly connected; carries an unreachable pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"skew product is not transitive, witness pair {witness}")


class NotStronglyConnected(LivsicError):
    pass


class TorsionAlpha(LivsicError):
    pass


class SingularMatrix(LivsicError):
    pass


class AlgebraNotClosed(LivsicError):
    pass


class CentralityImpossible(LivsicError):
    pass


class NotAHomomorphism(LivsicError):
    pass


class AlphaNotConstant(LivsicError):
    """No x-independent deck factor exists; carries the two disagreeing samples."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("deck factor is not constant over the fiber")


class CocycleObstruction(LivsicError):
    """Raised by solvers when the vanishing hypothesis fails; carries the witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"obstruction: {witness}")
