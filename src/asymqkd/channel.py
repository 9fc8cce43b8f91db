"""Bell-diagonal Pauli channels and basis-conjugation arithmetic.

A Pauli channel applies one of I, sigma_x, sigma_y, sigma_z to every
transmitted qubit, with fixed probabilities.  A qubit prepared and measured
in the X or Y basis experiences those errors relabelled: conjugating the
error operator by the basis-change unitary permutes the Pauli type, so the
effective error distribution seen by the qubit is a permutation of the
channel's.  Everything downstream (one-way key rates, two-way distillation
maps, the Monte Carlo protocol run) is built on the small set of pure
functions in this module.

Conventions: rate vectors are ordered (q_i, q_x, q_y, q_z).  The bit-flip
rate of a distribution is q_x + q_y, the phase-flip rate q_z + q_y.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

_SUM_TOL = 1e-9
_NEG_TOL = 1e-12


class Basis(enum.Enum):
    """Preparation/measurement basis of a qubit."""

    Z = "Z"
    X = "X"
    Y = "Y"


class _Frozen:
    """Equality, hash and repr of a validated value class, which cannot be assigned to.

    A subclass lists what it stores in ``__slots__`` and sets it in
    ``__init__`` with ``object.__setattr__``.  Equality and the hash cover
    every slot; repr shows ``_fields``, the constructor's arguments.  A copy
    or an unpickled value gets the slots back as they were, without
    running ``__init__`` again.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._key()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def _normalized(q_i, q_x, q_y, q_z):
    """The clipped components over their left-to-right sum, by ``+`` and ``/``: floats or arrays."""
    kept = q_i + q_x + q_y + q_z
    return q_i / kept, q_x / kept, q_y / kept, q_z / kept


class PauliRates(_Frozen):
    """Probabilities of I, X, Y, Z channel errors.

    The four components must be nonnegative and sum to one.  Construction
    renormalizes floating-point drift up to ``1e-9`` in the sum (and clips
    negative round-off down to ``-1e-12``); anything worse is rejected.
    Zero components are fully supported.
    """

    __slots__ = _fields = ("q_i", "q_x", "q_y", "q_z")
    q_i: float
    q_x: float
    q_y: float
    q_z: float

    def __init__(self, q_i: float, q_x: float, q_y: float, q_z: float) -> None:
        comps = (q_i, q_x, q_y, q_z)
        for name, value in zip(self._fields, comps):
            value = float(value)
            if not value == value:  # NaN
                raise ValueError(f"{name} is NaN")
            if value < -_NEG_TOL or value > 1.0 + _SUM_TOL:
                raise ValueError(f"{name}={value!r} outside [0, 1]")
        # Left to right, not sum(): from Python 3.12 on sum() of floats is
        # compensated, and ``_normalized`` adds left to right.
        total = q_i + q_x + q_y + q_z
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"Pauli rates sum to {total!r}, not 1")
        # Divided by the sum of what is kept, so a clipped component does
        # not leave the rest summing to more than 1; max keeps 0.0 over -0.0.
        for name, value in zip(self._fields, _normalized(*[max(0.0, float(c)) for c in comps])):
            object.__setattr__(self, name, value)

    @classmethod
    def from_error_rates(cls, q_x: float, q_y: float, q_z: float) -> "PauliRates":
        """Build rates from the three error components, inferring q_i."""
        return cls(1.0 - (q_x + q_y + q_z), q_x, q_y, q_z)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.q_i, self.q_x, self.q_y, self.q_z)


class FlipRates(NamedTuple):
    """Marginal flip rates (p_x: bit, p_z: phase).

    For a distribution q this is (q_x + q_y, q_z + q_y): sigma_y errors
    flip both bit and phase, so they enter both marginals.
    """

    p_x: float
    p_z: float


def _dyadic_numerators(values: Sequence[float]) -> list[int]:
    """Floats as integer numerators over their common power-of-two denominator, exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    denominator = max(d for _, d in ratios)
    return [n * (denominator // d) for n, d in ratios]


def flip_rates(rates: PauliRates) -> FlipRates:
    """Marginal bit and phase flip rates of a Pauli distribution."""
    return FlipRates(p_x=rates.q_x + rates.q_y, p_z=rates.q_z + rates.q_y)


# The component of (q_i, q_x, q_y, q_z) that a qubit prepared in each basis sees
# as its I, X, Y and Z error.  X (Hadamard-rotated) exchanges sigma_x and sigma_z;
# Y sees a channel sigma_z as a bit flip, sigma_x as both and sigma_y as a phase flip.
_SEEN_AS = {Basis.Z: (0, 1, 2, 3), Basis.X: (0, 3, 2, 1), Basis.Y: (0, 3, 1, 2)}


def conjugate(rates: PauliRates, basis: Basis) -> PauliRates:
    """Error distribution experienced by qubits prepared in ``basis``, relabelled by ``_SEEN_AS``.

    Z returns ``rates`` itself; in Y the effective (q_x, q_y, q_z) is
    (q_z, q_x, q_y).
    """
    if basis is Basis.Z:
        return rates
    if not isinstance(basis, Basis):
        raise ValueError(f"unknown basis {basis!r}")
    q = rates.as_tuple()
    i, x, y, z = _SEEN_AS[basis]
    return PauliRates(q[i], q[x], q[y], q[z])


def average_over_mixture(rates: PauliRates) -> PauliRates:
    """Effective distribution for the equal mixture of Z, X and Y preparation.

    When key bits are drawn from the three bases with equal weights, the
    averaged error distribution is the mean of the per-basis conjugated
    distributions.  This collapses a channel (1-2q, q, 0, q) to
    (1-2q, q, q/3, 2q/3), i.e. averaging moves weight into the q_y
    component even when the channel itself has none.
    """
    acc = [0.0, 0.0, 0.0, 0.0]
    for basis in (Basis.Z, Basis.X, Basis.Y):
        for i, component in enumerate(conjugate(rates, basis).as_tuple()):
            acc[i] += (1.0 / 3.0) * component
    return PauliRates(*acc)
