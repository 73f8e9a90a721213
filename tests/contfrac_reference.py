"""Fraction evaluation of finite continued fractions: the tests' exact oracle.

K[c_0, ..., c_n] = c_0 / (1 - c_1 / (1 - ... / (1 - c_n))) is evaluated
bottom up through its tail values with `fractions.Fraction`, one gcd per
level, and so shares no arithmetic with the integer kernels of
`ced.contfrac` or the checker of `ced.certcheck`.  `psi_bounds` gives
Fraction bounds on the plain-Catalan generating function that closes the
flattened fraction; the kernels' `_psi_upper` and the checker's
`closing_bound` are tested against its upper end.  `reference_below_witness`
and `reference_km_good` give both kernel answers from these over the
Fraction weights `params.weight_b`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ced.params import weight_b


@dataclass(frozen=True)
class CFEval:
    """Outcome of a bottom-up finite continued fraction evaluation.

    value       top value t_0, or None if a pole interrupted the sweep
    pole_level  level i whose denominator 1 - t_{i+1} was <= 0, else None
    partials    t_i for every level actually computed (None above a pole)
    """

    value: Optional[Fraction]
    pole_level: Optional[int]
    partials: tuple[Optional[Fraction], ...]

    @property
    def is_pole(self) -> bool:
        return self.pole_level is not None


class GoodCheck(NamedTuple):
    good: bool
    bad_level: Optional[int]  # deepest level whose partial reached 1


def eval_finite(entries: Sequence[Fraction | int]) -> CFEval:
    """Evaluate K[c_0, ..., c_n] bottom up with exact rationals.

    Entries must be nonnegative.  Stops with a pole the first time a
    denominator 1 - t_{i+1} is <= 0; a pole is an outcome, not an error.
    """
    cs = [Fraction(c) for c in entries]
    if not cs:
        raise ValueError("continued fraction needs at least one entry")
    if any(c < 0 for c in cs):
        raise ValueError("entries must be nonnegative")
    n = len(cs) - 1
    partials: list[Optional[Fraction]] = [None] * (n + 1)
    t = cs[n]
    partials[n] = t
    for i in range(n - 1, -1, -1):
        den = 1 - t
        if den <= 0:
            return CFEval(value=None, pole_level=i, partials=tuple(partials))
        t = cs[i] / den
        partials[i] = t
    return CFEval(value=t, pole_level=None, partials=tuple(partials))


def is_good(entries: Sequence[Fraction | int]) -> GoodCheck:
    """Are all partial values K[c_i, ..., c_n] strictly below 1?

    Applies to the entries after the leading 1 of K[1, c_0, ..., c_n].
    Equality counts as not good, so callers relying on goodness never
    fire spuriously.  The reported bad level is the deepest violation.
    """
    ev = eval_finite(entries)
    if ev.is_pole:
        return GoodCheck(False, ev.pole_level + 1)
    assert ev.value is not None
    if ev.value >= 1:
        return GoodCheck(False, 0)
    return GoodCheck(True, None)


#: psi_bounds' upper and lower ends lie at most this far apart.
DEFAULT_PSI_WIDTH = Fraction(1, 10**20)

#: psi_bounds puts sqrt(1 - 4x) between neighbours of the grid 2^-_ROOT_BITS.
_ROOT_BITS = 70


@dataclass(frozen=True)
class PsiBound:
    """Rational bounds on the plain-Catalan generating function at x."""

    x: Fraction
    lower: Fraction
    upper: Fraction


def psi_bounds(x: Fraction | int) -> PsiBound:
    """Rational bounds on psi(x) = (1 - sqrt(1 - 4x)) / (2x), 0 <= x <= 1/4.

    Computed as 2 / (1 + sqrt(1 - 4x)): exact when 1 - 4x is the square of a
    rational (psi(0) = 1, psi(1/4) = 2), else with the root between
    neighbours of the grid 2^-70, so upper - lower <= DEFAULT_PSI_WIDTH.
    All values lie in [1, 2].
    """
    x = Fraction(x)
    if x < 0 or x > Fraction(1, 4):
        raise ValueError(f"psi is defined on [0, 1/4], got {x}")
    r = 1 - 4 * x  # in lowest terms: a rational square iff both its terms are squares
    p, q = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if p * p == r.numerator and q * q == r.denominator:
        return PsiBound(x, Fraction(2 * q, q + p), Fraction(2 * q, q + p))
    s = math.isqrt(math.floor(r * 4**_ROOT_BITS))  # s <= 2^70 sqrt(r) < s + 1
    lower = Fraction(2 << _ROOT_BITS, (1 << _ROOT_BITS) + s + 1)
    return PsiBound(x, max(Fraction(1), lower), Fraction(2 << _ROOT_BITS, (1 << _ROOT_BITS) + s))


def reference_below_witness(p, m: int) -> Optional[int]:
    """`ced.contfrac.below_witness` from `eval_finite` over the Fraction weights."""
    ev = eval_finite([weight_b(p, j) for j in range(m + 1)])
    if ev.is_pole:
        return ev.pole_level + 1 if ev.partials[ev.pole_level + 1] > 1 else ev.pole_level
    return 0 if ev.value > 1 else None


def reference_km_good(p, m: int) -> bool:
    """above(m) of `ced.contfrac.forward_pass`, from `is_good` and `psi_bounds` over the Fraction weights."""
    b_m = weight_b(p, m)
    if not b_m < Fraction(1, 4):
        return False
    entries = [weight_b(p, j) for j in range(m - 1)]
    entries.append(weight_b(p, m - 1) * psi_bounds(b_m).upper)
    return is_good(entries).good
