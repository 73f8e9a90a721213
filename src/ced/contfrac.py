"""The two decision kernels: integer sweeps of finite continued fractions.

Notation: K[c_0, ..., c_n] = c_0 / (1 - c_1 / (1 - ... / (1 - c_n))).
Evaluation runs bottom up through tail values t_i = K[c_i, ..., c_n].
A tail value of exactly 1 makes the level above infinite; past 1 the
fraction is still algebraically defined but no longer tracks a convergent
series, so both cases stop evaluation and are reported as a pole.

The two kernels consumed by the decision module:

* `below_witness` scans one bottom-up sweep of K[b_i, ..., b_m] for a
  partial exceeding 1 (or blowing up), which certifies that the weighted
  Catalan generating function already has a singularity at or before d,
  i.e. the death rate is below critical.

* `km_good` checks the flattened upper-bound fraction
  K[1, b_0, ..., b_{m-2}, b_{m-1} psi(b_m)] for goodness, where
  psi(x) = (1 - sqrt(1 - 4x)) / (2x) is the generating function of the
  plain Catalan numbers, closing off the flattened tail in one stroke.
  A good sweep certifies convergence strictly beyond d, i.e. the death
  rate is above critical.

The kernels run a three-term recurrence of continuants on integers
(Flajolet, "Combinatorial aspects of continued fractions", 1980), with no
Fraction and no gcd per level.

Continuants.  For entries c_0, ..., c_n and a closing factor r > 0 (r = 1
for the plain fraction), set R_{n+1} = r, R_n = 1 and

    R_i = R_{i+1} - c_{i+1} R_{i+2}        for i = n-1, ..., -1.

Then 1 - t_{i+1} = R_i / R_{i+1} and t_i = c_i R_{i+1} / R_i for the tails
of K[c_0, ..., c_{n-1}, c_n r], by induction down from t_n = c_n r: while
R_{i+1} != 0, 1 - t_{i+1} = 1 - c_{i+1} R_{i+2} / R_{i+1} = R_i / R_{i+1}.

Scaling.  With lambda = a/b, rho = c/e, G_i = be + ae + i bc and
alpha = d a b e^2 (see `params.progression`), b_j = alpha / (G_{j+1}
G_{j+2}).  Write r = Y/Z with Z > 0 and

    R_i = S_i / (Z prod_{l=i+2..n+2} G_l).

Then S_{n+1} = Y, S_n = Z G_{n+2} and, multiplying the recurrence for
c_{i+1} = b_{i+1} by Z prod_{l=i+2..n+2} G_l,

    S_i = G_{i+2} S_{i+1} - alpha S_{i+2},

one big-by-small product per level.  Every G_l is positive, so S_i and R_i
have the same sign.  While S_{i+1}, ..., S_n > 0 the sweep has reached
level i+1 without a pole, and three sign rules follow:

* the denominator at level i is 1 - t_{i+1} = R_i / R_{i+1}, so there is
  a pole at level i (0 <= i < n) exactly when S_i <= 0;
* t_{i+1} > 1 exactly when S_i < 0, and t_{i+1} = 1 exactly when S_i = 0;
* t_0 > 1 exactly when S_{-1} < 0 (and t_0 < 1 exactly when S_{-1} > 0).

`below_witness` is the sign scan for K[b_0, ..., b_m] with r = 1 (Y = Z
= 1); `km_good` is the same sweep for K[b_0, ..., b_{m-1}] closed by
r = psi's upper bound at b_m, good exactly when every S_i > 0 down to
i = -1.  Its precondition b_m < 1/4 reads 4 alpha < G_{m+1} G_{m+2}.

Closing factor.  Y/Z bounds psi(b_m) = 2 / (1 + sqrt(1 - 4 b_m)) from
above, formed from integers for b_m = P/Q unreduced (P = alpha, Q =
G_{m+1} G_{m+2}).  If v = (Q - 4P) Q is a perfect square, 1 - 4 b_m is
the square of isqrt(v)/Q, and Y = 2Q, Z = Q + isqrt(v).  Otherwise the root's lower end on the grid 2^-k,
k = 70, is s / 2^k with s = isqrt(floor((Q - 4P) 4^k / Q)), and Y =
2^(k+1), Z = 2^k + s.  That grid does not depend on b_m's denominator, so
off the rational squares the bound rises with b_m and a good sweep stays
good as rho rises, which `decision` relies on (no bound exact on that
dense set can be monotone short of psi itself).  Y/Z is left unreduced:
every S_i is linear in the starting values S_{n+1} = Y and S_n = Z G_{n+2},
so a common factor of Y and Z changes no sign.

Each sweep reads alpha, the step bc and G_{m+1} from the parameters and
steps G down the progression, so nothing is kept between calls.

Bound sweeps.  The continuants S_i gain the bits of one G a level, so an
exact sweep to depth m costs about m^2 word operations.  Both kernels
first run a sweep of bounds on the tails at the fixed scale 2^W, W = 64 +
the bits of rho's denominator.  Below 1, t_j = b_j / (1 - t_{j+1}) rises
with t_{j+1}, so from lo <= 2^W t_{j+1} <= hi < 2^W

    floor(alpha 2^(2W) / (G_{j+1} G_{j+2} (2^W - lo))) <= 2^W t_j
        <= ceil(alpha 2^(2W) / (G_{j+1} G_{j+2} (2^W - hi))),

with b_j exact inside each division: one floor and one ceil division of
numbers of about 2W bits a level, whatever m.  While every upper bound
stays below 2^W, every tail so far is below 1.  `below_witness` returns
level j once its lower bound exceeds 2^W, and None when the upper bounds
stay below 2^W through level 0; `km_good` is good in that last case and
not good once a lower bound reaches 2^W.  Any other case, a tail whose
bounds straddle 1 (an exact tie t = 1 among them), runs the exact sweep,
so every answer is the exact one.  Near the threshold the tails come
within about rho's grid step of 1; the 64 guard bits leave room below
that for the rounding that builds up over the levels.
"""

from __future__ import annotations

import math
from typing import Optional

from ced.params import ModelParams, _progression_origin

#: The closing factor puts sqrt(1 - 4x) on the grid 2^-_ROOT_BITS for every x
#: (module docstring); psi's slope in the root is at most 2, so the bound
#: lies within 2^-69 of psi.
_ROOT_BITS = 70

#: Guard bits of the bound sweeps' scale over rho's grid step (`_scale`).
_GUARD_BITS = 64


def _psi_upper(num: int, den: int) -> tuple[int, int]:
    """(Y, Z), Z > 0, with Y/Z >= psi(num/den), exact at the rational squares (module docstring)."""
    v = (den - 4 * num) * den
    root = math.isqrt(v)
    if root * root == v:  # 1 - 4x is the square of root/den
        return 2 * den, den + root
    return 2 << _ROOT_BITS, (1 << _ROOT_BITS) + math.isqrt(((den - 4 * num) << 2 * _ROOT_BITS) // den)


def _integers(p: ModelParams, m: int) -> tuple[int, int, int]:
    """alpha = d a b e^2, the step bc and G_{m+1} of `params.progression`."""
    if m < 1:
        raise ValueError("truncation depth m must be >= 1")
    g0, step = _progression_origin(p)
    return p.d * p.lam.numerator * p.lam.denominator * p.rho.denominator**2, step, g0 + (m + 1) * step


def _scale(p: ModelParams) -> int:
    """2^W, W = _GUARD_BITS + the bits of rho's denominator: the bound sweeps' scale."""
    return 1 << (_GUARD_BITS + p.rho.denominator.bit_length())


def _sweep(alpha: int, step: int, g: int, i: int, s_next: int, s: int) -> Optional[tuple[int, int]]:
    """First (j, S_j) with S_j <= 0 for j = i, i-1, ..., -1, else None.

    Starts from S_{i+2} = s_next, S_{i+1} = s and g = G_{i+2}.
    """
    for j in range(i, -2, -1):
        s_next, s = s, g * s - alpha * s_next
        if s <= 0:
            return j, s
        g -= step
    return None


def _bound_sweep(alpha: int, step: int, g: int, j: int, lo: int, hi: int, one: int) -> Optional[tuple[int, int]]:
    """First (i, lower bound on one t_i) whose upper bound reaches one, for i = j, j-1, ..., 0, else None.

    Starts from lo <= one t_j <= hi and g = G_{j+1} (module docstring).
    """
    top = alpha * one * one
    while hi < one:
        if not j:
            return None
        j, g = j - 1, g - step  # g = G_{j+1}
        den = g * (g + step)
        lo, hi = top // (den * (one - lo)), -(-top // (den * (one - hi)))
    return j, lo


def below_witness(p: ModelParams, m: int) -> Optional[int]:
    """Largest i with K[b_i, ..., b_m] > 1 (or infinite), else None.

    One bottom-up sweep of continuants settles every tail value at once.
    A tail value of exactly 1 makes the level above it +infinity, which
    counts as a witness at that level: the singularity it creates sits at
    or before d, and the caller treats the boundary case as below
    critical.  So the scan returns i+1 at the first S_i < 0, i at the
    first S_i = 0 with i >= 0, and None when S_{-1} >= 0.  A bound sweep
    settles it first unless a tail's bounds straddle 1.
    """
    alpha, step, g = _integers(p, m)
    one, den = _scale(p), g * (g + step)
    bound = _bound_sweep(alpha, step, g, m, alpha * one // den, -(-alpha * one // den), one)
    if bound is None:
        return None
    if bound[1] > one:
        return bound[0]
    hit = _sweep(alpha, step, g, m - 1, 1, g + step)
    if hit is None:
        return None
    i, s = hit
    return i + 1 if s < 0 else (i if i >= 0 else None)


def km_good(p: ModelParams, m: int) -> bool:
    """Goodness of the flattened upper-bound fraction at depth m.

    Requires b_m < 1/4 (checked; returns False immediately otherwise).
    The tail is closed off by psi evaluated at b_m, taken at its upper
    bound: goodness is monotone decreasing in every entry, so good with
    the inflated last entry implies good with the true value.  Good
    exactly when every continuant S_i of the sweep is positive.  A bound
    sweep from t_{m-1} = alpha Y / (G_m G_{m+1} Z) settles it first unless
    a tail's bounds straddle 1.
    """
    alpha, step, g = _integers(p, m)
    den = g * (g + step)
    if not 4 * alpha < den:  # b_m = alpha / den is not below 1/4
        return False
    y, z = _psi_upper(alpha, den)
    one, q = _scale(p), (g - step) * g * z  # t_{m-1} = alpha y / q
    bound = _bound_sweep(alpha, step, g - step, m - 1, alpha * y * one // q, -(-alpha * y * one // q), one)
    if bound is None:
        return True
    if bound[1] >= one:
        return False
    return _sweep(alpha, step, g - step, m - 2, y, z * g) is None
