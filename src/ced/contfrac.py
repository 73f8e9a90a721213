"""The decision kernels: integer runs over finite continued fractions.

Notation: K[c_0, ..., c_n] = c_0 / (1 - c_1 / (1 - ... / (1 - c_n))).
Evaluation runs bottom up through tail values t_i = K[c_i, ..., c_n].
A tail value of exactly 1 makes the level above infinite; past 1 the
fraction is still algebraically defined but no longer tracks a convergent
series, so both cases stop evaluation and are reported as a pole.

The decision module's two tests at a truncation depth m:

* below(m): a tail of K[b_0, ..., b_m] exceeds 1 (or blows up), so the
  weighted Catalan generating function already has a singularity at or
  before d: the death rate is below critical.  `below_witness` returns
  the deepest such level.
* above(m), `km_good`: b_m < 1/4 and the flattened upper-bound fraction
  K[1, b_0, ..., b_{m-2}, b_{m-1} psi(b_m)] is good (every tail below 1),
  with psi(x) = (1 - sqrt(1 - 4x)) / (2x) the plain Catalan generating
  function closing off the flattened tail: convergence strictly beyond
  d, so the death rate is above critical.

`forward_pass` answers both at every depth of a schedule in one pass.
The kernels run three-term recurrences of continuants on integers
(Flajolet, "Combinatorial aspects of continued fractions", 1980), with no
Fraction and no gcd per level.  With lambda = a/b, rho = c/e, G_i = be +
ae + i bc > 0 and alpha = d a b e^2 (`params.progression`), b_j = alpha /
(G_{j+1} G_{j+2}).

Backward continuants (`below_witness`).  Set S_{m+1} = 1, S_m = G_{m+2}
and S_i = G_{i+2} S_{i+1} - alpha S_{i+2} for i = m-1, ..., -1, one
big-by-small product per level.  Then 1 - t_{i+1} = S_i / (G_{i+2}
S_{i+1}) by induction down from t_m = b_m, so while S_{i+1}, ..., S_m > 0:

* there is a pole at level i (0 <= i < m) exactly when S_i <= 0;
* t_{i+1} > 1 exactly when S_i < 0, and t_{i+1} = 1 exactly when S_i = 0;
* t_0 > 1 exactly when S_{-1} < 0 (and t_0 < 1 exactly when S_{-1} > 0).

Forward continuants (`forward_pass`).  Let F_{-1} = F_0 = 1 and F_{j+1} =
F_j - b_j F_{j-1}.  Up to positive factors the F_j and the S_i are the
leading and the trailing minors of one symmetric tridiagonal matrix, and
by the chain-sequence criterion every tail of K[b_0, ..., b_n] lies below
1 exactly when F_1, ..., F_{n+1} > 0 (Wall and Wetzel, Duke Math. J. 11,
1944; Wall, Analytic Theory of Continued Fractions, 1948).  So, with
`below_witness`'s ties and Y/Z psi's closing bound at b_m,

    below(m) <=> F_j <= 0 for some j <= m, or F_{m+1} < 0 (F_{m+1} = 0 is t_0 = 1);
    above(m) <=> 4 alpha < G_{m+1} G_{m+2}, F_1, ..., F_{m-1} > 0 and
                 F_{m-1} - b_{m-1} (Y/Z) F_{m-2} > 0.

In the ratios u_j = F_{j+1} / F_j, u_{-1} = 1 and u_j = 1 - b_j / u_{j-1}:
the first u_j <= 0 ends the pass, and depth m's closing test reads
u_{m-2} > b_{m-1} Y/Z, which makes u_{m-1} > 0 too (Y/Z >= 1).  So one
pass up j, testing depth m's closing at j = m - 2, returns the first depth
of a schedule where either test holds.

Closing factor.  Y/Z bounds psi(b_m) = 2 / (1 + sqrt(1 - 4 b_m)) from
above, formed from integers for b_m = P/Q unreduced (P = alpha, Q =
G_{m+1} G_{m+2}).  If v = (Q - 4P) Q is a perfect square, 1 - 4 b_m is
the square of isqrt(v)/Q, and Y = 2Q, Z = Q + isqrt(v).  Otherwise the
root's lower end on the grid 2^-k, k = 70, is s / 2^k with s =
isqrt(floor((Q - 4P) 4^k / Q)), and Y = 2^(k+1), Z = 2^k + s.  That grid
does not depend on b_m's denominator, so off the rational squares the
bound rises with b_m and a good fraction stays good as rho rises, which
`decision` relies on (no bound exact on that dense set can be monotone
short of psi itself).  Y/Z is left unreduced: the closing test is linear
in Y and in Z, so a common factor changes nothing.

Bounds first.  Exact continuants gain the bits of a G a level, so an
exact run to depth m costs about m^2 word operations.  So both kernels
first run bounds at the fixed scale one = 2^W, W = 64 + the bits of rho's
denominator, with b_j exact inside each division: one floor and one ceil
division a level, of numbers that do not grow with m.  Below 1, t_j =
b_j / (1 - t_{j+1}) rises with t_{j+1}, and above 0, u_j rises with
u_{j-1}; so from lo <= one t_{j+1} <= hi < one, and from 0 < lo <= one
u_{j-1} <= hi, with q = alpha one^2 / (G_{j+1} G_{j+2}),

    floor(q / (one - lo)) <= one t_j <= ceil(q / (one - hi)),
    one - ceil(q / lo) <= one u_j <= one - floor(q / hi).

A test whose bounds straddle it (an exact tie among them) runs exactly:
`below_witness` the continuant sweep, and `forward_pass` the same loop
again on u_j = T_{j+1} / (G_{j+2} T_j), where T_{-1} = 1, T_0 = G_1 and
T_{j+1} = G_{j+2} T_j - alpha T_{j-1} = G_1 ... G_{j+2} F_{j+1}, two
big-by-small products and one exact division by G_{j+1} a level.  So
every answer is the exact one.  Near the threshold the tails come within
about rho's grid step of 1 and the ratios of 0; the 64 guard bits leave
room below that for the rounding that builds up over the levels.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence, Union

from ced.params import ModelParams, _progression_origin

#: The closing factor puts sqrt(1 - 4x) on the grid 2^-_ROOT_BITS for every x
#: (module docstring); psi's slope in the root is at most 2, so the bound
#: lies within 2^-69 of psi.
_ROOT_BITS = 70

#: Guard bits of the bound runs' scale over rho's grid step (`_scale`).
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
    """2^W, W = _GUARD_BITS + the bits of rho's denominator: the scale of the bound runs."""
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


def _pass(alpha: int, step: int, g: int, depths: Sequence[int], scale: int) -> Union[None, bool, tuple[int, bool]]:
    """`forward_pass` from g = G_0, on bounds at the scale `scale`, or exactly if it is 0; False: a test straddles."""
    wanted, one, top = set(depths), scale or g + step, alpha * scale * scale
    lo = hi = one  # one u_{-1} = F_0 / F_{-1}
    for j in range(depths[-1] + 1):
        g += step  # G_{j+1}
        den = g * (g + step)  # alpha / b_j
        if j + 1 in wanted and 4 * alpha < (q := (g + step) * (g + 2 * step)):  # b_{j+1} < 1/4
            y, z = _psi_upper(alpha, q)  # depth j + 1's closing test: u_{j-1} > b_j Y/Z
            if z * den * lo > alpha * y * one:
                return j + 1, False
            if z * den * hi > alpha * y * one:  # the bounds straddle it
                return False
        if scale:  # den lo = one u_{j-1} / b_j, at each end
            lo, hi = one + -top // (den * lo), one - top // (den * hi)
        else:  # lo = T_j and one = G_{j+1} T_{j-1}, so that u_j = T_{j+1} / (G_{j+2} T_j)
            one, t = (g + step) * lo, one // g  # G_{j+2} T_j and T_{j-1}
            lo = hi = one - alpha * t  # T_{j+1}
        if lo <= 0:
            if lo < hi and hi >= 0:  # the bounds straddle 0
                return False
            k = bisect.bisect_left(depths, j + (hi == 0))
            return (depths[k], True) if k < len(depths) else None
    return None


def forward_pass(p: ModelParams, depths: Sequence[int]) -> Optional[tuple[int, bool]]:
    """(m, True) at the first m of depths with below(m), (m, False) at the first with above(m), else None.

    depths ascend from 1.  The pass (module docstring) stops at the first
    u_j <= 0, which is below(m) at the first depth m >= j (m > j when u_j
    = 0), or at the first depth m whose closing test passes, before u_{m-1}.
    It runs on bounds at the scale `_scale(p)`, and once more exactly if a
    test straddles its bounds.
    """
    alpha, step, g = _integers(p, depths[0])
    g -= (depths[0] + 1) * step  # G_0
    hit = _pass(alpha, step, g, depths, _scale(p))
    return _pass(alpha, step, g, depths, 0) if hit is False else hit


def km_good(p: ModelParams, m: int) -> bool:
    """Goodness of the flattened upper-bound fraction K[b_0, ..., b_{m-2}, b_{m-1} psi(b_m)] at depth m.

    False whenever b_m >= 1/4.  The tail is closed off by psi's upper bound
    at b_m: goodness is monotone decreasing in every entry, so good with the
    inflated last entry implies good with the true value.  Answered by the
    forward pass at the single depth m.
    """
    return forward_pass(p, [m]) == (m, False)
