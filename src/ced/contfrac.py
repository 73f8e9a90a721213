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
* above(m): b_m < 1/4 and the flattened upper-bound fraction
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

One recurrence, read in two directions.  `_pass` runs the ratios

    u_{-1} = 1,  u_j = 1 - c_j / u_{j-1},  c_j = alpha / (g_{j+1} g_{j+2}),

over an arithmetic progression g_i > 0, and stops at the first u_j <= 0.

* Backward (`below_witness`): g_i = G_{m+3-i}, so c_k = b_{m-k}.  By
  induction from u_0 = 1 - b_m, u_k = 1 - t_{m-k} while u_0, ..., u_{k-1}
  > 0, so the first u_k <= 0 over k = 0, ..., m names the deepest tail
  at or past 1: t_{m-k} > 1 when u_k < 0, and t_{m-k} = 1, a pole at
  level m - k - 1 (none when k = m), when u_k = 0.
* Forward (`forward_pass`): g_i = G_i, so c_j = b_j and u_j = F_{j+1} /
  F_j for the continuants F_{-1} = F_0 = 1, F_{j+1} = F_j - b_j F_{j-1}.
  The two runs' continuants are, up to positive factors, the leading and
  the trailing minors of one symmetric tridiagonal matrix, and by the
  chain-sequence criterion every tail of K[b_0, ..., b_n] lies below 1
  exactly when F_1, ..., F_{n+1} > 0 (Wall and Wetzel, Duke Math. J. 11,
  1944; Wall, Analytic Theory of Continued Fractions, 1948).  So, with the
  backward run's ties and Y/Z psi's closing bound at b_m,

    below(m) <=> u_j <= 0 for some j < m, or u_m < 0 (u_m = 0 is t_0 = 1);
    above(m) <=> 4 alpha < G_{m+1} G_{m+2}, u_0, ..., u_{m-2} > 0 and
                 u_{m-2} > b_{m-1} Y/Z,

  which makes u_{m-1} > 0 too (Y/Z >= 1).  So one pass up j, testing
  depth m's closing before it forms u_{m-1}, returns the first depth of a
  schedule where either test holds: below at the first depth m >= j for
  the first u_j < 0, and m > j for the first u_j = 0.

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
exact run to depth m costs about m^2 word operations.  So each run is
first made on bounds at the fixed scale one = 2^W, W = 64 + the bits of
rho's denominator, with c_j exact inside each division: one floor and one
ceil division a level, of numbers that do not grow with m.  Above 0, u_j
rises with u_{j-1}; so from 0 < lo <= one u_{j-1} <= hi, with q = alpha
one^2 / (g_{j+1} g_{j+2}),

    one - ceil(q / lo) <= one u_j <= one - floor(q / hi).

A test whose bounds straddle it (an exact tie among them) makes `_pass`
rerun itself exactly from g_0, on u_j = T_{j+1} / (g_{j+2} T_j), where
T_{-1} = 1, T_0 = g_1 and T_{j+1} = g_{j+2} T_j - alpha T_{j-1} = g_1 ...
g_{j+2} F_{j+1}: two big-by-small products a level.  So every answer is
the exact one.  Near the threshold the tails come within about rho's grid
step of 1 and the ratios of 0; the 64 guard bits leave room below that for
the rounding that builds up over the levels.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence

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


def _pass(alpha: int, step: int, g0: int, levels: int, depths: Sequence[int], scale: int) -> Optional[tuple[int, bool]]:
    """The ratios u_0, ..., u_{levels-1} from g0 = g_0, closing each of depths (module docstring).

    On bounds at the scale `scale`, or exactly if it is 0; a test that
    straddles its bounds reruns the whole pass exactly, where lo = hi and
    no test can straddle.  (m, False) at the first depth m whose closing
    test passes, (j, True) at the first u_j < 0 and (j + 1, True) at the
    first u_j = 0, else None.
    """
    wanted, g, one, top = set(depths), g0, scale or g0 + step, alpha * scale * scale
    lo = hi = one  # one u_{-1}
    t = 1  # T_{-1}, for the exact run
    for j in range(levels):
        g += step  # g_{j+1}
        den = g * (g + step)  # alpha / c_j
        if j + 1 in wanted and 4 * alpha < (q := (g + step) * (g + 2 * step)):  # c_{j+1} < 1/4
            y, z = _psi_upper(alpha, q)  # depth j + 1's closing test: u_{j-1} > c_j Y/Z
            if z * den * lo > alpha * y * one:
                return j + 1, False
            if z * den * hi > alpha * y * one:  # the bounds straddle it
                return _pass(alpha, step, g0, levels, depths, 0)
        if scale:  # den lo = one u_{j-1} / c_j, at each end
            lo, hi = one + -top // (den * lo), one - top // (den * hi)
        else:  # lo = T_j, t = T_{j-1} and one = g_{j+1} T_{j-1}, so that u_{j-1} = lo / one
            one = (g + step) * lo  # g_{j+2} T_j
            lo, t = one - alpha * t, lo  # T_{j+1} and T_j
            hi = lo
        if lo <= 0:
            if lo < hi and hi >= 0:  # the bounds straddle 0
                return _pass(alpha, step, g0, levels, depths, 0)
            return j + (hi == 0), True
    return None


def below_witness(p: ModelParams, m: int) -> Optional[int]:
    """Largest i with K[b_i, ..., b_m] > 1 (or infinite), else None.

    One backward run of `_pass` settles every tail value at once.  A tail
    value of exactly 1 makes the level above it +infinity, which counts
    as a witness at that level: the singularity it creates sits at or
    before d, and the caller treats the boundary case as below critical.
    So the first u_k < 0 gives level m - k, the first u_k = 0 level
    m - k - 1, and None when that is -1 or every u_k > 0.
    """
    alpha, step, g = _integers(p, m)
    hit = _pass(alpha, -step, g + 2 * step, m + 1, (), _scale(p))  # from g_0 = G_{m+3}
    return m - hit[0] if hit and hit[0] <= m else None


def forward_pass(p: ModelParams, depths: Sequence[int]) -> Optional[tuple[int, bool]]:
    """(m, True) at the first m of depths with below(m), (m, False) at the first with above(m), else None.

    depths ascend from 1.  The pass (module docstring) stops at the first
    u_j <= 0, which is below(m) at the first depth m >= j (m > j when u_j
    = 0), or at the first depth m whose closing test passes, before u_{m-1}.
    """
    alpha, step, g = _integers(p, depths[0])
    hit = _pass(alpha, step, g - (depths[0] + 1) * step, depths[-1] + 1, depths, _scale(p))  # from g_0 = G_0
    if not hit or not hit[1]:
        return hit
    k = bisect.bisect_left(depths, hit[0])
    return (depths[k], True) if k < len(depths) else None
