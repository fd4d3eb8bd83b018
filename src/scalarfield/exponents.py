"""Critical exponents and admissibility algebra for the half-space problem.

Everything here is closed-form arithmetic on the exponent parameters
(N, p, q, alpha, ...).  Strict inequalities are decided exactly by lifting
the inputs to rationals (floats are exact rationals), so boundary cases are
always classified as violations without tolerance tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


# float -> Fraction is exact, so < and <= below are decided exactly
_exact = Fraction


@dataclass(frozen=True)
class CriticalExponents:
    """Sobolev and Joseph-Lundgren critical exponents for dimension N."""

    N: int
    p_sobolev: float          # (N+2)/(N-2) for N >= 3, inf otherwise
    p_joseph_lundgren: float  # inf for N <= 10


def critical_exponents(N: int) -> CriticalExponents:
    if N < 1 or int(N) != N:
        raise ValueError(f"dimension must be a positive integer, got {N!r}")
    N = int(N)
    p_s = math.inf if N <= 2 else (N + 2) / (N - 2)
    p_jl = math.inf if N <= 10 else ((N * N - 8 * N + 4 + 8 * math.sqrt(N - 1))
                                     / ((N - 2) * (N - 10)))
    return CriticalExponents(N=N, p_sobolev=p_s, p_joseph_lundgren=p_jl)


@dataclass(frozen=True)
class AdmissiblePair:
    """Result of checking the (q, alpha) integrability conditions."""

    q: float
    alpha: float
    valid: bool
    violated_conditions: tuple[str, ...]


def check_admissible(N: int, p: float, q: float, alpha: float) -> AdmissiblePair:
    """Check the strict admissibility conditions on (q, alpha) for given (N, p)."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    Nf, pf, qf, af = _exact(N), _exact(p), _exact(q), _exact(alpha)
    violated = []
    if not qf > pf:
        violated.append("q > p")
    if not (1 / qf + af < 2 / pf):
        violated.append("1/q + alpha < 2/p")
    if not (Nf / qf + af < 2 / (pf - 1)):
        violated.append("N/q + alpha < 2/(p-1)")
    if not af >= 0:
        violated.append("alpha >= 0")
    return AdmissiblePair(q=float(q), alpha=float(alpha),
                          valid=not violated, violated_conditions=tuple(violated))


def point_mass_admissible(N: int, p: float) -> bool:
    """Whether a boundary point mass is admissible data for (N, p).

    Near the origin P[delta] ~ x_N |x|^{-N}, which lies in L^q_alpha near 0
    iff N/q + alpha > N - 1, while admissibility needs N/q + alpha <
    2/(p - 1).  Both hold for some (q, alpha) iff (N - 1)(p - 1) < 2, that is
    p < (N + 1)/(N - 1), the critical exponent for boundary measure data;
    always true for N = 1.
    """
    if N < 1 or int(N) != N:
        raise ValueError(f"dimension must be a positive integer, got {N!r}")
    if p <= 1:
        raise ValueError("p must exceed 1")
    return (_exact(N) - 1) * (_exact(p) - 1) < 2


def check_besov_region(N: int, p: float, q: float, s: float) -> bool:
    """Whether (q, s) lies in the boundary-data regularity region for (N, p).

    True iff q > max{p, N(p-1)/2} and s < min{2/p, 2/(p-1) - (N-1)/q}.
    """
    if N < 2:
        raise ValueError("boundary regularity region needs N >= 2 "
                         "(the boundary of the half line is a point)")
    Nf, pf, qf, sf = _exact(N), _exact(p), _exact(q), _exact(s)
    if not (qf > pf and qf > Nf * (pf - 1) / 2):
        return False
    return sf < 2 / pf and sf < 2 / (pf - 1) - (Nf - 1) / qf


def green_norm_pair_ok(N: int, q: float, alpha: float,
                       r: float, beta: float) -> tuple[bool, tuple[str, ...]]:
    """Check the four exponent conditions under which G maps L^q_alpha into L^r_beta.

    Conditions: q <= r, 1/q + alpha < 2, 1/r + beta > -1,
    1/q - 1/r < 2/N, N/r + beta >= N/q + alpha - 2.
    """
    Nf, qf, af, rf, bf = _exact(N), _exact(q), _exact(alpha), _exact(r), _exact(beta)
    violated = []
    if not (1 < qf <= rf):
        violated.append("1 < q <= r")
    if not (1 / qf + af < 2):
        violated.append("1/q + alpha < 2")
    if not (1 / rf + bf > -1):
        violated.append("1/r + beta > -1")
    if not (1 / qf - 1 / rf < 2 / Nf):
        violated.append("1/q - 1/r < 2/N")
    if not (Nf / rf + bf >= Nf / qf + af - 2):
        violated.append("N/r + beta >= N/q + alpha - 2")
    return not violated, tuple(violated)


def energy_exponent_window_ok(nu: float, p: float) -> bool:
    """Whether nu >= 1 satisfies nu^2/(2nu - 1) < p (pure formula check)."""
    if nu < 1:
        raise ValueError("nu must be at least 1")
    nf, pf = _exact(nu), _exact(p)
    return nf * nf / (2 * nf - 1) < pf


def _rates(N: int, p: float, q: float, alpha: float) -> tuple[Fraction, Fraction]:
    """Exact (tau, delta) of the recursion; ValueError for inadmissible (q, alpha)."""
    pair = check_admissible(N, p, q, alpha)
    if not pair.valid:
        raise ValueError(f"(q, alpha) inadmissible: {pair.violated_conditions}")
    Nf, pf, qf, af = _exact(N), _exact(p), _exact(q), _exact(alpha)
    # both positive: delta > 0 is N/q + alpha < 2/(p-1), which with alpha >= 0
    # also gives q > N(p-1)/2, i.e. 2/N - (p-1)/q > 0
    delta = 2 - (pf - 1) * (Nf / qf + af)
    tau = 2 / Nf - (pf - 1) / qf
    return (min(tau, delta / (Nf - 1)) if N >= 2 else tau), delta


@dataclass(frozen=True)
class DSetParams:
    """Parameters of the exponent-region recursion D_j(r0, beta0).

    delta is the per-step drop 2 - (p-1)(N/q + alpha); tau controls how fast
    the admissible 1/r window opens downward.
    """

    N: int
    p: float
    q: float
    alpha: float
    r0: float
    beta0: float

    def __post_init__(self):
        if self.r0 <= 1:
            raise ValueError("r0 must exceed 1")
        inv_r0, beta0, slope, _, _ = self._rational
        if not inv_r0 < 1 - slope:
            raise ValueError("starting pair violates 1/r0 < 1 - (p-1)/q")
        if not inv_r0 + beta0 < 2 - slope - (_exact(self.p) - 1) * _exact(self.alpha):
            raise ValueError("starting pair violates 1/r0 + beta0 < 2 - (p-1)(1/q + alpha)")

    @cached_property
    def _rational(self) -> tuple[Fraction, ...]:
        """(1/r0, beta0, (p-1)/q, tau, delta) as exact rationals."""
        return (1 / _exact(self.r0), _exact(self.beta0),
                (_exact(self.p) - 1) / _exact(self.q),
                *_rates(self.N, self.p, self.q, self.alpha))

    @property
    def tau(self) -> float:
        return float(self._rational[3])

    @property
    def delta(self) -> float:
        return float(self._rational[4])


def tau(N: int, p: float, q: float, alpha: float) -> float:
    """The window-opening rate of the recursion; positive for admissible input."""
    return float(_rates(N, p, q, alpha)[0])


def _beta_j(j: int, inv_r: Fraction, params: DSetParams) -> Fraction:
    inv_r0, beta0, _, _, delta = params._rational
    return max(beta0 + params.N * (inv_r0 - inv_r) - j * delta, -1 - inv_r)


def beta_j(j: int, r: float, params: DSetParams) -> float:
    """Lower envelope beta_j(r); nonincreasing in j for fixed r."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if r <= 1:
        raise ValueError("r must exceed 1")
    return float(_beta_j(j, 1 / _exact(r), params))


def d_membership(j: int, r: float, beta: float, params: DSetParams) -> bool:
    """Whether (r, beta) belongs to the j-th region of the recursion."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if r <= 1:
        return False
    if j == 0:
        return r == params.r0 and beta == params.beta0
    inv_r = 1 / _exact(r)
    inv_r0, _, slope, tau_f, _ = params._rational
    return (inv_r0 - j * tau_f < inv_r < inv_r0 + j * slope
            and _exact(beta) > _beta_j(j, inv_r, params))


def stabilization_index(params: DSetParams) -> int:
    """Smallest j at which the region recursion reaches its terminal set.

    The terminal set is {(r, beta): r > 1, 1/r + beta > -1}.  The recursion
    reaches it once the 1/r window covers (0, 1) and the drifting branch of
    beta_j lies below -1 - 1/r for every r > 1, i.e. beta0 + N/r0 + 1 <= j*delta
    (the branch difference is largest as r -> infinity).  All three conditions
    are linear in j, so j* is the largest of their exact ceilings.
    """
    inv_r0, beta0, slope, tau_f, delta = params._rational
    return max(1, math.ceil(inv_r0 / tau_f), math.ceil((1 - inv_r0) / slope),
               math.ceil((beta0 + params.N * inv_r0 + 1) / delta))
