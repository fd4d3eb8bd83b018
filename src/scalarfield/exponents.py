"""Critical exponents and admissibility algebra for the half-space problem.

Everything here is closed-form arithmetic on the exponent parameters
(N, p, q, alpha, ...).  Strict inequalities are decided exactly by lifting
the inputs to rationals (floats are exact rationals), so boundary cases are
always classified as violations without tolerance tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


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
    if N <= 10:
        p_jl = math.inf
    else:
        p_jl = (N * N - 8 * N + 4 + 8 * math.sqrt(N - 1)) / ((N - 2) * (N - 10))
    return CriticalExponents(N=N, p_sobolev=p_s, p_joseph_lundgren=p_jl)


@dataclass(frozen=True)
class AdmissiblePair:
    """Result of checking the (q, alpha) integrability conditions."""

    q: float
    alpha: float
    valid: bool
    violated_conditions: tuple[str, ...]


# condition identifiers are the inequalities themselves, in input symbols
_COND_Q_GT_P = "q > p"
_COND_SLOPE = "1/q + alpha < 2/p"
_COND_DIM = "N/q + alpha < 2/(p-1)"
_COND_ALPHA = "alpha >= 0"


def check_admissible(N: int, p: float, q: float, alpha: float) -> AdmissiblePair:
    """Check the strict admissibility conditions on (q, alpha) for given (N, p)."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    Nf, pf, qf, af = _exact(N), _exact(p), _exact(q), _exact(alpha)
    violated = []
    if not qf > pf:
        violated.append(_COND_Q_GT_P)
    if not (1 / qf + af < 2 / pf):
        violated.append(_COND_SLOPE)
    if not (Nf / qf + af < 2 / (pf - 1)):
        violated.append(_COND_DIM)
    if not af >= 0:
        violated.append(_COND_ALPHA)
    return AdmissiblePair(q=float(q), alpha=float(alpha),
                          valid=not violated, violated_conditions=tuple(violated))


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


@dataclass
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
    tau: float = field(init=False)
    delta: float = field(init=False)
    j_star: int | None = field(init=False, default=None)

    def __post_init__(self):
        pair = check_admissible(self.N, self.p, self.q, self.alpha)
        if not pair.valid:
            raise ValueError(f"(q, alpha) inadmissible: {pair.violated_conditions}")
        if self.r0 <= 1:
            raise ValueError("r0 must exceed 1")
        Nf, pf, qf, af = (_exact(self.N), _exact(self.p),
                          _exact(self.q), _exact(self.alpha))
        r0f, b0f = _exact(self.r0), _exact(self.beta0)
        if not (1 / r0f < 1 - (pf - 1) / qf):
            raise ValueError("starting pair violates 1/r0 < 1 - (p-1)/q")
        if not (1 / r0f + b0f < 2 - (pf - 1) * (1 / qf + af)):
            raise ValueError("starting pair violates 1/r0 + beta0 < 2 - (p-1)(1/q + alpha)")
        self.delta = float(2 - (pf - 1) * (Nf / qf + af))
        if self.N >= 2:
            self.tau = float(min(Fraction(2, self.N) - (pf - 1) / qf,
                                 (2 - (pf - 1) * (Nf / qf + af)) / (Nf - 1)))
        else:
            self.tau = float(2 - (pf - 1) / qf)
        assert self.tau > 0 and self.delta > 0


def tau(N: int, p: float, q: float, alpha: float) -> float:
    """The window-opening rate of the recursion; positive for admissible input."""
    return DSetParams(N, p, q, alpha, r0=max(q, 2.0), beta0=0.0).tau


def beta_j(j: int, r: float, params: DSetParams) -> float:
    """Lower envelope beta_j(r); nonincreasing in j for fixed r."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if r <= 1:
        raise ValueError("r must exceed 1")
    drift = params.beta0 + params.N * (1.0 / params.r0 - 1.0 / r) - j * params.delta
    return max(drift, -1.0 - 1.0 / r)


def d_membership(j: int, r: float, beta: float, params: DSetParams) -> bool:
    """Whether (r, beta) belongs to the j-th region of the recursion."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if r <= 1:
        return False
    if j == 0:
        return r == params.r0 and beta == params.beta0
    inv_r = 1.0 / r
    lo = 1.0 / params.r0 - j * params.tau
    hi = 1.0 / params.r0 + j * (params.p - 1) / params.q
    return lo < inv_r < hi and beta > beta_j(j, r, params)


def stabilization_index(params: DSetParams) -> int:
    """Smallest j at which the region recursion reaches its terminal set.

    The terminal set is {(r, beta): r > 1, 1/r + beta > -1}.  The recursion
    equals it exactly when the 1/r window covers (0, 1) and the drifting
    branch of beta_j has fallen below -1 - 1/r for every r > 1; the latter
    reduces to beta0 + N/r0 + 1 - j*delta <= 0 since sup_r of the branch
    difference is attained as r -> infinity.
    """
    j = 1
    while True:
        window_lo = 1.0 / params.r0 - j * params.tau <= 0.0
        window_hi = 1.0 / params.r0 + j * (params.p - 1) / params.q >= 1.0
        envelope = params.beta0 + params.N / params.r0 + 1.0 - j * params.delta <= 0.0
        if window_lo and window_hi and envelope:
            params.j_star = j
            return j
        j += 1
        if j > 10_000_000:  # admissibility guarantees termination well before this
            raise RuntimeError("stabilization index did not terminate")
