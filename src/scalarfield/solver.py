"""Minimal-solution iteration, Newton refinement, and threshold bisection.

The fixed-point map is Psi(v) = kappa * Pmu + G[v_+^p].  Starting from
U_0 = Pmu the iterates converge to the minimal solution when one exists
and blow up otherwise, which is what the threshold bisection keys on.
The sup increment |U_{j+1} - U_j| equals the fixed-point residual of U_j,
so the stopping rule controls the true residual of the returned iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .discretization import Field
from .operators import KernelMatrix, jacobian

_DIVERGENCE_STREAK = 20


class BracketError(ValueError):
    """The supplied kappa bracket does not straddle the threshold."""


class NearFoldError(RuntimeError):
    """Newton's method hit a (numerically) singular Jacobian."""


@dataclass(frozen=True)
class SolveResult:
    status: str                 # "converged" | "diverged" | "iteration_limit"
    solution: Field | None
    iterations: int
    residual_sup: float
    increments: np.ndarray      # sup |U_{j+1} - U_j| per step
    recorded: tuple = ()        # first few iterates, when requested

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def psi_map(values: np.ndarray, kappa: float, K: KernelMatrix,
            Pmu: Field, p: float) -> np.ndarray:
    """One application of the fixed-point map kappa*Pmu + G[v_+^p]."""
    return kappa * Pmu.values + K.entries @ np.maximum(values, 0.0) ** p


def monotone_iterate(kappa: float, K: KernelMatrix, Pmu: Field, p: float,
                     tol: float = 1e-8, max_iter: int = 100_000,
                     blowup_cap: float = 1e6, start_zero: bool = False,
                     record_iterates: int = 0) -> SolveResult:
    """Iterate the fixed-point map from below until convergence or blow-up."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if tol <= 0.0 or max_iter < 1 or blowup_cap <= 0.0:
        raise ValueError("tol, max_iter and blowup_cap must be positive")
    u = np.zeros(K.grid.n_nodes) if start_zero else Pmu.values.copy()
    increments = []
    recorded = []
    growth_streak = 0
    for it in range(1, max_iter + 1):
        if record_iterates and len(recorded) < record_iterates:
            recorded.append(u.copy())
        nxt = psi_map(u, kappa, K, Pmu, p)
        inc = float(np.max(np.abs(nxt - u)))
        increments.append(inc)
        sup = float(np.max(nxt))
        if not np.isfinite(sup) or sup > blowup_cap:
            return SolveResult(status="diverged", solution=None, iterations=it,
                               residual_sup=np.inf,
                               increments=np.array(increments),
                               recorded=tuple(recorded))
        if len(increments) >= 2 and inc > increments[-2]:
            growth_streak += 1
            if growth_streak >= _DIVERGENCE_STREAK:
                return SolveResult(status="diverged", solution=None,
                                   iterations=it, residual_sup=np.inf,
                                   increments=np.array(increments),
                                   recorded=tuple(recorded))
        else:
            growth_streak = 0
        if inc <= tol * sup:
            residual = float(np.max(np.abs(psi_map(nxt, kappa, K, Pmu, p) - nxt)))
            return SolveResult(status="converged", solution=Field(K.grid, nxt),
                               iterations=it, residual_sup=residual,
                               increments=np.array(increments),
                               recorded=tuple(recorded))
        u = nxt
    return SolveResult(status="iteration_limit", solution=Field(K.grid, u),
                       iterations=max_iter,
                       residual_sup=float(increments[-1]),
                       increments=np.array(increments),
                       recorded=tuple(recorded))


def newton_refine(u0: Field, kappa: float, K: KernelMatrix, Pmu: Field,
                  p: float, tol: float = 1e-12, max_iter: int = 50) -> Field:
    """Newton's method on F(u) = u - kappa*Pmu - G[u_+^p] from the seed u0."""
    u = u0.values.copy()
    prev_res = np.inf
    for _ in range(max_iter):
        F = u - psi_map(u, kappa, K, Pmu, p)
        res = float(np.max(np.abs(F)))
        if res <= tol:
            return Field(K.grid, u)
        J = jacobian(K, Field(K.grid, u), p)
        with np.errstate(all="ignore"):
            lu = lu_factor(J, check_finite=False)
            step = lu_solve(lu, F, check_finite=False)
        if not np.all(np.isfinite(step)):
            raise NearFoldError("Newton step failed: singular Jacobian")
        if res >= 0.5 * prev_res and res > 1e3 * tol:
            raise NearFoldError(f"Newton stagnated at residual {res:.3e}; "
                                "the state is too close to the fold")
        prev_res = res
        u -= step
    res = float(np.max(np.abs(u - psi_map(u, kappa, K, Pmu, p))))
    if res > tol:
        raise NearFoldError(f"Newton did not converge (residual {res:.3e})")
    return Field(K.grid, u)


@dataclass(frozen=True)
class KappaStarEstimate:
    """Bisection bracket for the existence threshold kappa*."""

    lower: float      # largest kappa observed to converge
    upper: float      # smallest kappa observed to diverge
    evaluations: int = 0

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _classify(kappa: float, K: KernelMatrix, Pmu: Field, p: float,
              tol: float, max_iter: int, blowup_cap: float) -> str:
    result = monotone_iterate(kappa, K, Pmu, p, tol=tol, max_iter=max_iter,
                              blowup_cap=blowup_cap)
    if result.status != "iteration_limit":
        return result.status
    result = monotone_iterate(kappa, K, Pmu, p, tol=tol,
                              max_iter=10 * max_iter, blowup_cap=blowup_cap)
    if result.status != "iteration_limit":
        return result.status
    # very slow dynamics near the threshold: a contracting increment tail
    # means the iteration is still headed for a fixed point
    tail = result.increments[-10:]
    ratio = float(np.mean(tail[1:] / tail[:-1]))
    return "converged" if ratio < 1.0 else "diverged"


def estimate_kappa_star(K: KernelMatrix, Pmu: Field, p: float,
                        bracket: tuple[float, float] = (0.05, 3.0),
                        tol: float = 1e-2, solver_tol: float = 1e-8,
                        max_iter: int = 10_000,
                        blowup_cap: float = 1e6) -> KappaStarEstimate:
    """Bisect for the threshold between convergence and blow-up in kappa."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise BracketError(f"bracket must satisfy 0 < lower < upper, got {bracket}")
    evals = 2
    if _classify(lo, K, Pmu, p, solver_tol, max_iter, blowup_cap) != "converged":
        raise BracketError(f"lower bracket end kappa={lo:g} does not converge")
    if _classify(hi, K, Pmu, p, solver_tol, max_iter, blowup_cap) != "diverged":
        raise BracketError(f"upper bracket end kappa={hi:g} does not diverge")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evals += 1
        if _classify(mid, K, Pmu, p, solver_tol, max_iter, blowup_cap) == "converged":
            lo = mid
        else:
            hi = mid
    return KappaStarEstimate(lower=lo, upper=hi, evaluations=evals)
