"""Minimal-solution iteration, Newton refinement, and threshold bisection.

The fixed-point map is Psi(v) = kappa * Pmu + G[v_+^p].  Starting from
U_0 = Pmu the iterates converge to the minimal solution when one exists
and blow up otherwise, which is what the threshold bisection keys on.
The sup increment |U_{j+1} - U_j| equals the fixed-point residual of U_j,
so the stopping rule controls the true residual of the returned iterate.
A bisection probe need not wait for that rule: a discrete supersolution
above nondecreasing iterates proves that a solution exists (the
sub/supersolution principle), so each probe stops once it finds one.  The
candidate reflects the current iterate through the geometrically
extrapolated limit, aiming between the minimal and the second solution.
Probes above a converging probe at kappa >= 1 start from its last iterate,
which lies below every solution at the larger kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import Field
from .operators import GreenOperator, jacobian, lu_factor, lu_solve

_DIVERGENCE_STREAK = 20
# a kappa* probe looks for a supersolution certificate every this many steps
_CERTIFY_EVERY = 8
_NEWTON_TOL = 1e-12
_NEWTON_ITERS = 50


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

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def psi_map(values: np.ndarray, kappa: float, K: GreenOperator,
            Pmu: Field, p: float) -> np.ndarray:
    """One application of the fixed-point map kappa*Pmu + G[v_+^p]."""
    return kappa * Pmu.values + K.matvec(np.maximum(values, 0.0) ** p)


def monotone_iterate(kappa: float, K: GreenOperator, Pmu: Field, p: float,
                     tol: float = 1e-8, max_iter: int = 100_000,
                     blowup_cap: float = 1e6) -> SolveResult:
    """Iterate the fixed-point map from U_0 = Pmu until convergence or blow-up."""
    status, last, iterations, increments, _ = _iterate(
        kappa, K, Pmu, p, tol=tol, max_iter=max_iter, blowup_cap=blowup_cap,
        certify=False)
    if status == "diverged":
        solution, residual = None, np.inf
    else:
        solution = Field(K.grid, last)
        residual = (float(np.max(np.abs(psi_map(last, kappa, K, Pmu, p) - last)))
                    if status == "converged" else increments[-1])
    return SolveResult(status=status, solution=solution, iterations=iterations,
                       residual_sup=residual, increments=np.array(increments))


def _iterate(kappa: float, K: GreenOperator, Pmu: Field, p: float, *,
             tol: float, max_iter: int, blowup_cap: float, certify: bool,
             start: np.ndarray | None = None):
    """The monotone iteration U_{j+1} = Psi(U_j) from U_0 = start, or Pmu.

    Returns (status, last iterate, iterations, sup increments, psi_map
    calls).  With `certify`, every _CERTIFY_EVERY steps it also tries to
    stop early with status "certified" (see `_is_supersolution_step`).
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if tol <= 0.0 or max_iter < 1 or blowup_cap <= 0.0:
        raise ValueError("tol, max_iter and blowup_cap must be positive")
    u = (Pmu.values if start is None else start).copy()
    increments = []
    checks = 0
    growth_streak = 0
    for it in range(1, max_iter + 1):
        nxt = psi_map(u, kappa, K, Pmu, p)
        step = nxt - u
        inc = float(np.max(np.abs(step)))
        increments.append(inc)
        sup = float(np.max(nxt))
        if len(increments) >= 2 and inc > increments[-2]:
            growth_streak += 1
        else:
            growth_streak = 0
        if (not np.isfinite(sup) or sup > blowup_cap
                or growth_streak >= _DIVERGENCE_STREAK):
            return "diverged", nxt, it, increments, it + checks
        if inc <= tol * sup:
            return "converged", nxt, it, increments, it + checks
        if certify and it % _CERTIFY_EVERY == 0:
            certified = _is_supersolution_step(u, nxt, step, increments,
                                               kappa, K, Pmu, p)
            checks += certified is not None
            if certified:
                return "certified", nxt, it, increments, it + checks
        u = nxt
    return "iteration_limit", nxt, max_iter, increments, max_iter + checks


def _is_supersolution_step(u, nxt, step, increments, kappa, K, Pmu,
                           p) -> bool | None:
    """Whether the step U_j = u -> U_{j+1} = nxt proves a fixed point exists;
    None when the step offers no candidate to check.

    Psi preserves order (K >= 0 entrywise, v -> v_+^p nondecreasing).  So if
    the step d = U_{j+1} - U_j is >= 0, the iterates from U_j on are
    nondecreasing, and if some w >= U_{j+1} has Psi(w) <= w, they stay below
    w and converge.  Extrapolating the shrinking increments, ratio r < 1, as
    a geometric series gives the limit estimate U_{j+1} + r/(1-r) d; the
    candidate reflects U_j through it, w = U_{j+1} + (1+r)/(1-r) d, so it
    lands inside the set of supersolutions above the minimal solution
    instead of on its edge.  Psi(w) <= w is checked with no slack, at the
    cost of one psi_map call.
    """
    if not (increments[-1] < increments[-2] and np.all(step >= 0.0)):
        return None
    r = increments[-1] / increments[-2]
    w = nxt + ((1.0 + r) / (1.0 - r)) * step
    return bool(np.all(psi_map(w, kappa, K, Pmu, p) <= w))


def newton_refine(u0: Field, kappa: float, K: GreenOperator, Pmu: Field,
                  p: float) -> Field:
    """Newton's method on F(u) = u - kappa*Pmu - G[u_+^p] from the seed u0."""
    u = u0.values.copy()
    prev_res = np.inf
    for _ in range(_NEWTON_ITERS):
        F = u - psi_map(u, kappa, K, Pmu, p)
        res = float(np.max(np.abs(F)))
        if res <= _NEWTON_TOL:
            return Field(K.grid, u)
        J = jacobian(K, Field(K.grid, u), p)
        with np.errstate(all="ignore"):
            step = lu_solve(lu_factor(J), F)
        if not np.all(np.isfinite(step)):
            raise NearFoldError("Newton step failed: singular Jacobian")
        if res >= 0.5 * prev_res and res > 1e3 * _NEWTON_TOL:
            raise NearFoldError(f"Newton stagnated at residual {res:.3e}; "
                                "the state is too close to the fold")
        prev_res = res
        u -= step
    res = float(np.max(np.abs(u - psi_map(u, kappa, K, Pmu, p))))
    if res > _NEWTON_TOL:
        raise NearFoldError(f"Newton did not converge (residual {res:.3e})")
    return Field(K.grid, u)


@dataclass(frozen=True)
class KappaStarEstimate:
    """Bisection bracket for the existence threshold kappa*."""

    lower: float      # largest kappa observed to converge
    upper: float      # smallest kappa observed to diverge
    # (kappa, outcome, psi_map calls) per probe, in probing order; the
    # outcome is "certified", "converged", "diverged" or "tail"
    probes: tuple[tuple[float, str, int], ...] = ()

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def evaluations(self) -> int:
        return len(self.probes)

    @property
    def fixed_point_maps(self) -> int:
        return sum(maps for _, _, maps in self.probes)


def _classify(kappa: float, K: GreenOperator, Pmu: Field, p: float,
              tol: float, max_iter: int, blowup_cap: float,
              start: np.ndarray | None):
    """One bisection probe: (outcome, whether a solution exists, last
    iterate, psi_map calls)."""
    status, last, _, increments, maps = _iterate(
        kappa, K, Pmu, p, tol=tol, max_iter=max_iter, blowup_cap=blowup_cap,
        certify=True, start=start)
    if status != "iteration_limit":
        return status, status != "diverged", last, maps
    # very slow dynamics near the threshold: a contracting increment tail
    # means the iteration is still headed for a fixed point; a tail of
    # fewer than two increments shows no trend, so no solution
    tail = np.array(increments[-10:])
    contracting = (tail.size >= 2
                   and float(np.mean(tail[1:] / tail[:-1])) < 1.0)
    return "tail", contracting, last, maps


def estimate_kappa_star(K: GreenOperator, Pmu: Field, p: float,
                        bracket: tuple[float, float] = (0.05, 3.0),
                        tol: float = 1e-2, solver_tol: float = 1e-8,
                        max_iter: int = 100_000,
                        blowup_cap: float = 1e6) -> KappaStarEstimate:
    """Bisect for the threshold between convergence and blow-up in kappa;
    max_iter caps the single monotone run of each probe.

    A probe starts from the last iterate of the latest probe that converged
    at kappa' >= 1, else from Pmu.  From Pmu <= kappa' Pmu <= every solution
    at kappa', the iterates there are nondecreasing and lie below every
    solution at any kappa >= kappa'; so every probe, always above kappa',
    converges or blows up from that start as it would from Pmu.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise BracketError(f"bracket must satisfy 0 < lower < upper, got {bracket}")
    probes = []
    start = None

    def converges(kappa):
        nonlocal start
        outcome, exists, last, maps = _classify(
            kappa, K, Pmu, p, solver_tol, max_iter, blowup_cap, start)
        probes.append((kappa, outcome, maps))
        if exists and kappa >= 1.0:
            start = last
        return exists

    if not converges(lo):
        raise BracketError(f"lower bracket end kappa={lo:g} does not converge")
    if converges(hi):
        raise BracketError(f"upper bracket end kappa={hi:g} does not diverge")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break           # no float lies between the ends
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return KappaStarEstimate(lower=lo, upper=hi, probes=tuple(probes))
