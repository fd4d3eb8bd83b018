"""Pseudo-arclength continuation of the solution branch in kappa.

The solution family (u(s), kappa(s)) of u = kappa*Pmu + G[u^p] is traced
past the fold where the minimal and the second branch meet.  The Jacobian
is factorized at each accepted point, where it gives the tangent.  The
corrector solves the bordered system with one factorized Jacobian at a
time, one triangular solve per iteration: the accepted point's (a chord),
or, when the Green operator's `refactorize` is set, a fresh one at every
iterate after the first (bordered Newton).  The O(n) N = 1 operator sets
it; a dense one, whose LU costs more chord steps than a point takes, does not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import Field
from .operators import (GreenOperator, jacobian, linearized_spectrum,
                        lu_factor, lu_solve)
from .solver import monotone_iterate, newton_refine, psi_map

_STEP_MIN = 1e-5
_STEP_MAX = 0.2
_STEP_GROW = 1.3
_NEWTON_TOL = 1e-11
_CORRECTOR_ITERS = 50
_FOLD_TOL = 1e-8
_FOLD_REFINE = 40


class NoMinimalSolutionError(ValueError):
    """The monotone iteration diverged at the start of the branch."""


@dataclass(frozen=True)
class BranchPoint:
    kappa: float
    field: Field
    lambda_: float        # stability margin; > 1 on the minimal branch
    arclength: float


class _Stepper:
    """Continuation kinematics bound to one (K, Pmu, p) problem."""

    def __init__(self, K: GreenOperator, Pmu: Field, p: float):
        self.K = K
        self.Pmu = Pmu
        self.p = p
        self.corrector_steps = 0    # chord and Newton solves in correct()
        self.factorizations = 0     # Jacobian LUs, one per tangent()

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        # mean-weighted product keeps the field and kappa components comparable
        return float(np.dot(a, b)) / a.size

    def tangent(self, u: np.ndarray,
                previous: tuple[np.ndarray, float] | None):
        """LU of the Jacobian at u and the unit tangent (du, dkappa) there.

        The tangent solves J du = dkappa*Pmu and is oriented along the
        direction previous = (du, dkappa); without one, dkappa > 0.
        """
        J = jacobian(self.K, Field(self.K.grid, u), self.p)
        self.factorizations += 1
        with np.errstate(all="ignore"):
            lu = lu_factor(J)
            b = lu_solve(lu, self.Pmu.values)
        if not np.all(np.isfinite(b)):
            raise FloatingPointError("singular Jacobian while forming tangent")
        scale = np.sqrt(self._dot(b, b) + 1.0)
        du, dk = b / scale, 1.0 / scale
        if previous is not None:
            if self._dot(previous[0], du) + previous[1] * dk < 0.0:
                du, dk = -du, -dk
        return lu, du, dk

    def correct(self, u_prev: np.ndarray, kappa_prev: float, tang, ds: float):
        """Newton from the predictor at arclength ds back onto the branch.

        tang = (lu, du, dk) comes from tangent() at (u_prev, kappa_prev).
        Each iterate takes one bordered step with the factorized Jacobian J
        and its unit tangent (du_J, dk_J): the solve a = J^{-1} F plus the
        multiple t = (<du, a> - c) / (<du, du_J> + dk dk_J) of that tangent.
        J starts as tang, where the denominator is exactly 1 and is not
        formed (a chord).  From the second iterate on, J is refactorized at
        each iterate when the Green operator says `refactorize` (the O(n)
        N = 1 operator; a dense one keeps the chord).  A residual above
        the previous one after a refactorization ends the correction:
        Newton has left its basin, and a shorter step does better.  Returns
        (u, kappa, tangent oriented along (du, dk)) at the corrected point,
        or None if the correction fails or a Jacobian is singular.
        """
        lu, du, dk = tang
        lu_J, du_J, dk_J = tang     # the factorized point, here a chord
        last = math.inf         # residual at the previous iterate
        u, kappa = u_prev + ds * du, kappa_prev + ds * dk
        try:
            for it in range(_CORRECTOR_ITERS):
                F = u - psi_map(u, kappa, self.K, self.Pmu, self.p)
                c = self._dot(du, u - u_prev) + dk * (kappa - kappa_prev) - ds
                F_sup = float(np.max(np.abs(F)))
                if F_sup <= _NEWTON_TOL and abs(c) <= _NEWTON_TOL:
                    lu_J = None     # K, the caller's LU and the new J stay alive
                    return u, kappa, self.tangent(u, (du, dk))
                residual = max(F_sup, abs(c))
                if lu_J is not lu and residual > last:
                    return None
                last = residual
                if it > 0 and self.K.refactorize:
                    lu_J = None     # dropped before the next J forms
                    lu_J, du_J, dk_J = self.tangent(u, (du, dk))
                self.corrector_steps += 1
                with np.errstate(all="ignore"):
                    a = lu_solve(lu_J, F)
                t = self._dot(du, a) - c
                if lu_J is not lu:
                    t /= self._dot(du, du_J) + dk * dk_J
                u = u - a + t * du_J
                kappa = kappa + t * dk_J
                if not np.isfinite(kappa) or np.max(np.abs(u)) > 1e8:
                    return None
        except FloatingPointError:
            return None
        return None


@dataclass
class Branch:
    points: list[BranchPoint]
    fold_index: int | None
    stepper: _Stepper

    @property
    def kappas(self) -> np.ndarray:
        return np.array([pt.kappa for pt in self.points])


def _make_point(stepper: _Stepper, u: np.ndarray, kappa: float,
                s: float) -> BranchPoint:
    f = Field(stepper.K.grid, u)
    eig = linearized_spectrum(stepper.K, f, stepper.p)
    return BranchPoint(kappa=kappa, field=f, lambda_=eig.lambda_, arclength=s)


def trace_branch(start_kappa: float, K: GreenOperator, Pmu: Field, p: float,
                 step: float = 0.05, max_points: int = 200) -> Branch:
    """Trace the branch from the minimal solution at start_kappa past the fold.

    Stops at max_points, when kappa drops back below start_kappa after the
    fold, or when the step size underflows.
    """
    if step <= 0.0 or max_points < 2:
        raise ValueError("step must be positive and max_points at least 2")
    seed = monotone_iterate(start_kappa, K, Pmu, p)
    if not seed.converged:
        raise NoMinimalSolutionError(
            f"no minimal solution at start_kappa={start_kappa:g}; "
            "start below the threshold")
    stepper = _Stepper(K, Pmu, p)
    u = newton_refine(seed.solution, start_kappa, K, Pmu, p).values
    kappa, s = start_kappa, 0.0
    tang = stepper.tangent(u, None)

    points = [_make_point(stepper, u, kappa, s)]
    fold_index = None
    ds = min(step, _STEP_MAX)
    successes = 0
    while len(points) < max_points:
        result = stepper.correct(u, kappa, tang, ds)
        if result is None:
            ds *= 0.5
            successes = 0
            if ds < _STEP_MIN:
                break
            continue
        s += ds
        if fold_index is None and tang[2] > 0.0 and result[2][2] < 0.0:
            fold_index = len(points)    # the point appended next
        u, kappa, tang = result
        points.append(_make_point(stepper, u, kappa, s))
        successes += 1
        if successes >= 3:
            ds = min(ds * _STEP_GROW, _STEP_MAX, step * 4.0)
            successes = 0
        if fold_index is not None and kappa < start_kappa:
            break
    return Branch(points=points, fold_index=fold_index, stepper=stepper)


def detect_fold(branch: Branch) -> tuple[float, BranchPoint]:
    """Locate the fold by driving the kappa component of the tangent to zero.

    Newton iteration on dkappa(s) = 0 along the branch, using the secant
    slope of the tangent component between successive refinement states.
    Stops at the last corrected state if a corrector step fails.
    """
    if branch.fold_index is None:
        raise ValueError("branch has no fold; trace further before detecting")
    stepper = branch.stepper
    i = int(np.argmax(branch.kappas))
    pt = branch.points[i]
    u, kappa = pt.field.values.copy(), pt.kappa
    # orient consistently with the pre-fold direction
    prev_pt = branch.points[max(i - 1, 0)]
    tang = stepper.tangent(u, (u - prev_pt.field.values, kappa - prev_pt.kappa))
    slope = None
    for _ in range(_FOLD_REFINE):
        if abs(tang[2]) <= _FOLD_TOL:
            break
        if slope is None:
            # probe with a small step to estimate d(dkappa)/ds
            ds = -np.sign(tang[2]) * 1e-3
        else:
            ds = float(np.clip(-tang[2] / slope, -0.05, 0.05))
        result = stepper.correct(u, kappa, tang, ds)
        if result is None:
            break
        u, kappa, tang_new = result
        slope = (tang_new[2] - tang[2]) / ds
        tang = tang_new
    return kappa, _make_point(stepper, u, kappa, pt.arclength)


def solutions_at_kappa(branch: Branch, kappa: float) -> list[Field]:
    """All branch solutions at a given kappa, refined by Newton at fixed kappa.

    Below the fold this returns two fields (minimal and second solution),
    ordered by sup norm.  Above the fold it warns and returns an empty list.
    """
    kappas = branch.kappas
    if kappa > np.max(kappas):
        warnings.warn(f"kappa={kappa:g} lies above the fold at "
                      f"{np.max(kappas):.6g}; no solutions on this branch")
        return []
    stepper = branch.stepper
    out = []
    for i in range(len(kappas) - 1):
        k0, k1 = kappas[i], kappas[i + 1]
        if not (min(k0, k1) <= kappa <= max(k0, k1)) or k0 == k1:
            continue
        t = (kappa - k0) / (k1 - k0)
        seed = ((1.0 - t) * branch.points[i].field.values
                + t * branch.points[i + 1].field.values)
        refined = newton_refine(Field(stepper.K.grid, seed), kappa,
                                stepper.K, stepper.Pmu, stepper.p)
        if all(np.max(np.abs(refined.values - f.values)) > 1e-6
               * max(1.0, refined.sup_norm()) for f in out):
            out.append(refined)
    out.sort(key=lambda f: f.sup_norm())
    return out
