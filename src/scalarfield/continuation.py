"""Pseudo-arclength continuation of the solution branch in kappa.

The solution family (u(s), kappa(s)) of u = kappa*Pmu + G[u^p] is traced
past the fold where the minimal and the second branch meet.  The Jacobian
is factorized at each accepted point, where it gives the tangent; a chord
Newton corrector then solves the bordered system with that factorization,
one triangular solve per iteration.  When the Green operator's
`factorization_cost` is under the iterations left, the corrector instead
refactorizes at every iterate after the first (bordered Newton): the O(n)
N = 1 operator does, a dense one never does.
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
    sup_norm: float
    lq_alpha_norm: float
    lambda_: float        # stability margin; > 1 on the minimal branch
    arclength: float
    fold_flag: bool


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
        """Chord Newton from the predictor at arclength ds back onto the branch.

        tang = (lu, du, dk) comes from tangent() at (u_prev, kappa_prev).
        With the unit tangent (du_J, dk_J) at the factorized Jacobian J, the
        bordered step is the solve a = J^{-1} F plus a multiple t of that
        tangent, t = (<du, a> - c) / (<du, du_J> + dk dk_J); while J is the
        one at u_prev, (du_J, dk_J) = (du, dk) and the denominator is 1.
        From the second iterate on, J is refactorized at each iterate when
        one factorization costs fewer chord steps (`factorization_cost`)
        than the iterations left.  A residual above the previous one after
        a refactorization ends the correction: Newton has left its basin,
        and a shorter step does better.  Returns (u, kappa, tangent
        oriented along (du, dk)) at the corrected point, or None if the
        correction fails or a Jacobian is singular.
        """
        lu, du, dk = tang
        cost = self.K.factorization_cost
        fresh = None            # (lu, du_J, dk_J) factorized at an iterate
        last = math.inf         # residual at the previous iterate
        u, kappa = u_prev + ds * du, kappa_prev + ds * dk
        for it in range(_CORRECTOR_ITERS):
            F = u - psi_map(u, kappa, self.K, self.Pmu, self.p)
            c = self._dot(du, u - u_prev) + dk * (kappa - kappa_prev) - ds
            F_sup = float(np.max(np.abs(F)))
            if F_sup <= _NEWTON_TOL and abs(c) <= _NEWTON_TOL:
                fresh = None    # K, the caller's LU and the new J stay alive
                try:
                    return u, kappa, self.tangent(u, (du, dk))
                except FloatingPointError:
                    return None
            residual = max(F_sup, abs(c))
            if fresh is not None and residual > last:
                return None
            last = residual
            if it > 0 and cost < _CORRECTOR_ITERS - it:
                fresh = None    # dropped before the next J forms
                try:
                    fresh = self.tangent(u, (du, dk))
                except FloatingPointError:
                    return None
            self.corrector_steps += 1
            with np.errstate(all="ignore"):
                a = lu_solve(lu if fresh is None else fresh[0], F)
            if fresh is None:
                t = self._dot(du, a) - c
                u = u - a + t * du
                kappa = kappa + t * dk
            else:
                du_J, dk_J = fresh[1:]     # no second name for its LU
                t = (self._dot(du, a) - c) / (self._dot(du, du_J) + dk * dk_J)
                u = u - a + t * du_J
                kappa = kappa + t * dk_J
            if not np.isfinite(kappa) or np.max(np.abs(u)) > 1e8:
                return None
        return None


@dataclass
class Branch:
    points: list[BranchPoint]
    fold_index: int | None
    stepper: _Stepper
    norm_q: float
    norm_alpha: float

    @property
    def kappas(self) -> np.ndarray:
        return np.array([pt.kappa for pt in self.points])


def _make_point(stepper: _Stepper, u: np.ndarray, kappa: float, s: float,
                norm_q: float, norm_alpha: float, fold_flag: bool) -> BranchPoint:
    f = Field(stepper.K.grid, u)
    eig = linearized_spectrum(stepper.K, f, stepper.p)
    return BranchPoint(kappa=kappa, field=f, sup_norm=f.sup_norm(),
                       lq_alpha_norm=f.norm(norm_q, norm_alpha),
                       lambda_=eig.lambda_, arclength=s, fold_flag=fold_flag)


def trace_branch(start_kappa: float, K: GreenOperator, Pmu: Field, p: float,
                 step: float = 0.05, max_points: int = 200,
                 norm_q: float = 4.0, norm_alpha: float = 0.0) -> Branch:
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

    points = [_make_point(stepper, u, kappa, s, norm_q, norm_alpha, False)]
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
        crossed = fold_index is None and tang[2] > 0.0 and result[2][2] < 0.0
        u, kappa, tang = result
        points.append(_make_point(stepper, u, kappa, s,
                                  norm_q, norm_alpha, crossed))
        if crossed:
            fold_index = len(points) - 1
        successes += 1
        if successes >= 3:
            ds = min(ds * _STEP_GROW, _STEP_MAX, step * 4.0)
            successes = 0
        if fold_index is not None and kappa < start_kappa:
            break
    return Branch(points=points, fold_index=fold_index, stepper=stepper,
                  norm_q=norm_q, norm_alpha=norm_alpha)


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
    fold_pt = _make_point(stepper, u, kappa, pt.arclength,
                          branch.norm_q, branch.norm_alpha, True)
    return kappa, fold_pt


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
