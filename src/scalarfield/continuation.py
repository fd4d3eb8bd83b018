"""Pseudo-arclength continuation of the solution branch in kappa.

The solution family (u(s), kappa(s)) of u = kappa*Pmu + G[u^p] is traced
past the fold where the minimal and the second branch meet, using a
bordered Newton corrector.  The bordered system is solved through a Schur
complement on the plain Jacobian, so each corrector iteration costs one LU
factorization plus two triangular solves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .discretization import Field
from .operators import KernelMatrix, jacobian, linearized_spectrum
from .solver import monotone_iterate, newton_refine, psi_map

_STEP_MIN = 1e-5
_STEP_MAX = 0.2
_STEP_GROW = 1.3
_CORRECTOR_ITERS = 10


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

    def __init__(self, K: KernelMatrix, Pmu: Field, p: float,
                 newton_tol: float = 1e-11):
        self.K = K
        self.Pmu = Pmu
        self.p = p
        self.newton_tol = newton_tol

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        # mean-weighted product keeps the field and kappa components comparable
        return float(np.dot(a, b)) / a.size

    def _lu(self, u: np.ndarray):
        J = jacobian(self.K, Field(self.K.grid, u), self.p)
        with np.errstate(all="ignore"):
            return lu_factor(J, check_finite=False)

    def tangent(self, u: np.ndarray, kappa: float,
                previous: tuple[np.ndarray, float] | None):
        """Unit tangent (du, dkappa), oriented along the previous one."""
        lu = self._lu(u)
        with np.errstate(all="ignore"):
            b = lu_solve(lu, self.Pmu.values, check_finite=False)
        if not np.all(np.isfinite(b)):
            raise FloatingPointError("singular Jacobian while forming tangent")
        du, dk = b, 1.0
        scale = np.sqrt(self._dot(du, du) + dk * dk)
        du, dk = du / scale, dk / scale
        if previous is not None:
            if self._dot(previous[0], du) + previous[1] * dk < 0.0:
                du, dk = -du, -dk
        return du, dk

    def correct(self, u_pred: np.ndarray, kappa_pred: float,
                u_prev: np.ndarray, kappa_prev: float,
                du: np.ndarray, dk: float, ds: float):
        """Bordered Newton from the predictor back onto the branch."""
        u, kappa = u_pred.copy(), kappa_pred
        for _ in range(_CORRECTOR_ITERS):
            F = u - psi_map(u, kappa, self.K, self.Pmu, self.p)
            c = self._dot(du, u - u_prev) + dk * (kappa - kappa_prev) - ds
            if np.max(np.abs(F)) <= self.newton_tol and abs(c) <= self.newton_tol:
                return u, kappa
            lu = self._lu(u)
            with np.errstate(all="ignore"):
                a = lu_solve(lu, F, check_finite=False)
                b = lu_solve(lu, self.Pmu.values, check_finite=False)
            denom = self._dot(du, b) + dk
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))
                    and np.isfinite(denom) and denom != 0.0):
                return None
            dkappa = (self._dot(du, a) - c) / denom
            u = u - a + dkappa * b
            kappa = kappa + dkappa
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


def trace_branch(start_kappa: float, K: KernelMatrix, Pmu: Field, p: float,
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
        raise ValueError(f"no minimal solution at start_kappa={start_kappa:g}; "
                         "start below the threshold")
    stepper = _Stepper(K, Pmu, p)
    u = newton_refine(seed.solution, start_kappa, K, Pmu, p).values
    kappa, s = start_kappa, 0.0
    tang = stepper.tangent(u, kappa, None)
    if tang[1] < 0.0:
        tang = (-tang[0], -tang[1])

    points = [_make_point(stepper, u, kappa, s, norm_q, norm_alpha, False)]
    fold_index = None
    ds = min(step, _STEP_MAX)
    successes = 0
    while len(points) < max_points:
        result = stepper.correct(u + ds * tang[0], kappa + ds * tang[1],
                                 u, kappa, tang[0], tang[1], ds)
        if result is None:
            ds *= 0.5
            successes = 0
            if ds < _STEP_MIN:
                break
            continue
        u_new, kappa_new = result
        try:
            tang_new = stepper.tangent(u_new, kappa_new, tang)
        except FloatingPointError:
            ds *= 0.5
            successes = 0
            if ds < _STEP_MIN:
                break
            continue
        s += ds
        crossed = fold_index is None and tang[1] > 0.0 and tang_new[1] < 0.0
        u, kappa, tang = u_new, kappa_new, tang_new
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


def detect_fold(branch: Branch, tol_dkappa: float = 1e-8,
                max_refine: int = 40) -> tuple[float, BranchPoint]:
    """Locate the fold by driving the kappa component of the tangent to zero.

    Newton iteration on dkappa(s) = 0 along the branch, using the secant
    slope of the tangent component between successive refinement states.
    """
    if branch.fold_index is None:
        raise ValueError("branch has no fold; trace further before detecting")
    stepper = branch.stepper
    i = int(np.argmax(branch.kappas))
    pt = branch.points[i]
    u, kappa = pt.field.values.copy(), pt.kappa
    tang = stepper.tangent(u, kappa, None)
    # orient consistently with the pre-fold direction
    prev_pt = branch.points[max(i - 1, 0)]
    ref = (u - prev_pt.field.values, kappa - prev_pt.kappa)
    if np.dot(ref[0], tang[0]) + ref[1] * tang[1] < 0.0:
        tang = (-tang[0], -tang[1])
    dk_prev, slope = tang[1], None
    for _ in range(max_refine):
        if abs(tang[1]) <= tol_dkappa:
            break
        if slope is None:
            # probe with a small step to estimate d(dkappa)/ds
            ds = -np.sign(tang[1]) * 1e-3
        else:
            ds = float(np.clip(-tang[1] / slope, -0.05, 0.05))
        result = stepper.correct(u + ds * tang[0], kappa + ds * tang[1],
                                 u, kappa, tang[0], tang[1], ds)
        if result is None:
            ds *= 0.5
            if abs(ds) < 1e-12:
                break
            continue
        u_new, kappa_new = result
        tang_new = stepper.tangent(u_new, kappa_new, tang)
        slope = (tang_new[1] - tang[1]) / ds
        u, kappa, tang = u_new, kappa_new, tang_new
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
