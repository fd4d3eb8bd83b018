"""Pseudo-arclength continuation of the solution branch in kappa.

The solution family (u(s), kappa(s)) of u = kappa*Pmu + G[u^p] is traced
past the fold where the minimal and the second branch meet.  Each accepted
point holds the solver of its Jacobian and the tangent it gives.  The
corrector takes bordered Newton steps: the first with the accepted point's
solver, each later one with a fresh Jacobian at the iterate (O(n) for
N = 1, GMRES on the Green product for a dense grid), the last of which is
the corrected point's tangent.  Each `BranchPoint` owns its `EigenResult`
(lambda = 1/rho), refined from the previous point's.  The fold is solved
for by Newton's method on the minimally extended system (`detect_fold`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import Field
from .operators import (EigenResult, GreenOperator, jacobian,
                        linearized_spectrum, lu_factor, lu_solve)
from .solver import (NoMinimalSolutionError, monotone_iterate,
                     newton_refine, psi_map)

_STEP_MIN = 1e-5
_STEP_MAX = 0.2
_STEP_GROW = 1.3
_NEWTON_TOL = 1e-11
_CORRECTOR_ITERS = 50
# most the first corrector step may multiply the residual by: N = 1 fold
# passages reach 4, a jump across a turning-point loop (N = 2, 10 x 12) 21
_FIRST_RISE = 10.0
_FOLD_REFINE = 10      # Newton steps on the extended fold system


@dataclass(frozen=True, eq=False)
class BranchPoint:
    kappa: float
    field: Field
    eigen: EigenResult    # the stability pair at field
    arclength: float

    @property
    def lambda_(self) -> float:
        """The stability margin 1/rho; > 1 on the minimal branch."""
        return self.eigen.lambda_


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # mean-weighted product keeps the field and kappa components comparable
    return float(np.dot(a, b)) / a.size


@dataclass(eq=False)
class Branch:
    """The points traced on the branch of one (K, Pmu, p) problem, and the
    work tracing and fold detection took: Jacobians formed, and the solves
    besides each one's first (corrector steps, the fold's other two)."""

    K: GreenOperator
    Pmu: Field
    p: float
    points: list[BranchPoint] = field(default_factory=list)
    fold_index: int | None = None
    factorizations: int = 0
    corrector_steps: int = 0

    @property
    def kappas(self) -> np.ndarray:
        return np.array([pt.kappa for pt in self.points])

    def _append(self, u: np.ndarray, kappa: float, s: float) -> None:
        """Append the point at (u, kappa), its eigenpair refined from the
        last point's (the first point's cold)."""
        f = Field(self.K.grid, u)
        start = self.points[-1].eigen if self.points else None
        eigen = linearized_spectrum(self.K, f, self.p, start=start)
        self.points.append(BranchPoint(kappa=kappa, field=f, eigen=eigen,
                                       arclength=s))

    def _tangent(self, u: np.ndarray,
                 previous: tuple[np.ndarray, float] | None):
        """Solver of the Jacobian at u and the unit tangent (du, dkappa) there.

        The tangent solves J du = dkappa*Pmu and is oriented along the
        direction previous = (du, dkappa); without one, dkappa > 0.
        """
        self.factorizations += 1
        lu = lu_factor(jacobian(self.K, Field(self.K.grid, u), self.p))
        b = lu_solve(lu, self.Pmu.values)
        if not np.all(np.isfinite(b)):
            raise FloatingPointError("singular Jacobian while forming tangent")
        scale = np.sqrt(_dot(b, b) + 1.0)
        du, dk = b / scale, 1.0 / scale
        if previous is not None:
            if _dot(previous[0], du) + previous[1] * dk < 0.0:
                du, dk = -du, -dk
        return lu, du, dk

    def _correct(self, u_prev: np.ndarray, kappa_prev: float, tang, ds: float):
        """Newton from the predictor at arclength ds back onto the branch.

        tang = (lu, du, dk) is the tangent returned with (u_prev, kappa_prev).
        Each iterate takes one bordered step with a Jacobian J and its unit
        tangent (du_J, dk_J): a = J^{-1} F plus t = (<du, a> - c) /
        (<du, du_J> + dk dk_J) times that tangent.  J is tang's at the first
        iterate (the denominator, 1, is not formed) and the iterate's own
        after.  A residual above the previous one (_FIRST_RISE times it
        after the first step) ends the correction: Newton has left its
        basin.  Returns (u, kappa, the last J's tangent oriented along
        (du, dk)), or None if the correction fails or J is singular."""
        lu, du, dk = tang
        lu_J, du_J, dk_J = tang     # the Jacobian of the current step
        last = math.inf         # residual at the previous iterate
        u, kappa = u_prev + ds * du, kappa_prev + ds * dk
        try:
            for it in range(_CORRECTOR_ITERS):
                F = u - psi_map(u, kappa, self.K, self.Pmu, self.p)
                c = _dot(du, u - u_prev) + dk * (kappa - kappa_prev) - ds
                F_sup = float(np.max(np.abs(F)))
                if F_sup <= _NEWTON_TOL and abs(c) <= _NEWTON_TOL:
                    if lu_J is not lu:
                        return u, kappa, (lu_J, du_J, dk_J)
                    return u, kappa, self._tangent(u, (du, dk))
                residual = max(F_sup, abs(c))
                if residual > last * (1.0 if lu_J is not lu else _FIRST_RISE):
                    return None
                last = residual
                if it > 0:
                    lu_J, du_J, dk_J = self._tangent(u, (du, dk))
                self.corrector_steps += 1
                a = lu_solve(lu_J, F)
                t = _dot(du, a) - c
                if lu_J is not lu:
                    t /= _dot(du, du_J) + dk * dk_J
                u = u - a + t * du_J
                kappa = kappa + t * dk_J
                if not np.isfinite(kappa) or np.max(np.abs(u)) > 1e8:
                    return None
        except FloatingPointError:
            return None
        return None


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
    branch = Branch(K, Pmu, p)
    u = newton_refine(seed.solution, start_kappa, K, Pmu, p).values
    kappa, s = start_kappa, 0.0
    tang = branch._tangent(u, None)

    branch._append(u, kappa, s)
    ds = min(step, _STEP_MAX)
    successes = 0
    while len(branch.points) < max_points:
        result = branch._correct(u, kappa, tang, ds)
        if result is None:
            ds *= 0.5
            successes = 0
            if ds < _STEP_MIN:
                break
            continue
        s += ds
        if branch.fold_index is None and tang[2] > 0.0 and result[2][2] < 0.0:
            branch.fold_index = len(branch.points)    # the point appended next
        u, kappa, tang = result
        branch._append(u, kappa, s)
        successes += 1
        if successes >= 3:
            ds = min(ds * _STEP_GROW, _STEP_MAX, step * 4.0)
            successes = 0
        if branch.fold_index is not None and kappa < start_kappa:
            break
    return branch


def detect_fold(branch: Branch) -> BranchPoint:
    """Locate the fold by Newton's method on the minimally extended system

        F(u, kappa) = 0,   g(u) = 0,   [J b; c^T 0] [v; g] = [0; 1],

    with J = I - K M the Jacobian at u (Govaerts, *Numerical Methods for
    Bifurcations of Dynamical Equilibria*, SIAM 2000, ch. 3; Moore & Spence,
    SIAM J. Numer. Anal. 17, 1980).  g vanishes exactly where J is
    singular.  The borders approximate J's null vectors at the fold: b is
    the Perron eigenfield psi of the max-kappa branch point and c = m psi
    (m = w p u^{p-1}, w the quadrature weights), the left one, scaled to
    c . b = 1, so that g is about 1 - lambda.  Newton starts at the
    max-kappa point.  A step forms J once and makes three solves: J^{-1} b,
    a = J^{-1} F and d = J^{-1} Pmu.  J = I - S E, S symmetric (S + C for
    N = 1), E = diag(J.e), so E J = J^T E and J^T (e J^{-1} b) = e b: the
    left vector, for the border c with the iterate's own weights, is
    y = e J^{-1} b / (b . e J^{-1} b), with no transposed solve.  With
    v = J^{-1} b / (c . J^{-1} b), grad g = p (p-1) u^{p-2} v K^T y, where
    K^T y = w K(y / w) because K = S W.  The step is
    dkappa = (grad g . a - g) / (grad g . d), u <- u - a + dkappa d.  It
    stops once |F| and |g| are at most _NEWTON_TOL at an iterate and
    returns that iterate's `BranchPoint`, its eigenpair refined from
    J^{-1} b.  A non-finite step, or _FOLD_REFINE steps without a pass,
    returns the max-kappa point itself.  Jacobians and solves are counted
    on the branch.
    """
    if branch.fold_index is None:
        raise ValueError("branch has no fold; trace further before detecting")
    K, Pmu, p = branch.K, branch.Pmu, branch.p
    top = branch.points[int(np.argmax(branch.kappas))]
    w = K.grid.quad_weights
    u, kappa = top.field.values, top.kappa
    b = top.eigen.eigenfield.values
    c = w * p * np.maximum(u, 0.0) ** (p - 1.0) * b
    c /= np.dot(c, b)
    with np.errstate(all="ignore"):
        for _ in range(_FOLD_REFINE):
            F = u - psi_map(u, kappa, K, Pmu, p)
            J = jacobian(K, Field(K.grid, u), p)
            lu = lu_factor(J)
            branch.factorizations += 1
            Jb = lu_solve(lu, b)
            if not np.all(np.isfinite(Jb)):
                break
            g = -1.0 / np.dot(c, Jb)
            if np.max(np.abs(F)) <= _NEWTON_TOL and abs(g) <= _NEWTON_TOL:
                # J^{-1} b is the null vector to round-off: a start that
                # passes at the first step
                f = Field(K.grid, u)
                eigen = linearized_spectrum(K, f, p, start=replace(
                    top.eigen, eigenfield=Field(K.grid, Jb)))
                return BranchPoint(kappa=kappa, field=f, eigen=eigen,
                                   arclength=top.arclength)
            y = J.e * Jb
            y /= np.dot(b, y)
            a = lu_solve(lu, F)
            d = lu_solve(lu, Pmu.values)
            branch.corrector_steps += 2
            v = -g * Jb
            # u^{p-2} only where u > 0: it is infinite where u underflows
            # to 0.0 and p < 2
            grad = (np.where(u > 0.0, p * (p - 1.0) * u ** (p - 2.0), 0.0)
                    * v * (w * K.matvec(y / w)))
            dkappa = (np.dot(grad, a) - g) / np.dot(grad, d)
            u = u - a + dkappa * d
            kappa = kappa + dkappa
            if not (np.isfinite(kappa) and np.all(np.isfinite(u))):
                break
    return top


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
    out = []
    for i in range(len(kappas) - 1):
        k0, k1 = kappas[i], kappas[i + 1]
        if not (min(k0, k1) <= kappa <= max(k0, k1)) or k0 == k1:
            continue
        t = (kappa - k0) / (k1 - k0)
        seed = ((1.0 - t) * branch.points[i].field.values
                + t * branch.points[i + 1].field.values)
        refined = newton_refine(Field(branch.K.grid, seed), kappa,
                                branch.K, branch.Pmu, branch.p)
        if all(np.max(np.abs(refined.values - f.values)) > 1e-6
               * max(1.0, refined.sup_norm()) for f in out):
            out.append(refined)
    out.sort(key=lambda f: f.sup_norm())
    return out
