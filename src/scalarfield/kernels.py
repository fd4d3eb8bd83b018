"""Pointwise kernels of -Laplace + 1 on the half space, for N in {1, 2, 3}.

The free-space fundamental solution is

    N = 1:  E(r) = exp(-r)/2
    N = 2:  E(r) = K0(r)/(2 pi)
    N = 3:  E(r) = exp(-r)/(4 pi r)

The half-space Dirichlet kernel is the reflection difference
G(x, y) = E(|x - y|) - E(|x* - y|) with x* the mirror image of x across the
boundary, and the boundary-reproducing kernel is the boundary normal
derivative of G, which evaluates in closed form to

    P(x, z) = 2 x_N |E'(rho)| / rho,    rho = |(x' - z, x_N)|.

(Differentiate E(|x - (z, s)|) - E(|x* - (z, s)|) in s at s = 0: both
distances equal rho there and the chain-rule factors add up to -2 x_N / rho.)
For N = 1 this collapses to P(x) = exp(-x); for N = 3 to
x_N (1 + rho) exp(-rho) / (2 pi rho^3).

Only N = 2 needs a special function: K0/K1 are SciPy's, taken on the
first call of `bessel_k0`/`bessel_k1` from the extension module
scipy.special._special_ufuncs alone (see `_scipy_module`), so no command
imports the scipy.special package.  The tests check them independently,
against the Wronskian I0 K1 + I1 K0 = 1/x and against tabulated values.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


@functools.cache
def _scipy_module(name: str):
    """The module scipy.<name>, run from its own file without running the
    __init__ of scipy or of its subpackage; None if that fails.

    Importing scipy.special or scipy.linalg runs scipy/__init__.py, whose
    array API layer loads numpy.f2py, numpy.testing, numpy.ma and
    numpy.random besides much of SciPy; the extension modules holding
    BLAS, LAPACK and K0/K1 need only NumPy.  A module already imported is
    returned as it is.
    """
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    try:
        *package, _ = name.split(".")
        path = [os.path.join(root, *package) for root in
                importlib.util.find_spec("scipy").submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(full, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:   # a moved file or a failing init: use the public route
        return None
    return module


@functools.cache
def _scipy_attr(private: str, public: str, name: str):
    """SciPy's `name` from scipy.<private> loaded by `_scipy_module`, or
    from the public module scipy.<public> if that load fails or lacks it."""
    value = getattr(_scipy_module(private), name, None)
    if value is None:
        value = getattr(importlib.import_module(f"scipy.{public}"), name)
    return value


# a special function by name: k0, k1
_special = functools.partial(_scipy_attr, "special._special_ufuncs", "special")


# Keep these names: fundamental_E/dE call them, and perfbench wraps them here.
def bessel_k0(x):
    """Modified Bessel function K0, elementwise."""
    return _special("k0")(x)


def bessel_k1(x):
    """Modified Bessel function K1, elementwise."""
    return _special("k1")(x)


_TWO_PI = 2.0 * np.pi
_FOUR_PI = 4.0 * np.pi


def _check_dimension(N):
    if N not in (1, 2, 3):
        raise ValueError(f"unsupported dimension N={N!r}; kernels cover N in {{1, 2, 3}}")


def _check_radius(r):
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("kernel radius must be positive")


def fundamental_E(N: int, r):
    """Free-space fundamental solution E(r), elementwise; strictly decreasing."""
    _check_dimension(N)
    _check_radius(r)
    r = np.asarray(r, dtype=float)
    if N == 1:
        out = 0.5 * np.exp(-r)
    elif N == 2:
        out = bessel_k0(r) / _TWO_PI
    else:
        out = np.exp(-r) / (_FOUR_PI * r)
    return out if out.ndim else float(out)


def fundamental_dE(N: int, r):
    """Derivative E'(r), elementwise; negative for all r > 0."""
    _check_dimension(N)
    _check_radius(r)
    r = np.asarray(r, dtype=float)
    if N == 1:
        out = -0.5 * np.exp(-r)
    elif N == 2:
        out = -bessel_k1(r) / _TWO_PI
    else:
        out = -np.exp(-r) * (1.0 + r) / (_FOUR_PI * r * r)
    return out if out.ndim else float(out)


MIN_SEPARATION = 1e-12


def _as_points(N, x):
    x = np.asarray(x, dtype=float)
    if N == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.shape[-1] != N:
        raise ValueError(f"points must have {N} coordinates, got shape {x.shape}")
    return x


def green_G(N: int, x, y):
    """Half-space Dirichlet kernel G(x, y) = E(|x - y|) - E(|x* - y|).

    x, y: arrays of shape (..., N) with positive last coordinate.  Raises on
    separations below MIN_SEPARATION; the discretization layer owns the
    diagonal treatment.  For N = 1 the difference is evaluated as
    -expm1(-2 min(x, y)) exp(-|x - y|) / 2, which does not cancel at
    y << x.
    """
    _check_dimension(N)
    x = _as_points(N, x)
    y = _as_points(N, y)
    if np.any(x[..., -1] <= 0.0) or np.any(y[..., -1] <= 0.0):
        raise ValueError("green_G needs interior points (positive height)")
    direct = np.linalg.norm(x - y, axis=-1)
    if np.any(direct < MIN_SEPARATION):
        raise ValueError("green_G evaluated at (near-)coincident points; "
                         "handle the quadrature diagonal separately")
    if N == 1:
        nearer = np.minimum(x[..., 0], y[..., 0])
        out = -0.5 * np.expm1(-2.0 * nearer) * np.exp(-direct)
        return out if np.ndim(out) else float(out)
    xr = x.copy()
    xr[..., -1] = -xr[..., -1]
    mirrored = np.linalg.norm(xr - y, axis=-1)
    out = fundamental_E(N, direct) - fundamental_E(N, mirrored)
    return out if np.ndim(out) else float(out)


def poisson_P(N: int, x, z=None):
    """Boundary kernel P(x, z) = 2 x_N |E'(rho)| / rho with rho = |(x' - z, x_N)|.

    x: array (..., N) of interior points; z: array (..., N-1) of boundary
    points (ignored for N = 1, where the boundary is a single point and
    P(x) = exp(-x)).
    """
    _check_dimension(N)
    x = _as_points(N, x)
    if np.any(x[..., -1] <= 0.0):
        raise ValueError("poisson_P needs positive height")
    height = x[..., -1]
    if N == 1:
        out = np.exp(-height)
        return out if np.ndim(out) else float(out)
    z = np.zeros(N - 1) if z is None else np.atleast_1d(np.asarray(z, float))
    if z.shape[-1] != N - 1:
        raise ValueError(f"boundary points must have {N - 1} coordinates")
    lateral = x[..., :-1] - z
    rho = np.sqrt(np.sum(lateral * lateral, axis=-1) + height * height)
    out = 2.0 * height * (-fundamental_dE(N, rho)) / rho
    return out if np.ndim(out) else float(out)
