import numpy as np
import pytest
import scipy.special as sp

from scalarfield.kernels import (bessel_k0, bessel_k1, fundamental_E,
                                 fundamental_dE, green_G, poisson_P)


# K0, K1 at X_TABLE to 17 significant digits (mpmath 1.3.0 at 40 digits)
X_TABLE = np.array([0.1, 1.0, 10.0])
K0_TABLE = np.array([2.4270690247020166, 0.42102443824070833,
                     1.7780062316167652e-05])
K1_TABLE = np.array([9.8538447808706056, 0.60190723019723457,
                     1.8648773453825585e-05])


class TestBessel:
    def test_against_reference_implementation(self):
        # tabulated high-precision values, one per regime: small, unit, tail
        np.testing.assert_allclose(bessel_k0(X_TABLE), K0_TABLE, rtol=1e-14)
        np.testing.assert_allclose(bessel_k1(X_TABLE), K1_TABLE, rtol=1e-14)

    def test_regime_split_is_seamless(self):
        # Wronskian I0 K1 + I1 K0 = 1/x (DLMF 10.28.2) over the whole range,
        # across the library's switch between its expansions at x = 2
        x = np.geomspace(1e-3, 100.0, 4000)
        wronskian = sp.i0(x) * bessel_k1(x) + sp.i1(x) * bessel_k0(x)
        np.testing.assert_allclose(x * wronskian, 1.0, rtol=1e-13)

    def test_scalar_shapes(self):
        assert np.ndim(bessel_k0(np.float64(1.0))) == 0


class TestFundamentalSolution:
    def test_closed_forms(self):
        r = np.geomspace(0.01, 10.0, 50)
        np.testing.assert_allclose(fundamental_E(1, r), 0.5 * np.exp(-r))
        np.testing.assert_allclose(fundamental_E(2, X_TABLE),
                                   K0_TABLE / (2.0 * np.pi), rtol=1e-14)
        np.testing.assert_allclose(fundamental_E(3, r),
                                   np.exp(-r) / (4.0 * np.pi * r))

    def test_derivative_matches_finite_difference(self):
        r = np.geomspace(0.1, 10.0, 200)
        h = 1e-5
        for N in (1, 2, 3):
            fd = (fundamental_E(N, r + h) - fundamental_E(N, r - h)) / (2.0 * h)
            np.testing.assert_allclose(fundamental_dE(N, r), fd,
                                       rtol=1e-6, atol=1e-12)

    def test_monotone_decreasing(self):
        r = np.geomspace(1e-3, 20.0, 500)
        for N in (1, 2, 3):
            assert np.all(np.diff(fundamental_E(N, r)) < 0.0)
            assert np.all(fundamental_dE(N, r) < 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fundamental_E(4, 1.0)
        with pytest.raises(ValueError):
            fundamental_E(2, 0.0)
        with pytest.raises(ValueError):
            fundamental_dE(2, -1.0)


def _random_interior(rng, N, count):
    pts = np.empty((count, N))
    if N > 1:
        pts[:, :-1] = rng.uniform(-4.0, 4.0, (count, N - 1))
    pts[:, -1] = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), count))
    return pts


class TestGreenKernel:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_symmetric_and_positive(self, N):
        rng = np.random.default_rng(11)
        x = _random_interior(rng, N, 10_000)
        y = _random_interior(rng, N, 10_000)
        gxy = np.asarray(green_G(N, x, y))
        gyx = np.asarray(green_G(N, y, x))
        assert np.all(gxy > 0.0)
        np.testing.assert_allclose(gxy, gyx, rtol=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_pointwise_upper_bound(self, N):
        # G <= min(E(|x-y|), 4 x_N y_N |E'(|x-y|)| / |x-y|)
        rng = np.random.default_rng(13)
        x = _random_interior(rng, N, 10_000)
        y = _random_interior(rng, N, 10_000)
        g = np.asarray(green_G(N, x, y))
        d = np.linalg.norm(x - y, axis=-1)
        cap = np.minimum(fundamental_E(N, d),
                         4.0 * x[:, -1] * y[:, -1] * (-fundamental_dE(N, d)) / d)
        assert np.all(g <= cap + 1e-12)

    def test_one_dimensional_closed_form(self):
        x, y = 0.7, 1.9
        expected = 0.5 * (np.exp(-abs(x - y)) - np.exp(-(x + y)))
        assert green_G(1, x, y) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_toward_boundary(self):
        vals = [green_G(1, t, 1.0) for t in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_rejects_boundary_and_coincident_points(self):
        with pytest.raises(ValueError):
            green_G(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            green_G(2, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            green_G(3, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))


class TestPoissonKernel:
    def test_half_line_closed_form(self):
        x = np.linspace(0.01, 10.0, 50)
        np.testing.assert_allclose(poisson_P(1, x), np.exp(-x))

    def test_three_dimensional_closed_form(self):
        rng = np.random.default_rng(17)
        pts = _random_interior(rng, 3, 200)
        rho = np.linalg.norm(pts, axis=-1)
        expected = pts[:, -1] * (1.0 + rho) * np.exp(-rho) \
            / (2.0 * np.pi * rho ** 3)
        np.testing.assert_allclose(poisson_P(3, pts), expected, rtol=1e-12)

    def test_two_dimensional_formula(self):
        pt = (0.8, 0.6)
        expected = 2.0 * 0.6 * K1_TABLE[1] / (2.0 * np.pi * 1.0)
        assert poisson_P(2, pt) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_translation_invariance(self):
        a = poisson_P(2, (1.5, 0.7), z=0.5)
        b = poisson_P(2, (2.5, 0.7), z=1.5)
        assert a == pytest.approx(b, rel=1e-14)

    def test_positive_and_rejects_boundary(self):
        rng = np.random.default_rng(19)
        for N in (1, 2, 3):
            assert np.all(np.asarray(poisson_P(N, _random_interior(rng, N, 100)))
                          > 0.0)
        with pytest.raises(ValueError):
            poisson_P(1, 0.0)
