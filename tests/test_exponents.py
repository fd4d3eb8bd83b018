import math

import numpy as np
import pytest

from scalarfield.exponents import (DSetParams, beta_j, check_admissible,
                                   check_besov_region, critical_exponents,
                                   d_membership, energy_exponent_window_ok,
                                   green_norm_pair_ok, stabilization_index, tau)


class TestCriticalExponents:
    def test_low_dimensions_are_infinite(self):
        for N in (1, 2):
            crit = critical_exponents(N)
            assert crit.p_sobolev == math.inf
            assert crit.p_joseph_lundgren == math.inf

    def test_sobolev_n3(self):
        assert critical_exponents(3).p_sobolev == 5.0

    def test_joseph_lundgren_n11_closed_form(self):
        assert critical_exponents(11).p_joseph_lundgren \
            == (37.0 + 8.0 * math.sqrt(10.0)) / 9.0

    def test_joseph_lundgren_above_sobolev(self):
        for N in range(3, 31):
            crit = critical_exponents(N)
            assert crit.p_joseph_lundgren > crit.p_sobolev

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            critical_exponents(0)
        with pytest.raises(ValueError):
            critical_exponents(2.5)


class TestAdmissibility:
    def test_reference_pair_valid(self):
        pair = check_admissible(1, 3.0, 4.0, 0.0)
        assert pair.valid and pair.violated_conditions == ()

    def test_q_equal_p_is_violation(self):
        # strict inequalities: the boundary itself fails
        pair = check_admissible(1, 3.0, 3.0, 0.0)
        assert not pair.valid
        assert "q > p" in pair.violated_conditions

    def test_exact_slope_boundary_fails(self):
        # 1/8 + 3/8 equals 2/4 exactly in floating point
        pair = check_admissible(1, 4.0, 8.0, 0.375)
        assert not pair.valid
        assert "1/q + alpha < 2/p" in pair.violated_conditions

    def test_dimension_condition(self):
        pair = check_admissible(3, 3.0, 4.0, 0.9)
        assert not pair.valid
        assert "N/q + alpha < 2/(p-1)" in pair.violated_conditions

    def test_negative_alpha(self):
        pair = check_admissible(1, 3.0, 4.0, -0.1)
        assert "alpha >= 0" in pair.violated_conditions

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            check_admissible(1, 1.0, 4.0, 0.0)


class TestBesovRegion:
    def test_inside(self):
        assert check_besov_region(2, 3.0, 7.0, 0.5)

    def test_outside_smoothness(self):
        assert not check_besov_region(2, 3.0, 7.0, 0.7)

    def test_outside_q(self):
        assert not check_besov_region(2, 3.0, 2.5, 0.1)

    def test_half_line_rejected(self):
        with pytest.raises(ValueError):
            check_besov_region(1, 3.0, 7.0, 0.5)


class TestGreenNormPair:
    def test_diagonal_pair_ok(self):
        ok, violated = green_norm_pair_ok(1, 4.0, 0.0, 4.0, 0.0)
        assert ok and violated == ()

    def test_each_condition_reported(self):
        assert "1 < q <= r" in green_norm_pair_ok(1, 4.0, 0.0, 3.0, 0.0)[1]
        assert "1/q + alpha < 2" in green_norm_pair_ok(1, 1.5, 2.0, 4.0, 0.0)[1]
        assert "1/r + beta > -1" in green_norm_pair_ok(1, 2.0, 0.0, 4.0, -1.5)[1]
        assert "1/q - 1/r < 2/N" in green_norm_pair_ok(3, 1.2, 0.0, 50.0, 0.0)[1]
        assert "N/r + beta >= N/q + alpha - 2" \
            in green_norm_pair_ok(3, 1.05, 1.9, 100.0, -0.9)[1]


class TestEnergyWindow:
    def test_nu_one_always_ok(self):
        assert energy_exponent_window_ok(1.0, 1.5)

    def test_large_nu_fails(self):
        assert not energy_exponent_window_ok(10.0, 3.0)

    def test_nu_below_one_rejected(self):
        with pytest.raises(ValueError):
            energy_exponent_window_ok(0.5, 3.0)


REFERENCE = dict(N=1, p=3.0, q=4.0, alpha=0.0, r0=4.0, beta0=0.0)


class TestRegionRecursion:
    def test_reference_rates(self):
        params = DSetParams(**REFERENCE)
        assert params.tau == pytest.approx(1.5)
        assert params.delta == pytest.approx(1.5)

    def test_tau_positive_for_admissible(self):
        assert tau(2, 2.0, 5.0, 0.1) > 0.0

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            DSetParams(N=1, p=3.0, q=2.0, alpha=0.0, r0=4.0, beta0=0.0)

    def test_bad_start_rejected(self):
        # 1/r0 >= 1 - (p-1)/q
        with pytest.raises(ValueError):
            DSetParams(N=1, p=3.0, q=4.0, alpha=0.0, r0=1.5, beta0=0.0)
        with pytest.raises(ValueError):
            DSetParams(N=1, p=3.0, q=4.0, alpha=0.0, r0=4.0, beta0=2.0)

    def test_envelope_nonincreasing_in_j(self):
        params = DSetParams(**REFERENCE)
        for r in (1.5, 2.0, 4.0, 40.0):
            vals = [beta_j(j, r, params) for j in range(6)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_envelope_floor(self):
        params = DSetParams(**REFERENCE)
        assert beta_j(50, 2.0, params) == -1.5

    def test_level_zero_is_the_start_pair(self):
        params = DSetParams(**REFERENCE)
        assert d_membership(0, 4.0, 0.0, params)
        assert not d_membership(0, 4.0, 0.1, params)

    def test_regions_are_nested(self):
        params = DSetParams(**REFERENCE)
        rng = np.random.default_rng(7)
        for _ in range(500):
            j = int(rng.integers(1, 6))
            r = float(1.0 / rng.uniform(0.01, 0.99))
            beta = float(rng.uniform(-2.0, 5.0))
            if d_membership(j, r, beta, params):
                assert d_membership(j + 1, r, beta, params)

    def test_reference_stabilization_index(self):
        params = DSetParams(**REFERENCE)
        assert stabilization_index(params) == 2
        with pytest.raises(AttributeError):
            params.r0 = 8.0

    def test_tau_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            tau(1, 3.0, 2.0, 0.0)

    def test_stabilization_index_for_small_delta(self):
        # delta = 0.5 - 4 alpha, about 4e-9 and 4e-6: j* = 1.75 / delta
        base = dict(N=3, p=5.0, q=8.0, r0=4.0, beta0=0.0)
        assert stabilization_index(DSetParams(alpha=0.125 - 1e-9, **base)) \
            == 437_500_001
        assert stabilization_index(DSetParams(alpha=0.125 - 1e-6, **base)) \
            == 437_500


def _scan_oracle(params, max_j=3000):
    """First j at which every sampled point of the terminal region
    {r > 1, 1/r + beta > -1} belongs to the j-th region."""
    inv_r = np.concatenate([[1e-6], np.linspace(0.001, 0.999, 67)])
    offsets = (1e-6, 0.05, 0.7, 5.0, 80.0)
    for j in range(1, max_j):
        if all(d_membership(j, 1.0 / ir, -1.0 - ir + off, params)
               for ir in inv_r for off in offsets):
            return j
    raise AssertionError("scan oracle did not stabilize")


def _random_admissible(rng):
    while True:
        N = int(rng.integers(1, 7))
        p = float(rng.uniform(1.2, 4.0))
        q_floor = max(p, N * (p - 1) / 2.0)
        q = float(rng.uniform(1.05 * q_floor + 0.1, 3.0 * q_floor + 2.0))
        alpha_cap = min(2.0 / p - 1.0 / q, 2.0 / (p - 1.0) - N / q)
        if alpha_cap <= 0.0:
            continue
        alpha = float(rng.uniform(0.0, 0.9 * alpha_cap))
        r0_floor = 1.0 / (1.0 - (p - 1.0) / q)
        r0 = float(rng.uniform(1.1 * r0_floor + 0.1, 3.0 * r0_floor + 5.0))
        beta_cap = 2.0 - (p - 1.0) * (1.0 / q + alpha) - 1.0 / r0
        if beta_cap <= 0.0:
            continue
        beta0 = float(rng.uniform(0.0, 0.9 * beta_cap))
        try:
            return DSetParams(N=N, p=p, q=q, alpha=alpha, r0=r0, beta0=beta0)
        except ValueError:
            continue


# (N, p, q, alpha, r0, beta0) where a condition holds with equality at j*:
# j* is 8, 7, 6 and 12; a float comparison can miss the tie by one step
TIES = [(5, 2.0, 3.0, 0.0, 3.0, 0.0),
        (2, 5.0, 6.0, 0.125, 12.0, 0.0),
        (3, 2.5, 5.0, 0.5, 5.0, 0.5),
        (4, 3.0, 5.0, 0.125, 5.0, 0.0)]


def test_stabilization_matches_scan_oracle():
    rng = np.random.default_rng(2026)
    ties = [DSetParams(*tie) for tie in TIES]
    for params in [_random_admissible(rng) for _ in range(25)] + ties:
        assert stabilization_index(params) == _scan_oracle(params), params
    assert [stabilization_index(params) for params in ties] == [8, 7, 6, 12]
