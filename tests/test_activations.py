"""Tests for the nonlinearities: SnakeBeta and its closed-form ADAA variant,
analytic gradients, generic first-order ADAA, and the oversampling wrapper.

The ADAA oracle is independent of the implementation: Gauss-Legendre
quadrature of f over the linearly reconstructed segment between x_prev and
x_t (the continuous-time average the divided difference must equal).
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.integrate import quad

from aliasbench.activations import (
    ADAA_BASES,
    ActivationSpec,
    adaa_generic,
    adaa_grad_bounds,
    adaa_snakebeta,
    adaa_snakebeta_grad,
    apply_activation,
    elu,
    leaky_relu,
    make_pair,
    oversampled_apply,
    relu_sine_fourier,
    snakebeta,
    snakebeta_antiderivative,
)
from aliasbench.audio import AudioBuffer
from aliasbench.signals import TestSignalSpec, gen_bandlimited

_GL_NODES, _GL_WEIGHTS = leggauss(256)


def segment_average(f, x_t, x_prev):
    """integral_0^1 f(x_prev + u (x_t - x_prev)) du by 256-node quadrature."""
    u = 0.5 * (_GL_NODES + 1.0)
    w = 0.5 * _GL_WEIGHTS
    seg = x_prev[:, None] + u[None, :] * (x_t - x_prev)[:, None]
    return (f(seg) * w[None, :]).sum(axis=1)


class TestSnakeBeta:
    def test_fixed_points(self):
        """snakebeta(x) = x + sin^2(ax)/b: 0 -> 0, pi/2 -> pi/2 + 1, pi -> pi."""
        assert snakebeta(0.0) == 0.0
        assert_allclose(snakebeta(np.pi / 2), np.pi / 2 + 1.0, rtol=1e-15)
        assert_allclose(snakebeta(np.pi), np.pi, rtol=1e-15)

    def test_parameters(self):
        x = 0.3
        assert_allclose(snakebeta(x, alpha=2.0, beta=4.0), x + np.sin(2 * x) ** 2 / 4.0)

    def test_antiderivative_differentiates_back(self):
        """Central differences of the antiderivative recover snakebeta."""
        x = np.linspace(-4, 4, 201)
        h = 1e-6
        for alpha, beta in [(1.0, 1.0), (3.0, 0.5), (0.2, 7.0)]:
            fd = (
                snakebeta_antiderivative(x + h, alpha, beta)
                - snakebeta_antiderivative(x - h, alpha, beta)
            ) / (2 * h)
            assert_allclose(fd, snakebeta(x, alpha, beta), atol=1e-7)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            snakebeta(1.0, alpha=0.0)
        with pytest.raises(ValueError):
            snakebeta(1.0, beta=-1.0)


class TestAdaaSnakeBeta:
    def test_zero_pair(self):
        assert adaa_snakebeta(0.0, 0.0) == 0.0

    def test_pi_from_zero(self):
        """x_t=pi, x_prev=0, a=b=1 gives 1/2 + pi/2 (sinc(pi) = 0)."""
        assert_allclose(adaa_snakebeta(np.pi, 0.0), 0.5 + np.pi / 2, atol=1e-12)

    def test_equal_samples_reduce_to_snakebeta(self):
        """The sinc limit is handled analytically: at x_t == x_prev the ADAA
        form equals the plain activation to machine precision."""
        rng = np.random.default_rng(42)
        x = rng.uniform(-40, 40, 20000)
        for alpha, beta in [(1.0, 1.0), (5.0, 0.3), (0.1, 10.0)]:
            got = adaa_snakebeta(x, x, alpha, beta)
            want = snakebeta(x, alpha, beta)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_matches_quadrature_oracle(self):
        """The closed form equals the segment average of snakebeta."""
        rng = np.random.default_rng(42)
        n = 2000
        x_t = rng.uniform(-3, 3, n)
        x_prev = rng.uniform(-3, 3, n)
        alpha = rng.uniform(0.1, 10.0, n)
        beta = rng.uniform(0.1, 10.0, n)
        for i in range(0, n, 500):
            sl = slice(i, i + 500)
            a, b = alpha[i], beta[i]
            got = adaa_snakebeta(x_t[sl], x_prev[sl], a, b)
            want = segment_average(lambda s: snakebeta(s, a, b), x_t[sl], x_prev[sl])
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_near_coincident_samples_stay_smooth(self):
        """No denominator: values vary smoothly through |x_t - x_prev| ~ 0."""
        x = 0.7
        deltas = np.logspace(-300, -1, 600)
        y = adaa_snakebeta(x + deltas, x - deltas)
        assert np.all(np.isfinite(y))
        y0 = snakebeta(x)
        assert np.max(np.abs(y - y0)) <= 1e-2
        assert abs(adaa_snakebeta(x, x) - y0) <= 1e-15

    def test_bounded_output(self):
        """|y| stays within max|x| + 1/beta + 1 for bounded inputs."""
        rng = np.random.default_rng(42)
        x_t = rng.uniform(-5, 5, 5000)
        x_prev = rng.uniform(-5, 5, 5000)
        y = adaa_snakebeta(x_t, x_prev, 2.0, 0.5)
        assert np.max(np.abs(y)) <= 5.0 + 1 / 0.5 + 1.0


class TestAdaaSnakeBetaGrad:
    def test_degenerate_origin(self):
        assert_allclose(adaa_snakebeta_grad(0.0, 0.0), (0.5, 0.5), atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        n = 5000
        x_t = rng.uniform(-3, 3, n)
        x_prev = rng.uniform(-3, 3, n)
        h = 1e-6
        for alpha, beta in [(1.0, 1.0), (4.0, 2.0), (0.3, 0.7)]:
            g_t, g_p = adaa_snakebeta_grad(x_t, x_prev, alpha, beta)
            fd_t = (adaa_snakebeta(x_t + h, x_prev, alpha, beta) - adaa_snakebeta(x_t - h, x_prev, alpha, beta)) / (2 * h)
            fd_p = (adaa_snakebeta(x_t, x_prev + h, alpha, beta) - adaa_snakebeta(x_t, x_prev - h, alpha, beta)) / (2 * h)
            assert np.max(np.abs(g_t - fd_t)) <= 1e-6
            assert np.max(np.abs(g_p - fd_p)) <= 1e-6

    def test_bounds_hold_everywhere(self):
        """Both partials lie in [(b-a)/(2b), (b+a)/(2b)] — including through
        the removable singularity at x_t == x_prev."""
        rng = np.random.default_rng(42)
        n = 50000
        x_t = rng.uniform(-20, 20, n)
        x_prev = np.where(rng.uniform(size=n) < 0.1, x_t, rng.uniform(-20, 20, n))
        for alpha, beta in [(1.0, 1.0), (8.0, 0.5), (0.1, 9.0)]:
            lo, hi = adaa_grad_bounds(alpha, beta)
            g_t, g_p = adaa_snakebeta_grad(x_t, x_prev, alpha, beta)
            for g in (g_t, g_p):
                assert np.min(g) >= lo
                assert np.max(g) <= hi

    def test_bounds_formula(self):
        assert adaa_grad_bounds(1.0, 1.0) == (0.0, 1.0)
        assert_allclose(adaa_grad_bounds(1.0, 2.0), (0.25, 0.75))


class TestGenericAdaa:
    def test_identity_pair_averages_a_ramp(self):
        pair = make_pair("identity")
        assert_allclose(adaa_generic(pair, 2.0, 0.0), 1.0)

    def test_relu_pair_half_straddle(self):
        """Across [-1, 1] only the positive half contributes: 0.25."""
        pair = make_pair("relu")
        assert_allclose(adaa_generic(pair, 1.0, -1.0), 0.25)

    def test_tol_fallback_is_exact_midpoint(self):
        """Below tol the result is exactly f((x_t+x_prev)/2), bit for bit."""
        pair = make_pair("relu")
        x_t, x_prev = 0.5 + 1e-9, 0.5
        got = adaa_generic(pair, x_t, x_prev, tol=1e-5)
        assert got == np.maximum((x_t + x_prev) / 2.0, 0.0)

    def test_matches_quadrature_for_elu(self):
        """Adaptive quadrature oracle, split at the derivative kink at 0."""
        rng = np.random.default_rng(42)
        x_t = rng.uniform(-3, 3, 200)
        x_prev = rng.uniform(-3, 3, 200)
        got = adaa_generic(make_pair("elu", a=1.3), x_t, x_prev)
        for i in range(200):
            lo, hi = sorted((x_prev[i], x_t[i]))
            pts = [0.0] if lo < 0.0 < hi else None
            integral, _ = quad(
                lambda s: elu(s, 1.3), lo, hi, points=pts, epsabs=1e-13, epsrel=1e-13
            )
            assert abs(got[i] - integral / (hi - lo)) <= 1e-8

    @pytest.mark.parametrize("kind", ADAA_BASES)
    def test_builtin_antiderivative_differentiates_back(self, kind):
        """Central differences of each built-in F recover its f, at default
        and at other parameters."""
        grid = np.linspace(-3.0, 3.0, 121)
        h = 1e-6
        for params in ({}, dict(alpha=2.0, beta=0.5, slope=0.3, a=1.3)):
            pair = make_pair(kind, **params)
            fd = (pair.antiderivative(grid + h) - pair.antiderivative(grid - h)) / (2.0 * h)
            assert_allclose(fd, pair.f(grid), rtol=0, atol=1e-6)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            adaa_generic(make_pair("identity"), 1.0, 0.0, tol=0.0)


class TestPointwiseActivations:
    def test_leaky_relu(self):
        assert_allclose(leaky_relu(np.array([-2.0, 0.0, 3.0])), [-0.2, 0.0, 3.0])

    def test_elu(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert_allclose(elu(x), [np.expm1(-2.0), 0.0, 3.0])

    def test_elu_no_overflow_for_large_positive(self):
        assert elu(1000.0) == 1000.0


class TestReluSineFourier:
    def test_table_of_known_coefficients(self):
        assert_allclose(relu_sine_fourier(0), 0.3183098861837907)
        assert relu_sine_fourier(1) == 0.5
        assert_allclose(relu_sine_fourier(2), 2 / (3 * np.pi))
        assert_allclose(relu_sine_fourier(10), 2 / (np.pi * 9 * 11))

    def test_odd_harmonics_vanish(self):
        assert relu_sine_fourier(3) == 0.0
        assert relu_sine_fourier(9) == 0.0

    def test_series_sums_to_relu(self):
        """Partial sums of the closed-form series reconstruct relu(sin).

        The even-harmonic tail telescopes: sum_{k>=K even} 2/(pi (k-1)(k+1))
        = 1/(pi (K-1)), so truncating at K=400 bounds the error by 1/(399 pi).
        """
        theta = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        y = relu_sine_fourier(0) + relu_sine_fourier(1) * np.sin(theta)
        for k in range(2, 400, 2):
            y -= relu_sine_fourier(k) * np.cos(k * theta)
        tail = 1.0 / (399 * np.pi)
        assert np.max(np.abs(y - np.maximum(np.sin(theta), 0.0))) <= tail * 1.001


class TestApplyActivation:
    def test_unit_slope_leaky_relu_is_identity(self):
        """slope-1 LeakyReLU passes samples through bit for bit at c=1."""
        x = gen_bandlimited(TestSignalSpec("sine", 76, duration_s=0.5))
        y = apply_activation(x, ActivationSpec("leaky_relu", slope=1.0))
        assert np.array_equal(y.samples, x.samples)

    def test_unit_slope_leaky_relu_transparent_when_oversampled(self):
        """With oversampling the only error on passband content is the
        resampling filter round trip, which is far below audibility."""
        x = gen_bandlimited(TestSignalSpec("sine", 76, duration_s=0.5))
        spec = ActivationSpec("leaky_relu", slope=1.0, oversample=2)
        y = apply_activation(x, spec)
        mid = slice(4000, len(x) - 4000)
        err = y.samples[mid] - x.samples[mid]
        snr = 10 * np.log10(np.sum(x.samples[mid] ** 2) / np.sum(err**2))
        assert snr >= 100.0

    def test_output_shape_and_rate_preserved(self):
        x = AudioBuffer(np.sin(np.linspace(0, 100, 22050)), 22050)
        for kind in ("leaky_relu", "elu", "snakebeta", "adaa_snakebeta"):
            for c in (1, 2):
                y = apply_activation(x, ActivationSpec(kind, oversample=c))
                assert len(y) == len(x) and y.sample_rate == x.sample_rate

    def test_adaa_uses_zero_initial_state(self):
        """First output sample is the segment value from x_{-1} = 0."""
        x = AudioBuffer(np.array([0.8, -0.3, 0.1]), 8000)
        y = apply_activation(x, ActivationSpec("adaa_snakebeta"))
        assert_allclose(y.samples[0], adaa_snakebeta(0.8, 0.0))
        assert_allclose(y.samples[1], adaa_snakebeta(-0.3, 0.8))

    def test_generic_adaa_kind_runs(self):
        x = AudioBuffer(np.linspace(-1, 1, 100), 8000)
        y = apply_activation(x, ActivationSpec("adaa_generic", adaa_base="leaky_relu"))
        assert np.all(np.isfinite(y.samples))

    def test_invalid_oversample_rejected(self):
        with pytest.raises(ValueError):
            ActivationSpec("snakebeta", oversample=3)

    def test_default_name_is_kind(self):
        assert ActivationSpec("elu").name == "elu"
        assert ActivationSpec("elu", name="ELU").name == "ELU"


class TestOversampledApply:
    def test_factor_one_calls_through(self):
        x = AudioBuffer(np.arange(8.0), 8000)
        y = oversampled_apply(x, lambda b: b.with_samples(b.samples * 2), 1)
        assert_allclose(y.samples, x.samples * 2)

    def test_identity_round_trip_at_64x(self):
        """Up 64x and straight back down preserves a band-limited signal."""
        x = gen_bandlimited(TestSignalSpec("sine", 81, duration_s=0.25))
        y = oversampled_apply(x, lambda b: b, 64)
        mid = slice(2000, len(x) - 2000)
        err = y.samples[mid] - x.samples[mid]
        snr = 10 * np.log10(np.sum(x.samples[mid] ** 2) / np.sum(err**2))
        assert snr >= 80.0
