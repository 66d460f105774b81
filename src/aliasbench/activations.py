"""Nonlinearities under study and their anti-aliased (ADAA) variants.

First-order ADAA replaces f(x_t) by the average of f over the straight-line
segment between consecutive samples:

    y_t = (F(x_t) - F(x_{t-1})) / (x_t - x_{t-1}),   F' = f.

For SnakeBeta (f(x) = x + sin^2(alpha x)/beta) the divided difference has a
closed form with no denominator:

    y_t = 1/(2 beta) + (x_t + x_{t-1})/2
          - cos(alpha (x_t + x_{t-1})) * sinc(alpha (x_t - x_{t-1})) / (2 beta)

with the unnormalized sinc(u) = sin(u)/u, sinc(0) = 1. Near u = 0 both sinc
and its derivative are evaluated by Taylor series, which keeps the
equal-sample limit exact and the gradient C^1-smooth without any tolerance
threshold. The generic divided-difference form (for ReLU and friends) does
need a tolerance fallback and is provided separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .audio import AudioBuffer
from .filters import downsample_filtered, upsample_filtered

#: |u| below which sinc and sinc' switch to their Taylor series.
_TAYLOR_CUTOFF = 1e-4

OVERSAMPLE_FACTORS = (1, 2, 4, 8)

#: Nonlinearities with a built-in antiderivative pair (make_pair, adaa_base).
ADAA_BASES = ("identity", "relu", "leaky_relu", "elu", "snakebeta")


def _sinc(u: np.ndarray) -> np.ndarray:
    """Unnormalized sinc: sin(u)/u with sinc(0) = 1."""
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < _TAYLOR_CUTOFF
    safe = np.where(small, 1.0, u)
    y = np.asarray(np.sin(safe) / safe)  # asarray: a 0-d input gives a numpy scalar
    us = u[small]  # the series only where it is used
    u2 = us * us
    y[small] = 1.0 - u2 / 6.0 + u2 * u2 / 120.0 - u2 * u2 * u2 / 5040.0
    return y


def _sinc_deriv(u: np.ndarray) -> np.ndarray:
    """d/du sinc(u) = (cos(u) - sinc(u)) / u, with sinc'(0) = 0."""
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < _TAYLOR_CUTOFF
    safe = np.where(small, 1.0, u)
    y = np.asarray((np.cos(safe) - np.sin(safe) / safe) / safe)
    us = u[small]
    u2 = us * us
    y[small] = -us / 3.0 + us * u2 / 30.0 - us * u2 * u2 / 840.0
    return y


def _check_ab(alpha, beta) -> None:
    if np.any(np.asarray(alpha) <= 0) or np.any(np.asarray(beta) <= 0):
        raise ValueError(f"alpha and beta must be positive, got alpha={alpha}, beta={beta}")


def _as_result(y: np.ndarray):
    return float(y) if y.ndim == 0 else y


def snakebeta(x, alpha=1.0, beta=1.0):
    """x + sin^2(alpha x)/beta."""
    _check_ab(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    return _as_result(x + np.sin(alpha * x) ** 2 / beta)


def snakebeta_antiderivative(x, alpha=1.0, beta=1.0):
    """Antiderivative of snakebeta (integration constant 0):
    x^2/2 + x/(2 beta) - sin(2 alpha x)/(4 alpha beta)."""
    _check_ab(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    return _as_result(x * x / 2.0 + x / (2.0 * beta) - np.sin(2.0 * alpha * x) / (4.0 * alpha * beta))


def adaa_snakebeta(x_t, x_prev, alpha=1.0, beta=1.0):
    """Closed-form first-order ADAA of snakebeta. Exact at x_t == x_prev."""
    _check_ab(alpha, beta)
    x_t = np.asarray(x_t, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    s = x_t + x_prev
    d = x_t - x_prev
    y = 0.5 / beta + 0.5 * s - np.cos(alpha * s) * _sinc(alpha * d) / (2.0 * beta)
    return _as_result(y)


def adaa_snakebeta_grad(x_t, x_prev, alpha=1.0, beta=1.0):
    """Analytic partials (dy/dx_t, dy/dx_prev) of adaa_snakebeta.

    Both lie in [(beta-alpha)/(2 beta), (beta+alpha)/(2 beta)]: the magnitude
    of sin(as)*sinc(ad) -/+ cos(as)*sinc'(ad) never exceeds 1 because
    sinc^2 + sinc'^2 <= 1 everywhere.
    """
    _check_ab(alpha, beta)
    x_t = np.asarray(x_t, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    s = alpha * (x_t + x_prev)
    d = alpha * (x_t - x_prev)
    scale = alpha / (2.0 * beta)
    sin_s, cos_s = np.sin(s), np.cos(s)
    sc, dsc = _sinc(d), _sinc_deriv(d)
    g_t = 0.5 + scale * (sin_s * sc - cos_s * dsc)
    g_prev = 0.5 + scale * (sin_s * sc + cos_s * dsc)
    return _as_result(g_t), _as_result(g_prev)


def adaa_grad_bounds(alpha=1.0, beta=1.0):
    """Interval guaranteed to contain every adaa_snakebeta partial."""
    _check_ab(alpha, beta)
    return (beta - alpha) / (2.0 * beta), (beta + alpha) / (2.0 * beta)


def leaky_relu(x, slope: float = 0.1):
    x = np.asarray(x, dtype=np.float64)
    return _as_result(np.where(x >= 0, x, slope * x))


def elu(x, a: float = 1.0):
    x = np.asarray(x, dtype=np.float64)
    return _as_result(np.where(x >= 0, x, a * np.expm1(np.minimum(x, 0.0))))


@dataclass(frozen=True)
class AntiderivativePair:
    """A nonlinearity f together with its antiderivative F (dF/dx = f)."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray]


def make_pair(kind: str, alpha: float = 1.0, beta: float = 1.0, slope: float = 0.1, a: float = 1.0) -> AntiderivativePair:
    """Built-in (f, F) pairs for the generic ADAA path."""
    if kind not in ADAA_BASES:
        raise ValueError(f"no built-in antiderivative pair for {kind!r}, expected one of {ADAA_BASES}")
    if kind == "identity":
        return AntiderivativePair("identity", lambda x: np.asarray(x, float), lambda x: x * x / 2.0)
    if kind == "relu":
        return AntiderivativePair(
            "relu",
            lambda x: np.maximum(x, 0.0),
            lambda x: np.where(x > 0, x * x / 2.0, 0.0),
        )
    if kind == "leaky_relu":
        return AntiderivativePair(
            "leaky_relu",
            lambda x: np.where(np.asarray(x, float) >= 0, x, slope * np.asarray(x, float)),
            lambda x: np.where(np.asarray(x, float) > 0, x * x / 2.0, slope * x * x / 2.0),
        )
    if kind == "elu":
        return AntiderivativePair(
            "elu",
            lambda x: elu(x, a),
            lambda x: np.where(
                np.asarray(x, float) > 0,
                x * x / 2.0 + a,
                a * (np.exp(np.minimum(np.asarray(x, float), 0.0)) - x),
            ),
        )
    return AntiderivativePair(
        "snakebeta",
        lambda x: snakebeta(x, alpha, beta),
        lambda x: snakebeta_antiderivative(x, alpha, beta),
    )


def adaa_generic(pair: AntiderivativePair, x_t, x_prev, tol: float = 1e-5):
    """Divided-difference ADAA with midpoint fallback when |x_t - x_prev| < tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x_t = np.asarray(x_t, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    d = x_t - x_prev
    small = np.abs(d) < tol
    safe_d = np.where(small, 1.0, d)
    divided = (pair.antiderivative(x_t) - pair.antiderivative(x_prev)) / safe_d
    y = np.where(small, pair.f((x_t + x_prev) / 2.0), divided)
    return _as_result(y)


def relu_sine_fourier(k: int) -> float:
    """Magnitude of the k-th output harmonic when relu is fed a unit sine.

    relu(sin wt) = 1/pi + sin(wt)/2 - sum_m 2 cos(2m wt) / (pi (2m-1)(2m+1)),
    so k=0 gives 1/pi, k=1 gives 1/2, even k gives 2/(pi (k-1)(k+1)), and odd
    harmonics above the fundamental vanish.
    """
    if k < 0:
        raise ValueError("harmonic index must be >= 0")
    if k == 0:
        return 1.0 / np.pi
    if k == 1:
        return 0.5
    if k % 2 == 0:
        return 2.0 / (np.pi * (k - 1) * (k + 1))
    return 0.0


@dataclass(frozen=True)
class ActivationSpec:
    """Which nonlinearity to apply, with parameters and oversampling factor."""

    kind: str
    alpha: float = 1.0
    beta: float = 1.0
    slope: float = 0.1
    elu_a: float = 1.0
    oversample: int = 1
    adaa_tol: float = 1e-5
    adaa_base: str = "relu"
    name: str = ""
    table_row: bool = False

    _KINDS = ("leaky_relu", "elu", "snakebeta", "adaa_snakebeta", "adaa_generic")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}, expected one of {self._KINDS}")
        _check_ab(self.alpha, self.beta)
        if self.oversample not in OVERSAMPLE_FACTORS:
            raise ValueError(f"oversample must be one of {OVERSAMPLE_FACTORS}, got {self.oversample}")
        if self.adaa_tol <= 0:
            raise ValueError("adaa_tol must be positive")
        if self.adaa_base not in ADAA_BASES:
            raise ValueError(f"unknown adaa_base {self.adaa_base!r}, expected one of {ADAA_BASES}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)


def _apply_samples(x: np.ndarray, spec: ActivationSpec) -> np.ndarray:
    if spec.kind == "leaky_relu":
        return leaky_relu(x, spec.slope)
    if spec.kind == "elu":
        return elu(x, spec.elu_a)
    if spec.kind == "snakebeta":
        return snakebeta(x, spec.alpha, spec.beta)
    x_prev = np.concatenate(([0.0], x[:-1])) if x.size else x
    if spec.kind == "adaa_snakebeta":
        y = adaa_snakebeta(x, x_prev, spec.alpha, spec.beta)
    else:
        pair = make_pair(spec.adaa_base, spec.alpha, spec.beta, spec.slope, spec.elu_a)
        y = adaa_generic(pair, x, x_prev, spec.adaa_tol)
    return np.asarray(y, dtype=np.float64)


def oversampled_apply(
    x: AudioBuffer, fn: Callable[[AudioBuffer], AudioBuffer], factor: int
) -> AudioBuffer:
    """Run fn at `factor` times the input rate: upsample, apply, downsample.

    Output length and rate equal the input's. Unlike ActivationSpec, this
    low-level wrapper accepts any factor >= 1 (e.g. the 64x ReLU Fourier
    check).
    """
    if factor == 1:
        return fn(x)
    return downsample_filtered(fn(upsample_filtered(x, factor)), factor)


def apply_activation(x: AudioBuffer, spec: ActivationSpec) -> AudioBuffer:
    """Apply the configured nonlinearity over a whole buffer.

    ADAA kinds consume samples in order and read x_{t-1} = 0 at the start.
    With oversampling the nonlinearity runs at the high rate between the two
    resampling filters.
    """
    return oversampled_apply(x, lambda buf: buf.with_samples(_apply_samples(buf.samples, spec)), spec.oversample)
