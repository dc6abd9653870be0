"""Estimators for heavy tails and rotational symmetry of complex samples.

The glassy regime produces totally skewed alpha-stable limits with index
alpha = sqrt(2)/sigma in (1, 2), so moments beyond the first diverge and
everything here works from order statistics or characteristic functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import TAG_SYNTH, make_rng

# Equally spaced directions compared by isotropy_statistic.
ISOTROPY_ANGLES = 16


@dataclass(frozen=True)
class StableFit:
    """Tail-index fit; method names the estimator ('hill')."""

    alpha_hat: float
    alpha_se: float
    k_used: int
    method: str


@dataclass(frozen=True)
class TailSlopeFit:
    """Exponential tail-rate fit of centered maxima."""

    alpha_hat: float
    alpha_se: float
    k_used: int
    prefactor_power: float


def hill_estimator(moduli, k_fraction: float = 0.05) -> StableFit:
    """Hill tail-index fit on the top ceil(k_fraction n) order statistics.

    Scale-invariant by construction.  Requires at least 100 strictly
    positive samples and k_fraction in (0, 0.2]; the effective order count
    is floored at 10 so the standard error alpha/sqrt(k) stays meaningful.
    """
    x = np.asarray(moduli, dtype=np.float64)
    if x.size < 100:
        raise ValueError(f"need >= 100 samples, got {x.size}")
    if not 0.0 < k_fraction <= 0.2:
        raise ValueError(f"k_fraction must lie in (0, 0.2], got {k_fraction!r}")
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("moduli must be finite and strictly positive")
    k = max(10, int(math.ceil(k_fraction * x.size)))
    if k >= x.size:
        raise ValueError("k_fraction leaves no threshold order statistic")
    top = np.sort(x)[::-1]
    spacings = np.log(top[:k]) - np.log(top[k])
    mean_excess = float(np.mean(spacings))
    if mean_excess <= 0.0:
        raise ValueError("degenerate upper order statistics (all equal)")
    alpha = 1.0 / mean_excess
    return StableFit(alpha_hat=alpha, alpha_se=alpha / math.sqrt(k),
                     k_used=k, method="hill")


def empirical_cf(samples, z: complex) -> complex:
    """(1/n) sum_j exp(i Re(conj(z) Y_j)) for complex samples Y."""
    y = np.asarray(samples, dtype=np.complex128)
    if y.size == 0:
        raise ValueError("empty sample")
    z = complex(z)
    arg = y.real * z.real + y.imag * z.imag
    return complex(np.mean(np.cos(arg)), np.mean(np.sin(arg)))


def _cf_table(samples, radii, n_angles: int) -> np.ndarray:
    """phi_hat on the polar grid; shape (len(radii), n_angles)."""
    y = np.asarray(samples, dtype=np.complex128)
    r = np.asarray(radii, dtype=np.float64)
    theta = 2.0 * math.pi * np.arange(n_angles) / n_angles
    z = r[:, None] * np.exp(1j * theta)[None, :]
    arg = np.outer(y.real, z.real.ravel()) + np.outer(y.imag, z.imag.ravel())
    phi = np.exp(1j * arg).mean(axis=0)
    return phi.reshape(r.size, n_angles)


def isotropy_statistic(samples, radii) -> float:
    """Largest CF discrepancy between directions at matched radii.

    max over radii r and pairs a, a' of the ISOTROPY_ANGLES directions of
    |phi_hat(r e^{i a}) - phi_hat(r e^{i a'})|; identically zero in
    distribution terms for a rotation invariant law, O(1/sqrt(n))
    empirically.
    """
    r = np.asarray(radii, dtype=np.float64)
    if r.size == 0 or np.any(r <= 0.0):
        raise ValueError("radii must be positive and nonempty")
    phi = _cf_table(samples, r, ISOTROPY_ANGLES)
    diffs = np.abs(phi[:, :, None] - phi[:, None, :])
    return float(diffs.max())


def isotropy_radii(samples) -> np.ndarray:
    """Radii where the angle-averaged |CF| falls in the informative band.

    CF moduli near 1 or 0 carry no directional signal, so radii are picked
    on an 8-direction grid to hit three evenly spaced targets inside the
    band 0.3 <= |CF| <= 0.7.
    """
    y = np.asarray(samples, dtype=np.complex128)
    scale = float(np.median(np.abs(y)))
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("samples have degenerate modulus scale")
    grid = (1.0 / scale) * np.logspace(-3.0, 3.0, 181)
    level = np.abs(_cf_table(y, grid, 8)).mean(axis=1)
    targets = np.linspace(0.7, 0.3, 3)
    picked = sorted({int(np.argmin(np.abs(level - v))) for v in targets})
    return grid[picked]


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_y |F_a(y) - F_b(y)|."""
    xa = np.sort(np.asarray(a, dtype=np.float64))
    xb = np.sort(np.asarray(b, dtype=np.float64))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be nonempty")
    pts = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pts, side="right") / xa.size
    fb = np.searchsorted(xb, pts, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))


def max_tail_exponent(samples) -> TailSlopeFit:
    """Exponential tail rate of centered maxima (target sqrt(2)).

    Fits log survival ~ const + theta log y - alpha y on the positive part
    of the upper decile by weighted least squares, weights proportional to
    exceedance counts (the inverse variance of the log survival).  The
    free log y coefficient absorbs the polynomial prefactor of the front
    tail, so alpha tracks the pure exponential rate whether or not that
    prefactor is present in the sampled law.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2000:
        raise ValueError(f"need >= 2000 samples, got {x.size}")
    k = int(math.floor(0.1 * x.size))
    top = np.sort(x)[::-1][:k]
    counts = np.arange(1, k + 1, dtype=np.float64)
    positive = top > 0.0
    y = top[positive]
    w = counts[positive]
    if y.size < 50 or y[0] <= y[-1]:
        raise ValueError("insufficient positive upper-tail mass")
    resp = np.log(w / x.size)
    design = np.column_stack([np.ones(y.size), np.log(y), y])
    wls = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * wls[:, None], resp * wls, rcond=None)
    alpha = -float(coef[2])
    if alpha <= 0.0:
        raise ValueError("upper tail does not decay exponentially")
    resid = resp - design @ coef
    dof = max(y.size - 3, 1)
    gram = np.linalg.inv((design * w[:, None]).T @ design)
    sigma2 = float((w * resid * resid).sum() / dof)
    se = math.sqrt(max(gram[2, 2] * sigma2, 0.0))
    return TailSlopeFit(alpha_hat=alpha, alpha_se=se, k_used=int(y.size),
                        prefactor_power=float(coef[1]))


def isotropic_resample(samples, seed: int) -> np.ndarray:
    """Attach fresh uniform phases to the moduli of ``samples``.

    The result is exactly rotation invariant with the same modulus law,
    which makes it the natural calibration control for
    isotropy_statistic.
    """
    y = np.asarray(samples)
    moduli = np.abs(y).astype(np.float64)
    rng = make_rng(seed, TAG_SYNTH)
    phases = rng.uniform(0.0, 2.0 * math.pi, moduli.size)
    return moduli * np.exp(1j * phases)
