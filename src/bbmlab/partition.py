"""Partition functions and martingales of the complex-temperature field.

For inverse temperature beta = sigma + i tau (a complex number; sigma and
tau are its .real and .imag) the raw partition function of a correlated
field is sum_k exp(sigma x_k + i tau y_k) over the leaves.
Two centerings matter: dividing by e^(beta m(t)) (the natural scaling when
the imaginary energy is a deterministic rotation of the real one) and by
e^(sigma m(t)) only (the scaling under which partial correlation leaves a
rotation-invariant limit), where

    m(t) = sqrt(2) t - (3 / (2 sqrt(2))) log t

is the centering of the front.  All exponential sums run through the
log-scale accumulator, so no intermediate quantity overflows even when
sigma x_k is in the hundreds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .accum import (ScaledComplex, compensated_sum, scaled_exp_sum,
                    scaled_exp_sums, scaled_trig_sum)

SQRT2 = math.sqrt(2.0)


def m_of_t(t: float) -> float:
    """Front centering sqrt(2) t - (3/(2 sqrt(2))) log t; needs t > 0."""
    if t <= 0.0:
        raise ValueError(f"m(t) needs t > 0, got {t!r}")
    return SQRT2 * t - 1.5 / SQRT2 * math.log(t)


def scaled_partition(field, beta) -> ScaledComplex:
    """Raw partition sum in log-scale form: sum_k e^(sigma x_k + i tau y_k)."""
    return scaled_exp_sum(beta.real * field.x, beta.imag * field.y)


def partition_function(field, beta) -> complex:
    """Raw partition sum as a plain complex (see scaled_partition for safety)."""
    return scaled_partition(field, beta).value


class RescaledPartition(NamedTuple):
    full: complex        # e^(-beta m(t)) X(t)
    real_shift: complex  # e^(-sigma m(t)) X(t)


def rescaled_partition(field, beta) -> RescaledPartition:
    """Both centerings of the raw sum for the field's horizon."""
    m = m_of_t(field.t)
    scaled = scaled_partition(field, beta)
    real_shift = scaled.shifted(-beta.real * m)
    full = real_shift.rotated(-beta.imag * m)
    return RescaledPartition(full=full.value, real_shift=real_shift.value)


class TruncatedPartition(NamedTuple):
    kept: complex        # leaves with x_k - m(t) >= -threshold
    discarded: complex   # leaves with x_k - m(t) < -threshold


def truncated_partition(field, beta, threshold: float) -> TruncatedPartition:
    """Split e^(-sigma m(t)) X(t) at depth ``threshold`` below the front.

    Terms are e^(sigma (x_k - m) + i tau y_k); kept + discarded always
    reconstitutes the real-shift rescaling of the full sum.
    """
    return truncation_sweep(field, beta, [threshold])[0]


def truncation_sweep(field, beta, thresholds) -> list[TruncatedPartition]:
    """truncated_partition at each threshold, reducing the field once.

    x_k - m, cos(tau y_k) and sin(tau y_k) are computed once; each
    threshold then sums its kept and discarded subsets, each with its own
    peak, so every entry has the bits of a one-threshold call.
    """
    thresholds = [float(a) for a in thresholds]
    for a in thresholds:
        if a < 0.0:
            raise ValueError(f"threshold must be >= 0, got {a!r}")
    shift = field.x - m_of_t(field.t)
    cos, sin = _phase_tables(beta.imag, field.y)
    parts = []
    for a in thresholds:
        keep = shift >= -a
        drop = ~keep
        kept = scaled_trig_sum(beta.real * shift[keep], cos, sin, keep)
        disc = scaled_trig_sum(beta.real * shift[drop], cos, sin, drop)
        parts.append(TruncatedPartition(kept=kept.value, discarded=disc.value))
    return parts


def _phase_tables(tau: float, y) -> tuple[np.ndarray, np.ndarray]:
    """cos(tau y_k) and sin(tau y_k), the tables scaled_trig_sum takes."""
    phases = tau * y
    return np.cos(phases), np.sin(phases)


def additive_martingale(field, beta) -> complex:
    """Unit-mean complex martingale e^(-t psi(beta, rho)) X(t).

    psi = 1 + (sigma^2 - tau^2)/2 + i sigma rho tau with the field's rho,
    which compensates both the expected population growth and the full
    complex moment of one leaf's energy pair, so E[M] = 1 at every horizon.
    The one-segment call of additive_martingales.
    """
    return complex(additive_martingales(field, beta, [field.x.size])[0])


def additive_martingales(field, beta, ends) -> np.ndarray:
    """additive_martingale of each tree whose leaves the field lays end to
    end, as a complex array: tree j holds leaves ends[j-1]:ends[j] (from 0
    for j = 0), and every tree has the field's horizon and rho.

    One scaled_exp_sums pass reduces them all, and the trees are finished
    together with the float operations of ScaledComplex.shifted, .rotated
    and .value (Python's complex product written out, signed-zero terms
    included), so each entry has the bits of
    scaled_exp_sum(...).shifted(log_norm).rotated(angle).value on its
    tree's leaves alone; a tree with no finite weight gives 0j.
    """
    t = field.t
    log_norm = -t * (1.0 + 0.5 * (beta.real ** 2 - beta.imag ** 2))
    angle = -t * beta.real * field.rho * beta.imag
    peaks, mr, mi = scaled_exp_sums(beta.real * field.x, beta.imag * field.y,
                                    ends)
    c, s = math.cos(angle), math.sin(angle)
    rr = mr * c - mi * s
    ri = mr * s + mi * c
    log_scale = peaks + log_norm
    e = np.exp(log_scale)
    m = np.empty(peaks.size, dtype=np.complex128)
    m.real = e * rr - 0.0 * ri
    m.imag = e * ri + 0.0 * rr
    m[(peaks == -np.inf) | (log_scale == -np.inf)] = 0.0
    return m


def derivative_martingale(field) -> float:
    """Z(t) = sum_k (sqrt(2) t - x_k) e^(-sqrt(2)(sqrt(2) t - x_k))."""
    depth = SQRT2 * field.t - field.x
    return compensated_sum(depth * np.exp(-SQRT2 * depth))


def log_partition(field, beta) -> float:
    """Finite-horizon free energy p_t = (1/t) log |X(t)|."""
    return log_partitions(field, [beta])[0]


def log_partitions(field, betas) -> list[float]:
    """log_partition at each beta, computing cos and sin once per tau.

    Betas are grouped by tau and one tau's tables are held at a time, so
    memory does not grow with the number of betas.  A real beta (tau 0.0
    or -0.0) builds no tables: its table would hold cos(±0 y) = 1 exactly
    and an imaginary sum of ±0, which leaves |X| as it is, so the real sum
    alone has its bits.  Every entry has the bits of a one-beta call.
    """
    t = field.t
    if t <= 0.0:
        raise ValueError("log_partition needs a horizon t > 0")
    by_tau: dict = {}
    for j, beta in enumerate(betas):
        by_tau.setdefault(beta.imag, []).append(j)
    p = [0.0] * len(betas)
    for tau, js in by_tau.items():
        tables = () if tau == 0.0 else _phase_tables(tau, field.y)
        for j in js:
            p[j] = scaled_trig_sum(betas[j].real * field.x,
                                   *tables).abs_log / t
        del tables  # free before the next tau's tables are built
    return p
