"""Stable accumulation helpers for large exponential sums.

Partition-type sums combine up to ~10^6 terms e^{w_k + i phi_k} whose
weights span hundreds of e-folds.  Everything here works on a log-scale
representation (peeled maximum exponent plus a complex mantissa) so the
intermediate arithmetic never overflows, and mantissa sums use chunked
exactly-rounded accumulation with a frozen term order, so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1024
_FSUM_DIRECT = 4096
# Below this many terms math.fsum over a list beats the binned kernel,
# whose cost is mostly the fixed overhead of a dozen numpy calls.
_FSUM_LIST = 700
# The binned kernel hands inputs with a term of magnitude 2^1000 or more,
# or a non-finite one, to math.fsum, which keeps fsum's inf, nan and
# OverflowError results and keeps every scaled bin sum finite.
_BINNED_LIMIT = 2.0 ** 1000


def _binned_fsum(v: np.ndarray) -> float:
    """math.fsum(v) for 1 <= v.size <= 2^26, in a dozen numpy calls.

    Each term is m 2^e with 0.5 <= |m| < 1, and m 2^27 splits exactly into
    an integer part of at most 27 bits and a fraction of at most 26.  Both
    parts are summed per exponent e with bincount; each bin sum needs at
    most 53 bits, so it is exact, and so is its scaling by 2^(e - 27) (in
    the subnormal range every term, so every scaled bin sum, is a multiple
    of 2^-1074).  The scaled bin sums add up to the exact total of v, and
    math.fsum over them rounds that total correctly, as math.fsum(v) does;
    a zero total gives 0.0 either way, never -0.0.
    """
    if not np.abs(v).max() < _BINNED_LIMIT:
        return math.fsum(v.tolist())
    mant, expo = np.frexp(v)
    low = int(expo.min())
    scaled = mant * 134217728.0  # 2^27
    whole = np.trunc(scaled)
    idx = expo - low
    bins = np.array((np.bincount(idx, whole),
                     np.bincount(idx, scaled - whole)))
    parts = np.ldexp(bins, np.arange(low - 27, low - 27 + bins.shape[1]))
    return math.fsum(parts[parts != 0.0].tolist())


def compensated_sum(values) -> float:
    """Sum floats with exactly-rounded combining, reproducible bit for bit.

    Up to 4096 terms the result is the exact sum correctly rounded, the
    float math.fsum gives: math.fsum over a list below 700 terms, the
    binned kernel _binned_fsum above.  Larger arrays are reduced in fixed
    1024-term chunks in array order whose partial sums are then
    fsum-combined, which keeps the cost near numpy speed; the result is
    deterministic but no longer exactly rounded.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.size == 0:
        return 0.0
    if v.size < _FSUM_LIST:
        return math.fsum(v.tolist())
    if v.size <= _FSUM_DIRECT:
        return _binned_fsum(v)
    partials = np.add.reduceat(v, np.arange(0, v.size, _CHUNK))
    return math.fsum(partials)


@dataclass(frozen=True)
class ScaledComplex:
    """Value e^(log_scale) * mantissa with the scale kept symbolic."""

    log_scale: float
    mantissa: complex

    @property
    def value(self) -> complex:
        """Collapse to a plain complex; saturates to inf for extreme scales."""
        if self.log_scale == -math.inf:
            return complex(0.0, 0.0)
        return complex(float(np.exp(self.log_scale))) * self.mantissa

    @property
    def abs_log(self) -> float:
        """log |value| without leaving log scale (-inf for zero)."""
        mod = abs(self.mantissa)
        if mod == 0.0 or self.log_scale == -math.inf:
            return -math.inf
        return self.log_scale + math.log(mod)

    def shifted(self, delta: float) -> "ScaledComplex":
        """Multiply by e^delta, staying in log scale."""
        if self.log_scale == -math.inf:
            return self
        return ScaledComplex(self.log_scale + delta, self.mantissa)

    def rotated(self, angle: float) -> "ScaledComplex":
        """Multiply by the unit phase e^(i angle)."""
        return ScaledComplex(self.log_scale,
                             self.mantissa * complex(math.cos(angle),
                                                     math.sin(angle)))


def _peeled(log_weights) -> tuple[float, np.ndarray | None]:
    """(peak, e^(log_weights - peak)); None for the weights of a zero sum."""
    lw = np.ascontiguousarray(log_weights, dtype=np.float64)
    if lw.size == 0:
        return -math.inf, None
    peak = float(np.max(lw))
    if peak == -math.inf:
        return peak, None
    return peak, np.exp(lw - peak)


def scaled_exp_sum(log_weights, phases=None) -> ScaledComplex:
    """sum_k e^(log_weights[k] + i phases[k]) in log-scale representation.

    The one-segment call of scaled_exp_sums; a sum with no finite weight
    is (-inf, 1).  Without phases the sum is real (scaled_trig_sum
    without tables).
    """
    if phases is None:
        return scaled_trig_sum(log_weights)
    peaks, re, im = scaled_exp_sums(log_weights, phases,
                                    [np.size(log_weights)])
    peak = float(peaks[0])
    if peak == -math.inf:
        return ScaledComplex(-math.inf, complex(1.0, 0.0))
    return ScaledComplex(peak, complex(re[0], im[0]))


def scaled_exp_sums(log_weights, phases,
                    ends) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """scaled_exp_sum of each segment of one pair of 1-D term arrays, as
    arrays: (peaks, re, im), where segment j sums to
    e^(peaks[j]) * (re[j] + i im[j]).

    Segment j holds terms ends[j-1]:ends[j] (from 0 for j = 0), and
    ends[-1] is the term count.  Each segment's largest weight is peeled
    off before exponentiation, so its parts are finite whenever its
    log-weights are; entries of -inf contribute zero, and a segment with
    no finite weight has peak -inf and zero parts.  exp, cos and sin each
    run once over all the terms; each segment's parts are summed by
    compensated_sum on its own slice (math.fsum over slices of one list
    when every segment is under _FSUM_LIST terms), so every segment has
    the bits of a call on it alone.  The cos product is reduced before
    sin is computed, so at most two arrays of the term count are alive
    besides the inputs.
    """
    lw = np.ascontiguousarray(log_weights, dtype=np.float64)
    ph = np.ascontiguousarray(phases, dtype=np.float64)
    if ph.shape != lw.shape or lw.ndim != 1:
        raise ValueError("phases must align with 1-D log_weights")
    bounds = [0] + [int(end) for end in ends]
    sizes = np.diff(bounds)
    if bounds[-1] != lw.size or (sizes < 0).any():
        raise ValueError("ends must be nondecreasing and end at the term "
                         "count")
    peaks = np.full(sizes.size, -np.inf)
    live = sizes > 0
    if live.any():
        peaks[live] = np.maximum.reduceat(lw, np.array(bounds[:-1])[live])
    w = np.repeat(np.where(peaks == -np.inf, 0.0, peaks), sizes)
    np.subtract(lw, w, out=w)
    w = np.exp(w)
    largest = int(sizes.max(initial=0))
    re = _segment_sums(w * np.cos(ph), bounds, largest)
    im = _segment_sums(w * np.sin(ph), bounds, largest)
    return peaks, re, im


def _segment_sums(v: np.ndarray, bounds: list, largest: int) -> np.ndarray:
    """compensated_sum of v[bounds[j]:bounds[j + 1]] for each segment j,
    the largest of which has ``largest`` terms."""
    segments = zip(bounds, bounds[1:])
    if largest < _FSUM_LIST:
        terms = v.tolist()
        sums = [math.fsum(terms[lo:hi]) for lo, hi in segments]
    else:
        sums = [compensated_sum(v[lo:hi]) for lo, hi in segments]
    return np.array(sums, dtype=np.float64)


def scaled_trig_sum(log_weights, cos=None, sin=None,
                    where=...) -> ScaledComplex:
    """scaled_exp_sum with the phases given as cos and sin tables.

    Callers that reduce one field at many weights compute the tables once.
    Term k pairs log_weights[k] with the k-th entry of cos[where] and
    sin[where].  A boolean mask ``where`` lets the tables cover a whole
    field while log_weights holds only the masked terms; the masked table
    entries are then gathered only as operands of their product with the
    weights, so no caller holds a copy of a table subset.  Without tables
    the sum is real.
    """
    peak, w = _peeled(log_weights)
    if w is None:
        return ScaledComplex(-math.inf, complex(1.0, 0.0))
    if cos is None:
        return ScaledComplex(peak, complex(compensated_sum(w), 0.0))
    re = compensated_sum(w * cos[where])
    im = compensated_sum(w * sin[where])
    return ScaledComplex(peak, complex(re, im))
