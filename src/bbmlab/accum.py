"""Stable accumulation helpers for large exponential sums.

Partition-type sums combine up to ~10^6 terms e^{w_k + i phi_k} whose
weights span hundreds of e-folds.  Everything here works on a log-scale
representation (peeled maximum exponent plus a complex mantissa) so the
intermediate arithmetic never overflows.  Mantissa sums of up to 4096
terms are exactly rounded, the float math.fsum gives: math.fsum over a
list for small sums, and above that a certified error-free extraction
kernel that falls back to math.fsum on the rare sum it cannot certify.
Larger sums are reduced in fixed chunks with a frozen term order.  Every
result is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1024
_FSUM_DIRECT = 4096
# Below this many terms math.fsum over a list beats the extraction kernel,
# whose cost is mostly the fixed overhead of its numpy calls; the two cross
# between 200 and 300 terms (BENCH_exactsum.json).  Both give the same
# float, so the limit moves no bit.
_FSUM_LIST = 256
# The extraction kernel declines inputs whose largest magnitude lies
# outside (2^-900, 2^900): there no extraction constant overflows, and
# each round's error bound stays far above the subnormal range.
_EXTRACT_LOW, _EXTRACT_HIGH = 2.0 ** -900, 2.0 ** 900


def _extracted_fsum(v: np.ndarray) -> float | None:
    """math.fsum(v) for 1 <= v.size <= 4096 in a few numpy calls, or None.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I: faithful rounding", 2008): with sigma = 2^m >=
    2 (n + 1) max|v|, q = (v + sigma) - sigma and r = v - q split each
    term exactly.  Every q lies on the 2^(m - 53) grid and every partial
    sum of them is below 2^(m - 1), so Q = q.sum() is exact in any order,
    and R = r.sum(), in any order, is off the exact sum of r by at most
    gamma_(n-1) sum|r| <= n u * n 2^(m - 53) = n^2 2^(m - 106).
    c = fsum((Q, R)) is the correctly rounded total when the residual
    fsum((Q, R, -c)), widened to the next float, plus that bound lies
    strictly inside c's half-ulp rounding interval (the smaller half when
    |c| is a power of two).  A second round extracts again from r.  None
    when neither round certifies its sum, for a zero sum, and when max|v|
    lies outside (2^-900, 2^900), which also keeps every sum finite.
    """
    parts = []
    pad = (2 * v.size + 1).bit_length()  # 2^pad >= 2 (n + 1)
    r = v
    for _ in range(2):
        top = float(np.maximum.reduce(np.abs(r)))
        if not _EXTRACT_LOW < top < _EXTRACT_HIGH:
            return None
        m = math.frexp(top)[1] + pad
        sigma = math.ldexp(1.0, m)
        q = r + sigma
        q -= sigma
        r = r - q
        parts.append(float(np.add.reduce(q)))
        tail = float(np.add.reduce(r))
        c = math.fsum(parts + [tail])
        if c == 0.0:  # the sign of a zero sum is math.fsum's to choose
            return None
        residual = abs(math.fsum(parts + [tail, -c]))
        bound = math.ldexp(v.size * v.size, m - 106)
        half = math.ulp(c) / (4.0 if abs(math.frexp(c)[0]) == 0.5 else 2.0)
        if math.nextafter(residual, math.inf) + bound < half:
            return c
    return None


def compensated_sum(values) -> float:
    """Sum floats with exactly-rounded combining, reproducible bit for bit.

    Up to 4096 terms the result is the exact sum correctly rounded, the
    float math.fsum gives: math.fsum over a list below _FSUM_LIST terms,
    the certified extraction kernel _extracted_fsum above, and math.fsum
    over a list again where the kernel declines.  Larger arrays are
    reduced in fixed 1024-term chunks in array order whose partial sums
    are then fsum-combined, which keeps the cost near numpy speed; the
    result is deterministic but no longer exactly rounded.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.size == 0:
        return 0.0
    if v.size <= _FSUM_DIRECT:
        total = None if v.size < _FSUM_LIST else _extracted_fsum(v)
        return math.fsum(v.tolist()) if total is None else total
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
    is (-inf, 1).  Without phases the sum is real (peeled_trig_sum
    without tables).
    """
    if phases is None:
        return peeled_trig_sum(*_peeled(log_weights))
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


def peeled_trig_sum(peak: float, w: np.ndarray | None, cos=None, sin=None,
                    where=...) -> ScaledComplex:
    """scaled_exp_sum of log-weights already peeled by _peeled into
    (peak, w), with the phases given as cos and sin tables.

    Term k pairs w[k] with the k-th entry of cos[where] and sin[where],
    so one field's tables serve many weights and one set of weights many
    tables.  A boolean mask ``where`` lets the tables cover a whole field
    while w holds only the masked terms, gathering the masked entries
    only as operands of their product with w.  Without tables the sum is
    real.
    """
    if w is None:
        return ScaledComplex(-math.inf, complex(1.0, 0.0))
    if cos is None:
        return ScaledComplex(peak, complex(compensated_sum(w), 0.0))
    re = compensated_sum(w * cos[where])
    im = compensated_sum(w * sin[where])
    return ScaledComplex(peak, complex(re, im))
