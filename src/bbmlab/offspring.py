"""Offspring laws for the continuous-time branching process.

An offspring law assigns probability ``p_k`` to a particle splitting into
``k`` children, with ``k >= 1``: death without issue is excluded by
construction, so the population never goes extinct.  The default contract
is the critical-for-the-front normalization ``sum k p_k = 2``; a flag
relaxes it to any supercritical law (mean > 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_SUPPORT = 16
_PROB_TOL = 1e-12
_MEAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OffspringDistribution:
    """Distribution of children counts at a split.

    ``probabilities[i]`` is the probability of ``i + 1`` children; the
    support therefore starts at 1 and extends to at most ``MAX_SUPPORT``.
    Laws compare by identity, as GwTree and GrownLeaves do.
    """

    probabilities: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False)
    _only_k: int = field(init=False, repr=False)

    def __init__(self, probabilities, require_mean_two: bool = True):
        p = np.asarray(probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a nonempty 1-D sequence")
        if p.size > MAX_SUPPORT:
            raise ValueError(
                f"support size {p.size} exceeds cap {MAX_SUPPORT}")
        if np.any(p < 0.0):
            raise ValueError("offspring probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"offspring probabilities sum to {total!r}, not 1")
        ks = np.arange(1, p.size + 1, dtype=np.float64)
        mean = float(ks @ p)
        if mean <= 1.0:
            raise ValueError(
                f"offspring mean {mean!r} is not supercritical (need > 1)")
        if require_mean_two and abs(mean - 2.0) > _MEAN_TOL:
            raise ValueError(
                f"offspring mean {mean!r} != 2; pass require_mean_two=False "
                "to allow a general supercritical law")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "_cdf", np.cumsum(p))
        support = np.flatnonzero(p)
        object.__setattr__(self, "_only_k",
                           int(support[0]) + 1 if support.size == 1 else 0)

    @classmethod
    def binary(cls) -> "OffspringDistribution":
        """Deterministic binary splitting (p_2 = 1)."""
        return cls([0.0, 1.0])

    @classmethod
    def from_pairs(cls, pairs, require_mean_two: bool = True
                   ) -> "OffspringDistribution":
        """Build from (k, p_k) pairs as they appear in config files."""
        pairs = [(int(k), float(pk)) for k, pk in pairs]
        if not pairs:
            raise ValueError("empty offspring specification")
        for k, _ in pairs:
            if k < 1:
                raise ValueError(f"offspring count {k} < 1 is not allowed")
        kmax = max(k for k, _ in pairs)
        p = np.zeros(kmax, dtype=np.float64)
        for k, pk in pairs:
            p[k - 1] += pk
        return cls(p, require_mean_two=require_mean_two)

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, self.probabilities.size + 1, dtype=np.int64)

    @property
    def mean_children(self) -> float:
        ks = np.arange(1, self.probabilities.size + 1, dtype=np.float64)
        return float(ks @ self.probabilities)

    @property
    def second_factorial_moment(self) -> float:
        """K = sum k (k - 1) p_k, the pair-counting constant."""
        ks = np.arange(1, self.probabilities.size + 1, dtype=np.float64)
        return float((ks * (ks - 1.0)) @ self.probabilities)

    def sample_counts(self, uniforms: np.ndarray) -> np.ndarray | int:
        """Map U(0,1) draws to children counts by inverse CDF.

        A law with all its mass on one k (the binary default) returns k
        itself, the count of every draw, which np.repeat takes as is.
        """
        if self._only_k:
            return self._only_k
        idx = np.searchsorted(self._cdf, uniforms, side="right")
        idx = np.minimum(idx, self.probabilities.size - 1)
        return (idx + 1).astype(np.int64)

    def to_pairs(self) -> list[tuple[int, float]]:
        """Sparse (k, p_k) form, suitable for config echo."""
        return [(int(k), float(pk))
                for k, pk in zip(self.support, self.probabilities)
                if pk > 0.0]
