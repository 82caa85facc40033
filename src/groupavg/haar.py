"""Normalized left Haar systems on finite groupoids.

A Haar system assigns a weight to each arrow, read as the mass the target
fiber's measure puts on that arrow.  Required properties:

* normalization: the weights over each target fiber sum to 1;
* left invariance: weight(g*k) = weight(k) whenever tgt(k) = src(g).

The counting system (uniform mass on each target fiber) always satisfies both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .groupoid import FiniteGroupoid, arrow_keyed, read_json, write_json

NORMALIZATION_TOL = 1e-12
INVARIANCE_TOL = 1e-12


@dataclass
class HaarSystem:
    """Per-arrow weights on a finite groupoid.

    ``weights[k]`` is the mass of arrow k inside the fiber t^-1(tgt k);
    numeric code reads them as one float array via :attr:`array`.
    """

    groupoid: FiniteGroupoid
    weights: list

    def __post_init__(self) -> None:
        if len(self.weights) != self.groupoid.n_arrows:
            raise ValueError(
                f"{len(self.weights)} weights for {self.groupoid.n_arrows} arrows"
            )

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def to_json_dict(self) -> dict:
        return {str(k): float(w) for k, w in enumerate(self.weights)}

    def save(self, path: str) -> None:
        write_json(self.to_json_dict(), path)

    @classmethod
    def from_json_dict(cls, d: dict, groupoid: FiniteGroupoid) -> "HaarSystem":
        """Weights keyed by arrow id; an absent arrow weighs 0.  Raises
        ValueError naming a key that is no arrow id, or a weight that is no
        finite JSON number (``true`` and ``false`` are not numbers here)."""
        weights = [0.0] * groupoid.n_arrows
        for g, w in arrow_keyed(d, groupoid.n_arrows, "haar").items():
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not math.isfinite(w):
                raise ValueError(f"haar weight of arrow {g} is not a finite number: {w!r}")
            weights[g] = float(w)
        return cls(groupoid, weights)

    @classmethod
    def load(cls, path: str, groupoid: FiniteGroupoid) -> "HaarSystem":
        return read_json(path, lambda d: cls.from_json_dict(d, groupoid))


@dataclass
class HaarReport:
    max_normalization_residual: float
    invariance_violations: list[tuple[int, int, float]] = field(default_factory=list)
    negative_weights: list[tuple[int, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.max_normalization_residual <= NORMALIZATION_TOL
            and not self.invariance_violations
            and not self.negative_weights
        )

    def __str__(self) -> str:
        lines = [f"max normalization residual: {self.max_normalization_residual:.3e}"]
        for g, k, amt in self.invariance_violations:
            lines.append(f"invariance violated at (g={g}, k={k}): |w(gk)-w(k)| = {amt:.3e}")
        for k, w in self.negative_weights:
            lines.append(f"negative weight at arrow {k}: w = {w:.3e}")
        return "\n".join(lines)


def counting_haar(G: FiniteGroupoid) -> HaarSystem:
    """Uniform weight 1/|t^-1(tgt k)| on every arrow."""
    tgt = np.asarray(G.tgt, dtype=np.intp)
    return HaarSystem(G, (1.0 / np.bincount(tgt)[tgt]).tolist())


def check_haar(nu: HaarSystem) -> HaarReport:
    """Normalization and left-invariance residuals, and the negative weights (a Haar system is a
    measure; a zero weight is allowed).  Each fiber sums in ascending arrow id; invariance runs
    over the averaging triples (g, k, gk), g ascending, then k."""
    w, T = nu.array, nu.groupoid.tables
    sums = np.bincount(T.tgt, weights=w, minlength=nu.groupoid.n_objects)
    amt = np.abs(w[T.avg_gk] - w[T.avg_k])
    bad = np.flatnonzero(amt > INVARIANCE_TOL)
    violations = list(zip(T.avg_g[bad].tolist(), T.avg_k[bad].tolist(), amt[bad].tolist()))
    neg = np.flatnonzero(w < 0)
    return HaarReport(float(np.abs(sums - 1).max(initial=0.0)), violations,
                      list(zip(neg.tolist(), w[neg].tolist())))
