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
from fractions import Fraction
import numpy as np

from .groupoid import FiniteGroupoid, arrow_keyed, read_json, write_json

NORMALIZATION_TOL = 1e-12
INVARIANCE_TOL = 1e-12


@dataclass
class HaarSystem:
    """Per-arrow weights on a finite groupoid.

    ``weights[k]`` is the mass of arrow k inside the fiber t^-1(tgt k).
    Weights may be floats or exact Fractions (small groupoids only); numeric
    code reads the float view via :attr:`array`.
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
        return np.asarray([float(w) for w in self.weights])

    @property
    def definite(self) -> bool:
        return all(w > 0 for w in self.weights)

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


def counting_haar(G: FiniteGroupoid, exact: bool = False) -> HaarSystem:
    """Uniform weight 1/|t^-1(tgt k)| on every arrow.

    With ``exact=True`` weights are Fractions; restrict to groupoids small
    enough that exact arithmetic stays cheap.
    """
    fiber_size = [0] * G.n_objects
    for k in G.arrows():
        fiber_size[G.tgt[k]] += 1
    one = Fraction(1) if exact else 1.0
    return HaarSystem(G, [one / fiber_size[G.tgt[k]] for k in G.arrows()])


def check_haar(nu: HaarSystem) -> HaarReport:
    """Normalization and left-invariance residuals, and the negative weights (a Haar system is a
    measure; a zero weight is allowed); exact when weights are Fractions.
    Invariance runs over the averaging triples (g, k, gk), g ascending, then k."""
    G = nu.groupoid
    zero = Fraction(0) if any(isinstance(w, Fraction) for w in nu.weights) else 0.0
    sums = [zero] * G.n_objects
    for k in G.arrows():
        sums[G.tgt[k]] = sums[G.tgt[k]] + nu.weights[k]
    max_norm = max((abs(s - 1) for s in sums), default=zero)

    violations = []
    T = G.tables
    for g, k, gk in zip(T.avg_g.tolist(), T.avg_k.tolist(), T.avg_gk.tolist()):
        amt = abs(nu.weights[gk] - nu.weights[k])
        if amt > INVARIANCE_TOL:
            violations.append((g, k, float(amt)))
    negative = [(k, float(w)) for k, w in enumerate(nu.weights) if w < 0]
    return HaarReport(float(max_norm), violations, negative)
