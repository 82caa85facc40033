from typing import Sequence

import numpy as np
import pytest

from groupavg.groupoid import FiniteGroupoid, action_groupoid
from groupavg.haar import counting_haar
from groupavg import presets
from groupavg.psrep import FiberBundle, PseudoRep, c_norm, cocycle, invert_arrow, metric_norms


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def s3_groupoid():
    return action_groupoid(presets.s3_action())


@pytest.fixture
def z2_groupoid():
    """Z/2 swapping the first two of three points: orbits {0,1} and {2}."""
    return action_groupoid(presets.z2_swap_action())


@pytest.fixture
def z2_haar(z2_groupoid):
    return counting_haar(z2_groupoid)


@pytest.fixture
def two_orbit_disjoint():
    """Swap groupoid on {1,2} glued with a bare unit over {3}.

    Unlike the Z/2 action groupoid, the singleton orbit here carries no
    isotropy arrow, so its unit has full Haar weight 1.
    """
    return FiniteGroupoid(
        objects=[1, 2, 3],
        src=[0, 1, 1, 0, 2],
        tgt=[0, 1, 0, 1, 2],
        compose=[
            (0, 0, 0), (1, 1, 1), (4, 4, 4),
            (0, 2, 2), (2, 1, 2), (3, 2, 1),
            (1, 3, 3), (3, 0, 3), (2, 3, 0),
        ],
        unit=[0, 1, 4],
        inverse=[0, 1, 3, 2, 4],
    )


# -- references: the list scans the composition tables replaced --------------------


def compose_dict(G):
    """The compose rows of G as a dict {(g2, g1): g21}."""
    return {(g2, g1): g21 for g2, g1, g21 in G.compose.tolist()}


def source_fiber(G, x):
    """Arrows with source object index x."""
    return [g for g in G.arrows() if G.src[g] == x]


def target_fiber(G, x):
    """Arrows with target object index x."""
    return [g for g in G.arrows() if G.tgt[g] == x]


def composable_pairs(G):
    """All (g2, g1) with src(g2) == tgt(g1), ascending lexicographic in (g1, g2)."""
    by_src = {}
    for g in G.arrows():
        by_src.setdefault(G.src[g], []).append(g)
    for g1 in G.arrows():
        for g2 in by_src.get(G.tgt[g1], []):
            yield (g2, g1)


# -- helpers of the tests that no run of the package calls ------------------------------


def operator_norm(
    A: np.ndarray, phi_src: np.ndarray | None = None, phi_dst: np.ndarray | None = None
) -> float:
    """Metric-weighted spectral norm; plain largest singular value when metrics are None.

    ``phi_src``/``phi_dst`` are raw Gram matrices, factored here on every call.
    Code on the hot path should go through :func:`metric_norms` with a
    :class:`FiberBundle`, which caches the factors per object.
    """
    M = np.asarray(A, dtype=float)
    bundle = FiberBundle(dims=[M.shape[1], M.shape[0]], metrics=[phi_src, phi_dst])
    return float(metric_norms(bundle, M[None], np.array([0]), np.array([1]), 0.0))


def delta_cocycle(rep: PseudoRep, g: int, h: int) -> np.ndarray:
    """Difference cocycle on the divisible pair (g, h): lambda_g lambda_h^(-1) - lambda_{gh^(-1)}.

    Returns the matrix of a map fiber(tgt h) -> fiber(tgt g).
    """
    G = rep.groupoid
    if G.src[g] != G.src[h]:
        raise ValueError(f"({g},{h}) is not a divisible pair: sources differ")
    q = G.mul(g, G.inverse[h])
    return cocycle(rep.maps[g], invert_arrow(rep, h), rep.maps[q])


def restrict_rep(rep: PseudoRep, objs: Sequence[int]) -> PseudoRep:
    """Restriction to the full subgroupoid on a union of orbits."""
    sub, kept = rep.groupoid.restrict(objs)
    keep_obj = sorted(set(objs))
    bundle = FiberBundle(
        dims=[rep.bundle.dims[x] for x in keep_obj],
        metrics=[rep.bundle.metrics[x] for x in keep_obj],
    )
    return PseudoRep(sub, bundle, [rep.maps[g].copy() for g in kept])


def random_unital_pseudorep(rep0: PseudoRep, rng: np.random.Generator, delta: float) -> PseudoRep:
    """Unital input with defect c < 0.9: perturb a genuine representation off
    the units and shrink the perturbation until under that cap."""
    for _ in range(60):
        cand = presets.perturb_rep(rep0, rng, delta)
        if c_norm(cand) < 0.9:
            return cand
        delta *= 0.6
    raise RuntimeError("could not reach requested defect cap")
