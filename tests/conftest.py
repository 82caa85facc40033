import numpy as np
import pytest

from groupavg.groupoid import FiniteGroupoid, action_groupoid
from groupavg.haar import counting_haar
from groupavg import presets


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
