"""The circle kernels against the finite engine, on the twisted groupoid itself.

Z/N acting on N points by a -> a + k theta is a finite action groupoid. Its arrow
theta N + a runs from a to a + k theta, so it is grid node [theta, a], and the two
arrows (theta', k theta + a) and (theta, a) compose to (theta' + theta, a): the
circle's multiplicativity law. With fiber dimension 1, identity metrics and
counting Haar weights, the finite engine computes the circle's b, c, average and
iteration with code that shares nothing with the circle kernels. The gauges are
the same products and differences of the same numbers, so they are compared
exactly. The average divides where the finite step multiplies by an inverse, so
the averages are held to 2 eps b, b = max |Lambda| (1.64 eps b seen at these
inputs), and the later rows' c, a product of two averaged values subtracted from
a third, to 2 eps b (1 + 2 b).
"""

import tracemalloc

import numpy as np
import pytest

from groupavg import averaging, circle, presets
from groupavg.groupoid import FiniteGroupAction, action_groupoid, cyclic_group
from groupavg.haar import counting_haar
from groupavg.psrep import FiberBundle, PseudoRep, b_norm, c_norm

CASES = [(8, 1), (8, 2), (16, 3), (32, 2), (8, 8), (8, 11)]
EPS = np.finfo(float).eps


def twisted_groupoid(N: int, k: int):
    return action_groupoid(FiniteGroupAction(cyclic_group(N), list(range(N)),
                                             lambda theta, a: (a + k * theta) % N))


def as_rep(L: circle.TorusGridFn) -> PseudoRep:
    """Lambda as a rank-1 pseudo-representation of the twisted groupoid: arrow l N + i has
    the 1 x 1 map Lambda[l, i]."""
    G = twisted_groupoid(L.N, L.twist)
    return PseudoRep(G, FiberBundle.uniform(L.N, 1), list(L.values.reshape(-1, 1, 1)))


def as_grid(rep: PseudoRep, N: int) -> np.ndarray:
    return np.array([M[0, 0] for M in rep.maps]).reshape(N, N)


def perturbed(N: int, k: int, seed: int = 0) -> circle.TorusGridFn:
    """The closed form of f(t) = (0.1 / k) sin(2 pi k t), plus 1e-3 of the seeded noise
    field with its unit row kept exact: values within [0.8, 1.25]."""
    _, L = circle.from_profile(lambda t: 0.1 / k * np.sin(2 * np.pi * k * t), N, k)
    noise = presets.smooth_torus_field(np.random.default_rng(seed), N)
    noise[0] = 0.0
    return circle.TorusGridFn(L.values + 1e-3 * noise, k)


# N = 64 is 4,096 arrows and 262,144 composable pairs
@pytest.mark.parametrize("N, k", CASES + [(64, 2)])
def test_gauges_and_average_are_the_finite_ones(N, k):
    L = perturbed(N, k)
    rep = as_rep(L)
    b = np.abs(L.values).max()
    assert c_norm(rep) == circle.multiplicativity_residual(L)[0]
    assert b_norm(rep) == b
    avg = averaging.average(rep, counting_haar(rep.groupoid))
    assert np.abs(as_grid(avg, N) - circle.average_circle(L).values).max() <= 2 * EPS * b


@pytest.mark.parametrize("N, k", CASES)
def test_average_in_three_row_chunks_is_the_finite_one(N, k, monkeypatch):
    # every case fits in one chunk of the library's size; three rows cross a chunk boundary
    monkeypatch.setattr(circle, "_AVG_ROWS", 3)
    L = perturbed(N, k)
    rep = as_rep(L)
    avg = averaging.average(rep, counting_haar(rep.groupoid))
    assert np.abs(as_grid(avg, N) - circle.average_circle(L).values).max() <= 2 * EPS * np.abs(L.values).max()


@pytest.mark.parametrize("N, k", CASES)
def test_iterations_agree(N, k):
    L = perturbed(N, k)
    rep = as_rep(L)
    fin = averaging.iterate(rep, counting_haar(rep.groupoid))
    circ = circle.iterate_circle(L, order=0)
    assert fin.verdict == circ.verdict and fin.verdict.kind == "Converged"
    assert fin.rows[0] == circ.rows[0]
    b = fin.rows[0].b
    for f, c in zip(fin.rows[1:], circ.rows[1:]):
        assert abs(f.b - c.b) <= 2 * EPS * b and abs(f.c - c.c) <= 2 * EPS * b * (1 + 2 * b)
        assert f.unit_defect == c.unit_defect == 0.0
    assert np.abs(as_grid(fin.final, N) - circ.final.values).max() <= 2 * EPS * b


def test_a_vanishing_node_is_the_same_arrow():
    N = 16
    L = perturbed(N, 3)
    L.values[5, 7] = 0.0
    rep = as_rep(L)
    fin = averaging.iterate(rep, counting_haar(rep.groupoid))
    circ = circle.iterate_circle(L, order=0)
    assert fin.verdict == circ.verdict == averaging.Verdict("NonInvertibleAt", 0, 5 * N + 7)


@pytest.mark.parametrize("N", [16, 32])
def test_finite_verifier_certifies_the_circle_input(N):
    rep = as_rep(perturbed(N, 2))
    (report,) = averaging.verify_fundamental_identities([rep], counting_haar(rep.groupoid))
    assert report.ok, report


def test_tables_hold_no_array_over_all_pairs_of_arrows():
    # the composition is held as its 262,144 averaging triples; a table over all 4,096 x 4,096
    # pairs of arrows and its mask would take 144 MiB
    G = twisted_groupoid(64, 2)
    tracemalloc.start()
    try:
        T = G.tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(T.avg_gk) == 64**3
    assert peak < 32 * 2**20, peak / 2**20
