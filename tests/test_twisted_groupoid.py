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

2 eps b is a measured multiple, not a derived bound: it holds at the N of CASES
(and N = 64 for the average alone). At N = 48, where the weights 1/48 round, the
finite average read 4.09 eps b off the circle's and the finite unit defect
2.45 eps b, and at N = 64 the iteration's final row 2.45 eps b, so the split
cases, which run those N, are held to SPLIT_ULPS = 8 eps b, also measured. Both
multiples wait for a derived rounding floor of the averaging step.
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


# the circle's worker split, which the CLI takes from N = 512, at sizes the finite engine
# reaches: two row blocks of at least 16 rows, one case also in three-row average chunks.  The
# split keeps each row's operation order, so the circle's values keep their unsplit bits.  The
# finite oracle holds them to SPLIT_ULPS eps b, not 2 eps b: at N = 48 the weights 1/48 round,
# and over seeds 0-5 the average read 4.09 eps b off and the finite unit defect 2.45 eps b; the
# N = 64 iteration's final row read 2.45 eps b; all with or without the split
SPLIT = [(32, 2, 2, None), (48, 3, 2, None), (64, 2, 2, None), (48, 3, 2, 3)]
SPLIT_ULPS = 8


def cases(one_worker: list) -> dict:
    """The parameters (N, k, workers, avg_rows) of ``one_worker``'s (N, k) on one worker, then
    of SPLIT, with their ids: N-k, then -split on two workers and -avgR with R-row chunks."""
    params = [(N, k, 1, None) for N, k in one_worker] + SPLIT
    ids = [f"{N}-{k}" + ("-split" if w > 1 else "") + (f"-avg{r}" if r else "") for N, k, w, r in params]
    return {"argvalues": params, "ids": ids}


def split_workers(monkeypatch, workers: int, avg_rows: int | None) -> float:
    """Run the circle on ``workers`` blocks of at least 16 rows (and the average in avg_rows-row
    chunks, if given); the ulps of eps b that the finite oracle allows."""
    if workers == 1:
        return 2
    monkeypatch.setattr(circle, "_THREADS", workers)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 16)
    if avg_rows:
        monkeypatch.setattr(circle, "_AVG_ROWS", avg_rows)
    return SPLIT_ULPS


# N = 64 is 4,096 arrows and 262,144 composable pairs
@pytest.mark.parametrize("N, k, workers, avg_rows", **cases(CASES + [(64, 2)]))
def test_gauges_and_average_are_the_finite_ones(N, k, workers, avg_rows, monkeypatch):
    L = perturbed(N, k)
    whole = circle.average_circle(L).values
    ulps = split_workers(monkeypatch, workers, avg_rows)
    rep = as_rep(L)
    b = np.abs(L.values).max()
    assert c_norm(rep) == circle.multiplicativity_residual(L)[0]
    assert b_norm(rep) == b
    avg = averaging.average(rep, counting_haar(rep.groupoid))
    circ = circle.average_circle(L).values
    assert np.array_equal(circ, whole)
    assert np.abs(as_grid(avg, N) - circ).max() <= ulps * EPS * b


@pytest.mark.parametrize("N, k", CASES)
def test_average_in_three_row_chunks_is_the_finite_one(N, k, monkeypatch):
    # every case fits in one chunk of the library's size; three rows cross a chunk boundary
    monkeypatch.setattr(circle, "_AVG_ROWS", 3)
    L = perturbed(N, k)
    rep = as_rep(L)
    avg = averaging.average(rep, counting_haar(rep.groupoid))
    assert np.abs(as_grid(avg, N) - circle.average_circle(L).values).max() <= 2 * EPS * np.abs(L.values).max()


@pytest.mark.parametrize("N, k, workers, avg_rows", **cases(CASES))
def test_iterations_agree(N, k, workers, avg_rows, monkeypatch):
    L = perturbed(N, k)
    whole = circle.iterate_circle(L, order=0)
    ulps = split_workers(monkeypatch, workers, avg_rows)
    rep = as_rep(L)
    fin = averaging.iterate(rep, counting_haar(rep.groupoid))
    circ = circle.iterate_circle(L, order=0)
    assert circ.rows == whole.rows and np.array_equal(circ.final.values, whole.final.values)
    assert fin.verdict == circ.verdict and fin.verdict.kind == "Converged"
    assert fin.rows[0] == circ.rows[0]
    b = fin.rows[0].b
    tol = ulps * EPS * b
    for f, c in zip(fin.rows[1:], circ.rows[1:]):
        assert abs(f.b - c.b) <= tol and abs(f.c - c.c) <= tol * (1 + 2 * b)
        assert c.unit_defect == 0.0 and f.unit_defect <= (tol if workers > 1 else 0.0)
    assert np.abs(as_grid(fin.final, N) - circ.final.values).max() <= tol


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
