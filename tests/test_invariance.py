"""Invariances of the paper's objects, as oracles that share no formula with the kernels.

Relabelling: renumber the arrows and the objects of a groupoid, and rewrite its compose
rows, units, inverses, bundle and maps to match. Each defect map is then computed from the
same matrices in the same way, and a maximum is exact, so b, c, the unit defect and the
per-orbit gate rows are bit-equal. An average sums its fiber in ascending arrow id, so under
new ids it adds the same terms in another order: it may move by rounding, held here to
AVERAGE_ULPS units of eps b^2 (b^2 bounds each term's entries on these gated inputs).

Gauge: an invertible P_x on each fiber maps lambda_g to P_{tgt g}^-1 lambda_g P_{src g} and the
metric phi_x to P_x^T phi_x P_x. A metric norm, and so b, c and the unit defect, is unchanged,
and the average commutes with the gauge, since each term lambda(gk) lambda(k)^-1 is conjugated
by the same P_{tgt g}, P_{src g}. In floating point the gauged maps carry the rounding of the
products with P and P^-1, and the metric norm that of the square root of phi', whose condition
number kappa' is at most kappa(P)^2 kappa(phi). So each gauged quantity is held to GAUGE_ULPS
units of eps kappa' on its scale: b for b and the unit defect, b^2 for c and the average's entries
(2.9 units seen over 1,000 seeds, at most 1.9e-15 relative, with kappa(P) <= 4).

Point shift: on the circle's grid, Lambda(theta, a) -> Lambda(theta, a - s/N) rolls every row by
s columns. The rotation average adds the same terms, rolled, in the same ascending j, and every
defect and difference is rolled alike, so the shift commutes with the average bit for bit and
leaves the residuals and each iterate row (b, c, the unit defect and c_sem_r1) bit-equal, on one
worker and on two.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupavg import averaging, circle, presets
from groupavg.circle import TorusGridFn, average_circle, iterate_circle, multiplicativity_residual
from groupavg.groupoid import FiniteGroupoid
from groupavg.haar import counting_haar
from groupavg.psrep import FiberBundle, PseudoRep, b_norm, c_norm, is_nearly_multiplicative

EPS = np.finfo(float).eps
AVERAGE_ULPS = 4
GAUGE_ULPS = 8


def relabelled(rep: PseudoRep, pa: np.ndarray, po: np.ndarray, rows: np.ndarray) -> PseudoRep:
    """``rep`` with arrow g renamed pa[g] and object x renamed po[x], its compose rows
    listed in the order ``rows``."""
    G, B = rep.groupoid, rep.bundle
    objects, dims, metrics = [None] * G.n_objects, [0] * G.n_objects, [None] * G.n_objects
    for x in range(G.n_objects):
        objects[po[x]], dims[po[x]], metrics[po[x]] = G.objects[x], B.dims[x], B.metrics[x]
    src, tgt, inverse, labels, maps = ([None] * G.n_arrows for _ in range(5))
    for g in G.arrows():
        src[pa[g]], tgt[pa[g]] = int(po[G.src[g]]), int(po[G.tgt[g]])
        inverse[pa[g]], labels[pa[g]], maps[pa[g]] = int(pa[G.inverse[g]]), G.arrow_labels[g], rep.maps[g]
    unit = [None] * G.n_objects
    for x in range(G.n_objects):
        unit[po[x]] = int(pa[G.unit[x]])
    H = FiniteGroupoid(objects, src, tgt, pa[G.compose[rows]], unit, inverse, labels)
    return PseudoRep(H, FiberBundle(dims, metrics), maps)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), s3=st.booleans(), grams=st.booleans())
def test_relabelling_leaves_the_gauges_and_moves_the_average_by_rounding(seed, s3, grams):
    rng = np.random.default_rng(seed)
    G, base = presets.s3_example_rep(rng) if s3 else presets.z2_example_rep(rng)
    metrics = [presets.random_spd(rng, 2) for _ in G.objects] if grams else []
    rep, _ = presets.gated_perturbation(PseudoRep(G, FiberBundle([2] * G.n_objects, metrics), base.maps),
                                        rng, 1e-2)
    pa, po = rng.permutation(G.n_arrows), rng.permutation(G.n_objects)
    new = relabelled(rep, pa, po, rng.permutation(len(G.compose)))

    assert (b_norm(new), c_norm(new), new.unit_defect()) == (b_norm(rep), c_norm(rep), rep.unit_defect())
    gate, gate_new = is_nearly_multiplicative(rep), is_nearly_multiplicative(new)
    rows = {tuple(sorted(po[objects])): (b, c, objects in gate.failed_orbits)
            for objects, b, c in zip(G.orbits(), gate.b, gate.c)}
    assert {tuple(objects): (b, c, objects in gate_new.failed_orbits)
            for objects, b, c in zip(new.groupoid.orbits(), gate_new.b, gate_new.c)} == rows

    avg = averaging.average(rep, counting_haar(G))
    avg_new = averaging.average(new, counting_haar(new.groupoid))
    moved = max(np.abs(avg_new.maps[pa[g]] - avg.maps[g]).max() for g in G.arrows())
    assert moved <= AVERAGE_ULPS * EPS * b_norm(rep) ** 2


def gauged(rep: PseudoRep, P: list[np.ndarray]) -> PseudoRep:
    """``rep`` under the gauge P: lambda_g -> P_{tgt g}^-1 lambda_g P_{src g} and
    phi_x -> P_x^T phi_x P_x, symmetrised (the identity where phi_x is None)."""
    G, B = rep.groupoid, rep.bundle
    P_inv = [np.linalg.inv(p) for p in P]
    maps = [P_inv[G.tgt[g]] @ rep.maps[g] @ P[G.src[g]] for g in G.arrows()]
    metrics = []
    for x, p in enumerate(P):
        phi = np.eye(B.dims[x]) if B.metrics[x] is None else B.metrics[x]
        m = p.T @ phi @ p
        metrics.append((m + m.T) / 2)
    return PseudoRep(G, FiberBundle(list(B.dims), metrics), maps)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), s3=st.booleans(), grams=st.booleans())
def test_gauge_leaves_the_gauges_and_commutes_with_the_average(seed, s3, grams):
    rng = np.random.default_rng(seed)
    G, base = presets.s3_example_rep(rng) if s3 else presets.z2_example_rep(rng)
    metrics = [presets.random_spd(rng, 2) for _ in G.objects] if grams else []
    rep, _ = presets.gated_perturbation(PseudoRep(G, FiberBundle([2] * G.n_objects, metrics), base.maps),
                                        rng, 1e-2)
    P = [presets.conditioned(rng, 2, 0.5, 2.0) for _ in G.objects]
    new = gauged(rep, P)
    b = b_norm(rep)
    tol = GAUGE_ULPS * EPS * max(np.linalg.cond(phi) for phi in new.bundle.metrics)

    assert abs(b_norm(new) - b) <= tol * b
    assert abs(c_norm(new) - c_norm(rep)) <= tol * b**2
    assert abs(new.unit_defect() - rep.unit_defect()) <= tol * b

    # gauged back by P^-1, the average of the gauged maps is the average of the maps
    nu = counting_haar(G)
    back = gauged(averaging.average(new, nu), [np.linalg.inv(p) for p in P])
    avg = averaging.average(rep, nu)
    assert max(np.abs(back.maps[g] - avg.maps[g]).max() for g in G.arrows()) <= tol * b**2


@settings(max_examples=200, deadline=None)
@given(N=st.integers(4, 64), k=st.integers(1, 8), s=st.integers(1, 64),
       seed=st.integers(0, 2**31 - 1), split=st.booleans())
def test_point_shift_commutes_with_the_circle_average_and_leaves_the_gauges(N, k, s, seed, split):
    noise = np.random.default_rng(seed).standard_normal((N, N))
    noise[0] = 0.0  # a unital field, far from zero
    L = TorusGridFn(1.0 + 0.05 * noise, k)
    new = TorusGridFn(np.roll(L.values, s, axis=1), k)
    with pytest.MonkeyPatch.context() as mp:
        if split:  # two workers, split at row N // 2
            mp.setattr(circle, "_THREADS", 2)
            mp.setattr(circle, "_WORKER_ROWS", 1)
        assert np.array_equal(average_circle(new).values, np.roll(average_circle(L).values, s, axis=1))
        assert multiplicativity_residual(new) == multiplicativity_residual(L)
        rows = [[(r.b, r.c, r.unit_defect, r.extras) for r in iterate_circle(F, max_iter=3, order=1).rows]
                for F in (L, new)]
    assert rows[0] == rows[1]
