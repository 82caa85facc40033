"""The batched kernels against plain per-term loops, bit for bit.

The oracles below are the straightforward loops the batched code replaced: one
``G.mul``, one matmul and one svd per term, summing in ascending arrow id.
The batched kernels keep that summation order, so the results must be equal
with ``==``, not merely close.  The one exception is the second identity's
residual: its Haar sums run as one matrix product per object, so it is held to
1e-3 of its tolerance.
"""

import numpy as np
import pytest

from conftest import composable_pairs
from groupavg import presets, psrep
from groupavg.averaging import average, verify_fundamental_identities
from groupavg.groupoid import action_groupoid
from groupavg.haar import counting_haar
from groupavg.psrep import COND_LIMIT, FiberBundle, NonInvertible, PseudoRep, c_by_orbit, c_norm


# -- oracles -----------------------------------------------------------------------


def loop_pair_norm(rep, M, src_obj, dst_obj):
    fs = rep.bundle.metric_factors(src_obj)
    fd = rep.bundle.metric_factors(dst_obj)
    W = fd[0] @ M @ fs[1]
    if min(W.shape) == 0:
        return 0.0
    return float(np.linalg.svd(W, compute_uv=False)[0])


def loop_invert(rep, g):
    M = rep.maps[g]
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] >= COND_LIMIT:
        raise NonInvertible(g)
    return np.linalg.inv(M)


def target_fibers(G):
    tfiber = [[] for _ in range(G.n_objects)]
    for k in G.arrows():
        tfiber[G.tgt[k]].append(k)
    return tfiber


def loop_b_norm(rep):
    G = rep.groupoid
    return max(
        (loop_pair_norm(rep, rep.maps[g], G.src[g], G.tgt[g]) for g in G.arrows()), default=0.0
    )


def loop_c_norm(rep):
    G = rep.groupoid
    worst = 0.0
    for g2, g1 in composable_pairs(G):
        D = rep.maps[G.mul(g2, g1)] - rep.maps[g2] @ rep.maps[g1]
        worst = max(worst, loop_pair_norm(rep, D, G.src[g1], G.tgt[g2]))
    return worst


def loop_average(rep, nu):
    G = rep.groupoid
    w = nu.array
    inv = [loop_invert(rep, k) for k in G.arrows()]
    tfiber = target_fibers(G)
    maps = []
    for g in G.arrows():
        acc = np.zeros_like(rep.maps[g])
        for k in tfiber[G.src[g]]:
            acc = acc + w[k] * (rep.maps[G.mul(g, k)] @ inv[k])
        maps.append(acc)
    return PseudoRep(G, rep.bundle, maps)


def loop_identities(rep, nu):
    """(residual_a, residual_b, b, tol) of the two fundamental identities."""
    G = rep.groupoid
    w = nu.array
    avg = loop_average(rep, nu)
    inv = [loop_invert(rep, k) for k in G.arrows()]

    def delta(g, h):
        return rep.maps[g] @ inv[h] - rep.maps[G.mul(g, G.inverse[h])]

    tfiber = target_fibers(G)
    res_a = 0.0
    for g in G.arrows():
        acc = np.zeros_like(rep.maps[g])
        for k in tfiber[G.src[g]]:
            acc = acc + w[k] * delta(G.mul(g, k), k)
        R = avg.maps[g] - rep.maps[g] - acc
        res_a = max(res_a, loop_pair_norm(rep, R, G.src[g], G.tgt[g]))

    res_b = 0.0
    for g2, g1 in composable_pairs(G):
        x = G.src[g1]
        lhs = avg.maps[G.mul(g2, g1)] - avg.maps[g2] @ avg.maps[g1]
        single = np.zeros_like(lhs)
        for k in tfiber[x]:
            g1k = G.mul(g1, k)
            single = single + w[k] * (delta(G.mul(g2, g1k), g1k) @ delta(g1k, k))
        left_mean = np.zeros((rep.bundle.dims[G.tgt[g2]], rep.bundle.dims[G.tgt[g1]]))
        right_mean = np.zeros((rep.bundle.dims[G.tgt[g1]], rep.bundle.dims[x]))
        for h in tfiber[x]:
            g1h = G.mul(g1, h)
            left_mean = left_mean + w[h] * delta(G.mul(g2, g1h), g1h)
        for k in tfiber[x]:
            right_mean = right_mean + w[k] * delta(G.mul(g1, k), k)
        R = lhs - (single - left_mean @ right_mean)
        res_b = max(res_b, loop_pair_norm(rep, R, x, G.tgt[g2]))

    b = loop_b_norm(rep)
    return res_a, res_b, b, 1e-12 * (1.0 + b) ** 3


# -- inputs ------------------------------------------------------------------------


def random_rep(G, rng, dims, metrics):
    """Independent conditioned matrices per arrow over a bundle with the given dims."""
    mets = [presets.random_spd(rng, d) for d in dims] if metrics else []
    bundle = FiberBundle(list(dims), mets)
    maps = [presets.conditioned(rng, dims[G.src[g]], 0.5, 1.5) for g in G.arrows()]
    return PseudoRep(G, bundle, maps)


def s3():
    return action_groupoid(presets.s3_action())


CASES = {
    "s3": (s3, [2, 2, 2], False),
    "s3_gram": (s3, [2, 2, 2], True),
    "z2_two_orbits": (lambda: action_groupoid(presets.z2_swap_action()), [2, 2, 2], True),
    "z2_mixed_dims": (lambda: action_groupoid(presets.z2_swap_action()), [2, 2, 3], True),
}


def assert_kernels_match(rep, nu):
    got = average(rep, nu)
    want = loop_average(rep, nu)
    for g in rep.groupoid.arrows():
        assert np.array_equal(got.maps[g], want.maps[g]), f"arrow {g}"
    assert c_norm(rep) == loop_c_norm(rep)
    r = verify_fundamental_identities([rep], nu)[0]
    res_a, res_b, b, tol = loop_identities(rep, nu)
    assert (r.residual_a, r.b, r.tol) == (res_a, b, tol)
    # the second identity sums by one matrix product per object, not in the loop's order
    assert abs(r.residual_b - res_b) <= 1e-3 * tol


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(4))
def test_batched_kernels_equal_loops(case, seed):
    make, dims, metrics = CASES[case]
    G = make()
    rep = random_rep(G, np.random.default_rng(seed), dims, metrics)
    assert_kernels_match(rep, counting_haar(G))


@pytest.mark.parametrize("seed", range(4))
def test_batched_kernels_equal_loops_two_orbit_disjoint(two_orbit_disjoint, seed):
    G = two_orbit_disjoint
    rep = random_rep(G, np.random.default_rng(seed), [2, 2, 2], seed % 2 == 1)
    assert_kernels_match(rep, counting_haar(G))


def test_mixed_dims_make_two_shape_groups():
    G = action_groupoid(presets.z2_swap_action())
    rep = random_rep(G, np.random.default_rng(0), [2, 2, 3], False)
    assert sorted(A.shape for A in rep.stacks().arrays) == [(2, 3, 3), (4, 2, 2)]


def test_small_blocks_change_nothing(monkeypatch, two_orbit_disjoint):
    """Cutting the work into many small blocks gives the same bits, on one orbit and on two."""
    inputs = [(s3(), [2, 2, 2]), (two_orbit_disjoint, [2, 2, 2])]
    inputs += [(make(), dims) for make, dims, _ in (CASES["z2_two_orbits"], CASES["z2_mixed_dims"])]
    whole_block = psrep.BLOCK_TERMS
    for G, dims in inputs:
        rep = random_rep(G, np.random.default_rng(5), dims, True)
        nu = counting_haar(G)
        runs = []
        for block in (whole_block, 5):
            monkeypatch.setattr(psrep, "BLOCK_TERMS", block)
            runs.append((average(rep, nu), c_by_orbit(rep), c_norm(rep),
                         verify_fundamental_identities([rep], nu)[0]))
        whole, cut = runs
        for g in G.arrows():
            assert np.array_equal(whole[0].maps[g], cut[0].maps[g])
        assert len(whole[1]) == len(G.orbits()) and whole[1:] == cut[1:]
