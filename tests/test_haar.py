"""Counting Haar systems, the invariance law, and restriction to orbit unions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import NotInvariant, compose_dict, restrict_haar, target_fiber
from groupavg.groupoid import (
    FiniteGroupAction,
    action_groupoid,
    cyclic_group,
    pair_groupoid,
    trivial_groupoid,
)
from groupavg.haar import INVARIANCE_TOL, HaarReport, HaarSystem, check_haar, counting_haar

# left-invariant but non-uniform weights on the Z/2 action groupoid over
# {1,2,3}: fibers are {0,4}, {1,3}, {2,5} and translation pairs ids (0,3),
# (4,1), (2,5)
WEIGHTED_Z2 = [0.3, 0.7, 0.5, 0.3, 0.7, 0.5]


def test_counting_trivial_groupoid():
    nu = counting_haar(trivial_groupoid())
    assert nu.weights == [1.0]


def test_counting_pair_groupoid():
    nu = counting_haar(pair_groupoid([0, 1]))
    assert nu.weights == [0.5] * 4


def test_counting_group_bundle():
    act = FiniteGroupAction(cyclic_group(2), [1], lambda g, u: u)
    nu = counting_haar(action_groupoid(act))
    assert nu.weights == [0.5, 0.5]


def test_counting_haar_always_valid(s3_groupoid, z2_groupoid):
    for G in (s3_groupoid, z2_groupoid):
        assert check_haar(counting_haar(G)).ok


def test_weighted_haar_valid(z2_groupoid):
    nu = HaarSystem(z2_groupoid, list(WEIGHTED_Z2))
    report = check_haar(nu)
    assert report.ok


def test_invariance_violation_listed(z2_groupoid):
    # per-fiber sums stay 1, but translation partners get unequal weight
    nu = HaarSystem(z2_groupoid, [0.3, 0.3, 0.5, 0.7, 0.7, 0.5])
    report = check_haar(nu)
    assert report.max_normalization_residual <= 1e-14
    assert report.invariance_violations
    assert not report.ok


def test_negative_weights_fail_the_check():
    # normalized and left invariant, so only the sign tells that this is no measure
    G = pair_groupoid([0, 1])
    report = check_haar(HaarSystem(G, [1.5 if G.src[k] == 0 else -0.5 for k in G.arrows()]))
    assert report.max_normalization_residual == 0
    assert report.invariance_violations == []
    assert report.negative_weights == [(k, -0.5) for k in G.arrows() if G.src[k] == 1]
    assert not report.ok
    for k, _ in report.negative_weights:
        assert f"negative weight at arrow {k}: w = -5.000e-01" in str(report)
    # an absent arrow weighs 0: zero weights stay allowed
    assert check_haar(HaarSystem(G, [1.0 if G.src[k] == 0 else 0.0 for k in G.arrows()])).ok


def check_haar_ref(nu):
    """``check_haar`` as it was: the m^2 double loop over (g, k), composing with the dict."""
    G = nu.groupoid
    compose = compose_dict(G)
    sums = [0.0] * G.n_objects
    for k in G.arrows():
        sums[G.tgt[k]] = sums[G.tgt[k]] + nu.weights[k]
    max_norm = max((abs(s - 1) for s in sums), default=0.0)

    violations = []
    for g in G.arrows():
        x = G.src[g]
        for k in G.arrows():
            if G.tgt[k] != x:
                continue
            amt = abs(nu.weights[compose[(g, k)]] - nu.weights[k])
            if amt > INVARIANCE_TOL:
                violations.append((g, k, float(amt)))
    return HaarReport(float(max_norm), violations)


def test_check_haar_matches_double_loop(s3_groupoid, z2_groupoid, two_orbit_disjoint, rng):
    groupoids = (s3_groupoid, z2_groupoid, two_orbit_disjoint, pair_groupoid([0, 1, 2]))
    for G in groupoids:
        skewed = rng.uniform(0.1, 1.0, G.n_arrows).tolist()
        for nu in (counting_haar(G), HaarSystem(G, skewed)):
            assert check_haar(nu) == check_haar_ref(nu)
        assert check_haar(HaarSystem(G, skewed)).invariance_violations


def test_normalization_residual_reported(z2_groupoid):
    weights = list(WEIGHTED_Z2)
    weights[2] *= 0.9
    weights[5] *= 0.9
    report = check_haar(HaarSystem(z2_groupoid, weights))
    assert report.max_normalization_residual == pytest.approx(0.1, rel=1e-12)


@settings(max_examples=30)
@given(F=arrays(np.float64, 6, elements=st.floats(-10, 10, allow_nan=False)))
def test_left_invariance_integral_law(F):
    G = action_groupoid(
        FiniteGroupAction(
            cyclic_group(2),
            [1, 2, 3],
            lambda g, u: {1: 2, 2: 1}.get(u, u) if g == 1 else u,
        )
    )
    for nu in (counting_haar(G), HaarSystem(G, list(WEIGHTED_Z2))):
        w = nu.array
        for g in G.arrows():
            lhs = sum(F[G.mul(g, k)] * w[k] for k in target_fiber(G, G.src[g]))
            rhs = sum(F[k] * w[k] for k in target_fiber(G, G.tgt[g]))
            assert lhs == pytest.approx(rhs, abs=1e-12)


# -- restriction -----------------------------------------------------------------


def test_restrict_to_singleton_orbit_weight_one(two_orbit_disjoint):
    nu = counting_haar(two_orbit_disjoint)
    sub_nu, sub_G, kept = restrict_haar(nu, [2])
    assert sub_G.n_arrows == 1
    assert sub_nu.weights == [1.0]
    assert check_haar(sub_nu).ok


def test_restrict_swapped_orbit_weights_unchanged(z2_groupoid, z2_haar):
    sub_nu, sub_G, kept = restrict_haar(z2_haar, [0, 1])
    assert sub_G.n_arrows == 4
    assert sub_nu.weights == [0.5] * 4
    assert check_haar(sub_nu).ok


def test_restrict_fixed_point_keeps_isotropy_weights(z2_haar):
    sub_nu, sub_G, kept = restrict_haar(z2_haar, [2])
    assert sub_G.n_arrows == 2
    assert sub_nu.weights == [0.5, 0.5]


def test_restrict_non_invariant_raises(z2_haar):
    with pytest.raises(NotInvariant):
        restrict_haar(z2_haar, [0])


def test_restrict_weighted_haar_still_valid(z2_groupoid):
    nu = HaarSystem(z2_groupoid, list(WEIGHTED_Z2))
    sub_nu, sub_G, kept = restrict_haar(nu, [0, 1])
    assert check_haar(sub_nu).ok


# -- JSON --------------------------------------------------------------------------


def test_haar_json_roundtrip(tmp_path, z2_groupoid, z2_haar):
    path = tmp_path / "haar.json"
    z2_haar.save(str(path))
    back = HaarSystem.load(str(path), z2_groupoid)
    assert list(back.array) == list(z2_haar.array)
    assert check_haar(back).ok
