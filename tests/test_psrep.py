"""Weighted operator norms, defect quantities, the gate check, and the averaging step's inverses."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import composable_pairs, delta_cocycle, operator_norm, random_unital_pseudorep, restrict_rep
from groupavg.averaging import GatePrecondition, average, verify_step_estimates
from groupavg.groupoid import FiniteGroupAction, action_groupoid, cyclic_group, trivial_groupoid
from groupavg.haar import counting_haar
from groupavg.psrep import (
    DegenerateMetric,
    FiberBundle,
    NonInvertible,
    PseudoRep,
    b_norm,
    c_norm,
    gate_holds,
    invert_arrow,
    is_nearly_multiplicative,
)
from groupavg import presets


def z2_bundle_groupoid():
    act = FiniteGroupAction(cyclic_group(2), [1], lambda g, u: u)
    return action_groupoid(act)


def rotation(alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s], [s, c]])


def scalar_rep(G, values):
    bundle = FiberBundle.uniform(G.n_objects, 1)
    return PseudoRep(G, bundle, [np.array([[float(v)]]) for v in values])


# -- operator_norm ----------------------------------------------------------------


def test_operator_norm_identity():
    assert operator_norm(np.eye(3)) == pytest.approx(1.0)


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0)


def test_operator_norm_weighted_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    # conjugation by diag(4,1)^(-1/2) halves the only nonzero entry... and the
    # identity row keeps it: largest singular value of [[0, 1], [0, 0]] stays 1
    got = operator_norm(A, phi_src=np.diag([4.0, 1.0]), phi_dst=np.eye(2))
    assert got == pytest.approx(1.0)


def test_operator_norm_of_nonfinite_matrix_is_inf():
    # an overflowed defect: the SVD does not converge on NaN, and no finite norm exists
    with np.errstate(invalid="ignore"):
        assert operator_norm(np.array([[np.nan, 1.0], [0.0, np.inf]])) == np.inf


def test_overflowed_defect_on_line_fibers_reads_inf(s3_groupoid):
    # on 1 x 1 maps an overflow gives inf with no NaN, and the SVD of [[inf]] is NaN, not an error
    assert operator_norm(np.array([[np.inf]])) == np.inf
    maps = [np.ones((1, 1)) for _ in s3_groupoid.arrows()]
    maps[5] = maps[7] = np.full((1, 1), 1e200)
    rep = PseudoRep(s3_groupoid, FiberBundle([1, 1, 1]), maps)
    with np.errstate(over="ignore", invalid="ignore"):
        assert c_norm(rep) == np.inf
    assert b_norm(rep) == 1e200


def test_operator_norm_rejects_indefinite_metric():
    with pytest.raises(DegenerateMetric):
        operator_norm(np.eye(2), phi_src=np.diag([1.0, -1.0]))


@settings(max_examples=40)
@given(
    A=arrays(np.float64, (2, 2), elements=st.floats(-3, 3)),
    v=arrays(np.float64, (2,), elements=st.floats(-3, 3)),
    seed=st.integers(0, 2**31 - 1),
)
def test_operator_norm_dominates_vectors(A, v, seed):
    rng = np.random.default_rng(seed)
    phi_src = presets.random_spd(rng, 2)
    phi_dst = presets.random_spd(rng, 2)
    nv = float(v @ phi_src @ v) ** 0.5
    assume(nv > 1e-6)
    nAv = float((A @ v) @ phi_dst @ (A @ v)) ** 0.5
    assert nAv <= operator_norm(A, phi_src, phi_dst) * nv * (1 + 1e-10)


def test_operator_norm_matches_sphere_scan(rng):
    A = rng.normal(size=(2, 2))
    phi_src = presets.random_spd(rng, 2)
    phi_dst = presets.random_spd(rng, 2)
    want = operator_norm(A, phi_src, phi_dst)
    angles = np.linspace(0.0, 2 * np.pi, 20001)
    vs = np.stack([np.cos(angles), np.sin(angles)])
    src_len = np.sqrt(np.einsum("ik,ij,jk->k", vs, phi_src, vs))
    img = A @ vs
    dst_len = np.sqrt(np.einsum("ik,ij,jk->k", img, phi_dst, img))
    scanned = float(np.max(dst_len / src_len))
    assert scanned <= want * (1 + 1e-12)
    assert scanned == pytest.approx(want, rel=1e-6)


@settings(max_examples=40)
@given(
    A=arrays(np.float64, (3, 2), elements=st.floats(-3, 3)),
    B=arrays(np.float64, (2, 2), elements=st.floats(-3, 3)),
    seed=st.integers(0, 2**31 - 1),
)
def test_operator_norm_submultiplicative(A, B, seed):
    rng = np.random.default_rng(seed)
    phi_x = presets.random_spd(rng, 2)
    phi_y = presets.random_spd(rng, 2)
    phi_z = presets.random_spd(rng, 3)
    lhs = operator_norm(A @ B, phi_x, phi_z)
    rhs = operator_norm(A, phi_y, phi_z) * operator_norm(B, phi_x, phi_y)
    assert lhs <= rhs * (1 + 1e-10)


@settings(max_examples=40)
@given(
    v=arrays(np.float64, (2, 2), elements=st.floats(-1, 1)),
    c=st.floats(0.01, 0.95),
    seed=st.integers(0, 2**31 - 1),
)
def test_neumann_inverse_bound(v, c, seed):
    rng = np.random.default_rng(seed)
    phi = presets.random_spd(rng, 2)
    size = operator_norm(v, phi, phi)
    assume(size > 1e-8)
    v = v * (c / size)
    gain = operator_norm(np.linalg.inv(np.eye(2) - v) - np.eye(2), phi, phi)
    assert gain <= c / (1 - c) * (1 + 1e-10)


# -- b, c, delta -------------------------------------------------------------------


def test_identity_rep_norms(z2_groupoid):
    bundle = FiberBundle.uniform(z2_groupoid.n_objects, 2)
    rep = PseudoRep(z2_groupoid, bundle, [np.eye(2) for _ in z2_groupoid.arrows()])
    assert b_norm(rep) == pytest.approx(1.0)
    assert c_norm(rep) == pytest.approx(0.0, abs=1e-15)


def test_scalar_three_on_trivial_groupoid():
    rep = scalar_rep(trivial_groupoid(), [3.0])
    assert b_norm(rep) == pytest.approx(3.0)
    assert c_norm(rep) == pytest.approx(6.0)


def test_genuine_representation_has_zero_defect(rng):
    G, rep = presets.s3_example_rep(rng)
    assert c_norm(rep) <= 1e-13


def divisible_pairs(G):
    """Each divisible pair (gk, k) once, from the divisible triples of the composition tables."""
    return zip(G.tables.avg_gk.tolist(), G.tables.avg_k.tolist())


def test_delta_vanishes_on_representation(rng):
    G, rep = presets.s3_example_rep(rng)
    worst = max(
        float(np.abs(delta_cocycle(rep, g, h)).max()) for g, h in divisible_pairs(G)
    )
    assert worst <= 1e-13


def test_delta_scalar_oracle():
    e = 0.125
    rep = scalar_rep(trivial_groupoid(), [1.0 + e])
    assert delta_cocycle(rep, 0, 0)[0, 0] == pytest.approx(-e)


def test_delta_of_unital_pair_with_itself(rng):
    G, base = presets.z2_example_rep(rng)
    rep = random_unital_pseudorep(base, rng, 0.2)
    for g in G.arrows():
        d = delta_cocycle(rep, g, g)
        np.testing.assert_allclose(d, np.zeros_like(d), atol=1e-12)


def test_delta_requires_common_source(z2_groupoid, rng):
    rep = presets.random_pseudorep(z2_groupoid, rng)
    g = next(a for a in z2_groupoid.arrows() if z2_groupoid.src[a] == 0)
    h = next(a for a in z2_groupoid.arrows() if z2_groupoid.src[a] == 2)
    with pytest.raises(ValueError, match="divisible"):
        delta_cocycle(rep, g, h)


def test_delta_zero_iff_defect_zero(z2_groupoid, rng):
    G, rep = presets.z2_example_rep(rng)
    assert c_norm(rep) <= 1e-13
    assert all(
        float(np.abs(delta_cocycle(rep, g, h)).max()) <= 1e-12
        for g, h in divisible_pairs(G)
    )
    bumpy = random_unital_pseudorep(rep, rng, 0.3)
    if c_norm(bumpy) > 1e-8:
        assert any(
            float(np.abs(delta_cocycle(bumpy, g, h)).max()) > 1e-10
            for g, h in divisible_pairs(G)
        )


def test_singular_arrow_raises_noninvertible():
    G = z2_bundle_groupoid()
    bundle = FiberBundle.uniform(G.n_objects, 2)
    rep = PseudoRep(G, bundle, [np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(NonInvertible) as exc:
        invert_arrow(rep, 1)
    assert exc.value.arrow == 1


# -- gate ---------------------------------------------------------------------------


def test_gate_passes_identity_rep(z2_groupoid):
    bundle = FiberBundle.uniform(z2_groupoid.n_objects, 2)
    rep = PseudoRep(z2_groupoid, bundle, [np.eye(2) for _ in z2_groupoid.arrows()])
    report = is_nearly_multiplicative(rep)
    assert report.ok
    assert all(row.c <= 1e-14 for row in report.rows)


def test_gate_boundary_rotation_cases():
    G = z2_bundle_groupoid()
    bundle = FiberBundle.uniform(G.n_objects, 2)
    # c = 2 sin(alpha) while b stays 1; the gate threshold is 1/9
    fail_rep = PseudoRep(G, bundle, [np.eye(2), rotation(np.arcsin(0.1))])
    report = is_nearly_multiplicative(fail_rep)
    assert report.rows[0].b == pytest.approx(1.0)
    assert report.rows[0].c == pytest.approx(0.2)
    assert not report.ok

    pass_rep = PseudoRep(G, bundle, [np.eye(2), rotation(np.arcsin(0.05))])
    report = is_nearly_multiplicative(pass_rep)
    assert report.rows[0].c == pytest.approx(0.1)
    assert report.ok


def test_gate_requires_unital(z2_groupoid, rng):
    rep = presets.random_pseudorep(z2_groupoid, rng)
    assert rep.unit_defect() > 1e-8
    with pytest.raises(ValueError, match="unital"):
        is_nearly_multiplicative(rep)


def test_gate_verdict_depends_on_metric():
    G = z2_bundle_groupoid()
    shear = np.array([[1.0, 0.1], [0.0, 1.0]])
    flat = PseudoRep(G, FiberBundle.uniform(G.n_objects, 2), [np.eye(2), shear])
    assert not is_nearly_multiplicative(flat).ok
    squeezed = FiberBundle(dims=[2], metrics=[np.diag([0.04, 1.0])])
    bent = PseudoRep(G, squeezed, [np.eye(2), shear])
    assert is_nearly_multiplicative(bent).ok


def test_per_orbit_values_match_restriction(rng):
    G, base = presets.z2_example_rep(rng)
    rep = random_unital_pseudorep(base, rng, 0.1)
    report = is_nearly_multiplicative(rep)
    for row in report.rows:
        sub = restrict_rep(rep, row.objects)
        assert b_norm(sub) == pytest.approx(row.b, rel=1e-12)
        assert c_norm(sub) == pytest.approx(row.c, rel=1e-12, abs=1e-15)
        assert row.b <= b_norm(rep) * (1 + 1e-12)
        assert row.c <= c_norm(rep) * (1 + 1e-12) + 1e-15


# -- inverses: the step's own, in the per-orbit one-step report ----------------------


def test_inverse_identity_rep(z2_groupoid):
    bundle = FiberBundle.uniform(z2_groupoid.n_objects, 2)
    rep = PseudoRep(z2_groupoid, bundle, [np.eye(2) for _ in z2_groupoid.arrows()])
    for row in verify_step_estimates(rep, counting_haar(z2_groupoid)):
        assert row.inverse == pytest.approx(1.0)
        assert row.delta == 0.0
        assert row.inverse_ok and row.delta_ok


def test_inverse_scalar_brute_force():
    e = 0.05
    G = z2_bundle_groupoid()
    rep = scalar_rep(G, [1.0, 1.0 + e])
    vals = [rep.maps[g][0, 0] for g in G.arrows()]
    b_hand = max(abs(v) for v in vals)
    c_hand = max(
        abs(vals[G.mul(g2, g1)] - vals[g2] * vals[g1]) for g2, g1 in composable_pairs(G)
    )
    delta_hand = max(abs(delta_cocycle(rep, g, h)[0, 0]) for g, h in divisible_pairs(G))
    (row,) = verify_step_estimates(rep, counting_haar(G))
    assert row.b == pytest.approx(b_hand)
    assert row.c == pytest.approx(c_hand)
    assert row.inverse == pytest.approx(1.0)  # the unit's inverse dominates
    assert row.inverse <= b_hand / (1 - c_hand)
    assert row.delta == pytest.approx(delta_hand)
    assert row.inverse_ok and row.delta_ok


def test_inverse_singular_arrow():
    G = z2_bundle_groupoid()
    bundle = FiberBundle.uniform(G.n_objects, 2)
    rep = PseudoRep(G, bundle, [np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(NonInvertible) as exc:
        average(rep, counting_haar(G))
    assert exc.value.arrow == 1


def test_inverse_bounds_unavailable_when_defect_large():
    G = trivial_groupoid()
    rep = scalar_rep(G, [3.0])  # c = 6 >= 1
    with pytest.raises(GatePrecondition, match="c = 6 >= 1"):
        verify_step_estimates(rep, counting_haar(G))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_inverse_bounds_hold_on_gated_inputs(seed):
    rng = np.random.default_rng(seed)
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 5e-3)
    for row in verify_step_estimates(rep, counting_haar(G)):
        assert row.inverse_ok
        assert row.delta_ok


# -- bundles and serialization ---------------------------------------------------------


def test_bundle_rejects_degenerate_metric():
    with pytest.raises(DegenerateMetric):
        FiberBundle(dims=[2], metrics=[np.zeros((2, 2))]).metric_factors(0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bundle_rejects_non_finite_metric(bad):
    phi = np.eye(2)
    phi[0, 1] = phi[1, 0] = bad
    with pytest.raises(DegenerateMetric, match="^metric of object 0 has non-finite entries$"):
        FiberBundle(dims=[2], metrics=[phi]).metric_factors(0)


def test_rep_shape_mismatch(z2_groupoid):
    bundle = FiberBundle.uniform(z2_groupoid.n_objects, 2)
    maps = [np.eye(2) for _ in z2_groupoid.arrows()]
    maps[3] = np.eye(3)
    with pytest.raises(ValueError, match="shape"):
        PseudoRep(z2_groupoid, bundle, maps)


def test_rep_json_roundtrip(tmp_path, z2_groupoid, rng):
    bundle = FiberBundle(
        dims=[2, 2, 2],
        metrics=[presets.random_spd(rng, 2) for _ in range(3)],
    )
    rep = presets.random_pseudorep(z2_groupoid, rng, metrics=False)
    rep = PseudoRep(z2_groupoid, bundle, rep.maps)
    bundle_path = tmp_path / "bundle.json"
    rep_path = tmp_path / "rep.json"
    import json

    with open(bundle_path, "w") as fh:
        json.dump(bundle.to_json_dict(z2_groupoid.objects), fh)
    rep.save(str(rep_path))
    with open(bundle_path) as fh:
        bundle_back = FiberBundle.from_json_dict(json.load(fh), z2_groupoid.objects)
    back = PseudoRep.load(str(rep_path), z2_groupoid, bundle_back)
    for g in z2_groupoid.arrows():
        np.testing.assert_array_equal(back.maps[g], rep.maps[g])
    for x in range(3):
        np.testing.assert_allclose(bundle_back.metrics[x], bundle.metrics[x])
    assert b_norm(back) == pytest.approx(b_norm(rep), rel=1e-12)


# -- boundary checks and the batched inverse --------------------------------------------


def test_rep_rejects_nonfinite_entry(z2_groupoid):
    bundle = FiberBundle.uniform(z2_groupoid.n_objects, 2)
    maps = [np.eye(2) for _ in z2_groupoid.arrows()]
    maps[4] = np.array([[1.0, np.nan], [0.0, 1.0]])
    maps[2] = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="arrow 2: matrix has non-finite"):
        PseudoRep(z2_groupoid, bundle, maps)


def test_rep_json_missing_arrow(z2_groupoid, rng):
    rep = presets.random_pseudorep(z2_groupoid, rng)
    doc = rep.to_json_dict()
    del doc["3"]
    with pytest.raises(ValueError, match="arrow 3"):
        PseudoRep.from_json_dict(doc, z2_groupoid, rep.bundle)


def test_batched_inverse_names_lowest_bad_arrow(z2_groupoid):
    """Maps changed after construction: the gate still names the lowest bad arrow."""
    bundle = FiberBundle.uniform(z2_groupoid.n_objects, 2)
    rep = PseudoRep(z2_groupoid, bundle, [np.eye(2) for _ in z2_groupoid.arrows()])
    rep.maps[5] = np.diag([1.0, 1e-13])
    rep.maps[3] = np.array([[np.nan, 0.0], [0.0, 1.0]])
    nu = counting_haar(z2_groupoid)
    with pytest.raises(NonInvertible, match="non-finite") as exc:
        average(rep, nu)
    assert exc.value.arrow == 3
    rep.maps[3] = np.eye(2)
    with pytest.raises(NonInvertible) as exc:
        average(rep, nu)
    assert exc.value.arrow == 5


def test_batched_inverse_lowest_bad_arrow_across_shapes():
    """With two shape groups, the lowest bad arrow wins whichever group holds it."""
    G = action_groupoid(presets.z2_swap_action())
    bundle = FiberBundle(dims=[2, 2, 3])
    maps = [np.eye(3) if G.src[g] == 2 else np.eye(2) for g in G.arrows()]
    rep = PseudoRep(G, bundle, maps)
    # the 2x2 maps come first in group order, the lowest bad arrow is 3x3
    bad_3x3 = min(g for g in G.arrows() if G.src[g] == 2)
    bad_2x2 = max(g for g in G.arrows() if G.src[g] != 2)
    assert bad_3x3 < bad_2x2
    rep.maps[bad_3x3] = np.zeros((3, 3))
    rep.maps[bad_2x2] = np.zeros((2, 2))
    with pytest.raises(NonInvertible) as exc:
        average(rep, counting_haar(G))
    assert exc.value.arrow == bad_3x3


def test_gate_holds_edges():
    assert gate_holds(1.0, 1.0 / 9.0) and not gate_holds(1.0, 0.12)
    assert gate_holds(2.0, 0.02) and not gate_holds(2.0, 0.02, safety=0.5)
    assert not gate_holds(0.0, 0.0)
    assert not gate_holds(1e300, 0.0)  # b^2 overflows
    assert not gate_holds(np.float64(1e300), 0.0)
    assert not gate_holds(np.inf, 0.0)  # 0.0 <= (1/9) / inf would pass
