"""The averaging step, its one-step estimates, and the iteration driver."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import operator_norm, restrict_haar, restrict_rep
from groupavg.averaging import (
    TRACE_HEADER,
    GatePrecondition,
    average,
    iterate,
    verify_fundamental_identities,
    verify_step_estimates,
    write_trace_csv,
    write_verdict_json,
)
from groupavg.groupoid import (
    FiniteGroupAction,
    action_groupoid,
    cyclic_group,
    pair_groupoid,
    trivial_groupoid,
)
from groupavg.haar import HaarSystem, check_haar, counting_haar
from groupavg.psrep import (
    FiberBundle,
    PseudoRep,
    b_norm,
    c_norm,
    is_nearly_multiplicative,
)
from groupavg import presets

STEP_SLACK = 1.0 + 1e-12


def z2_bundle_scalar(value):
    act = FiniteGroupAction(cyclic_group(2), [1], lambda g, u: u)
    G = action_groupoid(act)
    bundle = FiberBundle.uniform(G.n_objects, 1)
    rep = PseudoRep(G, bundle, [np.eye(1), np.array([[float(value)]])])
    return G, rep, counting_haar(G)


def max_map_difference(rep_a, rep_b):
    return max(
        float(np.abs(rep_a.maps[g] - rep_b.maps[g]).max()) for g in rep_a.groupoid.arrows()
    )


# -- one averaging step -----------------------------------------------------------


def test_average_fixes_representation(rng):
    G, rep = presets.s3_example_rep(rng)
    avg = average(rep, counting_haar(G))
    assert max_map_difference(avg, rep) <= 1e-13


def test_average_scalar_oracle():
    G, rep, nu = z2_bundle_scalar(1.1)
    avg = average(rep, nu)
    # (1.1 + 1/1.1) / 2 = 221/220
    assert avg.maps[1][0, 0] == pytest.approx(221.0 / 220.0, rel=1e-15)
    assert avg.maps[0][0, 0] == pytest.approx(1.0, rel=1e-15)


def test_average_output_is_unital(rng):
    G, rep = presets.z2_example_rep(rng)
    skew = rep.copy()
    for x in range(G.n_objects):
        skew.maps[G.unit[x]] = skew.maps[G.unit[x]] * 1.05
    assert skew.unit_defect() > 0.04
    avg = average(skew, counting_haar(G))
    assert avg.unit_defect() <= 1e-13


def test_average_rejects_foreign_haar(rng):
    G, rep = presets.z2_example_rep(rng)
    act = FiniteGroupAction(cyclic_group(2), [1], lambda g, u: u)
    other = counting_haar(action_groupoid(act))
    with pytest.raises(ValueError, match="groupoid"):
        average(rep, other)


# -- fundamental identities -------------------------------------------------------


def test_identities_identity_rep(z2_groupoid, z2_haar):
    bundle = FiberBundle.uniform(z2_groupoid.n_objects, 2)
    rep = PseudoRep(z2_groupoid, bundle, [np.eye(2) for _ in z2_groupoid.arrows()])
    report = verify_fundamental_identities([rep], z2_haar)[0]
    assert report.ok
    assert report.residual_a <= 1e-14
    assert report.residual_b <= 1e-14


@pytest.mark.parametrize("dims", [[0], [0, 0, 2]], ids=["one_object_dim_0", "z2_dims_0_0_2"])
def test_identities_on_zero_dimensional_fibers(dims):
    G = trivial_groupoid() if len(dims) == 1 else action_groupoid(presets.z2_swap_action())
    rep = PseudoRep(G, FiberBundle(dims), [np.eye(dims[G.src[g]]) for g in G.arrows()])
    report = verify_fundamental_identities([rep], counting_haar(G))[0]
    assert report.ok
    assert (report.residual_a, report.residual_b) == (0.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), metrics=st.booleans())
def test_identities_random_invertible(seed, metrics):
    rng = np.random.default_rng(seed)
    G, _ = presets.z2_example_rep(rng)
    rep = presets.random_pseudorep(G, rng, metrics=metrics)
    report = verify_fundamental_identities([rep], counting_haar(G))[0]
    assert report.ok
    assert report.tol == pytest.approx(1e-12 * (1.0 + report.b) ** 3)


# -- one-step estimates -----------------------------------------------------------


def test_step_estimates_zero_defect(rng):
    G, rep = presets.s3_example_rep(rng)
    rows = verify_step_estimates(rep, counting_haar(G))
    assert all(row.ok for row in rows)
    assert all(row.c <= 1e-13 for row in rows)


def test_step_estimates_scalar_oracle():
    G, rep, nu = z2_bundle_scalar(1.1)
    (row,) = verify_step_estimates(rep, nu)
    assert row.b == pytest.approx(1.1)
    assert row.c == pytest.approx(0.21)
    assert row.b_avg == pytest.approx(1.0045454545454546)
    assert row.c_avg == pytest.approx(0.009111570247934075)
    assert row.b_bound == pytest.approx(1.3924050632911398)
    assert row.c_bound == pytest.approx(0.1710014420765907)
    assert row.inverse == 1.0  # the unit's; lambda_g^(-1) = 1/1.1
    assert row.delta == pytest.approx(1.1 - 1 / 1.1)  # Delta(1, g) = 1/1.1 - lambda_(g^-1)
    assert row.delta_bound == pytest.approx(0.21 * 1.1 / 0.79)
    assert row.ok


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_step_estimates_gated_inputs(seed):
    rng = np.random.default_rng(seed)
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 5e-3)
    rows = verify_step_estimates(rep, counting_haar(G))
    assert all(row.ok for row in rows)


def unital_near_identity(G, rng, d):
    """Identity maps on the units; I plus entrywise U(-0.05, 0.05) on every other arrow."""
    units = set(G.unit)
    return PseudoRep(G, FiberBundle.uniform(G.n_objects, d), [
        np.eye(d) if g in units else np.eye(d) + rng.uniform(-0.05, 0.05, (d, d)) for g in G.arrows()])


def source_weighted_haar(G, p):
    """Weight p[src k] on arrow k: left invariant, and normalized when p sums to 1."""
    return HaarSystem(G, [p[G.src[k]] for k in G.arrows()])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4), d=st.integers(1, 2))
def test_step_estimates_under_a_non_counting_haar_system(seed, n, d):
    rng = np.random.default_rng(seed)
    G = pair_groupoid(list(range(n)))
    p = rng.uniform(0.05, 1.0, n)
    nu = source_weighted_haar(G, p / p.sum())
    assert check_haar(nu).ok
    assert all(row.ok for row in verify_step_estimates(unital_near_identity(G, rng, d), nu))


def test_step_estimates_fail_under_negative_weights():
    # normalized and left invariant, but no measure: check_haar refuses it, and the
    # one-step bound breaks on some inputs that hold it under every positive system
    G = pair_groupoid([0, 1])
    nu = source_weighted_haar(G, [1.5, -0.5])
    assert not check_haar(nu).ok
    rng = np.random.default_rng(0)
    assert not all(row.ok for _ in range(50) for row in verify_step_estimates(unital_near_identity(G, rng, 1), nu))


def test_step_estimates_gate_precondition():
    G, rep, nu = z2_bundle_scalar(5.0)
    with pytest.raises(GatePrecondition, match="orbit"):
        verify_step_estimates(rep, nu)


def test_gate_survives_averaging(rng):
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 2e-3)
    nu = counting_haar(G)
    assert is_nearly_multiplicative(rep).ok
    assert is_nearly_multiplicative(average(rep, nu)).ok


# -- iteration driver -------------------------------------------------------------


def test_iterate_representation_converges_immediately(rng):
    G, rep = presets.s3_example_rep(rng)
    trace = iterate(rep, counting_haar(G))
    assert trace.verdict.kind == "Converged"
    assert trace.verdict.iteration == 0
    assert len(trace.rows) == 1
    assert trace.gate_ok
    assert trace.envelope_valid


def test_iterate_gated_perturbation(rng):
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 2e-3)
    nu = counting_haar(G)
    trace = iterate(rep, nu)
    assert trace.verdict.kind == "Converged"
    assert trace.verdict.iteration <= 7
    assert trace.envelope_valid
    env = trace.envelope_column()
    for row, bound in zip(trace.rows, env):
        assert row.c <= bound * STEP_SLACK
    limit = trace.final
    assert c_norm(limit) <= 1e-12
    assert limit.unit_defect() <= 1e-13
    assert max_map_difference(average(limit, nu), limit) <= 1e-11


def test_iterate_step_laws_above_floor(rng):
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 2e-3)
    # stop early so every recorded defect stays above double-precision noise
    trace = iterate(rep, counting_haar(G), tol_c=1e-8)
    rhs = trace.quadratic_rhs_column()
    for prev, nxt, bound in zip(trace.rows, trace.rows[1:], rhs):
        assert nxt.c <= bound * STEP_SLACK + 1e-14
        assert nxt.b <= prev.b / (1.0 - prev.c) * STEP_SLACK


def test_iterate_survives_huge_perturbation():
    rng = np.random.default_rng(0)
    G, rep0 = presets.s3_example_rep(rng)
    rep = presets.perturb_rep(rep0, rng, 10.0)
    trace = iterate(rep, counting_haar(G))
    assert trace.verdict.kind == "Converged"
    assert not trace.gate_ok
    assert not trace.envelope_valid
    assert trace.gate_failed_orbits
    assert len(trace.rows) > 5


def test_iterate_max_iter_budget():
    rng = np.random.default_rng(0)
    G, rep0 = presets.s3_example_rep(rng)
    rep = presets.perturb_rep(rep0, rng, 10.0)
    trace = iterate(rep, counting_haar(G), max_iter=5)
    assert trace.verdict.kind == "Diverged"
    assert trace.verdict.iteration == 5
    assert len(trace.rows) == 6


def test_iterate_singular_arrow():
    act = FiniteGroupAction(cyclic_group(2), [1], lambda g, u: u)
    G = action_groupoid(act)
    bundle = FiberBundle.uniform(G.n_objects, 2)
    rep = PseudoRep(G, bundle, [np.eye(2), np.diag([1.0, 0.0])])
    trace = iterate(rep, counting_haar(G))
    assert trace.verdict.kind == "NonInvertibleAt"
    assert trace.verdict.iteration == 0
    assert trace.verdict.arrow == 1


def test_consecutive_iterates_stay_close(rng):
    G, base = presets.z2_example_rep(rng)
    lam, _ = presets.gated_perturbation(base, rng, 2e-3)
    nu = counting_haar(G)
    for _ in range(3):
        b, c = b_norm(lam), c_norm(lam)
        if c <= 1e-10:
            break
        nxt = average(lam, nu)
        moved = max(
            operator_norm(nxt.maps[g] - lam.maps[g]) for g in G.arrows()
        )
        assert moved <= b * c / (1.0 - c) * STEP_SLACK
        lam = nxt


# -- artifacts ---------------------------------------------------------------------


def test_trace_csv_layout(tmp_path, rng):
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 2e-3)
    trace = iterate(rep, counting_haar(G))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER == "i,b,c,unit_defect,quadratic_bound_rhs,envelope"
    assert len(lines) == 1 + len(trace.rows)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == trace.rows[0].b
    assert float(first[5]) == trace.envelope_column()[0]


def test_trace_csv_empty_envelope_when_gate_failed(tmp_path):
    rng = np.random.default_rng(0)
    G, rep0 = presets.s3_example_rep(rng)
    rep = presets.perturb_rep(rep0, rng, 10.0)
    trace = iterate(rep, counting_haar(G), max_iter=3)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    for line in path.read_text().splitlines()[1:]:
        assert line.endswith(",")


def test_verdict_json_contents(tmp_path, rng):
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 2e-3)
    trace = iterate(rep, counting_haar(G))
    path = tmp_path / "verdict.json"
    write_verdict_json(trace, str(path), extra={"note": 1})
    doc = json.loads(path.read_text())
    assert doc["verdict"]["kind"] == "Converged"
    assert doc["iterations"] == len(trace.rows) - 1
    assert doc["gate_ok"] is True
    assert doc["envelope_valid"] is True
    assert doc["note"] == 1
    assert doc["c_final"] == trace.rows[-1].c


# -- compatibility with restriction ------------------------------------------------


def test_average_commutes_with_restriction(rng):
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 5e-3)
    nu = counting_haar(G)
    whole = average(rep, nu)
    for orbit in G.orbits():
        sub_nu, _, kept = restrict_haar(nu, orbit)
        part = average(restrict_rep(rep, orbit), sub_nu)
        outer = restrict_rep(whole, orbit)
        diff = max(
            float(np.abs(part.maps[j] - outer.maps[j]).max()) for j in range(len(kept))
        )
        assert diff <= 1e-14
