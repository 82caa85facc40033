"""Discretized-circle connections: closed forms, averaging, and seminorms."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    connection_from_effect,
    connection_residual,
    effect_from_connection,
    load_grid_csv,
    profile_twist_orbit,
)
from groupavg.circle import (
    CircleProfile,
    NonInvertibleNode,
    NonPeriodicProfile,
    ProfileOutOfRange,
    TorusGridFn,
    _defect_slices,
    _defect_sups,
    average_circle,
    cocycle_defect_field,
    from_profile,
    group_bundle_average,
    iterate_circle,
    limit_profile,
    load_profile_csv,
    multiplicativity_residual,
    save_grid_csv,
    save_profile_csv,
    trig_resample,
)
from groupavg import circle, presets


def f_sin(t):
    return 0.1 * np.sin(4 * np.pi * t)


# -- closed-form construction -------------------------------------------------------


def test_from_profile_zero():
    X, L = from_profile(lambda t: 0.0, 16, k=2)
    assert np.all(X.values == 0.0)
    assert np.all(L.values == 1.0)


def test_from_profile_matches_direct_evaluation():
    N, k = 64, 2
    X, L = from_profile(f_sin, N, k=k)
    th = np.arange(N)[:, None] / N
    a = np.arange(N)[None, :] / N
    hand = (f_sin(th + a / k) - f_sin(a / k)) / (1.0 + k * f_sin(a / k))
    assert float(np.abs(X.values - hand).max()) <= 1e-13
    assert float(np.abs(L.values - (1.0 + k * hand)).max()) <= 1e-13


def test_from_profile_first_column_is_profile():
    N, k = 32, 2
    X, L = from_profile(f_sin, N, k=k)
    col = np.array([f_sin(l / N) for l in range(N)])
    assert np.array_equal(X.values[:, 0], col)
    assert np.array_equal(L.values[0], np.ones(N))


def test_from_profile_accepts_coarse_samples():
    prof = CircleProfile.from_function(f_sin, 16, 2)
    X_coarse, _ = from_profile(prof, 64)
    X_fine, _ = from_profile(f_sin, 64, k=2)
    assert float(np.abs(X_coarse.values - X_fine.values).max()) <= 1e-13


def test_from_profile_rejects_nonperiodic():
    with pytest.raises(NonPeriodicProfile, match="1/2-periodic"):
        from_profile(lambda t: 0.1 * np.sin(2 * np.pi * t), 32, k=2)


def test_from_profile_rejects_out_of_range():
    with pytest.raises(ProfileOutOfRange):
        from_profile(lambda t: -0.55 * np.sin(2 * np.pi * t) ** 2, 32, k=2)


def test_from_profile_rejects_nonvanishing_origin():
    with pytest.raises(ValueError, match="vanish"):
        from_profile(lambda t: 0.1 * np.cos(4 * np.pi * t), 32, k=2)


def test_from_profile_rejects_non_finite_callable():
    # t = 10/32 is the first of the 32 sample points in (0.3, 0.4)
    with pytest.raises(ValueError, match="^profile sample 10 is not finite: nan$"):
        from_profile(lambda t: np.nan if 0.3 < t < 0.4 else 0.0, 16, k=2)


def test_from_profile_callable_needs_twist():
    with pytest.raises(ValueError, match="k is required"):
        from_profile(f_sin, 32)


def test_from_profile_twist_mismatch():
    prof = CircleProfile.from_function(f_sin, 16, 2)
    with pytest.raises(ValueError, match="mismatch"):
        from_profile(prof, 64, k=3)


# -- residuals ----------------------------------------------------------------------


def test_multiplicative_effect_has_tiny_residual():
    _, L = from_profile(f_sin, 64, k=2)
    res_c, res_u = multiplicativity_residual(L)
    assert res_c <= 1e-13
    assert res_u == 0.0


def test_residual_brute_force_triples(rng):
    N, k = 16, 2
    V = 1.0 + 0.1 * presets.smooth_torus_field(rng, N)
    L = TorusGridFn(V, k)
    worst = 0.0
    for lp in range(N):
        for l in range(N):
            for i in range(N):
                r = V[(lp + l) % N, i] - V[lp, (k * l + i) % N] * V[l, i]
                worst = max(worst, abs(r))
    res_c, _ = multiplicativity_residual(L)
    assert res_c == pytest.approx(worst, rel=1e-12)
    D = cocycle_defect_field(L)
    assert D.shape == (N, N, N)
    assert float(np.abs(D).max()) == pytest.approx(worst, rel=1e-12)
    assert D[3, 5, 7] == pytest.approx(
        V[(3 + 5) % N, 7] - V[3, (k * 5 + 7) % N] * V[5, 7], rel=1e-12
    )


def test_connection_and_effect_residuals_correspond(rng):
    N, k = 32, 2
    X = TorusGridFn(0.05 * presets.smooth_torus_field(rng, N), k)
    L = effect_from_connection(X)
    res_c, _ = multiplicativity_residual(L)
    assert res_c == pytest.approx(k * connection_residual(X), rel=1e-10, abs=1e-13)


def test_connection_effect_roundtrip(rng):
    N, k = 16, 3
    X = TorusGridFn(0.2 * presets.smooth_torus_field(rng, N), k)
    back = connection_from_effect(effect_from_connection(X))
    assert float(np.abs(back.values - X.values).max()) <= 1e-15
    assert back.twist == k


# -- averaging ----------------------------------------------------------------------


def test_average_fixes_multiplicative_effect():
    _, L = from_profile(f_sin, 64, k=2)
    avg = average_circle(L)
    assert float(np.abs(avg.values - L.values).max()) <= 1e-13


def test_average_keeps_unit_row_exact(rng):
    N, k = 32, 2
    _, L = from_profile(f_sin, N, k=k)
    th = np.arange(N)[:, None] / N
    a = np.arange(N)[None, :] / N
    bump = 1.0 + 0.01 * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * a)
    pert = TorusGridFn(L.values * bump, k)
    assert np.array_equal(pert.values[0], np.ones(N))
    avg = average_circle(pert)
    assert np.array_equal(avg.values[0], np.ones(N))


def test_average_rejects_vanishing_node():
    bad = TorusGridFn(np.zeros((8, 8)), 2)  # effect of the constant X = -1/k
    with pytest.raises(NonInvertibleNode) as exc:
        average_circle(bad)
    assert exc.value.node == (0, 0)
    assert exc.value.value == 0.0


def test_average_names_the_first_vanishing_node_past_a_nan():
    # the node check reads |Lambda| from the sum buffer: a NaN node hides no vanishing one
    V = np.ones((8, 8))
    V[1, 2], V[3, 4], V[5, 6] = np.nan, -1e-13, 0.0
    with pytest.raises(NonInvertibleNode) as exc:
        average_circle(TorusGridFn(V, 2))
    assert exc.value.node == (3, 4)
    assert exc.value.value == -1e-13


def test_group_bundle_average_annihilates(rng):
    N = 64
    th = np.arange(N)[:, None] / N
    a = np.arange(N)[None, :] / N
    X = TorusGridFn(np.sin(2 * np.pi * th) * np.cos(2 * np.pi * a), 1)
    out = group_bundle_average(X)
    assert float(np.abs(out.values).max()) <= 1e-14
    Y = TorusGridFn(presets.smooth_torus_field(rng, N), 1)
    assert float(np.abs(group_bundle_average(Y).values).max()) <= 1e-13
    Z = TorusGridFn(np.zeros((N, N)), 1)
    assert np.all(group_bundle_average(Z).values == 0.0)


# -- iteration ----------------------------------------------------------------------


def test_iterate_multiplicative_converges_immediately():
    _, L = from_profile(f_sin, 32, k=2)
    trace = iterate_circle(L)
    assert trace.verdict.kind == "Converged"
    assert trace.verdict.iteration == 0
    assert trace.gate_ok


def test_iterate_perturbed_effect():
    N, k = 32, 2
    _, L = from_profile(f_sin, N, k=k)
    th = np.arange(N)[:, None] / N
    a = np.arange(N)[None, :] / N
    bump = 1.0 + 0.01 * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * a)
    trace = iterate_circle(TorusGridFn(L.values * bump, k), order=1)
    assert trace.verdict.kind == "Converged"
    assert trace.verdict.iteration <= 7
    assert trace.gate_ok and trace.envelope_valid
    for row, bound in zip(trace.rows, trace.envelope_column()):
        assert row.c <= bound * (1 + 1e-12)
        assert row.unit_defect == 0.0
        assert set(row.extras) == {"c_sem_r1"}
        assert row.extras["c_sem_r1"] >= row.c
    res_c, res_u = multiplicativity_residual(trace.final)
    assert res_c <= 1e-12
    prof = limit_profile(trace.final)
    assert prof.twist_periodicity_defect() <= 1e-10


def test_iterate_hits_vanishing_node():
    vals = np.ones((8, 8))
    vals[0] = 1.0  # keep the unit row; kill one interior node
    vals[3, 4] = 0.0
    trace = iterate_circle(TorusGridFn(vals, 1))
    assert trace.verdict.kind == "NonInvertibleAt"
    assert trace.verdict.arrow == 3 * 8 + 4


# -- seminorms ----------------------------------------------------------------------


def field_slices(F: np.ndarray):
    """The slices of the 3-d field F, in the form :func:`_defect_sups` reads."""
    return lambda: lambda lp, out: np.copyto(out, F[lp])


def test_seminorm_constant():
    F = np.full((8, 8, 8), 3.0)
    assert _defect_sups(field_slices(F), 8, 1).tolist() == [3.0, 0.0]


def test_seminorm_sine_oracles():
    # a sine along theta' (read across the slice halo), theta or a: its N/2-scaled central
    # differences peak at N sin(2 pi / N)
    N = 32
    v = np.sin(2 * np.pi * np.arange(N) / N)
    for axis in range(3):
        F = np.broadcast_to(v.reshape([N if ax == axis else 1 for ax in range(3)]), (N, N, N))
        sup, sup_r1 = _defect_sups(field_slices(F), N, 1)
        assert sup == pytest.approx(1.0)
        assert sup_r1 == pytest.approx(N * np.sin(2 * np.pi / N), rel=1e-12)


def test_seminorm_rejects_bad_order():
    F = TorusGridFn(np.zeros((8, 8)), 1)
    for r in (2, 3):
        with pytest.raises(ValueError, match="order"):
            iterate_circle(F, order=r)


# -- resampling and twist orbits ----------------------------------------------------


def test_trig_resample_exact_on_band_limited():
    n, m = 16, 64
    t = np.arange(n) / n
    v = 0.3 * np.sin(2 * np.pi * t) + 0.1 * np.cos(6 * np.pi * t)
    out = trig_resample(v, m)
    tm = np.arange(m) / m
    want = 0.3 * np.sin(2 * np.pi * tm) + 0.1 * np.cos(6 * np.pi * tm)
    assert float(np.abs(out - want).max()) <= 1e-13
    assert np.array_equal(trig_resample(v, n), v)
    with pytest.raises(ValueError, match="downsample"):
        trig_resample(v, 8)


def test_profile_twist_orbit_escapes_monotonically():
    up = profile_twist_orbit(0.2, 3)
    assert up == pytest.approx([0.0, 0.2, 0.52, 1.032], rel=1e-15)
    assert all(b > a for a, b in zip(up, up[1:]))
    down = profile_twist_orbit(-0.05, 3)
    assert down == pytest.approx([0.0, -0.05, -0.0925, -0.128625], rel=1e-15)
    assert all(b < a for a, b in zip(down, down[1:]))
    with pytest.raises(ProfileOutOfRange):
        profile_twist_orbit(-0.5, 4)


# -- grids, profiles, files ----------------------------------------------------------


def test_grid_csv_roundtrip(tmp_path, rng):
    F = TorusGridFn(presets.smooth_torus_field(rng, 16), 2)
    path = tmp_path / "grid.csv"
    save_grid_csv(F, str(path))
    assert path.read_text().splitlines()[0] == "16,2"
    back = load_grid_csv(str(path))
    assert np.array_equal(back.values, F.values)
    assert back.twist == 2


def test_profile_csv_roundtrip(tmp_path):
    prof = CircleProfile.from_function(f_sin, 32, 2)
    path = tmp_path / "profile.csv"
    save_profile_csv(prof, str(path))
    assert path.read_text().splitlines()[0] == "32,2"
    back = load_profile_csv(str(path))
    assert np.array_equal(back.samples, prof.samples)
    assert back.twist == 2


def test_grid_validation():
    with pytest.raises(ValueError, match="square"):
        TorusGridFn(np.zeros((4, 6)), 1)
    with pytest.raises(ValueError, match="minimum 4"):
        TorusGridFn(np.zeros((3, 3)), 1)
    with pytest.raises(ValueError, match="twist"):
        TorusGridFn(np.zeros((8, 8)), 0)


@pytest.mark.parametrize(
    "samples, named",
    [([0.0, 0.1, np.nan, np.inf], "sample 2 is not finite: nan"),
     ([0.0, np.inf, 0.1, 0.0], "sample 1 is not finite: inf")],
)
def test_profile_rejects_nonfinite_sample(samples, named):
    with pytest.raises(ValueError, match=named):
        CircleProfile(samples, 1)


@pytest.mark.parametrize("twist", [0, -2, 1.5])
def test_profile_rejects_twist_below_one(twist):
    with pytest.raises(ValueError, match="twist must be a positive integer"):
        CircleProfile([0.0, 0.1, 0.0, -0.1], twist)


def test_nan_defect_is_not_a_pass():
    # Python's max(0.0, nan) is 0.0, so a sup folded that way hides a NaN
    values = from_profile(f_sin, 16, k=2)[1].values.copy()
    values[5, 7] = np.nan
    L = TorusGridFn(values, 2)
    assert np.isnan(multiplicativity_residual(L)[0])
    assert np.isnan(connection_residual(connection_from_effect(L)))
    row = iterate_circle(L, max_iter=1, order=1).rows[0]
    assert np.isnan(row.c)
    assert np.isnan(row.extras["c_sem_r1"])


def test_iterate_circle_holds_no_cubic_field():
    N = 128
    _, L = from_profile(f_sin, N, k=2)
    th = np.arange(N)[:, None] / N
    a = np.arange(N)[None, :] / N
    L0 = TorusGridFn(L.values * (1.0 + 0.01 * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * a)), 2)
    tracemalloc.start()
    try:
        trace = iterate_circle(L0, order=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.verdict.kind == "Converged"
    assert peak < N**3 * 8, f"peak {peak} bytes reaches one N^3 field ({N**3 * 8} bytes)"


@pytest.mark.parametrize("order, budget", [(0, 1), (1, 3)])
def test_defect_pass_reuses_its_slice_buffers(order, budget, rng, monkeypatch):
    # each worker holds its own slices: one at order 0; at order 1 a ring of three, primed
    # with the two slices before its first row
    N = 64
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((N, N)), 2)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)  # one block per thread at this small N
    for threads in (1, 2, 3):
        monkeypatch.setattr(circle, "_THREADS", threads)
        outs = []

        def slices():
            write = _defect_slices(L)

            def slice_at(lp, out):
                outs.append(out)  # held, so a buffer freed and allocated again cannot pass as reused
                write(lp, out)

            return slice_at

        sups = _defect_sups(slices, N, order)
        distinct = []
        for out in outs:
            if not any(np.shares_memory(out, d) for d in distinct):
                distinct.append(out)
        assert len(outs) == N + (2 * circle._blocks(N) if order else 0)
        assert len(distinct) <= circle._blocks(N) * budget
        assert np.array_equal(sups, _defect_sups(partial(_defect_slices, L), N, order))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_order_0_pass_holds_one_slice_per_worker(threads, rng, monkeypatch):
    # the slice writer copies the twisted rows into the slice, multiplies and subtracts in
    # place: no product buffer, and no 64 KiB ufunc buffer for a strided operand. A twentieth
    # of a slice per worker covers its twisted-row tile, (k + 1) N doubles.
    monkeypatch.setattr(circle, "_THREADS", threads)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)
    N = 256
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((N, N)), 3)
    tracemalloc.start()
    try:
        multiplicativity_residual(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * threads * N * N * 8, f"peak {peak} bytes for {threads} workers"


def test_average_holds_no_iterator_buffers(rng, monkeypatch):
    # the divisions read contiguous copies of the rolled rows: the peak is the sum, one
    # 128-row numerator chunk (N^2 / 2 at N = 256) and the one buffer numpy keeps for the
    # broadcast row, 1.63 N^2, held to 1.7. A numerator of the block's rows read 2.13, and
    # dividing straight from V's strided column blocks buffered 192 KiB a call (2.38 N^2)
    monkeypatch.setattr(circle, "_THREADS", 1)
    N = 256
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((N, N)), 3)
    average_circle(L)
    tracemalloc.start()
    try:
        average_circle(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * N * N * 8, f"peak {peak / (8 * N * N):.2f} N^2 doubles"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 4))
def test_limit_profile_regenerates_effect(seed, k):
    rng = np.random.default_rng(seed)
    N = 32
    coeffs = rng.uniform(-0.05, 0.05, size=2)

    def f(t):
        return coeffs[0] * np.sin(2 * np.pi * k * t) + coeffs[1] * (
            np.cos(2 * np.pi * k * t) - 1.0
        )

    X, L = from_profile(f, N, k=k)
    prof = limit_profile(L)
    X2, L2 = from_profile(prof, N)
    assert float(np.abs(L2.values - L.values).max()) <= 1e-12
