"""Quantitative acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Each test carries its own wall-clock budget; the numeric
tolerances are stated inline next to the assertions they govern.
"""

import time

import numpy as np
import pytest

from conftest import (
    certificate,
    effect_from_connection,
    random_unital_pseudorep,
    restrict_haar,
    restrict_rep,
)
from groupavg import presets
from groupavg.averaging import average, iterate, verify_fundamental_identities, verify_step_estimates
from groupavg.bounds import check_coupled_decay, check_quadratic_decay, envelope
from groupavg.circle import (
    NonInvertibleNode,
    NonPeriodicProfile,
    TorusGridFn,
    average_circle,
    from_profile,
    group_bundle_average,
    iterate_circle,
    limit_profile,
    multiplicativity_residual,
)
from groupavg.haar import counting_haar
from groupavg.psrep import c_norm


def f0(t):
    return 0.1 * np.sin(4 * np.pi * t)


def f1(t):
    return 0.08 * np.sin(4 * np.pi * t) + 0.05 * (np.cos(4 * np.pi * t) - 1.0)


def coupled_equality_orbit(n, c0=0.05, b20=1.0, c20=0.05, L=1.0, R=1.0):
    c, b2, c2 = [c0], [b20], [c20]
    for _ in range(n - 1):
        a = b2[-1] * c[-1] + c2[-1]
        b2.append(b2[-1] + L * a)
        c2.append(L * a * c[-1])
        c.append(R * c[-1] ** 2)
    return c, b2, c2


def test_criterion_1_average_fixes_representations():
    t0 = time.perf_counter()
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        G, rep = presets.s3_example_rep(rng)
        avg = average(rep, counting_haar(G))
        worst = max(
            float(np.abs(avg.maps[g] - rep.maps[g]).max()) for g in G.arrows()
        )
        assert worst <= 1e-13, f"sample {i}: deviation {worst:.3e}"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_fundamental_identities():
    t0 = time.perf_counter()
    for i in range(100):
        rng = np.random.default_rng(200 + i)
        G, _ = (presets.s3_example_rep if i % 2 else presets.z2_example_rep)(rng)
        rep = presets.random_pseudorep(G, rng, metrics=bool(i % 3 == 0))
        report = verify_fundamental_identities([rep], counting_haar(G))[0]
        # tolerance 1e-12 (1+b)^3 is computed inside the report
        assert report.ok, (
            f"sample {i}: residuals {report.residual_a:.3e}, {report.residual_b:.3e}"
            f" above {report.tol:.3e}"
        )
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_one_step_estimates_per_orbit():
    t0 = time.perf_counter()
    for i in range(100):
        rng = np.random.default_rng(300 + i)
        G, base = (presets.s3_example_rep if i % 2 else presets.z2_example_rep)(rng)
        delta = 10.0 ** rng.uniform(-3, -0.7)
        rep = random_unital_pseudorep(base, rng, delta)
        nu = counting_haar(G)
        for row in verify_step_estimates(rep, nu):
            assert row.inverse_ok, f"sample {i} orbit {row.orbit}: inverse norm"
            assert row.delta_ok, f"sample {i} orbit {row.orbit}: delta norm"
            assert row.b_ok and row.c_ok, f"sample {i} orbit {row.orbit}: step bound violated"
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_quadratic_convergence_envelope():
    t0 = time.perf_counter()
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        G, base = (presets.s3_example_rep if i % 2 == 0 else presets.z2_example_rep)(rng)
        rep, _ = presets.gated_perturbation(base, rng, 2e-3)
        nu = counting_haar(G)
        trace = iterate(rep, nu)
        closed = certificate(trace).envelope
        assert trace.gate.ok and closed is not None
        assert trace.verdict.kind == "Converged"
        assert trace.verdict.iteration <= 7
        assert trace.rows[-1].c < 1e-12
        _, tight = envelope(trace.rows[0].b, trace.rows[0].c, len(trace.rows))
        for row, ei, ti in zip(trace.rows, closed, tight):
            assert row.c <= ei * (1 + 1e-12), f"seed {1000 + i} row {row.i}"
            assert ti <= ei * (1 + 1e-12)
            # the tight recursion is only decidable above the rounding floor
            if ti >= 1e-13:
                assert row.c <= ti * (1 + 1e-12), f"seed {1000 + i} row {row.i} (tight)"
        assert c_norm(trace.final) <= 1e-11
    assert time.perf_counter() - t0 < 5.0


def test_criterion_5_sequence_checkers_and_corruptions():
    t0 = time.perf_counter()
    bs, cs = envelope(1.0, 1.0 / 9.0, 8)
    assert check_quadratic_decay(bs, cs).ok

    c_ref, b2_ref, c2_ref = coupled_equality_orbit(8)
    base = check_coupled_decay(c_ref, b2_ref, c2_ref, 1.0, 1.0, 0.5)
    assert base.ok and base.i_prime == 0

    cs_a = list(cs)
    cs_a[3] *= 3.0
    assert check_quadratic_decay(bs, cs_a).first_failure == 3

    bs_b = list(bs)
    bs_b[2] *= 2.0
    assert check_quadratic_decay(bs_b, cs).first_failure == 2

    cs_c = list(cs)
    cs_c[5] = cs_c[4] * 0.9  # stalled decay
    assert check_quadratic_decay(bs, cs_c).first_failure == 5

    c2_d = list(c2_ref)
    c2_d[1] = c_ref[1] * 0.5  # breaks c <= c'
    assert check_coupled_decay(c_ref, b2_ref, c2_d, 1.0, 1.0, 0.5).first_failure == 1

    b2_e = list(b2_ref)
    b2_e[4] += 1.0
    assert check_coupled_decay(c_ref, b2_e, c2_ref, 1.0, 1.0, 0.5).first_failure == 4
    assert time.perf_counter() - t0 < 1.0


def test_criterion_6_circle_closed_forms():
    t0 = time.perf_counter()
    X, lam = from_profile(f0, 64, k=2)
    res_c, res_u = multiplicativity_residual(lam)
    assert res_c <= 1e-13
    assert res_u <= 1e-13
    avg = average_circle(lam)
    assert float(np.abs(avg.values - lam.values).max()) <= 1e-13

    with pytest.raises(NonPeriodicProfile):
        from_profile(lambda t: 0.1 * np.sin(2 * np.pi * t), 64, k=2)
    degenerate = effect_from_connection(TorusGridFn(np.full((16, 16), -0.5), 2))
    with pytest.raises(NonInvertibleNode):
        average_circle(degenerate)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_7_circle_convergence_and_deformation():
    t0 = time.perf_counter()
    for N in (32, 64, 128):
        _, lam_star = from_profile(f0, N, k=2)
        th = np.arange(N)[:, None] / N
        a = np.arange(N)[None, :] / N
        bump = 1.0 + 0.01 * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * a)
        trace = iterate_circle(TorusGridFn(lam_star.values * bump, 2))
        assert trace.gate.ok
        assert trace.verdict.kind == "Converged"
        for r, s in ((0, [row.c for row in trace.rows]),
                     (1, [row.extras["c_sem_r1"] for row in trace.rows])):
            for prev, nxt in zip(s, s[1:]):
                if nxt > 1e-11:  # below that the quotient is rounding noise
                    assert nxt <= prev**2, f"N={N} r={r}: {nxt:.3e} > {prev:.3e}^2"
        prof = limit_profile(trace.final)
        assert prof.twist_periodicity_defect() <= 1e-10

    _, lam_a = from_profile(f0, 64, k=2)
    _, lam_b = from_profile(f1, 64, k=2)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        def ft(s, t=t):
            return (1.0 - t) * f0(s) + t * f1(s)

        _, lam_t = from_profile(ft, 64, k=2)
        trace = iterate_circle(lam_t)
        assert trace.verdict.kind == "Converged", f"path point t={t}"
        if t == 0.0:
            assert float(np.abs(trace.final.values - lam_a.values).max()) <= 1e-10
        if t == 1.0:
            assert float(np.abs(trace.final.values - lam_b.values).max()) <= 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_8_group_bundle_annihilation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    for i in range(20):
        X = TorusGridFn(presets.smooth_torus_field(rng, 64), 1)
        worst = float(np.abs(group_bundle_average(X).values).max())
        assert worst <= 1e-13, f"sample {i}: {worst:.3e}"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_9_restriction_commutes_with_averaging():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    G, base = presets.z2_example_rep(rng)
    assert len(G.orbits()) == 2
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
        assert diff <= 1e-14, f"orbit {orbit}: {diff:.3e}"
    assert time.perf_counter() - t0 < 1.0
