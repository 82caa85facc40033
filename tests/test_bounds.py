"""Envelope generators and the recursion checkers, including corrupted inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupavg.averaging import drive, iterate, write_trace_csv
from groupavg.bounds import (
    GATE_COEFF,
    GateReport,
    GateViolation,
    check_coupled_decay,
    check_quadratic_decay,
    certify,
    envelope,
    gate_holds,
    load_trace_csv,
    step_bounds,
    write_check_csv,
)
from groupavg.haar import counting_haar
from groupavg import presets

TIGHT_AT_GATE = [
    1.0 / 9.0,
    0.03125,
    0.0026339750260145683,
    1.88116017216591e-05,
]


def coupled_sequences(n, c0=0.05, b20=1.0, c20=0.05, L=1.0, R=1.0):
    """Equality orbit of the coupled recursion, n entries."""
    c, b2, c2 = [c0], [b20], [c20]
    for _ in range(n - 1):
        a = b2[-1] * c[-1] + c2[-1]
        b2.append(b2[-1] + L * a)
        c2.append(L * a * c[-1])
        c.append(R * c[-1] ** 2)
    return c, b2, c2


# -- envelope ----------------------------------------------------------------------


def test_envelope_hand_values():
    bs, cs = envelope(1.0, 1.0 / 9.0, 4)
    assert bs[0] == 1.0
    assert bs[1] == pytest.approx(9.0 / 8.0, rel=1e-15)
    for got, want in zip(cs, TIGHT_AT_GATE):
        assert got == pytest.approx(want, rel=1e-12)


def test_envelope_zero_defect():
    bs, cs = envelope(1.5, 0.0, 3)
    assert cs == [0.0, 0.0, 0.0]
    assert bs == [1.5, 1.5, 1.5]


def test_envelope_below_closed_form():
    for b0 in (1.0, 1.2, 2.0):
        for frac in (0.99, 0.5, 0.1):
            c0 = frac / (9.0 * b0**2)
            _, cs = envelope(b0, c0, 11)
            eps = 6.0 * b0**2 * c0
            t = eps
            for ci in cs:
                assert ci <= t / (6.0 * b0**2) * (1 + 1e-12)
                t = t * t


def test_envelope_rejects_small_b0():
    with pytest.raises(GateViolation, match="b0"):
        envelope(0.9, 0.01, 3)


def test_envelope_rejects_large_defect():
    with pytest.raises(GateViolation, match="2/3"):
        envelope(1.0, 0.2, 3)


def test_envelope_boundary_eps():
    c0 = (2.0 / 3.0) / 6.0
    bs, cs = envelope(1.0, c0, 5)
    assert check_quadratic_decay(bs, cs).ok
    with pytest.raises(GateViolation):
        envelope(1.0, c0 * (1 + 1e-9), 5)


def test_gate_boundary_pair_passes_the_envelope():
    # the gate holds here, while 6 b0^2 c0 rounds to 0.6666666666666667 > 2/3
    b0, c0 = 1.77675025087889, 0.035196924752235126
    trace = drive(0, lambda i: i + 1, lambda i: GateReport([b0], [0.0 if i else c0], 0.0), 1e-12, 4)
    cert = certify([r.b for r in trace.rows], [r.c for r in trace.rows])
    assert cert.envelope is not None
    assert cert.failures == []


def test_gate_holds_where_b_squared_underflows():
    """A subnormal b0, as a corrupted trace may hold, is a failed hypothesis, not a crash."""
    b0 = 2.225073858507203e-309
    assert gate_holds(b0, 0.01) and not gate_holds(b0, math.nan)
    assert not gate_holds(b0, math.inf)  # b0^-2 is finite, so an infinite c is outside
    report = check_quadratic_decay([b0, 1.0], [0.01, 0.0])
    assert not report.hypothesis_ok
    assert [r.ok for r in report.rows[:2]] == [False, True]  # b0_ge_1 fails, eps_le_2_3 holds
    report = check_quadratic_decay([b0, 1.0], [math.inf, 0.0])
    assert [r.ok for r in report.rows[:2]] == [False, False]  # eps = 6 * 0 * inf fails too
    with pytest.raises(GateViolation):
        envelope(b0, 0.01, 3)


@settings(max_examples=300)
@given(b=st.floats(1.0, 4.0), ulps=st.integers(-4, 4))
def test_envelope_raises_exactly_where_the_gate_fails(b, ulps):
    c = GATE_COEFF / b**2
    for _ in range(abs(ulps)):
        c = math.nextafter(c, math.inf if ulps > 0 else 0.0)
    try:
        envelope(b, c, 3)
    except GateViolation:
        assert not gate_holds(b, c)
    else:
        assert gate_holds(b, c)


@settings(max_examples=300)
@given(b=st.floats(1.0, 4.0), ulps=st.integers(-4, 4))
def test_eps_row_passes_exactly_where_the_gate_holds(b, ulps):
    c = GATE_COEFF / b**2
    for _ in range(abs(ulps)):
        c = math.nextafter(c, math.inf if ulps > 0 else 0.0)
    row = check_quadratic_decay([b, b], [c, 0.0]).rows[1]
    assert (row.check, row.bound, row.observed) == ("eps_le_2_3", 2.0 / 3.0, 6.0 * b**2 * c)
    assert row.ok == gate_holds(b, c)


def test_envelope_message_names_c0_and_the_gate_bound():
    # 6 b0^2 c0 rounds to 0.6666666666666666 here, while c0 is above (1/9) b0^-2
    want = r"c0 = 0\.022086220550464844 > \(1/9\) b0\^-2 = 0\.02208622055046484: .* 2/3 fails"
    with pytest.raises(GateViolation, match=want):
        envelope(2.2429419979023226, 0.022086220550464844, 3)


def test_envelope_rejects_infinite_b0():
    # (1/9) / inf**2 is 0.0, so c0 = 0.0 would pass a plain comparison
    with pytest.raises(GateViolation, match=r"b0\^2 overflows at b0 = inf: .* 2/3 fails"):
        envelope(math.inf, 0.0, 3)


@settings(max_examples=50)
@given(b0=st.floats(1.0, 2.0), frac=st.floats(0.0, 0.99), n=st.integers(2, 12))
def test_envelope_satisfies_own_checker(b0, frac, n):
    c0 = frac / (9.0 * b0**2)
    bs, cs = envelope(b0, c0, n)
    report = check_quadratic_decay(bs, cs)
    assert report.ok
    assert report.first_failure is None


@settings(max_examples=50)
@given(b0=st.floats(1.0, 3.0), frac=st.floats(0.0, 0.99))
def test_second_defect_at_most_one_thirtysecond(b0, frac):
    c0 = frac / (9.0 * b0**2)
    _, cs = envelope(b0, c0, 2)
    assert cs[1] <= 1.0 / 32.0 + 1e-15


def test_log_bound_on_half_interval():
    t = np.linspace(0.0, 0.5, 10001)
    assert np.all(-np.log1p(-t) <= t + t**2 + 1e-15)


def test_defect_product_stays_under_sqrt3():
    _, cs = envelope(1.0, 1.0 / 9.0, 40)
    assert np.prod(1.0 / (1.0 - np.array(cs))) <= math.sqrt(3.0) * (1 + 1e-12)


# -- single-gauge checker ----------------------------------------------------------


def test_checker_rejects_ungated_start():
    report = check_quadratic_decay([1.0, 1.0], [0.2, 0.1])
    assert not report.hypothesis_ok
    assert not report.ok
    assert report.first_failure == 0
    assert any("hypothesis failed" in note for note in report.notes)
    assert not any(r.check == "envelope_c" for r in report.rows)


def test_checker_corruption_quadratic_step():
    bs, cs = envelope(1.0, 1.0 / 9.0, 8)
    cs[3] *= 3.0
    report = check_quadratic_decay(bs, cs)
    assert not report.ok
    assert report.first_failure == 3
    assert report.failed_rows()[0].check == "step_c"


def test_checker_corruption_growth_step():
    bs, cs = envelope(1.0, 1.0 / 9.0, 8)
    bs[2] *= 2.0
    report = check_quadratic_decay(bs, cs)
    assert not report.ok
    assert report.first_failure == 2
    assert report.failed_rows()[0].check == "step_b"


def test_checker_corruption_stalled_decay():
    bs, cs = envelope(1.0, 1.0 / 9.0, 8)
    cs[5] = cs[4] * 0.9
    report = check_quadratic_decay(bs, cs)
    assert not report.ok
    assert report.first_failure == 5


def test_checker_requires_two_entries():
    with pytest.raises(ValueError, match="two"):
        check_quadratic_decay([1.0], [0.1])
    with pytest.raises(ValueError, match="length"):
        check_quadratic_decay([1.0, 1.0], [0.1])


# -- coupled checker ---------------------------------------------------------------


def test_coupled_trivial_sequences():
    report = check_coupled_decay([0.0] * 4, [1.0] * 4, [0.0] * 4, 1.0, 1.0, 0.5)
    assert report.ok
    assert report.i_prime == 0


def test_coupled_equality_orbit():
    c, b2, c2 = coupled_sequences(8)
    report = check_coupled_decay(c, b2, c2, 1.0, 1.0, 0.5)
    assert report.ok
    assert report.i_prime == 0
    key_rows = [r for r in report.rows if r.check == "key_a_step"]
    assert key_rows and all(r.ok for r in key_rows)
    # K = RL + L + R = 3 with unit constants
    a = [b2[i] * c[i] + c2[i] for i in range(len(c))]
    for row in key_rows:
        i = row.i - 1
        assert row.bound == pytest.approx(3.0 * a[i] * c[i], rel=1e-12)


def test_coupled_delayed_start_reindexes():
    c, b2, c2 = coupled_sequences(8)
    report = check_coupled_decay(
        [0.5] + c, [1.0] + b2, [0.6] + c2, 1.0, 1.0, 0.5, I=1
    )
    assert report.ok
    assert report.i_prime == 1


def test_coupled_corruption_defect_order():
    c, b2, c2 = coupled_sequences(8)
    c2[1] = c[1] * 0.5
    report = check_coupled_decay(c, b2, c2, 1.0, 1.0, 0.5)
    assert not report.ok
    assert report.first_failure == 1
    names = {(r.i, r.check) for r in report.failed_rows()}
    assert (1, "c_le_cprime") in names


def test_coupled_corruption_bprime_jump():
    c, b2, c2 = coupled_sequences(8)
    b2[4] += 1.0
    report = check_coupled_decay(c, b2, c2, 1.0, 1.0, 0.5)
    assert not report.ok
    assert report.first_failure == 4
    assert any(r.check == "step_bprime" for r in report.failed_rows())


def test_coupled_validation():
    c, b2, c2 = coupled_sequences(4)
    with pytest.raises(ValueError, match="length"):
        check_coupled_decay(c, b2[:-1], c2, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="two"):
        check_coupled_decay(c[:1], b2[:1], c2[:1], 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="positive"):
        check_coupled_decay(c, b2, c2, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="eps"):
        check_coupled_decay(c, b2, c2, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        check_coupled_decay(c, b2, c2, 1.0, 1.0, 0.5, I=7)


# -- CSV plumbing ------------------------------------------------------------------


def test_trace_csv_feeds_checker(tmp_path, rng):
    G, base = presets.z2_example_rep(rng)
    rep, _ = presets.gated_perturbation(base, rng, 2e-3)
    # stop above the floating-point floor so the step rows stay decidable
    trace = iterate(rep, counting_haar(G), tol_c=1e-8)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, certify([r.b for r in trace.rows], [r.c for r in trace.rows]), str(path))
    b, c = load_trace_csv(str(path))
    assert b == [row.b for row in trace.rows]
    assert c == [row.c for row in trace.rows]
    report = check_quadratic_decay(b, c)
    assert report.ok


def test_check_csv_layout(tmp_path):
    bs, cs = envelope(1.0, 1.0 / 9.0, 5)
    report = check_quadratic_decay(bs, cs)
    path = tmp_path / "check.csv"
    write_check_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "i,check,bound,observed,pass"
    assert len(lines) == 1 + len(report.rows)
    assert all(line.endswith(("true", "false")) for line in lines[1:])
    assert all(line.endswith("true") for line in lines[1:])


def test_load_trace_rejects_empty(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("i,b,c,unit_defect,quadratic_bound_rhs,envelope\n")
    with pytest.raises(ValueError, match="empty"):
        load_trace_csv(str(path))


def test_quadratic_decay_when_b0_squared_overflows():
    # 1e200**2 raises OverflowError on Python floats; the check reads it as inf
    rep = check_quadratic_decay([1e200, 1e199], [0.5, 0.25])
    assert not rep.hypothesis_ok
    eps_row = next(r for r in rep.rows if r.check == "eps_le_2_3")
    assert eps_row.observed == float("inf") and not eps_row.ok
    assert step_bounds(1e200, 0.5) == (2e200, float("inf"))
