"""Pure-number oracles for the recursion inequalities behind fast convergence.

Two recursions are covered, independent of any groupoid:

* the single-gauge recursion  b_{i+1} <= b_i/(1-c_i),
  c_{i+1} <= 2 c_i^2 (b_i/(1-c_i))^2,  whose conclusion is the doubly
  exponential envelope  c_i <= eps^(2^i) / (6 b_0^2)  with eps = 6 b_0^2 c_0,
  valid once b_0 >= 1 and eps <= 2/3, together with  b_i/(1-c_i) <= sqrt(3) b_0;

* a coupled recursion for a higher gauge (b', c') driven by a quadratically
  dying c, whose conclusions are a geometric-sum envelope for b', the
  quadratic step  c'_{i+1} <= L (b'_i + 1) c'_i^2,  and the existence of a
  delayed doubly exponential envelope for c'.

Checks report one row per inequality instance; failures are rows, not
exceptions.  Comparisons go through :func:`within`, whose relative slack
REL_SLACK = 1e-12 keeps sequences generated by equality in the recursion from
being rejected for last-ulp reasons; eps^(2^i) underflows to 0 harmlessly for
large i.  The gate  c <= (1/9) b^(-2)  is :func:`gate_holds`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

from .groupoid import write_lines


GATE_COEFF = 1.0 / 9.0
REL_SLACK = 1e-12


class GateViolation(ValueError):
    """Envelope requested outside b0 >= 1 and the gate c0 <= (1/9) b0^(-2)."""


def gate_holds(b: float, c: float, safety: float = 1.0) -> bool:
    """The near-multiplicativity gate  c <= safety (1/9) b^(-2); False at b = 0, at an
    infinite b, or when b^2 overflows (a numpy b too: its power would read inf, not raise).
    Where b^2 underflows to 0 the bound exceeds every float, so any finite c passes."""
    try:
        return 0 < b < math.inf and c <= safety * GATE_COEFF / float(b) ** 2
    except OverflowError:
        return False
    except ZeroDivisionError:
        return c < math.inf


@dataclass
class GateReport:
    """One gauge pass of an iterate: b and c of each orbit as the pass measured them, its unit
    defect, the labels of the orbits that fail the gate, and the row's extra gauges (the circle's
    ``c_sem_r1`` at order 1).  ``ok`` is the per-orbit gate and ``row`` the iterate's trace row,
    with the largest b and c."""

    b: list[float]
    c: list[float]
    unit_defect: float
    failed_orbits: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(gate_holds(b, c) for b, c in zip(self.b, self.c))

    @property
    def row(self) -> tuple[float, float, float, dict]:
        return max(self.b, default=0.0), max(self.c, default=0.0), self.unit_defect, self.extras


def within(observed: float, bound: float, floor: float = 0.0) -> bool:
    """observed <= bound, up to a relative slack of REL_SLACK and an absolute ``floor``."""
    return observed <= bound + REL_SLACK * abs(bound) + floor


@dataclass
class CheckRow:
    i: int
    check: str
    bound: float
    observed: float
    ok: bool


@dataclass
class BoundSeqReport:
    hypothesis_ok: bool
    rows: list[CheckRow] = field(default_factory=list)
    first_failure: int | None = None
    i_prime: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and all(r.ok for r in self.rows)

    def failed_rows(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.ok]

    def check(self, i: int, name: str, bound: float, observed: float) -> None:
        """Add the row  observed <= bound  at index i, compared by :func:`within`."""
        self.rows.append(CheckRow(i, name, bound, float(observed), within(observed, bound)))


def _finalize(report: BoundSeqReport) -> BoundSeqReport:
    bad = [r.i for r in report.rows if not r.ok]
    report.first_failure = min(bad) if bad else None
    return report


def square(x: float) -> float:
    """x**2, or inf where it overflows: Python's float power raises there instead."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def step_bounds(b: float, c: float) -> tuple[float, float]:
    """The one-step bounds  b/(1-c)  and  2 c^2 (b/(1-c))^2  on the next (b, c), for c < 1."""
    grown = b / (1.0 - c)
    return grown, 2.0 * square(c) * square(grown)


def closed_envelope(b0: float, c0: float, n: int) -> list[float]:
    """The closed form  eps^(2^i) / (6 b0^2)  for i < n, eps = 6 b0^2 c0, by repeated squaring."""
    denom = 6.0 * square(b0)
    out, t = [], denom * c0
    for _ in range(n):
        out.append(t / denom)
        t = t * t
    return out


def check_quadratic_decay(b: Sequence[float], c: Sequence[float]) -> BoundSeqReport:
    """Verify the single-gauge recursion hypothesis and its envelope conclusions.

    Hypothesis rows: b_0 >= 1; eps = 6 b_0^2 c_0 <= 2/3, which passes exactly
    when :func:`gate_holds` does; and for every step
    with c_i < 1 both  b_{i+1} <= b_i/(1-c_i)  and
    c_{i+1} <= 2 c_i^2 (b_i/(1-c_i))^2, recorded at index i+1 (the entry they
    constrain).  Conclusion rows (asserted only when the hypothesis holds):
    c_i <= eps^(2^i)/(6 b_0^2)  and  b_i/(1-c_i) <= sqrt(3) b_0  at every i.
    """
    if len(b) != len(c):
        raise ValueError("b and c must have equal lengths")
    if len(b) < 2:
        raise ValueError("need at least two entries")
    rep = BoundSeqReport(hypothesis_ok=True)
    b0, c0 = float(b[0]), float(c[0])
    eps = 6.0 * square(b0) * c0
    rep.rows.append(CheckRow(0, "b0_ge_1", 1.0, b0, b0 >= 1.0))
    rep.rows.append(CheckRow(0, "eps_le_2_3", 2.0 / 3.0, eps, gate_holds(b0, c0)))
    for i in range(len(b) - 1):
        if c[i] >= 1.0:
            rep.notes.append(f"step {i}->{i + 1} vacuous: c_{i} = {c[i]:.3g} >= 1")
            continue
        grown, c_step = step_bounds(b[i], c[i])
        rep.check(i + 1, "step_b", grown, b[i + 1])
        rep.check(i + 1, "step_c", c_step, c[i + 1])
    rep.hypothesis_ok = all(r.ok for r in rep.rows)
    if not rep.hypothesis_ok:
        rep.notes.append("hypothesis failed; conclusions not asserted")
        return _finalize(rep)

    growth_cap = math.sqrt(3.0) * b0
    for i, env in enumerate(closed_envelope(b0, c0, len(b))):
        rep.check(i, "envelope_c", env, c[i])
        rep.check(i, "growth_b", growth_cap, b[i] / (1.0 - c[i]) if c[i] < 1.0 else float("inf"))
    return _finalize(rep)


def check_coupled_decay(
    c: Sequence[float],
    b2: Sequence[float],
    c2: Sequence[float],
    L: float,
    R: float,
    eps: float,
    I: int = 0,
) -> BoundSeqReport:
    """Verify the coupled higher-gauge recursion and its decay conclusions.

    Hypotheses (rows): with a_i = b'_i c_i + c'_i,
      b'_{i+1} <= b'_i + L a_i,   c'_{i+1} <= L a_i c_i,   c_{i+1} <= R c_i^2
    (each recorded at index i+1), plus c_i <= c'_i at every i and the delayed
    envelope c_i <= eps^(2^(i-I)) for i >= I.

    Conclusions (only when the hypothesis holds), with K = R L + L + R and the
    first I entries dropped so the proof's reindexing-to-zero applies:
      key step   a_{i+1} <= K a_i c_i;
      b' envelope  b'_i <= b'_I + (L/eps)(c_I b'_I + c'_I) * sum_{n<i-I} K^n eps^(2^n);
      quadratic step  c'_{i+1} <= L (b'_i + 1) c'_i^2  at every index;
      existence of the smallest I' with c'_i <= eps^(2^(i-I')) for all i >= I',
      reported as ``i_prime``.
    """
    n = len(c)
    if not (len(b2) == len(c2) == n):
        raise ValueError("sequences must have equal lengths")
    if n < 2:
        raise ValueError("need at least two entries")
    if L <= 0 or R <= 0:
        raise ValueError("L and R must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 <= I < n:
        raise ValueError(f"I = {I} outside sequence range")
    rep = BoundSeqReport(hypothesis_ok=True)

    a = [b2[i] * c[i] + c2[i] for i in range(n)]
    for i in range(n):
        rep.check(i, "c_le_cprime", float(c2[i]), c[i])
    for i in range(I, n):
        rep.check(i, "c_envelope_in", eps ** (2 ** (i - I)), c[i])
    for i in range(n - 1):
        rep.check(i + 1, "step_bprime", b2[i] + L * a[i], b2[i + 1])
        rep.check(i + 1, "step_cprime", L * a[i] * c[i], c2[i + 1])
        rep.check(i + 1, "step_c", R * c[i] ** 2, c[i + 1])
    rep.hypothesis_ok = all(r.ok for r in rep.rows)
    if not rep.hypothesis_ok:
        rep.notes.append("hypothesis failed; conclusions not asserted")
        return _finalize(rep)

    K = R * L + L + R
    for i in range(I, n - 1):
        rep.check(i + 1, "key_a_step", K * a[i] * c[i], a[i + 1])
    # b' envelope over the reindexed tail
    lead = (L / eps) * (c[I] * b2[I] + c2[I])
    partial = 0.0
    kn, en = 1.0, eps
    for i in range(I, n):
        rep.check(i, "envelope_bprime", b2[I] + lead * partial, b2[i])
        partial += kn * en
        kn *= K
        en = en * en
    for i in range(n - 1):
        rep.check(i + 1, "quadratic_cprime", L * (b2[i] + 1.0) * c2[i] ** 2, c2[i + 1])
    for cand in range(I, n):
        if all(within(c2[i], eps ** (2 ** (i - cand))) for i in range(cand, n)):
            rep.i_prime = cand
            break
    if rep.i_prime is None:
        rep.rows.append(CheckRow(n - 1, "cprime_envelope_exists", float("nan"), float(c2[n - 1]), False))
        rep.notes.append("no delay I' makes c' fall under the doubly exponential envelope")
    return _finalize(rep)


def envelope(b0: float, c0: float, n: int) -> tuple[list[float], list[float]]:
    """Worst-case sequences: equality in the single-gauge recursion, n entries.

    Any iteration gated at (b0, c0) must satisfy c_i <= c_env[i].  Raises
    GateViolation exactly when b0 < 1 or the gate fails at (b0, c0).
    """
    if b0 < 1.0:
        raise GateViolation(f"b0 = {b0} < 1")
    if not gate_holds(b0, c0):
        b0_sq = square(float(b0))
        why = (f"b0^2 overflows at b0 = {b0!r}" if b0_sq == math.inf
               else f"c0 = {c0!r} > (1/9) b0^-2 = {GATE_COEFF / b0_sq!r}")
        raise GateViolation(f"{why}: the gate 6 b0^2 c0 <= 2/3 fails")
    if n < 1:
        raise ValueError("need n >= 1")
    bs, cs = [float(b0)], [float(c0)]
    for _ in range(n - 1):
        grown, c_step = step_bounds(bs[-1], cs[-1])
        bs.append(grown)
        cs.append(c_step)
    return bs, cs


@dataclass
class Certificate:
    """What a trace's b and c columns certify; see :func:`certify`."""

    quadratic_rhs: list[float]
    envelope: list[float] | None
    report: BoundSeqReport
    failures: list[str]


def certify(b: Sequence[float], c: Sequence[float]) -> Certificate:
    """What a trace's b and c columns, read as Python floats, certify: per row the one-step
    bound 2 c^2 (b/(1-c))^2 on the next defect (inf where c >= 1); per row the closed envelope
    eps^(2^i)/(6 b0^2), or None unless b0 >= 1 and the gate holds at row 0; the report of
    :func:`check_quadratic_decay`, with no rows for a trace of one row, which has no step; and,
    with the envelope, its assertion: the first c_i above it or above the tight recursion of
    :func:`envelope`, as one message, or none.

    The report compares each defect against a bound quadratic in the previous one, which drops
    below double-precision resolution once c reaches the rounding floor near 1e-15: the iterate
    kinds write it and assert only the envelope, while bounds-check asserts every row of it.
    """
    b, c = [float(x) for x in b], [float(x) for x in c]
    if len(b) != len(c) or not b:
        raise ValueError("b and c must have equal, non-zero lengths")
    rhs = [step_bounds(bi, ci)[1] if ci < 1.0 else math.inf for bi, ci in zip(b, c)]
    report = check_quadratic_decay(b, c) if len(b) > 1 else BoundSeqReport(hypothesis_ok=True)
    if not (b[0] >= 1.0 and gate_holds(b[0], c[0])):
        return Certificate(rhs, None, report, [])
    closed, (_, tight) = closed_envelope(b[0], c[0], len(c)), envelope(b[0], c[0], len(c))
    for i, (ci, ei, ti) in enumerate(zip(c, closed, tight)):
        # the tight bound is only decidable while it sits above the absolute
        # resolution of the computed defect (~1e-15 for O(1) entries)
        env = min(ei, ti) if ti >= 1e-13 else ei
        if not within(ci, env):
            return Certificate(rhs, closed, report, [f"trace row i={i}: c {ci!r} above envelope {env!r}"])
    return Certificate(rhs, closed, report, [])


# -- CSV plumbing shared with the CLI -----------------------------------------


def load_trace_csv(path: str) -> tuple[list[float], list[float]]:
    """(b, c) columns of a trace CSV written by the averaging module.

    Raises ValueError naming the file and the missing column, or the row
    without a number in it or with a negative one (b and c are norms).
    Non-finite numbers are read as they are: a Diverged trace holds them.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"empty trace: {path}")
    cols = {"b": [], "c": []}
    for col, vals in cols.items():
        if col not in reader.fieldnames:
            raise ValueError(f"{path}: trace has no {col!r} column")
        for n, r in enumerate(rows):
            if r[col] is None:
                raise ValueError(f"{path}: trace row {n} is short: no {col!r} value")
            try:
                vals.append(float(r[col]))
            except ValueError:
                raise ValueError(f"{path}: trace row {n}: {col!r} value {r[col]!r} is not a number") from None
            if vals[-1] < 0:
                raise ValueError(f"{path}: trace row {n}: {col!r} value {r[col]!r} is negative")
    return cols["b"], cols["c"]


def write_check_csv(report: BoundSeqReport, path: str) -> None:
    """One row per verified inequality instance: i,check,bound,observed,pass."""
    lines = ["i,check,bound,observed,pass"]
    for r in report.rows:
        lines.append(f"{r.i},{r.check},{r.bound!r},{r.observed!r},{str(r.ok).lower()}")
    write_lines(lines, path)
