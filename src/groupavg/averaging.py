"""Multiplicative averaging of pseudo-representations and the fast iteration.

The averaged pseudo-representation of an invertible lambda under a normalized
left Haar system nu is

    (avg lambda)(g) = sum over k with tgt(k) = src(g) of
                      weight(k) * lambda(g k) lambda(k)^(-1),

a weighted mean of conjugate-translates.  It is always unital, fixes genuine
representations, and under the near-multiplicativity gate contracts the defect
quadratically; iterating it converges to a representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .bounds import Certificate, GateReport, step_bounds, within
from . import psrep
from .groupoid import CompositionTables, FiniteGroupoid, write_json, write_lines
from .haar import HaarSystem
from .psrep import (
    NonInvertible,
    PseudoRep,
    PseudoRepBatch,
    Stacks,
    arrow_norms_by_orbit,
    b_by_orbit,
    blocks,
    c_by_orbit,
    cocycles,
    invert_stacks,
    is_nearly_multiplicative,
    max_norm,
)


class GatePrecondition(ValueError):
    """One-step estimates require c < 1 on every orbit."""


def haar_mean(like: Stacks, T: CompositionTables, w: np.ndarray, term) -> Stacks:
    """Per arrow g, the Haar mean over its fiber: the sum over g's averaging triples t of
    w[k_t] * term(t), added from zero one fiber position at a time in ascending k.  ``term``
    maps a block's triples to their stacked terms, with any sample axes; the result has the
    shapes and samples of ``like``."""
    out = like.empty_like()
    for g, _ in blocks(like.group, T.row_len):  # row_len is a key column: the yielded width is 1
        first, acc = T.row_start[g], 0.0
        for j in range(T.row_len[g[0]]):
            acc = acc + w[T.avg_k[first + j], None, None] * term(first + j)
        out.put(g, acc)
    return out


def average(rep: PseudoRep, nu: HaarSystem) -> PseudoRep:
    """One averaging step.  Summation runs in ascending arrow id for determinism.

    Raises NonInvertible(k) when some lambda_k is singular past the
    conditioning limit, or when the averaged map of arrow k overflows.
    """
    st = rep.stacks()
    maps = _average(st, rep.groupoid.tables, nu)[0].tolist()
    bad = next((g for g, M in enumerate(maps) if not np.isfinite(M).all()), None)
    if bad is not None:  # a finite input whose mean overflowed: the step failed, not the input
        raise NonInvertible(bad, f"averaged matrix of arrow {bad} has non-finite entries")
    return PseudoRep(rep.groupoid, rep.bundle, maps)


def _average(st: Stacks, T: CompositionTables, nu: HaarSystem) -> tuple[Stacks, Stacks]:
    """The averaged maps and the inverses they used.

    Gathers (gk, k), multiplies, then sums over the fiber in ascending k.
    """
    if len(nu.weights) != len(st.group):
        raise ValueError("Haar system belongs to a different groupoid")
    inv = invert_stacks(st)
    return haar_mean(st, T, nu.array, lambda t: st.take(T.avg_gk[t]) @ inv.take(T.avg_k[t])), inv


@dataclass
class IdentityReport:
    residual_a: float
    residual_b: float
    b: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual_a <= self.tol and self.residual_b <= self.tol


def verify_fundamental_identities(
    reps: PseudoRepBatch | Sequence[PseudoRep], nu: HaarSystem
) -> list[IdentityReport]:
    """Recompute both exact identities for the averaging step and report residuals.

    First identity: avg lambda(g) - lambda(g) equals the weighted mean of the
    difference cocycle at (g k, k).  Second: the defect of avg lambda on a
    composable pair (g2, g1) equals a single Haar mean of products of cocycles
    minus the product of two Haar means.  Both are identities for any
    invertible input (unital or not); residuals are pure rounding and must stay
    below 1e-12 * (1 + b)^3.

    Given samples on one groupoid, returns one report per sample.  A :class:`PseudoRepBatch`
    is checked in runs of :func:`identity_run` samples, over which its bundle's factors
    broadcast, and each report has the bits of a check of its sample alone.  A run that raises
    is checked again one sample at a time, so the error is the first failing sample's.  A
    sequence of pseudo-representations is checked one sample at a time, each on its own bundle.
    """
    reports: list[IdentityReport] = []
    if not isinstance(reps, PseudoRepBatch):
        for rep in reps:
            st = rep.stacks()
            st = Stacks(st.group, [A[None] for A in st.arrays])  # a one-sample stack
            reports += _identities(rep.groupoid, rep.bundle, st, nu)
        return reports
    G, bundle, step = reps.groupoid, reps.bundle, identity_run(nu.groupoid)
    for s in range(0, len(reps), step):
        try:
            reports += _identities(G, bundle, reps[s : s + step].stacks(), nu)
        except Exception:
            for i in range(s, min(s + step, len(reps))):
                _identities(G, bundle, reps[i : i + 1].stacks(), nu)
            raise
    return reports


def identity_run(G: FiniteGroupoid) -> int:
    """How many samples on G :func:`verify_fundamental_identities` checks at once: a pass
    gathers at most one matrix per averaging triple and sample, BLOCK_TERMS in all."""
    return max(1, psrep.BLOCK_TERMS // max(1, len(G.tables.avg_g)))


def _identities(G: FiniteGroupoid, bundle: psrep.FiberBundle, st: Stacks,
                nu: HaarSystem) -> list[IdentityReport]:
    """The identity reports of samples on G and ``bundle``: their maps ``st`` carry a leading
    sample axis, over which the bundle's factors broadcast."""
    T = G.tables
    avg, inv = _average(st, T, nu)
    w = nu.array
    D = cocycles(st, inv, T)

    # first identity; mean[g] is the Haar mean of Delta(gk, k) over k
    mean = haar_mean(st, T, w, D.take)
    res_a = max_norm(
        bundle,
        lambda g, _: (avg.take(g) - st.take(g) - mean.take(g), T.src[g], T.tgt[g]),
        st.group,
    )[0]

    # second identity over the pairs (g2, g1) through x, one product per object x.  With
    # h = g1 k over the fiber of x, single - left mean is the sum over h of Delta(g2 h, h)
    # times w(g1^-1 h) (Delta(h, g1^-1 h) - mean(g1)): row g2 of A_x (D's rows of the g2
    # with source x) times column g1 of B_x.  Maps in an orbit are square of one size d.
    def second(g1: np.ndarray, F: int):
        t1 = T.row_start[g1][:, None] + np.arange(F)
        at_h = np.empty_like(t1)  # at_h[c, j]: the triple (g1, k, g1 k) of column c with g1 k j-th
        np.put_along_axis(at_h, T.fiber_pos[T.avg_gk[t1]], t1, axis=1)
        B = w[T.avg_k[at_h]][..., None, None] * (D.take(at_h) - mean.take(g1)[:, :, None])
        S, n1, _, d, _ = B.shape
        B = B.transpose(0, 2, 3, 1, 4).reshape(S, F * d, n1 * d)
        rows, res = np.flatnonzero(T.src == T.tgt[g1[0]]), []
        for r, _ in blocks(np.zeros(len(rows), dtype=np.intp), width=F):
            g2 = rows[r]
            A = D.take(T.row_start[g2][:, None] + np.arange(F)).transpose(0, 1, 3, 2, 4)
            P = A.reshape(S, len(g2) * d, F * d) @ B
            del A  # its gather is not held while the residual is built
            R = avg.take(T.avg_gk[T.row_start[g2][:, None] + T.fiber_pos[g1]])
            R -= avg.take(g2)[:, :, None] @ avg.take(g1)[:, None]
            R -= P.reshape(S, len(g2), d, n1, d).transpose(0, 1, 3, 2, 4)
            res.append(R.reshape(S, len(g2) * n1, d, d))
        R = res[0] if len(res) == 1 else np.concatenate(res, axis=-3)
        return R, np.tile(T.src[g1], len(rows)), np.repeat(T.tgt[rows], n1)

    res_b = max_norm(bundle, second, T.tgt, width=np.diff(T.fiber_start)[T.tgt])[0]

    bs = np.max(arrow_norms_by_orbit(bundle, st, T), axis=0).tolist()
    # tol from Python floats: numpy's power can differ in the last ulp
    return [IdentityReport(a, r, b, 1e-12 * (1.0 + b) ** 3) for a, r, b in zip(res_a, res_b, bs)]


@dataclass
class StepEstimateRow:
    """One orbit's one-step lemma at c < 1: the step's largest ||lambda_g^(-1)|| and ||Delta||
    are at most b/(1-c) and c b/(1-c), and the averaged b and c at most b/(1-c) and
    2 c^2 (b/(1-c))^2; each flag compares by :func:`within`."""

    orbit: list[int]
    b: float
    c: float
    inverse: float
    delta: float
    b_avg: float
    c_avg: float
    b_bound: float
    delta_bound: float
    c_bound: float
    inverse_ok: bool
    delta_ok: bool
    b_ok: bool
    c_ok: bool

    @property
    def ok(self) -> bool:
        return self.inverse_ok and self.delta_ok and self.b_ok and self.c_ok


def verify_step_estimates(rep: PseudoRep, nu: HaarSystem) -> list[StepEstimateRow]:
    """Per orbit, the one-step lemma of the averaging step; see :class:`StepEstimateRow`.

    Raises GatePrecondition, before averaging, at the first orbit with c >= 1.  The inverses
    and cocycles are those of the step itself; Delta runs over the divisible pairs (gk, k).
    """
    G, T = rep.groupoid, rep.groupoid.tables
    orbits, bs, cs = G.orbits(), b_by_orbit(rep), c_by_orbit(rep)
    for orbit, c in zip(orbits, cs):
        if c >= 1.0:
            raise GatePrecondition(f"orbit {orbit} has defect c = {c:.3g} >= 1")
    st = rep.stacks()
    avg_st, inv = _average(st, T, nu)
    avg = PseudoRep(G, rep.bundle, avg_st.tolist())
    D = cocycles(st, inv, T)
    invs = max_norm(rep.bundle, lambda g, _: (inv.take(g), T.tgt[g], T.src[g]), inv.group,
                    orbit=T.orbit[T.src], n_orbits=T.n_orbits)
    deltas = max_norm(rep.bundle, lambda t, _: (D.take(t), T.src[T.avg_g[t]], T.tgt[T.avg_g[t]]),
                      D.group, orbit=T.orbit[T.src[T.avg_k]], n_orbits=T.n_orbits)
    rows = []
    for orbit, b, c, inv_max, delta_max, b_avg, c_avg in zip(
            orbits, bs, cs, invs, deltas, b_by_orbit(avg), c_by_orbit(avg)):
        b_bound, c_bound = step_bounds(b, c)
        rows.append(StepEstimateRow(
            orbit, b, c, inv_max, delta_max, b_avg, c_avg, b_bound, c * b_bound, c_bound,
            within(inv_max, b_bound), within(delta_max, c * b_bound, 1e-15),
            within(b_avg, b_bound), within(c_avg, c_bound, 1e-15)))
    return rows


@dataclass
class TraceRow:
    i: int
    b: float
    c: float
    unit_defect: float
    extras: dict[str, float] = field(default_factory=dict)


@dataclass
class Verdict:
    kind: str  # Converged | Diverged | NonInvertibleAt
    iteration: int | None = None
    arrow: int | None = None

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "iteration": self.iteration, "arrow": self.arrow}


@dataclass
class IterationTrace:
    rows: list[TraceRow]
    verdict: Verdict
    gate: GateReport  # row 0's gauge pass: the gate of the start
    final: Any


def drive(lam: Any, step, gauges, tol_c: float, max_iter: int,
          gate: GateReport | None = None) -> IterationTrace:
    """Every trace row of the finite and circle cases: row i is ``gauges(lam).row`` of the i-th
    iterate, a :class:`bounds.GateReport`, and ``step(lam)`` the next iterate.  Row 0's report
    is ``gate`` when the caller's gate pass has measured the start, else ``gauges`` of the start,
    and the trace keeps it as its gate.

    Stops at c <= tol_c (Converged, the current iterate is the limit), after max_iter >= 0 steps
    (Diverged), or when a step raises NonInvertible (NonInvertibleAt, whose ``arrow`` is the
    fault's).  Gauges and steps that overflow write inf or NaN to the trace, or fail the step,
    without a warning.  The bounds the rows certify are :func:`bounds.certify`'s.
    """
    rows: list[TraceRow] = []
    with np.errstate(over="ignore", invalid="ignore"):
        gate = gauges(lam) if gate is None else gate
        for i in range(max_iter + 1):
            b, c, unit, extras = (gauges(lam) if i else gate).row
            rows.append(TraceRow(i, b, c, unit, extras))
            if c <= tol_c or i == max_iter:
                verdict = Verdict("Converged" if c <= tol_c else "Diverged", iteration=i)
                break
            try:
                lam = step(lam)
            except NonInvertible as exc:
                verdict = Verdict("NonInvertibleAt", iteration=i, arrow=exc.arrow)
                break
    return IterationTrace(rows, verdict, gate, final=lam)


def iterate(rep: PseudoRep, nu: HaarSystem, tol_c: float = 1e-12, max_iter: int = 64,
            gate: GateReport | None = None) -> IterationTrace:
    """Averaging repeated on :func:`drive`: per-step (b, c, unit defect) rows, inf or NaN on overflow.

    Every row is a :func:`psrep.is_nearly_multiplicative` pass, and row 0's, the trace's gate,
    is ``gate`` when the caller has run that pass on ``rep``.  Raises ValueError, before any
    step, when ``rep`` is not unital: a unit defect above 1e-8.  A failed gate is metadata only:
    the iteration proceeds, since the gate is sufficient for the guarantee, not necessary for
    convergence.
    """
    gate = is_nearly_multiplicative(rep) if gate is None else gate
    if not gate.unit_defect <= 1e-8:
        raise ValueError("gate check requires a unital pseudo-representation")
    return drive(rep, lambda lam: average(lam, nu), is_nearly_multiplicative, tol_c, max_iter, gate)


TRACE_HEADER = "i,b,c,unit_defect,quadratic_bound_rhs,envelope"


def write_trace_csv(trace: IterationTrace, cert: Certificate, path: str) -> None:
    """Plot-ready trace with the bound columns of its certificate; the envelope column is
    empty when the certificate has no envelope."""
    env = cert.envelope or [None] * len(trace.rows)
    lines = [TRACE_HEADER]
    for row, e, q in zip(trace.rows, env, cert.quadratic_rhs):
        etxt = "" if e is None else repr(e)
        lines.append(f"{row.i},{row.b!r},{row.c!r},{row.unit_defect!r},{q!r},{etxt}")
    write_lines(lines, path)


def write_verdict_json(trace: IterationTrace, cert: Certificate, path: str,
                       extra: dict | None = None) -> None:
    doc = {
        "verdict": trace.verdict.to_json_dict(),
        "iterations": len(trace.rows) - 1,
        "b0": trace.rows[0].b,
        "c0": trace.rows[0].c,
        "b_final": trace.rows[-1].b,
        "c_final": trace.rows[-1].c,
        "gate_ok": trace.gate.ok,
        "gate_failed_orbits": trace.gate.failed_orbits,
        "envelope_valid": cert.envelope is not None,
    }
    if extra:
        doc.update(extra)
    write_json(doc, path)
