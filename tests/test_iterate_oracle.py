"""The shared iteration driver against the two loops it replaced.

The references below are the standalone finite and circle iteration loops, the
per-orbit gate and one-step estimates on restricted subgroupoids (with the
step's largest inverse and cocycle norms), the gather-built circle defect
field, the sliced cocycle residual, the whole-field seminorm and the two
residual loops it was streamed from, the np.roll rotation and group bundle
averages, the two trace column formulas, the per-matrix random
draws, the identity verifier of one sample at a time and the norm maximum with
an SVD of every map, kept verbatim in their old operation order. Every
comparison is exact, except that averaged one-step gauges may move in the last
ulp (the reference renormalizes the restricted Haar weights): the driver, the
per-orbit gauges, the slice-built field, the streamed defect pass, the buffered
averages on any number of worker threads, the bounds module, the batched
draws, the pruned norm maximum and the identity check over a sample axis must
reproduce them bit for bit, except the second identity's residual: summed by
one matrix product per object, it is held to 1e-3 of its tolerance. The rotation
average in row chunks equals the copy-based block it replaced, with one
numerator buffer of the block's rows, bit for bit at chunk boundaries. The noise
field equals its angle-addition sums over the whole grid bit for bit, on any
number of worker threads, and is held to its polynomial, evaluated per element
in long double, within a stated number of rounding units. The circle kinds'
seeded uniform stream equals numpy's ``default_rng`` draw for draw.
"""

import collections
import dataclasses
import itertools
import json
import math
import os
import tempfile
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import certificate, connection_from_effect, connection_residual, restrict_haar, restrict_rep
from groupavg import averaging, bounds, circle, cli, presets, psrep
from groupavg.averaging import (
    GatePrecondition,
    IdentityReport,
    IterationTrace,
    StepEstimateRow,
    TraceRow,
    Verdict,
    average,
    iterate,
    verify_fundamental_identities,
    verify_step_estimates,
    write_verdict_json,
)
from groupavg.bounds import GATE_COEFF, envelope, step_bounds
from groupavg.circle import (
    NonInvertibleNode,
    TorusGridFn,
    _defect_slices,
    _defect_sups,
    average_circle,
    cocycle_defect_field,
    from_profile,
    group_bundle_average,
    iterate_circle,
    multiplicativity_residual,
)
from groupavg.groupoid import FiniteGroupAction, FiniteGroupoid, action_groupoid, symmetric_group
from groupavg.haar import counting_haar
from groupavg.psrep import (
    DegenerateMetric,
    FiberBundle,
    NonInvertible,
    PseudoRep,
    PseudoRepBatch,
    b_by_orbit,
    b_norm,
    c_by_orbit,
    c_norm,
    gate_holds,
    is_nearly_multiplicative,
)

EPS = np.finfo(float).eps

# -- references ------------------------------------------------------------------------


def orbit_gate_ref(rep):
    rows = []
    for orbit in rep.groupoid.orbits():
        sub = restrict_rep(rep, orbit)
        b, c = b_norm(sub), c_norm(sub)
        thr = GATE_COEFF / b**2 if b > 0 else np.inf
        rows.append((orbit, c <= thr))
    return all(ok for _, ok in rows), [o for o, ok in rows if not ok]


def gate_rows_ref(rep):
    """The b and c of each orbit, and the orbits that fail the gate; b fixes the threshold."""
    bs, cs, failed = [], [], []
    for orbit in rep.groupoid.orbits():
        sub = restrict_rep(rep, orbit)
        b, c = b_norm(sub), c_norm(sub)
        bs.append(b)
        cs.append(c)
        if not gate_holds(b, c):
            failed.append(orbit)
    return bs, cs, failed


def inverse_maxima_ref(rep):
    """The largest ||lambda_g^(-1)|| over the arrows and ||Delta|| over the divisible pairs."""
    T, st = rep.groupoid.tables, rep.stacks()
    inv = psrep.invert_stacks(st)
    max_inv = psrep.max_norm(rep.bundle, lambda g, _: (inv.take(g), T.tgt[g], T.src[g]), inv.group)[0]
    D = psrep.cocycles(st, inv, T)
    max_delta = psrep.max_norm(
        rep.bundle, lambda t, _: (D.take(t), T.src[T.avg_g[t]], T.tgt[T.avg_g[t]]), D.group
    )[0]
    return max_inv, max_delta


def step_estimates_ref(rep, nu, rel_slack=1e-12):
    rows = []
    for orbit in rep.groupoid.orbits():
        sub = restrict_rep(rep, orbit)
        sub_nu, _, _ = restrict_haar(nu, orbit)
        b, c = b_norm(sub), c_norm(sub)
        if c >= 1.0:
            raise GatePrecondition(f"orbit {orbit} has defect c = {c:.3g} >= 1")
        inv, delta = inverse_maxima_ref(sub)
        sub_avg = average(sub, sub_nu)
        b_avg, c_avg = b_norm(sub_avg), c_norm(sub_avg)
        b_bound, c_bound = step_bounds(b, c)
        delta_bound = c * b_bound
        rows.append(StepEstimateRow(
            orbit, b, c, inv, delta, b_avg, c_avg, b_bound, delta_bound, c_bound,
            inv <= b_bound * (1.0 + rel_slack), delta <= delta_bound * (1.0 + rel_slack) + 1e-15,
            b_avg <= b_bound * (1.0 + rel_slack), c_avg <= c_bound * (1.0 + rel_slack) + 1e-15))
    return rows


# a reference loop's gate: its own verdict and failed orbits, which the trace's GateReport must match
RefGate = collections.namedtuple("RefGate", "ok failed_orbits")


@dataclasses.dataclass
class RefTrace(IterationTrace):
    """A reference loop's trace, with the step-0 fields the loop read off."""

    b0: float = 0.0
    c0: float = 0.0
    envelope_valid: bool = False


def iterate_ref(rep, nu, tol_c=1e-12, max_iter=64):
    gate_ok, failed = orbit_gate_ref(rep)
    rows = []
    lam = rep
    verdict = Verdict("Diverged")
    b0 = c0 = 0.0
    for i in range(max_iter + 1):
        b, c = b_norm(lam), c_norm(lam)
        rows.append(TraceRow(i, b, c, lam.unit_defect()))
        if i == 0:
            b0, c0 = b, c
        if c <= tol_c:
            verdict = Verdict("Converged", iteration=i)
            break
        if i == max_iter:
            verdict = Verdict("Diverged", iteration=i)
            break
        try:
            lam = average(lam, nu)
        except NonInvertible as exc:
            verdict = Verdict("NonInvertibleAt", iteration=i, arrow=exc.arrow)
            break
    envelope_valid = b0 >= 1.0 and c0 <= GATE_COEFF / b0**2 if b0 > 0 else False
    return RefTrace(rows, verdict, RefGate(gate_ok, failed), lam, b0, c0, envelope_valid)


def defect_field_ref(L):
    V, N, k = L.values, L.N, L.twist
    idx = np.arange(N)
    rows = (idx[:, None, None] + idx[None, :, None]) % N
    cols = (k * idx[:, None] + idx[None, :]) % N
    return V[rows, idx[None, None, :]] - V[idx[:, None, None], cols[None, :, :]] * V[None, :, :]


def residual_ref(L):
    V, N, k = L.values, L.N, L.twist
    idx = np.arange(N)
    cols = (k * idx[:, None] + idx[None, :]) % N
    worst = 0.0
    for lp in range(N):
        r = np.abs(V[(lp + idx) % N, :] - V[lp, cols] * V)
        worst = max(worst, float(r.max()))
    return worst, float(np.abs(V[0] - 1.0).max())


def _twist_cols(N: int, k: int) -> np.ndarray:
    """cols[l, i] = (k l + i) mod N, the grid column of k theta + a."""
    idx = np.arange(N)
    return (k * idx[:, None] + idx[None, :]) % N


def _defect_slice(V: np.ndarray, lp: int, cols: np.ndarray) -> np.ndarray:
    """The theta' = lp/N slice  Lambda(theta'+theta, a) - Lambda(theta', k theta + a) Lambda(theta, a)."""
    return V[(lp + np.arange(len(V))) % len(V), :] - V[lp, cols] * V


def multiplicativity_residual_ref(L: TorusGridFn) -> tuple[float, float]:
    """(res_cocycle, res_unit): sups over all grid triples / the unit row."""
    V, cols = L.values, _twist_cols(L.N, L.twist)
    worst = 0.0
    for lp in range(L.N):
        worst = max(worst, float(np.abs(_defect_slice(V, lp, cols)).max()))
    return worst, float(np.abs(V[0] - 1.0).max())


def connection_residual_ref(X: TorusGridFn) -> float:
    """Sup residual of the multiplicativity equation written at the connection level:

    X(theta'+theta, a) = X(theta, a) + X(theta', k theta + a) (1 + k X(theta, a)).
    Algebraically, effect residual = k * connection residual, triple by triple.
    """
    V, N, k = X.values, X.N, X.twist
    idx, cols = np.arange(N), _twist_cols(N, k)
    worst = 0.0
    for lp in range(N):
        r = np.abs(V[(lp + idx) % N, :] - V - V[lp, cols] * (1.0 + k * V))
        worst = max(worst, float(r.max()))
    return worst


def _fd_sup(values: np.ndarray, r: int, N: int) -> float:
    if r not in (0, 1):
        raise ValueError(f"seminorm order {r} not supported (use 0 or 1)")
    worst = float(np.abs(values).max())
    for axis in range(values.ndim):
        if r == 1:
            d1 = (np.roll(values, -1, axis) - np.roll(values, 1, axis)) * (N / 2.0)
            worst = max(worst, float(np.abs(d1).max()))
    return worst


def average_circle_ref(L: TorusGridFn) -> np.ndarray:
    V, N, k = L.values, L.N, L.twist
    acc = np.zeros_like(V)
    for j in range(N):
        num = np.roll(V, (-j, k * j), (0, 1))
        den = np.roll(V[j], k * j)[None, :]
        acc = acc + num / den
    return acc / N


def average_circle_blocks_ref(L: TorusGridFn) -> np.ndarray:
    """The rotation average with one numerator buffer per block, before row chunks, on one
    block: the divisions read contiguous copies of the rolled rows."""
    V, N, k = L.values, L.N, L.twist
    acc = np.zeros_like(V)
    nums = np.empty_like(V)  # the blocks' numerator rows, allocated here (see _on_blocks)

    def rows(lo: int, hi: int) -> None:
        # acc[l] += V[(l + j) mod N] / V[j], both rolled right by s = k j columns: copied from V's
        # column blocks (the numerator in row blocks before and after the wrap) into contiguous
        # buffers, so that the one division per j reads no strided operand
        out, num, den = acc[lo:hi], nums[lo:hi], np.empty(N)
        for j in range(N):
            s, r = k * j % N, (lo + j) % N
            n = min(hi - lo, N - r)
            for dst, src in ((num[:n], V[r:r + n]), (num[n:], V[: hi - lo - n]), (den, V[j])):
                np.copyto(dst[..., s:], src[..., : N - s])
                np.copyto(dst[..., :s], src[..., N - s:])
            np.add(out, np.divide(num, den, out=num), out=out)
        np.divide(out, N, out=out)

    rows(0, N)
    return acc


def smooth_torus_field_ref(rng: np.random.Generator, N: int) -> tuple[np.ndarray, float]:
    """The noise polynomial evaluated per element in long double, and its rounding unit
    eps (|const| + sum |c|) / 16, drawing as the library does."""
    const, coeffs = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, size=(15, 2))
    modes = [mn for mn in itertools.product(range(4), repeat=2) if any(mn)]
    # the phase of node (l, i) is 2 pi q / N with q = (m l + n i) mod N, read from two tables
    q = np.arange(N, dtype=np.longdouble) * (8 * np.arctan(np.longdouble(1))) / N
    cos, sin, ls = np.cos(q), np.sin(q), np.arange(N)
    out = np.full((N, N), np.longdouble(const))
    for (m, n), (cm, sm) in zip(modes, coeffs.astype(np.longdouble)):
        at = (m * ls[:, None] + n * ls[None, :]) % N
        out += cm * cos[at] + sm * sin[at]
    return out / 16, float(np.finfo(float).eps * (abs(const) + np.abs(coeffs).sum()) / 16)


def smooth_torus_field_whole_ref(rng: np.random.Generator, N: int) -> np.ndarray:
    """The library's angle-addition sums over the whole grid at once, without row blocks."""
    const, coeffs = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, size=(15, 2))
    modes = [mn for mn in itertools.product(range(4), repeat=2) if any(mn)]
    mt = np.arange(4)[:, None] * (2 * np.pi * np.arange(N) / N)
    C, S, out = np.cos(mt), np.sin(mt), np.full((N, N), const)
    for (m, n), (cm, sm) in zip(modes, coeffs):
        out = out + (cm * C[m] + sm * S[m])[:, None] * C[n]
        out = out + (sm * C[m] - cm * S[m])[:, None] * S[n]
    return out / 16


def group_bundle_average_ref(X: TorusGridFn) -> np.ndarray:
    V, N = X.values, X.N
    acc = np.zeros_like(V)
    base = np.zeros(N)
    for j in range(N):
        acc = acc + np.roll(V, -j, axis=0)
        base = base + V[j]
    return (acc - base[None, :]) / N


def iterate_circle_ref(L0, tol_c=1e-12, max_iter=64, order=1):
    rows = []
    lam = L0
    verdict = Verdict("Diverged")
    b0 = c0 = 0.0
    gate_ok = True
    for i in range(max_iter + 1):
        field = defect_field_ref(lam)
        b = float(np.abs(lam.values).max())
        c = float(np.abs(field).max())
        unit = float(np.abs(lam.values[0] - 1.0).max())
        extras = {"c_sem_r1": _fd_sup(field, 1, lam.N)} if order else {}
        rows.append(TraceRow(i, b, c, unit, extras))
        if i == 0:
            b0, c0 = b, c
            gate_ok = b0 > 0 and c0 <= GATE_COEFF / b0**2
        if c <= tol_c:
            verdict = Verdict("Converged", iteration=i)
            break
        if i == max_iter:
            verdict = Verdict("Diverged", iteration=i)
            break
        try:
            lam = average_circle(lam)
        except NonInvertibleNode as exc:
            verdict = Verdict("NonInvertibleAt", iteration=i, arrow=exc.node[0] * lam.N + exc.node[1])
            break
    envelope_valid = b0 >= 1.0 and c0 <= GATE_COEFF / b0**2 if b0 > 0 else False
    return RefTrace(rows, verdict, RefGate(gate_ok, []), lam, b0, c0, envelope_valid)


def envelope_column_ref(trace):
    if not trace.envelope_valid:
        return None
    out = []
    t = 6.0 * trace.b0**2 * trace.c0
    denom = 6.0 * trace.b0**2
    for _ in trace.rows:
        out.append(t / denom)
        t = t * t
    return out


def quadratic_rhs_column_ref(trace):
    out = []
    for r in trace.rows:
        if r.c < 1.0:
            out.append(2.0 * r.c**2 * (r.b / (1.0 - r.c)) ** 2)
        else:
            out.append(float("inf"))
    return out


def envelope_ref(b0, c0, n):
    bs, cs = [float(b0)], [float(c0)]
    for _ in range(n - 1):
        b, c = bs[-1], cs[-1]
        grown = b / (1.0 - c)
        bs.append(grown)
        cs.append(2.0 * c**2 * grown**2)
    return bs, cs


def normals_ref(rng, k):
    """k standard normals from k uniforms, k + 1 for odd k, drawn a pair at a time: Box-Muller
    takes (u, v) to r cos(2 pi v), r sin(2 pi v) with r = sqrt(-2 log(1 - u))."""
    z = []
    for _ in range((k + 1) // 2):
        u, v = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        r = np.sqrt(-2.0 * np.log1p(-u))
        z += [r * np.cos(2.0 * np.pi * v), r * np.sin(2.0 * np.pi * v)]
    return np.array(z[:k])


def signed_q_ref(a):
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def orthogonal_ref(rng, n):
    return signed_q_ref(normals_ref(rng, n * n).reshape(n, n))


def conditioned_ref(rng, n, smin, smax):
    """The per-matrix draw: n singular values, then the normals of both orthogonal factors."""
    s = rng.uniform(smin, smax, size=n)
    z = normals_ref(rng, 2 * n * n).reshape(2, n, n)
    return (signed_q_ref(z[0]) * s) @ signed_q_ref(z[1])


def random_pseudorep_ref(G, rng, dim=2, smin=0.5, smax=1.5, metrics=False):
    mets = [presets.random_spd(rng, dim) for _ in range(G.n_objects)] if metrics else []
    bundle = FiberBundle([dim] * G.n_objects, mets)
    return PseudoRep(G, bundle, [conditioned_ref(rng, dim, smin, smax) for _ in G.arrows()])


def fiber_sum_ref(w, terms):
    acc = np.zeros(terms.shape[:1] + terms.shape[2:])
    for j in range(terms.shape[1]):
        acc = acc + w[:, j, None, None] * terms[:, j]
    return acc


def metric_norms_ref(bundle, M, src, dst):
    r, c = M.shape[-2:]
    if r == 0 or c == 0:
        return np.zeros(M.shape[:-2])
    roots, _, at_dst = bundle.factor_stack(r)
    _, inv_roots, at_src = bundle.factor_stack(c)
    try:
        return np.linalg.svd(roots[at_dst[dst]] @ M @ inv_roots[at_src[src]], compute_uv=False)[..., 0]
    except np.linalg.LinAlgError:
        return np.full(M.shape[:-2], np.inf)


def max_norm_ref(bundle, part, *key, width=1):
    worst = 0.0
    for items, F in psrep.blocks(*key, width=width):
        worst = max(worst, float(metric_norms_ref(bundle, *part(items, F)).max()))
    return worst


def metric_norms_unpruned(bundle, M, src, dst):
    """``psrep.metric_norms`` as it was before the pruned maximum: an SVD of every map."""
    r, c = M.shape[-2:]
    if r == 0 or c == 0:
        return np.zeros(M.shape[:-2])
    roots, _, at_dst = bundle.factor_stack(r)
    _, inv_roots, at_src = bundle.factor_stack(c)
    X = roots[..., at_dst[dst], :, :] @ M @ inv_roots[..., at_src[src], :, :]
    finite = np.isfinite(X).all(axis=(-2, -1))
    s = np.linalg.svd(np.where(finite[..., None, None], X, 0.0), compute_uv=False)[..., 0]
    return np.where(finite, s, np.inf)


def max_norm_unpruned(bundle, part, *key, width=1, orbit=None, n_orbits=1):
    """``psrep.max_norm`` as it was before the pruned maximum."""
    split = n_orbits > 1
    worst = [np.float64(0.0)] * n_orbits
    for items, F in psrep.blocks(*(orbit, *key) if split else key, width=width):
        o = int(orbit[items[0]]) if split else 0
        worst[o] = np.maximum(worst[o], metric_norms_unpruned(bundle, *part(items, F)).max(axis=-1))
    return [w.tolist() for w in worst]


def verify_identities_ref(rep, nu):
    """The verifier of one sample on its own stacks, as it was before the sample axis."""
    T, st = rep.groupoid.tables, rep.stacks()
    avg, inv = averaging._average(st, T, nu)
    w = nu.array
    D = psrep.cocycles(st, inv, T)

    mean = st.empty_like()
    for g, F in psrep.blocks(st.group, width=T.row_len):
        t = T.row_start[g][:, None] + np.arange(F)
        mean.put(g, fiber_sum_ref(w[T.avg_k[t]], D.take(t)))
    res_a = max_norm_ref(
        rep.bundle,
        lambda g, _: (avg.take(g) - st.take(g) - mean.take(g), T.src[g], T.tgt[g]),
        st.group,
    )

    def second(p, F):
        g2, g1 = T.avg_g[p], T.avg_k[p]
        t1 = T.row_start[g1][:, None] + np.arange(F)
        t2 = T.row_start[g2][:, None] + T.fiber_pos[T.avg_gk[t1]]
        wk = w[T.avg_k[t1]]
        left = D.take(t2)
        lhs = avg.take(T.avg_gk[p]) - avg.take(g2) @ avg.take(g1)
        single = fiber_sum_ref(wk, left @ D.take(t1))
        return lhs - (single - fiber_sum_ref(wk, left) @ mean.take(g1)), T.src[g1], T.tgt[g2]

    res_b = max_norm_ref(
        rep.bundle, second, st.group[T.avg_g], st.group[T.avg_k], width=T.row_len[T.avg_k]
    )

    b = b_norm(rep)
    return IdentityReport(res_a, res_b, b, 1e-12 * (1.0 + b) ** 3)


def assert_same_trace(got, want):
    assert got.rows == want.rows
    assert got.verdict == want.verdict
    assert got.gate.ok == want.gate.ok
    assert got.gate.failed_orbits == want.gate.failed_orbits
    cert = certificate(got)
    assert (got.rows[0].b, got.rows[0].c) == (want.b0, want.c0)
    assert (cert.envelope is not None) == want.envelope_valid
    assert cert.envelope == envelope_column_ref(want)
    assert cert.quadratic_rhs == quadratic_rhs_column_ref(want)
    if isinstance(want.final, TorusGridFn):
        assert np.array_equal(got.final.values, want.final.values)
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got.final.maps, want.final.maps))


# -- finite inputs -----------------------------------------------------------------------


def gated_s3(rng):
    G, rep = presets.s3_example_rep(rng)
    return presets.gated_perturbation(rep, rng, 2e-3)[0], counting_haar(G), {}


def z2_one_orbit_failing(rng):
    # the shift puts orbit [2] between its gate and c = 1: on the fixture's seed the gate
    # fails from about +0.02 and c reaches 1 at about +0.21; +0.1 gives c = 0.44
    G, rep = presets.z2_example_rep(rng)
    lam = rep.copy()
    for g in G.arrows():
        if G.src[g] == 2 and g not in G.unit:
            lam.maps[g] = lam.maps[g] + 0.1
    return lam, counting_haar(G), {}


def ungated_s3(rng):
    G, rep = presets.s3_example_rep(rng)
    return presets.perturb_rep(rep, rng, 0.2), counting_haar(G), {"max_iter": 2}


def singular_arrow(rng):
    G, rep = presets.s3_example_rep(rng)
    lam = rep.copy()
    g = next(g for g in G.arrows() if g not in G.unit)
    lam.maps[g] = np.zeros_like(lam.maps[g])
    return lam, counting_haar(G), {}


def exact_s3(rng):
    G, rep = presets.s3_example_rep(rng)
    return rep, counting_haar(G), {}


def two_orbit_disjoint_rep(rng):
    """Swap groupoid on {1,2} glued with a bare unit over {3} (the conftest groupoid)."""
    G = FiniteGroupoid(
        objects=[1, 2, 3], src=[0, 1, 1, 0, 2], tgt=[0, 1, 0, 1, 2],
        compose=[(0, 0, 0), (1, 1, 1), (4, 4, 4), (0, 2, 2), (2, 1, 2), (3, 2, 1),
                 (1, 3, 3), (3, 0, 3), (2, 3, 0)],
        unit=[0, 1, 4], inverse=[0, 1, 3, 2, 4],
    )
    A = presets.conditioned(rng, 2, 0.8, 1.25)
    maps = [np.eye(2), np.eye(2), A, np.linalg.inv(A), np.eye(2)]
    rep = PseudoRep(G, FiberBundle.uniform(3, 2), maps)
    return presets.perturb_rep(rep, rng, 2e-3), counting_haar(G), {}


def z2_dims_2_and_3(rng, metrics=False):
    """The two-orbit Z/2 action groupoid with fiber dimension 2 over the swapped
    orbit and 3 over the fixed point, near a representation."""
    G = action_groupoid(presets.z2_swap_action())
    _, rep2 = presets.z2_example_rep(rng, dim=2)
    _, rep3 = presets.z2_example_rep(rng, dim=3)
    dims = [2, 2, 3]
    grams = [presets.random_spd(rng, d) for d in dims] if metrics else []
    maps = [(rep3 if G.src[g] == 2 else rep2).maps[g] for g in G.arrows()]
    rep = PseudoRep(G, FiberBundle(dims, grams), maps)
    return presets.perturb_rep(rep, rng, 2e-3), counting_haar(G), {}


def z2_gram_metrics(rng):
    return z2_dims_2_and_3(rng, metrics=True)


FINITE_CASES = {
    gated_s3: lambda t: certificate(t).envelope is not None and t.verdict == Verdict("Converged", iteration=3),
    z2_one_orbit_failing: lambda t: t.gate.failed_orbits == [[2]],
    ungated_s3: lambda t: not t.gate.ok and t.verdict == Verdict("Diverged", iteration=2),
    singular_arrow: lambda t: t.verdict.kind == "NonInvertibleAt" and t.verdict.arrow is not None,
    exact_s3: lambda t: t.verdict == Verdict("Converged", iteration=0),
    two_orbit_disjoint_rep: lambda t: t.verdict.kind == "Converged",
    z2_dims_2_and_3: lambda t: t.verdict.kind == "Converged",
    z2_gram_metrics: lambda t: t.verdict.kind == "Converged",
}


@pytest.mark.parametrize("make", FINITE_CASES, ids=lambda f: f.__name__)
def test_iterate_equals_reference_loop(make, rng):
    rep, nu, kw = make(rng)
    got, want = iterate(rep, nu, **kw), iterate_ref(rep, nu, **kw)
    assert_same_trace(got, want)
    assert FINITE_CASES[make](got)


ORBIT_CASES = [z2_one_orbit_failing, two_orbit_disjoint_rep, z2_dims_2_and_3, z2_gram_metrics]


@pytest.mark.parametrize("make", ORBIT_CASES, ids=lambda f: f.__name__)
def test_per_orbit_gauges_equal_restricted_gauges(make, rng):
    rep, nu, _ = make(rng)
    orbits = rep.groupoid.orbits()
    assert len(orbits) == 2
    for lam in (rep, average(rep, nu)):
        subs = [restrict_rep(lam, orbit) for orbit in orbits]
        assert b_by_orbit(lam) == [b_norm(sub) for sub in subs]
        assert c_by_orbit(lam) == [c_norm(sub) for sub in subs]
        assert (b_norm(lam), c_norm(lam)) == (max(b_by_orbit(lam)), max(c_by_orbit(lam)))
    gate = is_nearly_multiplicative(rep)
    assert (gate.b, gate.c, gate.failed_orbits) == gate_rows_ref(rep)


@pytest.mark.parametrize("make", ORBIT_CASES + [gated_s3, exact_s3], ids=lambda f: f.__name__)
def test_step_estimates_equal_restricted_steps(make, rng):
    rep, nu, _ = make(rng)
    got, want = verify_step_estimates(rep, nu), step_estimates_ref(rep, nu)
    # every field is exact but the averaged gauges: the averaged maps move in the last ulp;
    # c_avg, a difference of near-equal products, moves by the same absolute amount, a few
    # eps * b^2
    assert [dataclasses.replace(g, b_avg=w.b_avg, c_avg=w.c_avg) for g, w in zip(got, want)] == want
    for g, w in zip(got, want):
        assert g.b_avg == pytest.approx(w.b_avg, rel=4 * EPS, abs=0.0)
        assert g.c_avg == pytest.approx(w.c_avg, rel=0.0, abs=8 * EPS * w.b_avg**2)


def test_step_estimate_precondition_message_equals_reference(rng):
    rep, nu, _ = z2_one_orbit_failing(rng)
    for g in rep.groupoid.arrows():
        if rep.groupoid.src[g] == 2 and g not in rep.groupoid.unit:
            rep.maps[g] = rep.maps[g] + 3.0
    with pytest.raises(GatePrecondition) as want:
        step_estimates_ref(rep, nu)
    with pytest.raises(GatePrecondition) as got:
        verify_step_estimates(rep, nu)
    assert str(got.value) == str(want.value) and "orbit [2]" in str(got.value)


def test_iterate_checks_unital_before_any_step(monkeypatch, rng):
    G, base = presets.s3_example_rep(rng)
    rep = presets.random_pseudorep(G, rng)

    def no_step(*args):
        raise AssertionError("averaging step taken before the gate check")

    monkeypatch.setattr(averaging, "average", no_step)
    with pytest.raises(ValueError, match="unital"):
        iterate(rep, counting_haar(G))


@pytest.mark.parametrize("make", [gated_s3, z2_one_orbit_failing], ids=lambda f: f.__name__)
def test_iterate_runs_one_gauge_pass_on_its_input(monkeypatch, make, rng):
    rep, nu, kw = make(rng)
    calls = []
    for name in ("b_by_orbit", "c_by_orbit"):
        def counted(lam, fn=getattr(psrep, name), name=name):
            calls.append((name, lam is rep))
            return fn(lam)

        monkeypatch.setattr(psrep, name, counted)
    trace = iterate(rep, nu, **kw)
    assert len(trace.rows) > 1
    assert [name for name, on_input in calls if on_input] == ["b_by_orbit", "c_by_orbit"]
    assert len(calls) == 2 * len(trace.rows)


# -- circle inputs ------------------------------------------------------------------------


def f_sin(t):
    return 0.05 * np.sin(4 * np.pi * t)


def bumped(N=16, k=2, amp=0.01):
    _, L = from_profile(f_sin, N, k=k)
    th = np.arange(N)[:, None] / N
    a = np.arange(N)[None, :] / N
    return TorusGridFn(L.values * (1.0 + amp * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * a)), k)


def vanishing_node():
    L = bumped()
    values = L.values.copy()
    values[3, 5] = 0.0
    return TorusGridFn(values, L.twist)


@pytest.mark.parametrize(
    "L0, kw, verdict",
    [
        (bumped(), {"order": 0}, Verdict("Converged", iteration=3)),
        (bumped(amp=0.3), {"max_iter": 2}, Verdict("Diverged", iteration=2)),
        (vanishing_node(), {}, Verdict("NonInvertibleAt", iteration=0, arrow=3 * 16 + 5)),
        (from_profile(f_sin, 16, k=2)[1], {}, Verdict("Converged", iteration=0)),
        # gated but b0 < 1: the envelope is not claimed
        (TorusGridFn(np.full((8, 8), 0.5), 1), {}, Verdict("Converged", iteration=1)),
    ],
    ids=["order_0", "ungated_budget", "vanishing_node", "converged", "b0_below_1"],
)
def test_iterate_circle_equals_reference_loop(L0, kw, verdict):
    got, want = iterate_circle(L0, **kw), iterate_circle_ref(L0, **kw)
    assert_same_trace(got, want)
    assert got.verdict == verdict


def test_verdict_json_names_the_vanishing_node(tmp_path):
    # the node (l, i) is arrow l N + i of the action groupoid of Z/N on the N points; no row holds it
    trace, path = iterate_circle(vanishing_node()), tmp_path / "verdict.json"
    write_verdict_json(trace, certificate(trace), str(path))
    assert json.loads(path.read_text())["verdict"] == {
        "kind": "NonInvertibleAt", "iteration": 0, "arrow": 3 * 16 + 5}
    assert set(trace.rows[-1].extras) == {"c_sem_r1"}


@st.composite
def bc_columns(draw):
    """b and c columns of 1-8 rows: b0 below or above 1, c0 inside or outside the gate at b0,
    then the recursion's worst case or free rows with c >= 1, tiny c and c = 0, and inf and
    NaN planted in c (and in b past row 0)."""
    n, odd = draw(st.integers(1, 8)), st.sampled_from([math.inf, math.nan])
    b0 = draw(st.floats(0.25, 0.999) | st.floats(1.0, 4.0))
    gate = GATE_COEFF / b0**2
    c0 = draw(st.floats(0.0, 1.0).map(lambda u: u * gate) | st.floats(1.01 * gate, 2.0))
    if draw(st.booleans()):  # equality in the recursion, where the gate holds at b0 >= 1
        b, c = envelope(b0, c0, n) if b0 >= 1.0 and c0 <= gate else ([b0] * n, [c0] * n)
    else:
        rest = partial(st.lists, min_size=n - 1, max_size=n - 1)
        b = [b0] + draw(rest(st.floats(0.0, 8.0)))
        c = [c0] + draw(rest(st.floats(0.0, 2.0) | st.floats(0.0, 1e-9) | st.just(0.0)))
    for col, first in ((c, 0), (b, 1)):
        for i in draw(st.lists(st.integers(first, n - 1), max_size=1)) if first < n else []:
            col[i] = draw(odd)
    return b, c


@settings(max_examples=200, deadline=None)
@given(bc_columns())
def test_iterate_kinds_and_bounds_check_write_one_certificate(columns):
    # the iterate kinds' bounds_check.csv is bounds-check's on the trace.csv they wrote, byte
    # for byte, and so is the report of the columns as numpy floats; the trace's bound columns
    # are the reference formulas
    b, c = columns
    rows = [TraceRow(i, bi, ci, 0.0) for i, (bi, ci) in enumerate(zip(b, c))]
    trace = IterationTrace(rows, Verdict("Converged", iteration=len(rows) - 1), RefGate(True, []), None)
    with tempfile.TemporaryDirectory() as d:
        run, check, path = (os.path.join(d, name) for name in ("run", "check", "numpy.csv"))
        os.mkdir(run)
        cli.finish_iterate(trace, run, {})
        assert cli.main(["bounds-check", "--trace", os.path.join(run, "trace.csv"), "--out", check]) in (0, 1)
        bounds.write_check_csv(bounds.certify(np.array(b), np.array(c)).report, path)
        written = [open(os.path.join(out, "bounds_check.csv"), "rb").read() for out in (run, check)]
        assert written[0] == written[1] == open(path, "rb").read()
        lines = open(os.path.join(run, "trace.csv"), encoding="utf-8").read().splitlines()
    b0, c0 = b[0], c[0]
    want = RefTrace(rows, trace.verdict, trace.gate, None, b0, c0,
                    b0 >= 1.0 and c0 <= GATE_COEFF / b0**2 if b0 > 0 else False)
    env = envelope_column_ref(want) or [None] * len(rows)
    assert lines[1:] == [f"{r.i},{r.b!r},{r.c!r},{r.unit_defect!r},{q!r},{'' if e is None else repr(e)}"
                         for r, q, e in zip(rows, quadratic_rhs_column_ref(want), env)]


@pytest.mark.parametrize("N, k", [(16, 1), (32, 2), (64, 3), (5, 7), (4, 8)])
def test_slice_built_defect_field_is_bit_equal(N, k, rng):
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((N, N)), k)
    assert np.array_equal(cocycle_defect_field(L), defect_field_ref(L))
    assert multiplicativity_residual(L) == residual_ref(L)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("N, k", [(4, 1), (5, 2), (16, 1), (33, 3), (64, 2)])
def test_streamed_defect_pass_equals_whole_field(N, k, r, rng):
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((N, N)), k)
    field = defect_field_ref(L)
    sups = _defect_sups(partial(_defect_slices, L), N, r)
    # entry q is the sup of the order-q differences alone; their running max is the seminorm
    assert np.maximum.accumulate(sups).tolist() == [_fd_sup(field, q, N) for q in range(r + 1)]
    assert multiplicativity_residual(L) == multiplicativity_residual_ref(L)
    X = connection_from_effect(L)
    assert connection_residual(X) == connection_residual_ref(X)


@pytest.mark.parametrize("r", [0, 1])
def test_seminorm_of_column_major_grid_equals_whole_field(r, rng):
    # not C-ordered: the slice writer reads the grid's rows through strides
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((9, 9)).T, 1)
    sups = _defect_sups(partial(_defect_slices, L), 9, r)
    assert np.maximum.accumulate(sups).tolist() == [_fd_sup(defect_field_ref(L), q, 9) for q in range(r + 1)]


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("grid", [
    lambda N, rng: np.where(np.arange(N * N).reshape(N, N) == 5 * N + 9, np.nan,
                            1.0 + 0.1 * rng.standard_normal((N, N))),
    # (-1)^l on the rows: every product and difference of the cocycle is exact
    lambda N, rng: np.repeat(np.where(np.arange(N) % 2, -1.0, 1.0)[:, None], N, axis=1),
    lambda N, rng: np.full((N, N), -0.0),
], ids=["nan", "multiplicative", "negative_zeros"])
def test_defect_sups_from_extremes_equal_abs(grid, r, rng):
    """Each slice's sup is read from its max and min, with no |.| pass: it equals np.abs of the
    whole field's max, a NaN stays NaN, and a field of zeros, here all -0.0, reads +0.0."""
    N = 16
    L = TorusGridFn(grid(N, rng), 3)
    field = cocycle_defect_field(L)
    want = np.abs(field).max()
    sups = _defect_sups(partial(_defect_slices, L), N, r)
    assert np.array_equal(sups[:1], [want], equal_nan=True)
    assert np.array_equal(multiplicativity_residual(L)[:1], [want], equal_nan=True)
    if not np.isnan(want):
        assert np.maximum.accumulate(sups).tolist() == [_fd_sup(field, q, N) for q in range(r + 1)]
        assert (np.copysign(1.0, sups) == 1.0).all()


@pytest.mark.parametrize("N, k", [(4, 1), (5, 2), (16, 3), (33, 2), (64, 1), (8, 11)])
def test_buffered_rotation_average_is_bit_equal(N, k, rng):
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((N, N)), k)
    assert np.array_equal(average_circle(L).values, average_circle_ref(L))


# -- the kernels on row blocks: bit-equal on any worker count ------------------------------


@pytest.mark.parametrize("k", [1, 2, 7, 64])
@pytest.mark.parametrize("N", [255, 256, 257])
def test_block_kernels_are_bit_equal(N, k, rng, monkeypatch):
    L = TorusGridFn(1.0 + 0.1 * rng.standard_normal((N, N)), k)
    X = connection_from_effect(L)
    avg, res, conn = average_circle_ref(L), multiplicativity_residual_ref(L), connection_residual_ref(X)
    assert res == residual_ref(L)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)  # split grids of any size
    for workers in (1, 3):  # one block, and uneven blocks; the default is min(2, CPUs)
        monkeypatch.setattr(circle, "_THREADS", workers)
        assert np.array_equal(average_circle(L).values, avg)
        assert multiplicativity_residual(L) == res
        assert connection_residual(X) == conn
    # the fused slice writer that cocycle_defect_field and the order 1-2 ring also use
    write, out, cols = _defect_slices(L), np.empty((N, N)), _twist_cols(N, k)
    for lp in (0, 1, N // 2, N - 1):
        write(lp, out)
        assert np.array_equal(out, _defect_slice(L.values, lp, cols))


@pytest.mark.parametrize("N", [100, 257, 300])
def test_chunked_rotation_average_is_bit_equal(N, rng, monkeypatch):
    # 7-row chunks start at rows that are neither block starts nor wrap rows, so each chunk's
    # wrap row (c + j) mod N is checked against the unchunked block, on one and three workers
    monkeypatch.setattr(circle, "_AVG_ROWS", 7)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)
    V = 1.0 + 0.1 * rng.standard_normal((N, N))
    for k in (1, 3, N, N + 3):
        L = TorusGridFn(V, k)
        want = average_circle_blocks_ref(L)
        for workers in (1, 3):
            monkeypatch.setattr(circle, "_THREADS", workers)
            assert np.array_equal(average_circle(L).values, want), (k, workers)


@pytest.mark.parametrize("N", [1, 4, 63, 64, 65, 255, 256, 257, 1000])
def test_torus_field_is_the_long_double_polynomial(N):
    # angle addition rounds differently from a per-element phase: both stay within 16 rounding
    # units (the float64 per-element form reads up to 5.7, angle addition 7.1), on either side
    # of the 64-row blocks; mode (3, 3) with its sin coefficient negated reads over 1e13 units
    ours, ref = np.random.default_rng(N), np.random.default_rng(N)
    exact, unit = smooth_torus_field_ref(ref, N)
    assert np.abs(presets.smooth_torus_field(ours, N) - exact).max() <= 16 * unit
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("N", [1, 4, 255, 256, 257])
def test_block_torus_field_is_bit_equal(N, workers, monkeypatch):
    # the 64-row blocks add each element in the whole grid's order, and no worker setting reaches them
    monkeypatch.setattr(circle, "_THREADS", workers)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)
    ours, ref = np.random.default_rng(N), np.random.default_rng(N)
    assert np.array_equal(presets.smooth_torus_field(ours, N), smooth_torus_field_whole_ref(ref, N))
    assert ours.bit_generator.state == ref.bit_generator.state


def assert_draws_like_default_rng(seed: int) -> None:
    """Three samples of the noise field's draws, a scalar then a (15, 2) block, equal
    ``np.random.default_rng(seed)``'s in value, type, shape and dtype."""
    ours, ref = presets.UniformStream(seed), np.random.default_rng(seed)
    for _ in range(3):
        a, b = ours.uniform(-1.0, 1.0), ref.uniform(-1.0, 1.0)
        assert (a, type(a)) == (b, type(b)), seed
        a, b = ours.uniform(-1.0, 1.0, size=(15, 2)), ref.uniform(-1.0, 1.0, size=(15, 2))
        assert np.array_equal(a, b) and (a.shape, a.dtype) == (b.shape, b.dtype), seed


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**200))
def test_uniform_stream_is_default_rng(seed):
    # seeds of up to seven 32-bit words: past four, SeedSequence mixes the rest into its pool
    assert_draws_like_default_rng(seed)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128])
def test_uniform_stream_is_default_rng_at_word_edges(seed):
    assert_draws_like_default_rng(seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**100), st.lists(st.one_of(
    st.none(), st.integers(0, 768).map(lambda n: (n,)),
    st.tuples(st.integers(0, 40), st.integers(0, 40))), max_size=8))
def test_uniform_stream_draws_in_sequence_are_default_rng(seed, sizes):
    # scalar and shaped draws in turn, of up to 768 values, share one state: each equals
    # numpy's, and so do the draws after a zero-size one, which leaves the state where it was
    ours, ref = presets.UniformStream(seed), np.random.default_rng(seed)
    for size in sizes:
        a, b = ours.uniform(-1.5, 2.0, size), ref.uniform(-1.5, 2.0, size)
        assert np.array_equal(a, b) and type(a) is type(b) and np.shape(a) == np.shape(b), size
        if size is not None and not math.prod(size):
            state = ours._state
            assert ours.uniform(0.0, 1.0, size).shape == size and ours._state == state
    assert ours.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)


def test_uniform_stream_noise_field_and_bounds():
    # the field the circle kinds build from the stream is numpy's; other bounds and shapes
    # draw alike too, and a negative seed is refused as numpy refuses it
    for N in (4, 65):
        assert np.array_equal(presets.smooth_torus_field(presets.UniformStream(N), N),
                              presets.smooth_torus_field(np.random.default_rng(N), N))
    ours, ref = presets.UniformStream(5), np.random.default_rng(5)
    assert ours.uniform(2.5, 3.0) == ref.uniform(2.5, 3.0)
    assert np.array_equal(ours.uniform(0.0, 1.0, (7,)), ref.uniform(0.0, 1.0, (7,)))
    assert np.array_equal(ours.uniform(-3.0, 0.5, (2, 3, 4)), ref.uniform(-3.0, 0.5, (2, 3, 4)))
    for make in (presets.UniformStream, np.random.default_rng):
        with pytest.raises(ValueError):
            make(-1)


def test_uniform_stream_draws_metric_pseudoreps_as_default_rng(s3_groupoid):
    # random_spd draws its eigenvalues with an int size, as numpy's uniform allows: the maps
    # and Gram matrices equal numpy's, and the two streams stay in step
    ours, ref = presets.UniformStream(1), np.random.default_rng(1)
    for _ in range(2):
        got = presets.random_pseudorep(s3_groupoid, ours, metrics=True)
        want = presets.random_pseudorep(s3_groupoid, ref, metrics=True)
        assert all(np.array_equal(a, b) for a, b in zip(got.maps, want.maps))
        assert all(np.array_equal(a, b) for a, b in zip(got.bundle.metrics, want.bundle.metrics))
    a, b = ours.uniform(0.0, 1.0, 5), ref.uniform(0.0, 1.0, 5)
    assert np.array_equal(a, b) and a.shape == b.shape == (5,)
    assert ours.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)


@pytest.mark.parametrize("nan_lp", [0, 47, 63], ids=["first_block", "second_block", "last"])
def test_nan_in_one_block_makes_the_sup_nan(nan_lp, monkeypatch):
    monkeypatch.setattr(circle, "_THREADS", 2)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)
    N = 64

    def slices():
        def slice_at(lp, out):
            out.fill(1.0)
            out[3, 5] = np.nan if lp == nan_lp else 1.0
        return slice_at

    assert np.isnan(_defect_sups(slices, N, 0)).all()
    L = TorusGridFn(np.ones((N, N)), 2)
    L.values[40, 7] = np.nan  # a row of the second block of the rotation average
    assert np.isnan(multiplicativity_residual(L)[0])
    assert np.isnan(average_circle(L).values).any()


def test_worker_exception_and_errstate_reach_the_caller(monkeypatch):
    monkeypatch.setattr(circle, "_THREADS", 2)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)

    def fail_late(lo, hi):
        if lo:
            raise KeyError(f"block {lo}:{hi}")
        return lo

    with pytest.raises(KeyError, match="block 4:8"):
        circle._on_blocks(8, fail_late, tuple)
    assert circle._on_blocks(8, lambda lo, hi: (lo, hi), tuple) == [(0, 4), (4, 8)]
    big = np.full(8, 1e300)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        circle._on_blocks(8, lambda lo, hi: big[lo:hi] * big[lo:hi] if lo else None, tuple)


def test_blocks_are_sized_to_the_grid(monkeypatch):
    # below 2 _WORKER_ROWS rows every block runs on the caller and no thread starts
    monkeypatch.setattr(circle, "_THREADS", 2)
    caller = threading.get_ident()

    def where(lo, hi):
        return lo, hi, threading.get_ident() == caller

    with monkeypatch.context() as m:
        m.setattr(threading, "Thread", None)  # any thread start raises
        assert circle._on_blocks(256, where, tuple) == [(0, 256, True)]
    assert circle._on_blocks(512, where, tuple) == [(0, 256, True), (256, 512, False)]
    # each block's scratch is built on the caller before any block runs, and is that block's alone
    built = []

    def scratch():
        built.append(threading.get_ident())
        return (len(built),)

    assert circle._on_blocks(512, lambda lo, hi, n: (lo, n, len(built)), scratch) == [(0, 1, 2), (256, 2, 2)]
    assert built == [caller, caller]


@pytest.mark.parametrize("b0, c0", [(1.0, 1.0 / 9.0), (1.3, 0.01), (2.0, 1e-4)])
def test_envelope_equals_reference(b0, c0):
    assert envelope(b0, c0, 12) == envelope_ref(b0, c0, 12)


@pytest.mark.parametrize("N, k", [(4, 1), (5, 2), (16, 3), (33, 2), (64, 1), (8, 11), (4, 4)])
def test_buffered_group_bundle_average_is_bit_equal(N, k, rng):
    X = TorusGridFn(rng.standard_normal((N, N)), k)
    assert np.array_equal(group_bundle_average(X).values, group_bundle_average_ref(X))


# -- batched draws and the identity check over a sample axis ------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batched_draws_equal_per_matrix_draws(d):
    ours, ref = np.random.default_rng(d), np.random.default_rng(d)
    got = presets.conditioned(ours, d, 0.5, 1.5, 1000)
    assert np.array_equal(got, np.stack([conditioned_ref(ref, d, 0.5, 1.5) for _ in range(1000)]))
    assert np.array_equal(presets.conditioned(ours, d, 0.8, 1.25), conditioned_ref(ref, d, 0.8, 1.25))
    assert np.array_equal(presets.orthogonal(ours, d), orthogonal_ref(ref, d))
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("metrics", [False, True])
def test_random_pseudorep_equals_per_arrow_draws(s3_groupoid, metrics):
    ours, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(5):
        got = presets.random_pseudorep(s3_groupoid, ours, dim=3, metrics=metrics)
        want = random_pseudorep_ref(s3_groupoid, ref, dim=3, metrics=metrics)
        assert all(np.array_equal(a, b) for a, b in zip(got.maps, want.maps))
        assert all((a is None and b is None) or np.array_equal(a, b)
                   for a, b in zip(got.bundle.metrics, want.bundle.metrics))
    assert ours.bit_generator.state == ref.bit_generator.state


def mixed_dims_rep(G, rng, dims, metrics):
    """Independent conditioned matrices per arrow over a bundle with the given dims."""
    mets = [presets.random_spd(rng, d) for d in dims] if metrics else []
    maps = [presets.conditioned(rng, dims[G.src[g]], 0.5, 1.5) for g in G.arrows()]
    return PseudoRep(G, FiberBundle(list(dims), mets), maps)


SAMPLE_CASES = {
    "s3": lambda G, rng: presets.random_pseudorep(G, rng),
    "s3_metrics": lambda G, rng: presets.random_pseudorep(G, rng, metrics=True),
    "z2_two_orbits": lambda G, rng: presets.random_pseudorep(G, rng, metrics=True),
    "z2_mixed_dims": lambda G, rng: mixed_dims_rep(G, rng, [2, 2, 3], False),
    "z2_mixed_dims_metrics": lambda G, rng: mixed_dims_rep(G, rng, [2, 2, 3], True),
}


def sample_case(case, seed, n=14):
    action = presets.s3_action() if case.startswith("s3") else presets.z2_swap_action()
    G = action_groupoid(action)
    rng = np.random.default_rng(seed)
    return [SAMPLE_CASES[case](G, rng) for _ in range(n)], counting_haar(G)


def report_fields(reports):
    return [(r.residual_a, r.residual_b, r.b, r.tol) for r in reports]


def assert_reports_match_ref(got, want):
    """``residual_a``, ``b`` and ``tol`` equal the reference's; ``residual_b`` is within
    1e-3 of the tolerance, since the second identity sums by one matrix product per
    object, not one fiber position at a time."""
    assert [(r.residual_a, r.b, r.tol) for r in got] == [(r.residual_a, r.b, r.tol) for r in want]
    for g, r in zip(got, want):
        assert g.residual_b == r.residual_b or abs(g.residual_b - r.residual_b) <= 1e-3 * r.tol


@pytest.mark.parametrize("block_terms", [psrep.BLOCK_TERMS, 100])
@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_batched_identities_equal_per_sample_checks(monkeypatch, case, block_terms):
    monkeypatch.setattr(psrep, "BLOCK_TERMS", block_terms)
    for seed in range(5):
        reps, nu = sample_case(case, seed)
        want = [verify_identities_ref(rep, nu) for rep in reps]
        got = verify_fundamental_identities(reps, nu)
        assert_reports_match_ref(got, want)
        assert report_fields([verify_fundamental_identities(reps[3:4], nu)[0]]) == report_fields(got[3:4])


def test_batched_identities_of_the_cli_samples(monkeypatch, s3_groupoid):
    """The 300 samples of ``run finite_identities --count 300 --seed 1``, drawn as the CLI
    draws them, a batch per run: every report equals the check of its sample alone and
    matches the per-sample reference, tol included where numpy's power would move it by an
    ulp, and no batched step gathers more than BLOCK_TERMS matrices."""
    rng, single = np.random.default_rng(1), np.random.default_rng(1)
    run = averaging.identity_run(s3_groupoid)
    batches = [presets.random_pseudorep(s3_groupoid, rng, count=min(run, 300 - n))
               for n in range(0, 300, run)]
    reps = [presets.random_pseudorep(s3_groupoid, single) for _ in range(300)]
    drawn = [maps for batch in batches for maps in batch.maps]
    assert len(drawn) == 300
    assert all(np.array_equal(maps, rep.maps) for maps, rep in zip(drawn, reps))
    nu = counting_haar(s3_groupoid)
    seen = {"norms": [], "terms": []}

    def spy(name, fn):
        def counted(*args):
            seen[name].append(args[1].shape[:-2])
            return fn(*args)
        return counted

    take = psrep.Stacks.take

    def counted_take(self, idx):
        out = take(self, idx)
        seen["terms"].append(out.shape[:-2])
        return out

    monkeypatch.setattr(psrep, "metric_norms", spy("norms", psrep.metric_norms))
    monkeypatch.setattr(psrep.Stacks, "take", counted_take)
    got = [r for batch in batches for r in verify_fundamental_identities(batch, nu)]
    for shapes in seen.values():
        assert max(int(np.prod(shape)) for shape in shapes) <= psrep.BLOCK_TERMS
        assert max(shape[0] for shape in shapes) > 1  # a sample axis: the samples were batched
    assert max(shape[0] for shape in seen["norms"]) == averaging.identity_run(s3_groupoid) == 37
    monkeypatch.undo()
    assert report_fields(got) == report_fields([verify_fundamental_identities([rep], nu)[0] for rep in reps])
    want = [verify_identities_ref(rep, nu) for rep in reps]
    assert_reports_match_ref(got, want)
    b = np.array([r.b for r in want])
    assert (1e-12 * (1.0 + b) ** 3 != np.array([r.tol for r in want])).any()


def test_overflowing_sample_leaves_the_others_bits(s3_groupoid):
    """A sample whose second residual overflows reads inf, as alone; the others in its run keep their bits."""
    reps, nu = sample_case("s3", 0, n=6)
    for g in range(0, 18, 2):
        reps[2].maps[g] = reps[2].maps[g] * 1e-200
    with np.errstate(over="ignore", invalid="ignore"):
        got = verify_fundamental_identities(reps, nu)
        want = [verify_identities_ref(rep, nu) for rep in reps]
    assert_reports_match_ref(got, want)
    assert got[2].residual_b == np.inf and not got[2].ok


def first_error(check, reps, nu):
    with pytest.raises((NonInvertible, OverflowError, DegenerateMetric)) as exc, np.errstate(over="ignore", invalid="ignore"):
        check(reps, nu)
    return type(exc.value), str(exc.value), getattr(exc.value, "arrow", None)


def per_sample(reps, nu):
    for rep in reps:
        verify_identities_ref(rep, nu)


def test_failing_run_raises_the_first_samples_error():
    reps, nu = sample_case("z2_mixed_dims", 0, n=8)
    G = reps[0].groupoid
    hi = max(g for g in G.arrows() if G.src[g] == 2)  # a 3 x 3 map
    lo = min(g for g in G.arrows() if G.src[g] != 2)  # a 2 x 2 map, in another shape group
    assert lo < hi
    reps[3].maps[hi] = np.zeros((3, 3))
    reps[4].maps[lo] = np.zeros((2, 2))
    want = first_error(per_sample, reps, nu)
    assert want == (NonInvertible, f"matrix of arrow {hi} is numerically singular", hi)
    assert first_error(verify_fundamental_identities, reps, nu) == want
    reps[1].maps[0] = reps[1].maps[0] * 1e150  # b**3 overflows a Python float at sample 1
    want = first_error(per_sample, reps, nu)
    assert want[0] is OverflowError
    assert first_error(verify_fundamental_identities, reps, nu) == want
    reps[0].maps[lo] = np.full((2, 2), np.nan)
    want = first_error(per_sample, reps, nu)
    assert want == (NonInvertible, f"matrix of arrow {lo} has non-finite entries", lo)
    assert first_error(verify_fundamental_identities, reps, nu) == want


@pytest.mark.parametrize("x", [0, 2])
def test_degenerate_metric_after_an_overflow_raises_the_overflow(x):
    """Metrics are checked when first factored; a later sample's indefinite metric on an
    object of either fiber dimension must not mask an earlier sample's overflow."""
    reps, nu = sample_case("z2_mixed_dims_metrics", 0, n=6)
    reps[0].maps[0] = reps[0].maps[0] * 1e150
    reps[2].bundle.metrics[x] = np.diag([1.0, -1.0] + [1.0] * (reps[2].bundle.dims[x] - 2))
    want = first_error(per_sample, reps, nu)
    assert want[0] is OverflowError
    assert first_error(verify_fundamental_identities, reps, nu) == want
    assert first_error(verify_fundamental_identities, reps[1:], nu)[0] is DegenerateMetric


def test_list_mixing_fiber_dimensions_checks_each_sample_alone():
    reps, nu = sample_case("z2_mixed_dims", 0, n=3)
    G = reps[0].groupoid
    line = PseudoRep(G, FiberBundle([1, 1, 1]), [np.eye(1) for _ in G.arrows()])
    reps = [reps[0], line, *reps[1:], line]
    got = verify_fundamental_identities(reps, nu)
    assert len(got) == 5
    assert report_fields(got) == report_fields([verify_fundamental_identities([rep], nu)[0] for rep in reps])
    assert_reports_match_ref(got, [verify_identities_ref(rep, nu) for rep in reps])


def test_random_pseudorep_count_equals_single_draws(s3_groupoid):
    ours, ref = np.random.default_rng(12), np.random.default_rng(12)
    assert len(presets.random_pseudorep(s3_groupoid, ours, dim=3, count=0)) == 0
    got = presets.random_pseudorep(s3_groupoid, ours, dim=3, count=5)
    for maps in got.maps:
        want = random_pseudorep_ref(s3_groupoid, ref, dim=3)
        assert all(np.array_equal(a, b) for a, b in zip(maps, want.maps))
        assert got.bundle.dims == want.bundle.dims and got.bundle.metrics == want.bundle.metrics
    assert ours.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError, match="no metrics"):
        presets.random_pseudorep(s3_groupoid, ours, metrics=True, count=2)


def batch_and_list(G, seed, count):
    """A drawn batch of ``count`` samples, and the same samples as a list of pseudo-representations."""
    batch = presets.random_pseudorep(G, np.random.default_rng(seed), count=count)
    return batch, [PseudoRep(G, batch.bundle, list(maps.copy())) for maps in batch.maps]


def test_batch_and_list_inputs_give_the_same_reports(s3_groupoid):
    """40 samples cross the end of the first 37-sample run; a planted singular map in two
    samples of the second run raises, from either input, the error of the first of them."""
    nu = counting_haar(s3_groupoid)
    batch, reps = batch_and_list(s3_groupoid, 3, 40)
    got = verify_fundamental_identities(batch, nu)
    assert len(got) == 40
    assert report_fields(got) == report_fields(verify_fundamental_identities(reps, nu))
    for s, g in ((38, 11), (39, 4)):
        batch.maps[s, g] = 0.0
        reps[s].maps[g] = np.zeros((2, 2))
    want = first_error(per_sample, reps, nu)
    assert want == (NonInvertible, "matrix of arrow 11 is numerically singular", 11)
    assert first_error(verify_fundamental_identities, batch, nu) == want
    assert first_error(verify_fundamental_identities, reps, nu) == want


@pytest.mark.parametrize("action", [presets.s3_action, presets.z2_swap_action])
def test_batch_on_gram_metrics_equals_per_sample_checks(monkeypatch, action):
    """The batch is the one path on which a bundle's metric factors broadcast over samples.
    With runs of two samples, five samples cross two run boundaries; every report has the
    bits of its sample checked alone on the same bundle, and matches the reference."""
    G = action_groupoid(action())
    monkeypatch.setattr(psrep, "BLOCK_TERMS", 2 * len(G.tables.avg_g))
    assert averaging.identity_run(G) == 2
    rng = np.random.default_rng(7)
    bundle = FiberBundle([2] * G.n_objects, [presets.random_spd(rng, 2) for _ in range(G.n_objects)])
    batch = PseudoRepBatch(G, bundle, presets.random_pseudorep(G, rng, count=5).maps)
    reps = [PseudoRep(G, bundle, list(maps.copy())) for maps in batch.maps]
    nu = counting_haar(G)
    got = verify_fundamental_identities(batch, nu)
    assert report_fields(got) == report_fields([verify_fundamental_identities([rep], nu)[0] for rep in reps])
    assert_reports_match_ref(got, [verify_identities_ref(rep, nu) for rep in reps])
    assert all(r.ok for r in got)


def test_empty_batch_gives_no_reports(s3_groupoid):
    batch = presets.random_pseudorep(s3_groupoid, np.random.default_rng(0), count=0)
    assert verify_fundamental_identities(batch, counting_haar(s3_groupoid)) == []


def test_batch_names_its_first_bad_map(s3_groupoid):
    batch, _ = batch_and_list(s3_groupoid, 0, 4)
    with pytest.raises(ValueError, match=r"maps of shape \(4, 17, 2, 2\) for 18 arrows"):
        PseudoRepBatch(s3_groupoid, batch.bundle, batch.maps[:, 1:])
    with pytest.raises(ValueError, match=r"maps of shape \(4, 18, 2, 2\) for 18 arrows on fibers \[3, 3, 3\]"):
        PseudoRepBatch(s3_groupoid, FiberBundle([3] * 3), batch.maps)
    maps = batch.maps.copy()
    maps[2, 7, 1, 0], maps[3, 1, 0, 0] = np.nan, np.inf
    with pytest.raises(ValueError, match="sample 2, arrow 7: matrix has non-finite entries"):
        PseudoRepBatch(s3_groupoid, batch.bundle, maps)


# -- the pruned norm maximum against an SVD of every map ---------------------------------


def norm_case(seed, samples, scales):
    """Maps over four objects of dimension 2 with Gram metrics, in three orbits:
    {0, 1}, {2} and {3}, which has no maps.  ``scales`` draws each map's scale."""
    rng = np.random.default_rng(seed)
    n = 40
    src = rng.integers(0, 3, n)
    dst = np.where(src == 2, 2, rng.integers(0, 2, n))
    lead = (samples,) if samples else ()
    M = rng.standard_normal(lead + (n, 2, 2)) * scales(rng, lead + (n, 1, 1))
    bundle = FiberBundle([2] * 4, [presets.random_spd(rng, 2) for _ in range(4)])  # shared by the samples
    return bundle, M, src, dst


NORM_SCALES = {
    "wide": lambda rng, shape: 10.0 ** rng.uniform(-170, 150, shape),
    "tiny": lambda rng, shape: 10.0 ** rng.uniform(-170, -160, shape),
    "near_ties": lambda rng, shape: 1.0 + 1e-13 * rng.integers(0, 3, shape),
    "equal": lambda rng, shape: np.ones(shape),
}


def assert_pruned_max_equals_full(bundle, M, src, dst):
    part = lambda items, _: (M[..., items, :, :], src[items], dst[items])  # noqa: E731
    orbit = np.where(src == 2, 1, 0)
    key = np.zeros(len(src), dtype=np.intp)
    got = psrep.max_norm(bundle, part, key, orbit=orbit, n_orbits=3)
    assert got == max_norm_unpruned(bundle, part, key, orbit=orbit, n_orbits=3)
    assert got[2] == 0.0  # the orbit with no maps
    return got


@pytest.mark.parametrize("block_terms", [psrep.BLOCK_TERMS, 7])
@pytest.mark.parametrize("samples", [0, 3])
@pytest.mark.parametrize("scales", sorted(NORM_SCALES))
def test_pruned_max_norm_equals_full_svd(monkeypatch, scales, samples, block_terms):
    """Per orbit and sample, and with each orbit's running maximum carried across blocks."""
    monkeypatch.setattr(psrep, "BLOCK_TERMS", block_terms)
    for seed in range(6):
        assert_pruned_max_equals_full(*norm_case(seed, samples, NORM_SCALES[scales]))


def test_pruned_max_norm_of_nonfinite_and_overflowing_maps():
    bundle, M, src, dst = norm_case(0, 3, NORM_SCALES["wide"])
    M[0, 5] = [[np.inf, 0.0], [0.0, 1.0]]
    M[1, 6] = [[np.nan, 0.0], [0.0, 1.0]]
    M[2, 7] = np.full((2, 2), 1.5e308)  # a Frobenius norm that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        got = assert_pruned_max_equals_full(bundle, M, src, dst)
    orbit = int(src[5] == 2)
    assert got[orbit][0] == got[int(src[6] == 2)][1] == np.inf


def test_pruned_max_norm_of_maps_whose_squares_underflow():
    """A plain Frobenius norm of either map reads 0: its squares underflow."""
    M = np.array([np.diag([1.0, 2.0]) * 1e-170, np.eye(2) * 3e-170])
    bundle, at = FiberBundle([2]), np.zeros(2, dtype=np.intp)
    got = psrep.max_norm(bundle, lambda i, _: (M[i], at[i], at[i]), at)
    assert got == max_norm_unpruned(bundle, lambda i, _: (M[i], at[i], at[i]), at) == [3e-170]


def test_metric_norms_read_a_negative_zero_as_the_whitening_products_do():
    """An identity metric reads the map itself, but eye @ M @ eye turns its -0.0 into +0.0, and
    LAPACK's SVD of this map tells the two apart in the last bit (a Hypothesis find below)."""
    M = np.array([[[-0.0, 24.391501580836007], [1.0, 1000.0]]])
    bundle, at = FiberBundle([2]), np.zeros(1, dtype=np.intp)
    assert psrep.metric_norms(bundle, M, at, at, 0.0) == metric_norms_unpruned(bundle, M, at, at)[0]


@settings(max_examples=200, deadline=None)
@given(samples=st.integers(0, 3), n=st.integers(1, 6), r=st.integers(0, 3), c=st.integers(0, 3),
       gram=st.sampled_from(["none", "targets", "sources"]), data=st.data())
def test_metric_norms_equal_the_whitening_formula(samples, n, r, c, gram, data):
    """Identity metrics read the maps unwhitened, and a Gram metric on the targets' or the
    sources' objects still whitens: equal to the factors' products through an SVD of every map,
    with and without a sample axis, on inf and NaN maps and on zero-size maps, and the
    caller's maps are not written."""
    lead = (samples,) if samples else ()
    shape, size = lead + (n, r, c), math.prod(lead + (n, r, c))
    M = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)),
                 dtype=float).reshape(shape)
    if size:  # a few entries that make their map inf or NaN, or a signed zero
        special = st.sampled_from([np.inf, -np.inf, np.nan, -0.0])
        for i, v in data.draw(st.lists(st.tuples(st.integers(0, size - 1), special), max_size=3)):
            M.flat[i] = v
    floor = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=samples, max_size=samples))
                     if samples else data.draw(st.floats(0.0, 10.0)))
    # objects 0-2 carry the targets' dimension r, objects 3-5 the sources' c
    spd = lambda d: presets.random_spd(np.random.default_rng(d), d) if d else None  # noqa: E731
    bundle = FiberBundle([r] * 3 + [c] * 3, [spd(r) if gram == "targets" else None] * 3
                         + [spd(c) if gram == "sources" else None] * 3)
    src = np.array(data.draw(st.lists(st.integers(3, 5), min_size=n, max_size=n)))
    dst = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    before = M.tobytes()
    with np.errstate(invalid="ignore"):  # a product turns an inf map into inf and NaN entries
        want = np.maximum(floor, metric_norms_unpruned(bundle, M, src, dst).max(axis=-1))
        got = psrep.metric_norms(bundle, M, src, dst, floor)
    assert M.tobytes() == before
    assert np.array_equal(got, want)


# -- the identity verifier's teeth and its blocks ----------------------------------------


def faulty_average(fault):
    """``averaging._average`` with one planted fault: a 1% error on one Haar weight,
    the two factors in reverse order, or the fiber index of k shifted by one."""
    def _average(st, T, nu):
        w = nu.array.copy()
        if fault == "weight":
            w[3] *= 1.01
        inv = psrep.invert_stacks(st)
        out = st.empty_like()
        for g, F in psrep.blocks(st.group, width=T.row_len):
            t = T.row_start[g][:, None] + np.arange(F)
            k, gk = T.avg_k[t], T.avg_gk[t]
            if fault == "shift":
                k = T.avg_k[T.row_start[g][:, None] + (np.arange(F) + 1) % F]
            acc = 0.0
            for j in range(F):
                a, b = st.take(gk[:, j]), inv.take(k[:, j])
                acc = acc + w[k[:, j], None, None] * (b @ a if fault == "reverse" else a @ b)
            out.put(g, acc)
        return out, inv
    return _average


@pytest.mark.parametrize("fault", ["weight", "reverse", "shift"])
def test_each_planted_fault_trips_residual_b(monkeypatch, s3_groupoid, fault):
    rng = np.random.default_rng(4)
    reps = [presets.random_pseudorep(s3_groupoid, rng) for _ in range(5)]
    nu = counting_haar(s3_groupoid)
    assert all(r.residual_b <= r.tol for r in verify_fundamental_identities(reps, nu))
    monkeypatch.setattr(averaging, "_average", faulty_average(fault))
    assert all(r.residual_b > 1e6 * r.tol for r in verify_fundamental_identities(reps, nu))


def s4_samples(n):
    """n gated perturbations of the permutation-plane representation of the S4 action
    groupoid, with conditioned frames and Gram metrics: 3-dimensional fibers, F = 24."""
    rng = np.random.default_rng(5)
    action = FiniteGroupAction(symmetric_group(4), list(range(4)), lambda p, u: p[u])
    G = action_groupoid(action)
    frames = [presets.conditioned(rng, 3, 0.8, 1.25) for _ in range(4)]
    rep = presets.action_representation(action, G, presets.permutation_plane_rep(4), frames)
    bundle = FiberBundle([3] * 4, [presets.random_spd(rng, 3) for _ in range(4)])
    base = PseudoRep(G, bundle, rep.maps)
    return [presets.gated_perturbation(base, rng, 1e-3)[0] for _ in range(n)], counting_haar(G)


def test_identities_split_products_stay_within_block_terms(monkeypatch):
    """With BLOCK_TERMS below F^2, the products per object split by rows and columns: no
    gather exceeds BLOCK_TERMS, and the reports keep residual_a, b and tol."""
    reps, nu = s4_samples(2)
    want = verify_fundamental_identities(reps, nu)
    assert all(r.ok for r in want)
    monkeypatch.setattr(psrep, "BLOCK_TERMS", 100)
    sizes, take = [], psrep.Stacks.take

    def counted_take(self, idx):
        out = take(self, idx)
        sizes.append(int(np.prod(out.shape[:-2])))
        return out

    monkeypatch.setattr(psrep.Stacks, "take", counted_take)
    got = verify_fundamental_identities(reps, nu)
    assert max(sizes) <= 100
    assert_reports_match_ref(got, want)
