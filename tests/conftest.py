from typing import Sequence

import numpy as np
import pytest

from groupavg.bounds import Certificate, certify
from groupavg.circle import ProfileOutOfRange, TorusGridFn, _defect_sups, _read_header, _twisted_row
from groupavg.groupoid import FiniteGroupAction, FiniteGroupoid, action_groupoid, cyclic_group
from groupavg.haar import HaarSystem, counting_haar
from groupavg import presets
from groupavg.psrep import FiberBundle, PseudoRep, c_norm, cocycles, invert_stacks, metric_norms


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def s3_groupoid():
    return action_groupoid(presets.s3_action())


@pytest.fixture
def z2_groupoid():
    """Z/2 swapping the first two of three points: orbits {0,1} and {2}."""
    return action_groupoid(presets.z2_swap_action())


@pytest.fixture
def z2_haar(z2_groupoid):
    return counting_haar(z2_groupoid)


@pytest.fixture
def two_orbit_disjoint():
    """Swap groupoid on {1,2} glued with a bare unit over {3}.

    Unlike the Z/2 action groupoid, the singleton orbit here carries no
    isotropy arrow, so its unit has full Haar weight 1.
    """
    return FiniteGroupoid(
        objects=[1, 2, 3],
        src=[0, 1, 1, 0, 2],
        tgt=[0, 1, 0, 1, 2],
        compose=[
            (0, 0, 0), (1, 1, 1), (4, 4, 4),
            (0, 2, 2), (2, 1, 2), (3, 2, 1),
            (1, 3, 3), (3, 0, 3), (2, 3, 0),
        ],
        unit=[0, 1, 4],
        inverse=[0, 1, 3, 2, 4],
    )


# -- references: the list scans the composition tables replaced --------------------


def compose_dict(G):
    """The compose rows of G as a dict {(g2, g1): g21}."""
    return {(g2, g1): g21 for g2, g1, g21 in G.compose.tolist()}


def source_fiber(G, x):
    """Arrows with source object index x."""
    return [g for g in G.arrows() if G.src[g] == x]


def target_fiber(G, x):
    """Arrows with target object index x."""
    return [g for g in G.arrows() if G.tgt[g] == x]


def composable_pairs(G):
    """All (g2, g1) with src(g2) == tgt(g1), ascending lexicographic in (g1, g2)."""
    by_src = {}
    for g in G.arrows():
        by_src.setdefault(G.src[g], []).append(g)
    for g1 in G.arrows():
        for g2 in by_src.get(G.tgt[g1], []):
            yield (g2, g1)


# -- helpers of the tests that no run of the package calls ------------------------------


def operator_norm(
    A: np.ndarray, phi_src: np.ndarray | None = None, phi_dst: np.ndarray | None = None
) -> float:
    """Metric-weighted spectral norm; plain largest singular value when metrics are None.

    ``phi_src``/``phi_dst`` are raw Gram matrices, factored here on every call.
    Code on the hot path should go through :func:`metric_norms` with a
    :class:`FiberBundle`, which caches the factors per object.
    """
    M = np.asarray(A, dtype=float)
    bundle = FiberBundle(dims=[M.shape[1], M.shape[0]], metrics=[phi_src, phi_dst])
    return float(metric_norms(bundle, M[None], np.array([0]), np.array([1]), 0.0))


def delta_cocycle(rep: PseudoRep, g: int, h: int) -> np.ndarray:
    """Difference cocycle on the divisible pair (g, h): lambda_g lambda_h^(-1) - lambda_{gh^(-1)},
    read from the stacked kernel :func:`cocycles` at the slot ``row_start[g h^(-1)] + fiber_pos[h]``
    of its averaging triple (g h^(-1), h).

    Returns the matrix of a map fiber(tgt h) -> fiber(tgt g).
    """
    G, T = rep.groupoid, rep.groupoid.tables
    if G.src[g] != G.src[h]:
        raise ValueError(f"({g},{h}) is not a divisible pair: sources differ")
    st = rep.stacks()
    slot = T.row_start[G.mul(g, G.inverse[h])] + T.fiber_pos[h]
    return cocycles(st, invert_stacks(st), T).take(np.array([slot]))[0]


class NotInvariant(ValueError):
    """Requested object subset is not a union of orbits."""


def restrict(G: FiniteGroupoid, objs: Sequence[int]) -> tuple[FiniteGroupoid, list[int]]:
    """Full subgroupoid on a union of orbits.

    ``objs`` are object indices.  Returns the restricted groupoid and the
    list of kept arrow ids in ascending order (new arrow i is old arrow
    ``kept[i]``).  Raises NotInvariant unless objs is a union of orbits.
    """
    want = set(objs)
    union: set[int] = set()
    for block in G.orbits():
        if want & set(block):
            union.update(block)
    if union != want:
        raise NotInvariant(
            f"object set {sorted(want)} is not a union of orbits "
            f"(closure is {sorted(union)})"
        )
    keep_obj = sorted(want)
    obj_new = {x: i for i, x in enumerate(keep_obj)}
    kept = [g for g in G.arrows() if G.src[g] in want]
    arr_new = np.full(G.n_arrows, -1)
    arr_new[kept] = np.arange(len(kept))
    rows = arr_new[G.compose]
    sub = FiniteGroupoid(
        objects=[G.objects[x] for x in keep_obj],
        src=[obj_new[G.src[g]] for g in kept],
        tgt=[obj_new[G.tgt[g]] for g in kept],
        compose=rows[(rows[:, :2] >= 0).all(axis=1)],
        unit=arr_new[[G.unit[x] for x in keep_obj]].tolist(),
        inverse=arr_new[[G.inverse[g] for g in kept]].tolist(),
        arrow_labels=None
        if G.arrow_labels is None
        else [G.arrow_labels[g] for g in kept],
    )
    return sub, kept


def restrict_haar(
    nu: HaarSystem, objs: Sequence[int]
) -> tuple[HaarSystem, FiniteGroupoid, list[int]]:
    """Restrict to the full subgroupoid on a union of orbits.

    For an invariant object set no fiber mass escapes, so the weights carry
    over unchanged (re-normalization divides by per-fiber sums, which are 1).
    Returns (restricted system, restricted groupoid, kept arrow ids).
    Raises NotInvariant when objs is not a union of orbits.
    """
    sub, kept = restrict(nu.groupoid, objs)
    weights = [nu.weights[k] for k in kept]
    fiber_sum: dict[int, float] = {}
    for i, k in enumerate(kept):
        x = sub.tgt[i]
        fiber_sum[x] = fiber_sum.get(x, 0) + weights[i]
    weights = [w / fiber_sum[sub.tgt[i]] for i, w in enumerate(weights)]
    return HaarSystem(sub, weights), sub, kept


def restrict_rep(rep: PseudoRep, objs: Sequence[int]) -> PseudoRep:
    """Restriction to the full subgroupoid on a union of orbits."""
    sub, kept = restrict(rep.groupoid, objs)
    keep_obj = sorted(set(objs))
    bundle = FiberBundle(
        dims=[rep.bundle.dims[x] for x in keep_obj],
        metrics=[rep.bundle.metrics[x] for x in keep_obj],
    )
    return PseudoRep(sub, bundle, [rep.maps[g].copy() for g in kept])


def effect_from_connection(X: TorusGridFn) -> TorusGridFn:
    return TorusGridFn(1.0 + X.twist * X.values, X.twist)


def connection_from_effect(L: TorusGridFn) -> TorusGridFn:
    return TorusGridFn((L.values - 1.0) / L.twist, L.twist)


def connection_residual(X: TorusGridFn) -> float:
    """Sup residual of the multiplicativity equation written at the connection level:

    X(theta'+theta, a) = X(theta, a) + X(theta', k theta + a) (1 + k X(theta, a)).
    Algebraically, effect residual = k * connection residual, triple by triple.

    Its theta' slice, (rotated - X) - twisted * (1 + k X), has three operands, so each writer
    holds a product buffer besides its twisted-row tile; the sup runs on the order-0 pass.
    """
    V, effect = X.values, 1.0 + X.twist * X.values

    def slices():
        twisted, prod = _twisted_row(X.N, X.twist), np.empty_like(V)

        def slice_at(lp: int, out: np.ndarray) -> None:
            n = len(V) - lp
            np.subtract(V[lp:], V[:n], out=out[:n])
            np.subtract(V[:lp], V[n:], out=out[n:])
            np.subtract(out, np.multiply(twisted(V[lp], prod), effect, out=prod), out=out)

        return slice_at

    return float(_defect_sups(slices, X.N, 0)[0])


def profile_twist_orbit(step_value: float, k: int) -> list[float]:
    """The forced values f(0), f(1/k), ..., f(k/k) when f(1/k) = step_value != 0.

    Multiplicativity on the plane forces f(t + 1/k) - f(t) = f(1/k)(1 + k f(t));
    iterating from f(0) = 0 with f > -1/k makes the sequence strictly monotone,
    so f(1) != f(0) and no 1-periodic (let alone 1/k-periodic) profile exists.
    """
    vals = [0.0]
    for _ in range(k):
        t = vals[-1]
        if 1.0 + k * t <= 0.0:
            raise ProfileOutOfRange(f"orbit left the admissible range at f = {t}")
        vals.append(t + step_value * (1.0 + k * t))
    return vals


def load_grid_csv(path: str) -> TorusGridFn:
    """The grid written by :func:`groupavg.circle.save_grid_csv`."""
    with open(path, encoding="utf-8") as fh:
        N, k = _read_header(fh, path)
        vals = np.loadtxt(fh, delimiter=",", ndmin=2)
    if vals.shape != (N, N):
        raise ValueError(f"grid payload {vals.shape} does not match header N = {N}")
    return TorusGridFn(vals, k)


def random_unital_pseudorep(rep0: PseudoRep, rng: np.random.Generator, delta: float) -> PseudoRep:
    """Unital input with defect c < 0.9: perturb a genuine representation off
    the units and shrink the perturbation until under that cap."""
    for _ in range(60):
        cand = presets.perturb_rep(rep0, rng, delta)
        if c_norm(cand) < 0.9:
            return cand
        delta *= 0.6
    raise RuntimeError("could not reach requested defect cap")


def near_singular_z2_rep() -> PseudoRep:
    """Z/2 on one object with 3-dim fibers: lambda(e) = I, and lambda(s) with singular values 1,
    1e-5 and 1e-10 in random frames.  The start is unital, but the first step's unit,
    (I + lambda(s) lambda(s)^-1) / 2, carries the inverse's rounding: a unit defect near 1e-7."""
    G = action_groupoid(FiniteGroupAction(cyclic_group(2), [1], lambda g, u: u))
    rng = presets.UniformStream(0)
    U, V = presets.orthogonal(rng, 3), presets.orthogonal(rng, 3)
    return PseudoRep(G, FiberBundle.uniform(1, 3), [np.eye(3), U @ np.diag([1.0, 1e-5, 1e-10]) @ V.T])


def certificate(trace) -> Certificate:
    """The certificate of a trace's b and c columns."""
    return certify([r.b for r in trace.rows], [r.c for r in trace.rows])
