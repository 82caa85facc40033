"""Bundled example groupoids, representations and seeded random generators.

Everything here is deterministic given its seeded generator, which need only draw uniforms:
:class:`UniformStream`, which equals ``np.random.default_rng(seed).uniform`` bit for bit without
importing numpy.random, or a numpy Generator.  Normals are built from uniforms by Box-Muller.  So
the CLI can promise byte-identical artifacts for a fixed config and seed, on any number of CPUs.
"""

from __future__ import annotations

import itertools

import numpy as np

from .groupoid import FiniteGroupAction, FiniteGroupoid, action_groupoid, symmetric_group, cyclic_group
from .bounds import gate_holds
from .psrep import FiberBundle, PseudoRep, PseudoRepBatch, b_by_orbit, c_by_orbit

# the gate-rescale loop accepts a candidate a tenth inside the gate
RESCALE_SAFETY = 0.9
# rows per block of the noise field: one (64, N) scratch, 0.5 MB at N = 1024, not an N^2 grid
_FIELD_ROWS = 64


def s3_action() -> FiniteGroupAction:
    """S3 permuting three points; the bundled transitive example."""
    return FiniteGroupAction(symmetric_group(3), [0, 1, 2], lambda p, u: p[u])


def z2_swap_action() -> FiniteGroupAction:
    """Z/2 on {1,2,3}: swaps 1 and 2, fixes 3.  Two orbits."""
    flip = {1: 2, 2: 1, 3: 3}
    return FiniteGroupAction(cyclic_group(2), [1, 2, 3], lambda g, u: flip[u] if g else u)


def _signed_q(a: np.ndarray) -> np.ndarray:
    """Q factors of the stacked matrices ``a``, each column signed by its R diagonal."""
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0, 1), one per uniform, by Box-Muller on consecutive
    pairs of the last axis: (u, v) gives r cos(2 pi v), r sin(2 pi v), r = sqrt(-2 log(1 - u))."""
    r, t = np.sqrt(-2.0 * np.log1p(-u[..., 0::2])), 2.0 * np.pi * u[..., 1::2]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(u.shape)


def orthogonal(rng: UniformStream, n: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix with a deterministic sign convention, from the normals
    of n^2 uniforms (one more when n^2 is odd)."""
    k = n * n
    return _signed_q(_box_muller(rng.uniform(0.0, 1.0, size=(k + k % 2,)))[:k].reshape(n, n))


def conditioned(rng: UniformStream, n: int, smin: float, smax: float,
                batch: int | None = None) -> np.ndarray:
    """Random n x n matrix with singular values uniform in [smin, smax].

    Each matrix draws n + 2 n^2 uniforms: its singular values smin + (smax - smin) u, then the
    normals of its two orthogonal factors.  With ``batch``, a stack of that many, equal to as
    many single draws in turn: one (batch, n + 2 n^2) draw, and one stacked QR factors them all.
    """
    S = 1 if batch is None else batch
    u = rng.uniform(0.0, 1.0, size=(S, n + 2 * n * n))
    q = _signed_q(_box_muller(u[:, n:]).reshape(S, 2, n, n))
    out = (q[:, 0] * (smin + (smax - smin) * u[:, None, :n])) @ q[:, 1]
    return out if batch is not None else out[0]


def random_spd(rng: UniformStream, n: int, emin: float = 0.5, emax: float = 2.0) -> np.ndarray:
    q = orthogonal(rng, n)
    return (q * rng.uniform(emin, emax, size=n)) @ q.T


def permutation_plane_rep(n: int) -> dict[tuple, np.ndarray]:
    """The (n-1)-dim orthogonal representation of S_n: permutation matrices
    restricted to the plane orthogonal to the all-ones vector."""
    basis = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, : n - 1]
    # the permutation matrix of p has its 1 of column j in row p[j]
    return {p: basis.T @ np.eye(n)[:, list(p)] @ basis for p in itertools.permutations(range(n))}


def action_representation(
    action: FiniteGroupAction,
    AG: FiniteGroupoid,
    rho: dict,
    frames: list[np.ndarray],
) -> PseudoRep:
    """Genuine representation lambda(g,u) = P_{g.u}^(-1) rho(g) P_u on the action groupoid.

    ``rho`` maps group arrow labels to matrices; ``frames`` is one invertible
    matrix per point, all of the common size of rho's values.
    """
    dim = frames[0].shape[0]
    bundle = FiberBundle.uniform(AG.n_objects, dim)
    inv_frames = [np.linalg.inv(P) for P in frames]
    maps = [inv_frames[AG.tgt[a]] @ rho[AG.arrow_labels[a][0]] @ frames[AG.src[a]] for a in AG.arrows()]
    return PseudoRep(AG, bundle, maps)


def s3_example_rep(rng: UniformStream) -> tuple[FiniteGroupoid, PseudoRep]:
    """Rank-2 genuine representation of the S3 action groupoid, random frames."""
    act = s3_action()
    AG = action_groupoid(act)
    rho = permutation_plane_rep(3)
    frames = [conditioned(rng, 2, 0.8, 1.25) for _ in range(3)]
    return AG, action_representation(act, AG, rho, frames)


def z2_example_rep(rng: UniformStream, dim: int = 2) -> tuple[FiniteGroupoid, PseudoRep]:
    """Genuine rank-``dim`` representation of the two-orbit Z/2 action groupoid."""
    act = z2_swap_action()
    AG = action_groupoid(act)
    rho = {0: np.eye(dim), 1: np.diag([-1.0] + [1.0] * (dim - 1))}
    frames = [conditioned(rng, dim, 0.8, 1.25) for _ in range(3)]
    return AG, action_representation(act, AG, rho, frames)


def random_pseudorep(
    G: FiniteGroupoid, rng: UniformStream, dim: int = 2, metrics: bool = False,
    count: int | None = None,
) -> PseudoRep | PseudoRepBatch:
    """Invertible pseudo-representation: every arrow an independent conditioned matrix with
    singular values in [0.5, 1.5] (units included, so generally not unital).

    With ``count`` (and no metrics), a batch of that many sharing one bundle, equal to as many
    single draws in turn: one :func:`conditioned` call draws all their maps, stacked."""
    if count is not None and metrics:
        raise ValueError("samples drawn together have no metrics")
    mets = [random_spd(rng, dim) for _ in range(G.n_objects)] if metrics else []
    bundle = FiberBundle([dim] * G.n_objects, mets)
    maps = conditioned(rng, dim, 0.5, 1.5, (1 if count is None else count) * G.n_arrows)
    if count is None:
        return PseudoRep(G, bundle, list(maps))
    return PseudoRepBatch(G, bundle, maps.reshape(count, G.n_arrows, dim, dim))


def perturb_rep(rep: PseudoRep, rng: UniformStream, delta: float) -> PseudoRep:
    """Entrywise uniform [-delta, delta] noise off the unit arrows, which stay exact
    (their noise is drawn and dropped)."""
    out = rep.copy()
    units = set(rep.groupoid.unit)
    for g in rep.groupoid.arrows():
        noise = rng.uniform(-delta, delta, size=out.maps[g].shape)
        if g not in units:
            out.maps[g] = out.maps[g] + noise
    return out


def rescale_to_gate(make, gauges, delta: float):
    """The first of make(delta), make(0.7 delta), ... whose gauges pass the gate
    c <= 0.9 (1/9) b^(-2), with the amplitude used and those gauges: ``gauges(cand)`` gives
    (b, c) by orbit, as two lists, and may add further measures; the gate reads the maxima of
    the two lists.

    A candidate whose gauges overflow fails the gate.  Raises ValueError naming ``delta`` when
    none of the first 200 amplitudes passes."""
    scale = delta
    for _ in range(200):
        cand = make(scale)
        with np.errstate(over="ignore", invalid="ignore"):
            bc = gauges(cand)
            ok = gate_holds(max(bc[0]), max(bc[1]), RESCALE_SAFETY)
        if ok:
            return cand, scale, bc
        del cand  # a rejected candidate dies before the next is built
        scale *= 0.7
    raise ValueError(f"perturbation amplitude {delta!r} does not pass the gate in 200 rescales")


def gated_start(rep0: PseudoRep, rng: UniformStream,
                delta: float) -> tuple[PseudoRep, float, tuple[list[float], list[float]]]:
    """Perturb a representation and rescale the noise to the global gate.

    The global gate c <= (1/9) b^(-2) implies the per-orbit gate (orbit values are dominated by
    the global ones), and makes the doubly exponential envelope at (b0, c0) a theorem for the
    whole trace.  Returns the gated pseudo-representation, the noise amplitude used, and its
    b and c by orbit, which :func:`averaging.iterate` takes as ``by_orbit``."""
    noise = perturb_rep(rep0, rng, 1.0)
    diff = [noise.maps[g] - rep0.maps[g] for g in rep0.groupoid.arrows()]

    def make(scale: float) -> PseudoRep:
        cand = rep0.copy()
        for g in rep0.groupoid.arrows():
            cand.maps[g] = cand.maps[g] + scale * diff[g]
        return cand

    return rescale_to_gate(make, lambda cand: (b_by_orbit(cand), c_by_orbit(cand)), delta)


def gated_perturbation(rep0: PseudoRep, rng: UniformStream, delta: float) -> tuple[PseudoRep, float]:
    """:func:`gated_start` without the gauges: the gated pseudo-representation and its amplitude."""
    return gated_start(rep0, rng, delta)[:2]


# bit masks and the PCG64 multiplier (O'Neill, HMC-CS-2014-0905); the hex constants in _pcg64_seed
# and _mix are numpy's SeedSequence hash and mix constants
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call xors the running constant in, steps the constant and
    multiplies by it, modulo 2^32."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * mult) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ (r >> 16)


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """The 128-bit state and increment of ``np.random.PCG64(seed)``: the seed's little-endian
    32-bit words mixed into SeedSequence's pool of four, four 64-bit words generated from the
    pool, then PCG's seeding steps with the first two as the state and the last two as the
    stream."""
    if seed < 0:
        raise ValueError(f"seed {seed!r} is negative")
    words = [(seed >> s) & _M32 for s in range(0, seed.bit_length(), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    w64 = [out[i] | (out[i + 1] << 32) for i in range(0, 8, 2)]
    inc = (((w64[2] << 64 | w64[3]) << 1) | 1) & _M128
    return (((w64[0] << 64 | w64[1]) + inc) * _PCG_MULT + inc) & _M128, inc


class UniformStream:
    """``np.random.default_rng(seed).uniform(low, high[, size])`` bit for bit: a PCG64 seeded as
    numpy seeds it, stepped before each XSL-RR output x, and ``low + (high - low) * (x >> 11)
    2^-53`` per draw, in C order for a shape ``size`` (an int n is the shape (n,)), a Python
    float without one.  A run that draws only from it never imports numpy.random, which loads
    OpenSSL through ``secrets``.

    The state is one Python integer.  A draw takes its states by doubling, as uint64 (hi, lo)
    pairs: with S[0] the next state and (A_m, C_m) the affine map of m steps,
    S[m:2m] = A_m S[0:m] + C_m.  A draw of no values leaves the state where it was."""

    def __init__(self, seed: int):
        self._state, self._inc = _pcg64_seed(seed)

    def _units(self, n: int) -> np.ndarray:
        if not n:
            return np.empty(0)
        hi, lo = np.empty(n, np.uint64), np.empty(n, np.uint64)
        s = (self._state * _PCG_MULT + self._inc) & _M128
        hi[0], lo[0] = s >> 64, s & _M64
        A, C, m = _PCG_MULT, self._inc, 1
        while m < n:  # S[m:m+k] = A S[:k] + C, the low halves' product from 32-bit pieces
            k = min(m, n - m)
            s_hi, s_lo = hi[:k], lo[:k]
            l0, l1, a0, a1 = s_lo & _M32, s_lo >> 32, A & _M32, (A >> 32) & _M32
            p00, p01, p10 = l0 * a0, l1 * a0, l0 * a1
            mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
            low = (p00 & _M32) | (mid << 32)
            lo[m:m + k] = low + (C & _M64)
            hi[m:m + k] = (l1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + s_lo * (A >> 64)
                           + s_hi * (A & _M64) + (C >> 64) + (lo[m:m + k] < low))
            A, C, m = A * A & _M128, (A * C + C) & _M128, 2 * m
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> 58
        return ((x >> rot | x << (-rot & 63)) >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: int | tuple[int, ...] | None = None):
        if size is None:
            return low + (high - low) * float(self._units(1)[0])
        return (low + (high - low) * self._units(int(np.prod(size)))).reshape(size)


def smooth_torus_field(rng: UniformStream, N: int) -> np.ndarray:
    """Random trigonometric polynomial of degree <= 3 on the N x N torus, over 16: the constant,
    then a cos and a sin coefficient for each mode (m, n) in row order, uniform in [-1, 1], drawn
    first.  By angle addition, with C[m] = cos(m t), S[m] = sin(m t) and t = 2 pi l / N, mode (m, n)
    is (cm C[m] + sm S[m]) x C[n] + (sm C[m] - cm S[m]) x S[n], added in order by row blocks."""
    const, coeffs = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, size=(15, 2))
    modes = [mn for mn in itertools.product(range(4), repeat=2) if any(mn)]
    mt = np.arange(4)[:, None] * (2 * np.pi * np.arange(N) / N)
    C, S, out = np.cos(mt), np.sin(mt), np.full((N, N), const)
    scratch = np.empty((min(N, _FIELD_ROWS), N))
    for lo in range(0, N, _FIELD_ROWS):
        r, block = slice(lo, lo + _FIELD_ROWS), out[lo:lo + _FIELD_ROWS]
        for (m, n), (cm, sm) in zip(modes, coeffs):
            for u, v in ((cm * C[m, r] + sm * S[m, r], C[n]), (sm * C[m, r] - cm * S[m, r], S[n])):
                np.add(block, np.multiply(u[:, None], v, out=scratch[: len(block)]), out=block)
        np.divide(block, 16, out=block)
    return out
