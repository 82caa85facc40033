"""Scalar pseudo-representations of the twisted circle action, on periodic grids.

The circle acts on itself through a degree-k covering: a rotation theta moves the point a to
k*theta + a (all coordinates in units of full turns, so everything lives on [0,1) and the grid is
the N-point torus in each variable).  A scalar pseudo-representation is a grid function
Lambda(theta, a); it is multiplicative when

    Lambda(theta' + theta, a) = Lambda(theta', k*theta + a) * Lambda(theta, a),
    Lambda(0, a) = 1.

Multiplicative solutions are parameterized by a single 1/k-periodic profile f with f(0) = 0 and
f > -1/k, through the vertical-component field

    X(theta, a) = [f(theta + a/k) - f(a/k)] / (1 + k f(a/k)),   Lambda = 1 + k X.

The left-invariant average on this groupoid is the plain rotation mean

    (avg Lambda)(theta, a) = (1/N) sum_j Lambda(theta + j/N, a - k j/N)
                                       / Lambda(j/N, a - k j/N),

the rectangle rule for the continuum integral (exact for trigonometric polynomials of degree < N).
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .averaging import IterationTrace, drive
from .groupoid import write_lines
from .psrep import NonInvertible

NODE_FLOOR = 1e-12
PERIODICITY_TOL = 1e-12
# the largest grid resolution and twist a run or a CSV header may ask for; config.schema.json
# states the same maxima for N and k. They bound a circle run's N^2 buffers and N^3 work, and
# the k N refined samples of a profile.
MAX_N = 1024
MAX_TWIST = 64
# worker threads of the O(N^3) kernels: at most 2, so that order-0 scratch stays at 2 N^2
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# grid rows per worker: below 128 rows a second worker slows the kernels; at 256 it saves about
# 5 ms of a 30 ms average but adds about 0.5 MB of peak RSS, so grids below 2 * 256 rows run on
# the calling thread alone
_WORKER_ROWS = 256
_AVG_ROWS = 128  # rows per chunk of the rotation average: an (_AVG_ROWS, N) numerator per block


class NonInvertibleNode(NonInvertible):
    """Lambda vanishes (|value| <= 1e-12) at a grid node (l, i) needed by the average; its
    ``arrow`` is the node's arrow id l N + i in the action groupoid of Z/N on the N points."""

    def __init__(self, node: tuple[int, int], value: float, N: int):
        self.node, self.value = node, value
        super().__init__(node[0] * N + node[1],
                         f"|Lambda| = {abs(value):.3e} <= {NODE_FLOOR} at grid node {node}")


class NonPeriodicProfile(ValueError):
    """Profile is not 1/k-periodic, so the field does not close up on the torus."""


class ProfileOutOfRange(ValueError):
    """Some profile sample has 1 + k f <= 0, or overflows 1 + k f, X or Lambda."""


def _check_twist(twist) -> int:
    if not (isinstance(twist, (int, np.integer)) and twist >= 1):
        raise ValueError(f"twist must be a positive integer, got {twist}")
    return int(twist)


@dataclass
class TorusGridFn:
    """Samples of a doubly periodic function: values[l, i] = F(l/N, i/N), the first index the
    rotation variable theta, the second the point variable a; ``twist`` is the covering degree k."""

    values: np.ndarray
    twist: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"grid must be square, got shape {self.values.shape}")
        if self.values.shape[0] < 4:
            raise ValueError(f"grid resolution {self.values.shape[0]} below the minimum 4")
        self.twist = _check_twist(self.twist)

    @property
    def N(self) -> int:
        return self.values.shape[0]


@dataclass
class CircleProfile:
    """Samples f(j/M) of a circle profile; the generating datum of a connection."""

    samples: np.ndarray
    twist: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or len(self.samples) < 2:
            raise ValueError("profile needs a 1-d sample vector of length >= 2")
        bad = np.flatnonzero(~np.isfinite(self.samples))
        if bad.size:
            raise ValueError(f"profile sample {bad[0]} is not finite: {float(self.samples[bad[0]])!r}")
        self.twist = _check_twist(self.twist)

    @property
    def M(self) -> int:
        return len(self.samples)

    @classmethod
    def from_function(cls, f, M: int, k: int) -> "CircleProfile":
        return cls(np.asarray([f(t) for t in np.arange(M) / M], dtype=float), k)

    def twist_periodicity_defect(self) -> float:
        """max |f(t) - f(t + 1/k)| over the sample grid; requires k | M."""
        if self.M % self.twist:
            raise ValueError(f"twist {self.twist} does not divide sample count {self.M}")
        return float(np.abs(self.samples - np.roll(self.samples, -self.M // self.twist)).max())


def trig_resample(v: np.ndarray, m: int) -> np.ndarray:
    """Evaluate the trigonometric interpolant of v on a finer uniform grid."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    if m == n:
        return v.copy()
    if m < n:
        raise ValueError(f"refuse to downsample {n} -> {m}")
    F = np.fft.rfft(v)
    out = np.zeros(m // 2 + 1, dtype=complex)
    out[: len(F)] = F
    if n % 2 == 0:
        out[n // 2] *= 0.5  # split the Nyquist bin between +-n/2
    return np.fft.irfft(out, m) * (m / n)


def from_profile(profile, N: int, k: int | None = None) -> tuple[TorusGridFn, TorusGridFn]:
    """Closed-form connection field X and its effect Lambda = 1 + kX on the N-grid.

    ``profile`` is a CircleProfile (twist taken from it) or a callable f(t), sampled into one at
    resolution k*N; a CircleProfile with fewer samples is refined by trigonometric interpolation.
    Raises NonPeriodicProfile when f is not 1/k-periodic (then no doubly periodic X exists:
    multiplicativity forces f(t + 1/k) - f(t) = f(1/k)(1 + k f(t)), so the values f(j/k) form a
    strictly monotone escaping sequence instead), and ProfileOutOfRange, naming the samples, when
    some 1 + k f <= 0 or when 1 + k f, X or Lambda overflows."""
    if not isinstance(profile, CircleProfile):
        if k is None:
            raise ValueError("twist k is required with a callable profile")
        profile = CircleProfile.from_function(profile, k * N, k)
    elif k is not None and k != profile.twist:
        raise ValueError(f"twist mismatch: profile has {profile.twist}, got k={k}")
    k = profile.twist
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        fine = trig_resample(profile.samples, k * N)
    if not np.isfinite(fine).all():
        raise ValueError(f"refining the profile's {profile.M} samples to k N = {k * N} overflows")
    refined = CircleProfile(fine, k)
    if abs(fine[0]) > 1e-12:
        raise ValueError(f"profile must vanish at 0, got f(0) = {fine[0]:.3e}")
    scale = max(1.0, float(np.abs(fine).max()))
    defect = refined.twist_periodicity_defect()
    if defect > PERIODICITY_TOL * scale:
        raise NonPeriodicProfile(f"profile is not 1/{k}-periodic: max |f(t) - f(t + 1/{k})| = {defect:.3e}")
    # row l of X reads fine from offset k l (mod k N): every k-th window over fine tiled once
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([fine, fine[:N]]), N)
    with np.errstate(over="ignore"):  # an overflow is named below
        denom = 1.0 + k * fine
        if denom.min() <= 0.0:
            i = int(np.argmin(denom))
            raise ProfileOutOfRange(f"1 + k f({i}/{k * N}) = {denom[i]:.3e} <= 0")
        if not np.isfinite(denom).all():
            i = int(np.argmin(np.isfinite(denom)))
            raise ProfileOutOfRange(f"1 + k f({i}/{k * N}) overflows at f = {float(fine[i])!r}")
        X = np.subtract(windows[: k * N : k], fine[:N])
        lam = np.multiply(np.divide(X, denom[:N], out=X), k)
    if not np.isfinite(lam).all():  # X or k X overflowed
        l, i = (int(x) for x in np.argwhere(~np.isfinite(lam))[0])
        j = (k * l + i) % (k * N)
        raise ProfileOutOfRange(f"the field at grid node ({l}, {i}) overflows: f({j}/{k * N}) = "
                                f"{float(fine[j])!r}, f({i}/{k * N}) = {float(fine[i])!r}")
    return TorusGridFn(X, k), TorusGridFn(np.add(lam, 1.0, out=lam), k)


def limit_profile(L: TorusGridFn) -> CircleProfile:
    """Profile read off a multiplicative effect: f(theta) = X(theta, 0)."""
    return CircleProfile((L.values[:, 0] - 1.0) / L.twist, L.twist)


def _twisted_row(N: int, k: int):
    """(row, out) -> ``out`` set to R[l, i] = row[(k l + i) mod N], the row read at k theta + a: the
    row is tiled k' + 1 times (k' = k mod N) into one held buffer, and R is a window over it with row
    stride k' and column stride 1 (last element k'(N - 1) + N - 1), copied whole: ufuncs buffer it."""
    k %= N
    tiled = np.empty((k + 1, N))
    view = np.lib.stride_tricks.as_strided(
        tiled, (N, N), (k * tiled.itemsize, tiled.itemsize), writeable=False)

    def at(row: np.ndarray, out: np.ndarray) -> np.ndarray:
        tiled[:] = row
        np.copyto(out, view)
        return out

    return at


def _blocks(N: int) -> int:
    """min(_THREADS, N // _WORKER_ROWS), at least one: the row blocks of an N-row grid, so a grid
    below 2 _WORKER_ROWS rows starts no thread."""
    return min(_THREADS, N // _WORKER_ROWS) or 1


def _on_blocks(N: int, fn, scratch) -> list:
    """[fn(lo, hi, *scratch())] over :func:`_blocks` contiguous blocks of 0..N-1: the first on the
    caller, the rest on plain threads in copies of its context (so np.errstate holds there), all
    joined before a worker's exception is raised here.  Workers run private closures, public ones
    stay here.  Each block's scratch tuple is built here, on the calling thread, before any worker
    starts: a worker's own grid-sized buffers came from its thread's malloc arena, which
    fragmented, so circle_iterate --N 1024 peaked 4 MB higher in some runs."""
    T = _blocks(N)
    cuts, out, errors = [N * t // T for t in range(T + 1)], [None] * T, []
    kits = [scratch() for _ in range(T)]

    def run(t: int) -> None:
        try:
            out[t] = fn(cuts[t], cuts[t + 1], *kits[t])
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, t)) for t in range(1, T)]
    for w in workers:
        w.start()
    run(0)
    for w in workers:
        w.join()
    if errors:
        raise errors[0]
    return out


def _defect_slices(L: TorusGridFn):
    """(lp, out) -> writes the theta' = lp/N slice of the defect field (see
    :func:`cocycle_defect_field`) into ``out``: the product first, then the rotated rows minus
    it, in place.  Each writer holds its own twisted-row tile."""
    V, twisted = L.values, _twisted_row(L.N, L.twist)

    def slice_at(lp: int, out: np.ndarray) -> None:
        # out[l] = V[(lp + l) mod N] - B[l], as two row blocks
        n, B = len(V) - lp, np.multiply(twisted(V[lp], out), V, out=out)
        np.subtract(V[lp:], B[:n], out=out[:n])
        np.subtract(V[:lp], B[n:], out=out[n:])

    return slice_at


def cocycle_defect_field(L: TorusGridFn) -> np.ndarray:
    """D[l', l, i] = Lambda(theta'+theta, a) - Lambda(theta', k theta + a) Lambda(theta, a)."""
    D, slice_at = np.empty((L.N,) * 3), _defect_slices(L)
    for lp in range(L.N):
        slice_at(lp, D[lp])
    return D


def multiplicativity_residual(L: TorusGridFn) -> tuple[float, float]:
    """(res_cocycle, res_unit): sups over all grid triples / the unit row."""
    return float(_defect_sups(partial(_defect_slices, L), L.N, 0)[0]), float(np.abs(L.values[0] - 1.0).max())


def average_circle(L: TorusGridFn) -> TorusGridFn:
    """Rotation mean of Lambda-translate ratios; exact fixed points are the multiplicative fields.
    Unitality is preserved exactly (each j-term has value 1 on the theta = 0 row).  Raises
    NonInvertibleNode at the first node with |Lambda| <= 1e-12, e.g. the degenerate
    identically-zero effect of the constant connection X = -1/k.  Row blocks of the mean run on
    :func:`_on_blocks`, each summing its j-terms in ascending j."""
    V, N, k = L.values, L.N, L.twist
    acc = np.abs(V, out=np.empty_like(V))  # |Lambda| for the node check, then the sum
    if (acc <= NODE_FLOOR).any():
        li = tuple(int(x) for x in np.argwhere(acc <= NODE_FLOOR)[0])
        raise NonInvertibleNode(li, float(V[li]), N)
    acc.fill(0.0)

    def rows(lo: int, hi: int, chunk: np.ndarray, den: np.ndarray) -> None:
        # acc[l] += V[(l + j) mod N] / V[j], both rolled right by s = k j columns: copied from V's
        # column blocks (the numerator in row blocks before and after the wrap) into contiguous
        # buffers, so that the one division per j reads no strided operand; _AVG_ROWS rows at a time
        for c in range(lo, hi, _AVG_ROWS):
            out, num = acc[c:min(c + _AVG_ROWS, hi)], chunk[: min(_AVG_ROWS, hi - c)]
            for j in range(N):
                s, r = k * j % N, (c + j) % N
                n = min(len(out), N - r)
                for dst, src in ((num[:n], V[r:r + n]), (num[n:], V[: len(out) - n]), (den, V[j])):
                    np.copyto(dst[..., s:], src[..., : N - s])
                    np.copyto(dst[..., :s], src[..., N - s:])
                np.add(out, np.divide(num, den, out=num), out=out)
            np.divide(out, N, out=out)

    _on_blocks(N, rows, lambda: (np.empty((min(_AVG_ROWS, N), N)), np.empty(N)))
    return TorusGridFn(acc, k)


def group_bundle_average(X: TorusGridFn) -> TorusGridFn:
    """Untwisted (group bundle) vertical average: (1/N) sum_j [X(phi+j/N, a) - X(j/N, a)].

    Identically zero in exact arithmetic (the two Riemann sums run over the same sample set);
    computed honestly so the caller can assert the annihilation down to rounding."""
    V, N = X.values, X.N
    acc, base = np.zeros_like(V), np.zeros(N)
    for j in range(N):
        # the j-term is V rolled up by j rows, added as two row blocks
        np.add(acc[: N - j], V[j:], out=acc[: N - j])
        np.add(acc[N - j:], V[:j], out=acc[N - j:])
        np.add(base, V[j], out=base)
    np.subtract(acc, base, out=acc)
    return TorusGridFn(np.divide(acc, N, out=acc), X.twist)


def _absmax(D: np.ndarray) -> float:
    """max |D| from D's extremes, without a |D| pass: negation is exact, a NaN stays NaN, and
    the abs makes a field of signed zeros read +0.0."""
    return abs(max(D.max(), -D.min()))


def _central_absmax(S: np.ndarray, axis: int, D: np.ndarray) -> float:
    """max |central difference| of the periodic 2-d S along ``axis``, written into the C-ordered
    D: the interior from flat views of S shifted by one row (axis 0) or one element (axis 1),
    then the two wrap-around rows or columns over the entries it got wrong."""
    step = S.shape[1] if axis == 0 else 1
    s, d = S.reshape(-1), D.reshape(-1)
    np.subtract(s[2 * step:], s[: -2 * step], out=d[step:-step])
    s, d = np.moveaxis(S, axis, 0), np.moveaxis(D, axis, 0)
    for row, hi, lo in ((0, 1, -1), (-1, 0, -2)):
        np.subtract(s[hi], s[lo], out=d[row])
    return _absmax(D)


def _slice_maxima(S: np.ndarray, order: int, D: np.ndarray, halo) -> list:
    """Unscaled maxima of |S| and, at order 1, of its central differences along S's axes and
    across the (prev, next) ``halo``, the differences written into the scratch D.  Each sup is
    taken before any scaling, so every maximum is exact."""
    maxima = [_absmax(S)]
    if order:
        m = np.maximum(_central_absmax(S, 0, D), _central_absmax(S, 1, D))
        np.subtract(halo[1], halo[0], out=D)
        maxima.append(np.maximum(m, _absmax(D)))
    return maxima


def _defect_sups(slices, N: int, order: int) -> np.ndarray:
    """Scaled :func:`_slice_maxima` of the field whose theta' = lp/N slice ``slice_at(lp, out)``
    writes, with ``slice_at = slices()``, in one pass over theta': no N^3 field and no N^2
    allocation per step.  Each :func:`_on_blocks` worker holds a ring of the 2h + 1 slices within
    h = order of theta', whose slots rotate by index, and primes its own halo: at order 0 one
    slice, which is only read; at order 1 a (3, N, N) ring and one N^2 scratch.  The sups
    of the blocks are joined by np.maximum: exact, and a NaN stays NaN."""
    h = order

    def sups(lo: int, hi: int, slice_at, buf: np.ndarray) -> np.ndarray:
        ring, D, maxima = buf[: 2 * h + 1], buf[-1], np.zeros(order + 1)
        for lp in range(lo - h, lo + h):
            slice_at(lp % N, ring[lp % len(ring)])
        for lp in range(lo, hi):
            slice_at((lp + h) % N, ring[(lp + h) % len(ring)])
            halo = (ring[(lp - 1) % len(ring)], ring[(lp + 1) % len(ring)]) if h else None
            maxima = np.maximum(maxima, _slice_maxima(ring[lp % len(ring)], order, D, halo))
        return maxima

    maxima = _on_blocks(N, sups, lambda: (slices(), np.empty((3 * h + 1, N, N))))
    # order q scaled by 1, N/2: rounding is monotone, so a sup scaled after its max is
    # bit-equal to the max of scaled values, and a NaN stays NaN
    return reduce(np.maximum, maxima) * np.array([1.0, N / 2.0])[: order + 1]


def iterate_circle(L0: TorusGridFn, tol_c: float = 1e-12, max_iter: int = 64, order: int = 1,
                   row0: tuple[float, float, float, dict] | None = None) -> IterationTrace:
    """Repeated rotation averaging of a unital grid effect on :func:`averaging.drive`, whose rows
    read inf or NaN where a gauge overflows, without a warning.

    Rows carry b = max |Lambda|, c = the r = 0 cocycle residual, the unit-row defect, and at
    ``order=1`` (in extras) ``c_sem_r1``, the order-1 discrete seminorm of the full defect field.
    The gate is c <= (1/9) b^(-2) on the grid.

    Each row runs one defect pass of that order: at order 0, one N^2 slice per worker, against
    4 N^2 per worker at order 1.  ``row0`` is row 0, the (b, c, unit defect, extras) of ``L0``
    from a gate pass the caller already ran (:func:`multiplicativity_residual` gives the same c
    and unit defect); with it, row 0 runs no pass."""
    if order not in (0, 1):
        raise ValueError(f"seminorm order {order} not supported (use 0 or 1)")

    def gauges(lam: TorusGridFn):
        b, sups = float(np.abs(lam.values).max()), _defect_sups(partial(_defect_slices, lam), lam.N, order)
        return (b, float(sups[0]), float(np.abs(lam.values[0] - 1.0).max()),
                {"c_sem_r1": float(np.max(sups))} if order else {})

    # drive holds the only reference to each iterate, so L0 is freed once L1 exists
    start = [L0]
    del L0
    return drive(start.pop(), average_circle, gauges, tol_c, max_iter, row0)


# -- CSV formats ---------------------------------------------------------------


def save_grid_csv(F: TorusGridFn, path: str) -> None:
    """Header line "N,k", then N rows of N comma-separated values, each formatted as it is written."""
    rows = (",".join(repr(float(x)) for x in row) for row in F.values)
    write_lines(itertools.chain([f"{F.N},{F.twist}"], rows), path)


def _read_header(fh, path: str) -> tuple[int, int]:
    """The "N,k" first line of a grid or profile CSV: at least 2 samples and a twist of at
    least 1, at most MAX_N and MAX_TWIST; ValueError naming the file otherwise."""
    line = fh.readline().strip()
    try:
        N, k = (int(x) for x in line.split(","))
    except ValueError:
        raise ValueError(f"{path}: header must be two integers N,k, got {line!r}") from None
    if N < 2:
        raise ValueError(f"{path}: header {line!r} names {N} samples, fewer than 2")
    if k < 1:
        raise ValueError(f"{path}: twist must be a positive integer, got {k}")
    if N > MAX_N or k > MAX_TWIST:
        raise ValueError(f"{path}: header {line!r} is above the size limits "
                         f"N <= {MAX_N}, k <= {MAX_TWIST}")
    return N, k


def save_profile_csv(p: CircleProfile, path: str) -> None:
    """Header line "N,k", then one sample per line."""
    write_lines([f"{p.M},{p.twist}"] + [repr(float(x)) for x in p.samples], path)


def load_profile_csv(path: str) -> CircleProfile:
    """The profile of a :func:`save_profile_csv` file, blank lines skipped.  ValueError names
    the file, and the line, at a bad header, a line that is not one finite number, or a sample
    count other than the header's."""
    vals: list[float] = []
    n = 1  # the last line read
    with open(path, encoding="utf-8") as fh:
        M, k = _read_header(fh, path)
        for n, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            if len(vals) == M:
                raise ValueError(f"{path}: line {n}: a sample beyond the header's {M}")
            try:
                x = float(line)
            except ValueError:
                raise ValueError(f"{path}: line {n}: sample {line.strip()!r} is not a number") from None
            if not math.isfinite(x):
                raise ValueError(f"{path}: line {n}: sample {len(vals)} is not finite: {x!r}")
            vals.append(x)
    if len(vals) < M:
        raise ValueError(f"{path}: the file ends at line {n} with {len(vals)} of the header's "
                         f"{M} samples")
    return CircleProfile(np.array(vals), k)
