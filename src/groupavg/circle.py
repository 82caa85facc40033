"""Scalar pseudo-representations of the twisted circle action, on periodic grids.

The circle acts on itself through a degree-k covering: a rotation theta moves
the point a to k*theta + a (all coordinates in units of full turns, so
everything lives on [0,1) and the grid is the N-point torus in each variable).
A scalar pseudo-representation is a grid function Lambda(theta, a); it is
multiplicative when

    Lambda(theta' + theta, a) = Lambda(theta', k*theta + a) * Lambda(theta, a),
    Lambda(0, a) = 1.

Multiplicative solutions are parameterized by a single 1/k-periodic profile f
with f(0) = 0 and f > -1/k, through the vertical-component field

    X(theta, a) = [f(theta + a/k) - f(a/k)] / (1 + k f(a/k)),   Lambda = 1 + k X.

The left-invariant average on this groupoid is the plain rotation mean

    (avg Lambda)(theta, a) = (1/N) sum_j Lambda(theta + j/N, a - k j/N)
                                       / Lambda(j/N, a - k j/N),

the rectangle rule for the continuum integral (exact for trigonometric
polynomials of degree < N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import IterationTrace, drive
from .psrep import NonInvertible

NODE_FLOOR = 1e-12
PERIODICITY_TOL = 1e-12


class NonInvertibleNode(NonInvertible):
    """Lambda vanishes (|value| <= 1e-12) at a grid node needed by the average."""

    def __init__(self, node: tuple[int, int], value: float):
        self.node = node
        self.value = value
        self.extras = {"bad_node_theta": float(node[0]), "bad_node_a": float(node[1])}
        super().__init__(None, f"|Lambda| = {abs(value):.3e} <= {NODE_FLOOR} at grid node {node}")


class NonPeriodicProfile(ValueError):
    """Profile is not 1/k-periodic, so the field does not close up on the torus."""


class ProfileOutOfRange(ValueError):
    """Some profile sample has 1 + k f <= 0."""


def _check_twist(twist) -> int:
    if not (isinstance(twist, (int, np.integer)) and twist >= 1):
        raise ValueError(f"twist must be a positive integer, got {twist}")
    return int(twist)


@dataclass
class TorusGridFn:
    """Samples of a doubly periodic function: values[l, i] = F(l/N, i/N).

    First index is the rotation variable theta, second the point variable a;
    ``twist`` is the covering degree k.
    """

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
        grid = np.arange(M) / M
        return cls(np.asarray([f(t) for t in grid], dtype=float), k)

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

    ``profile`` is a CircleProfile (twist taken from it) or a callable f(t)
    sampled at resolution k*N; a CircleProfile with fewer samples is refined by
    trigonometric interpolation.  Raises NonPeriodicProfile when f is not
    1/k-periodic (then no doubly periodic X exists: the values f(j/k) form a
    strictly monotone escaping sequence instead, see profile_twist_orbit), and
    ProfileOutOfRange when some 1 + k f <= 0.
    """
    if isinstance(profile, CircleProfile):
        if k is not None and k != profile.twist:
            raise ValueError(f"twist mismatch: profile has {profile.twist}, got k={k}")
        k = profile.twist
        fine = trig_resample(profile.samples, k * N)
    else:
        if k is None:
            raise ValueError("twist k is required with a callable profile")
        grid = np.arange(k * N) / (k * N)
        fine = np.asarray([profile(t) for t in grid], dtype=float)
    if abs(fine[0]) > 1e-12:
        raise ValueError(f"profile must vanish at 0, got f(0) = {fine[0]:.3e}")
    scale = max(1.0, float(np.abs(fine).max()))
    defect = float(np.abs(fine - np.roll(fine, -N)).max())
    if defect > PERIODICITY_TOL * scale:
        raise NonPeriodicProfile(
            f"profile is not 1/{k}-periodic: max |f(t) - f(t + 1/{k})| = {defect:.3e}"
        )
    denom = 1.0 + k * fine
    if denom.min() <= 0.0:
        i = int(np.argmin(denom))
        raise ProfileOutOfRange(f"1 + k f({i}/{k * N}) = {denom[i]:.3e} <= 0")
    ls, isx = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    X = (fine[(k * ls + isx) % (k * N)] - fine[isx]) / denom[isx]
    return TorusGridFn(X, k), TorusGridFn(1.0 + k * X, k)


def effect_from_connection(X: TorusGridFn) -> TorusGridFn:
    return TorusGridFn(1.0 + X.twist * X.values, X.twist)


def connection_from_effect(L: TorusGridFn) -> TorusGridFn:
    return TorusGridFn((L.values - 1.0) / L.twist, L.twist)


def limit_profile(L: TorusGridFn) -> CircleProfile:
    """Profile read off a multiplicative effect: f(theta) = X(theta, 0)."""
    return CircleProfile((L.values[:, 0] - 1.0) / L.twist, L.twist)


def _twist_cols(N: int, k: int) -> np.ndarray:
    """cols[l, i] = (k l + i) mod N, the grid column of k theta + a."""
    idx = np.arange(N)
    return (k * idx[:, None] + idx[None, :]) % N


def _defect_slices(L: TorusGridFn):
    """lp -> the theta' = lp/N slice of the defect field (see :func:`cocycle_defect_field`)."""
    V, idx, cols = L.values, np.arange(L.N), _twist_cols(L.N, L.twist)
    return lambda lp: V[(lp + idx) % L.N, :] - V[lp, cols] * V


def cocycle_defect_field(L: TorusGridFn) -> np.ndarray:
    """D[l', l, i] = Lambda(theta'+theta, a) - Lambda(theta', k theta + a) Lambda(theta, a)."""
    slice_at = _defect_slices(L)
    return np.stack([slice_at(lp) for lp in range(L.N)])


def multiplicativity_residual(L: TorusGridFn) -> tuple[float, float]:
    """(res_cocycle, res_unit): sups over all grid triples / the unit row."""
    return float(_defect_sups(_defect_slices(L), L.N, 0)[0]), float(np.abs(L.values[0] - 1.0).max())


def connection_residual(X: TorusGridFn) -> float:
    """Sup residual of the multiplicativity equation written at the connection level:

    X(theta'+theta, a) = X(theta, a) + X(theta', k theta + a) (1 + k X(theta, a)).
    Algebraically, effect residual = k * connection residual, triple by triple.
    """
    V, N, k = X.values, X.N, X.twist
    idx, cols, effect = np.arange(N), _twist_cols(N, k), 1.0 + k * V
    return float(_defect_sups(lambda lp: V[(lp + idx) % N] - V - V[lp, cols] * effect, N, 0)[0])


def average_circle(L: TorusGridFn) -> TorusGridFn:
    """Rotation mean of Lambda-translate ratios; exact fixed points are the
    multiplicative fields.  Unitality is preserved exactly (each j-term has
    value 1 on the theta = 0 row).  Raises NonInvertibleNode at the first node
    with |Lambda| <= 1e-12, e.g. the degenerate identically-zero effect of the
    constant connection X = -1/k."""
    V, N, k = L.values, L.N, L.twist
    small = np.abs(V) <= NODE_FLOOR
    if small.any():
        node = np.argwhere(small)[0]
        li = (int(node[0]), int(node[1]))
        raise NonInvertibleNode(li, float(V[li]))
    acc = np.zeros_like(V)
    for j in range(N):
        num = np.roll(V, (-j, k * j), (0, 1))
        den = np.roll(V[j], k * j)[None, :]
        acc = acc + num / den
    return TorusGridFn(acc / N, k)


def group_bundle_average(X: TorusGridFn) -> TorusGridFn:
    """Untwisted (group bundle) vertical average: (1/N) sum_j [X(phi+j/N, a) - X(j/N, a)].

    Identically zero in exact arithmetic (the two Riemann sums run over the
    same sample set); computed honestly so the caller can assert the
    annihilation down to rounding.
    """
    V, N = X.values, X.N
    acc = np.zeros_like(V)
    base = np.zeros(N)
    for j in range(N):
        acc = acc + np.roll(V, -j, axis=0)
        base = base + V[j]
    return TorusGridFn((acc - base[None, :]) / N, X.twist)


def discrete_seminorm(F: TorusGridFn, r: int) -> float:
    """Sup norm plus N-scaled central differences of orders <= r (r in {0,1,2}).

    Differences are taken in each grid variable separately (no mixed terms);
    step h = 1/N, so order 1 scales by N/2 and order 2 by N^2.
    """
    return float(_slice_sups(F.values, _order(r), F.N).max())


def _order(r: int) -> int:
    """``r``, checked to be a supported seminorm order."""
    if r not in (0, 1, 2):
        raise ValueError(f"seminorm order {r} not supported (use 0, 1 or 2)")
    return r


def _slice_sups(S: np.ndarray, order: int, N: int, halo=()) -> np.ndarray:
    """Sups of |S| and its N-scaled differences up to ``order``: along S's axes, across ``halo``."""
    sups = np.array([np.abs(S).max()] + [0.0] * order)
    rolls = ((np.roll(S, 1, axis), np.roll(S, -1, axis)) for axis in range(S.ndim))
    for lo, hi in [*rolls, *halo] if order else ():
        sups[1] = np.maximum(sups[1], np.abs(hi - lo).max() * (N / 2.0))
        if order == 2:
            sups[2] = np.maximum(sups[2], np.abs(hi - 2.0 * S + lo).max() * N**2)
    return sups


def _defect_sups(slice_at, N: int, order: int) -> np.ndarray:
    """:func:`_slice_sups` of the field with theta' = lp/N slice ``slice_at(lp)``, in one pass
    over theta' with a (prev, next) halo: no N^3 field.  A sup scaled after its max is exact
    (rounding is monotone), and a NaN anywhere makes the sups NaN.  Order 0 holds no slice
    across steps: one held N^2 slice made glibc fault in fresh pages for every temporary,
    and the N = 256 residual 1.5x slower."""
    sups = np.zeros(order + 1)
    prev, cur = (slice_at(N - 1), slice_at(0)) if order else (None, None)
    for lp in range(N):
        nxt = slice_at((lp + 1) % N) if order else None
        sups = np.maximum(
            sups, _slice_sups(slice_at(lp) if cur is None else cur, order, N, [(prev, nxt)]))
        prev, cur = cur, nxt
    return sups


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


def iterate_circle(L0: TorusGridFn, tol_c: float = 1e-12, max_iter: int = 64,
                   seminorm_orders: tuple[int, ...] = (0, 1)) -> IterationTrace:
    """Repeated rotation averaging of a unital grid effect; see :func:`averaging.drive`.

    Rows carry b = max |Lambda|, c = the r = 0 cocycle residual, the unit-row
    defect, and (in extras) discrete seminorms of the full defect field for
    each requested order; a vanishing node adds its indices to the last row.
    The gate is the scalar inequality c <= (1/9) b^(-2) on the grid.
    """
    order = max(map(_order, seminorm_orders), default=0)

    def gauges(lam: TorusGridFn):
        sups = _defect_sups(_defect_slices(lam), lam.N, order)
        return (float(np.abs(lam.values).max()), float(sups[0]),
                float(np.abs(lam.values[0] - 1.0).max()),
                {f"c_sem_r{r}": float(sups[: r + 1].max()) for r in seminorm_orders})

    return drive(L0, average_circle, gauges, tol_c, max_iter)


# -- CSV formats ---------------------------------------------------------------


def save_grid_csv(F: TorusGridFn, path: str) -> None:
    """Header line "N,k", then N rows of N comma-separated values."""
    lines = [f"{F.N},{F.twist}"]
    for row in F.values:
        lines.append(",".join(repr(float(x)) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_header(fh, path: str) -> tuple[int, int]:
    """The "N,k" first line of a grid or profile CSV; ValueError naming the file otherwise."""
    line = fh.readline().strip()
    try:
        N, k = (int(x) for x in line.split(","))
    except ValueError:
        raise ValueError(f"{path}: header must be two integers N,k, got {line!r}") from None
    return N, k


def load_grid_csv(path: str) -> TorusGridFn:
    with open(path, encoding="utf-8") as fh:
        N, k = _read_header(fh, path)
        vals = np.loadtxt(fh, delimiter=",", ndmin=2)
    if vals.shape != (N, N):
        raise ValueError(f"grid payload {vals.shape} does not match header N = {N}")
    return TorusGridFn(vals, k)


def save_profile_csv(p: CircleProfile, path: str) -> None:
    """Header line "N,k", then one sample per line."""
    lines = [f"{p.M},{p.twist}"] + [repr(float(x)) for x in p.samples]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_profile_csv(path: str) -> CircleProfile:
    with open(path, encoding="utf-8") as fh:
        M, k = _read_header(fh, path)
        vals = np.loadtxt(fh, ndmin=1)
    if len(vals) != M:
        raise ValueError(f"profile payload length {len(vals)} does not match header {M}")
    return CircleProfile(vals, k)
