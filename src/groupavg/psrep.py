"""Pseudo-representations of finite groupoids on metric fiber bundles.

A pseudo-representation assigns to each arrow g a matrix mapping the fiber over
src(g) to the fiber over tgt(g); no functoriality is assumed.  All norms are
metric-weighted spectral norms: a map A between fibers carrying Gram matrices
phi_src, phi_dst has

    ||A|| = largest singular value of phi_dst^(1/2) A phi_src^(-1/2).

The two scalar gauges of a pseudo-representation are

    b = max over arrows of ||lambda_g||,
    c = max over composable pairs of ||lambda_{g2 g1} - lambda_{g2} lambda_{g1}||,

and the failure of functoriality on divisible pairs (same source) is the
difference cocycle  Delta(g, h) = lambda_g lambda_h^(-1) - lambda_{g h^(-1)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from .bounds import GATE_COEFF, gate_holds, square
from .groupoid import CompositionTables, FiniteGroupoid, arrow_keyed, json_object, read_json, write_json

COND_LIMIT = 1e12
METRIC_EIG_FLOOR = 1e-12


class DegenerateMetric(ValueError):
    """A Gram matrix is not symmetric positive definite."""


class NonInvertible(ValueError):
    """An averaging step met a value singular past the conditioning limit, or a finite mean that
    overflowed, at ``arrow``: a finite arrow id, or a circle grid node's (see
    :class:`circle.NonInvertibleNode`)."""

    def __init__(self, arrow: int, message: str | None = None):
        self.arrow = arrow
        super().__init__(message or f"matrix of arrow {arrow} is numerically singular")


class Stacks:
    """Matrices indexed by item id (an arrow, a triple), held as one array per shape.

    Item i is ``arrays[group[i]][..., pos[i], :, :]``, where ``pos`` numbers the
    items of a group in ascending id order.  Arrays with a leading sample axis hold
    item i of sample s at ``arrays[group[i]][s, pos[i]]``, and :meth:`take` returns
    every sample's matrices at once.  :meth:`take` and :meth:`put` address one group
    at a time, so an index array must not mix shapes.
    """

    def __init__(self, group: np.ndarray, arrays: list[np.ndarray]):
        self.group = group
        self.arrays = arrays
        self.pos = np.empty_like(group)
        for gi, A in enumerate(arrays):
            self.pos[group == gi] = np.arange(A.shape[-3])

    @classmethod
    def of(cls, mats: Sequence[np.ndarray]) -> "Stacks":
        """Stacks of ``mats``, their shape groups numbered by first appearance."""
        shapes: dict[tuple, int] = {}
        group = np.array([shapes.setdefault(M.shape, len(shapes)) for M in mats], dtype=np.intp)
        return cls(group, [np.stack([mats[i] for i in np.flatnonzero(group == gi)])
                           for gi in range(len(shapes))])

    def empty_like(self, group: np.ndarray | None = None) -> "Stacks":
        """Uninitialised stacks of the same shapes and samples over ``group`` (default: the same items)."""
        group = self.group if group is None else group
        counts = np.bincount(group, minlength=len(self.arrays))
        return Stacks(group, [np.empty((*A.shape[:-3], n, *A.shape[-2:]))
                              for n, A in zip(counts, self.arrays)])

    def _group_of(self, idx: np.ndarray) -> int:
        gi = self.group[idx]
        if (gi != gi.flat[0]).any():
            raise ValueError("index array mixes matrix shapes")
        return int(gi.flat[0])

    def take(self, idx: np.ndarray) -> np.ndarray:
        return np.take(self.arrays[self._group_of(idx)], self.pos[idx], axis=-3)

    def put(self, idx: np.ndarray, values: np.ndarray) -> None:
        self.arrays[self._group_of(idx)][..., self.pos[idx], :, :] = values

    def tolist(self) -> list[np.ndarray]:
        return [self.arrays[g][p] for g, p in zip(self.group.tolist(), self.pos.tolist())]


# Matrices gathered per batched step.  Work is cut into blocks of at most this
# many terms, so no temporary grows with the groupoid.
BLOCK_TERMS = 1 << 12


def blocks(*key: np.ndarray, width: np.ndarray | int = 1) -> Iterator[tuple[np.ndarray, int]]:
    """Split work items 0..n-1 into ascending index blocks with one key row and one width.

    ``key`` columns are per-item integers, typically the shape groups of the
    maps an item reads; ``width`` is how many terms each item gathers (its
    fiber length).  Each block holds at most BLOCK_TERMS // width items.
    """
    widths = width if isinstance(width, np.ndarray) else np.full(len(key[0]), width)
    code = np.zeros(len(widths), dtype=np.intp)
    for col in (*key, widths):
        code = code * (int(col.max(initial=0)) + 1) + col
    for v in sorted(set(code.tolist())):
        items = np.flatnonzero(code == v)
        F = int(widths[items[0]])
        step = max(1, BLOCK_TERMS // max(1, F))
        for s in range(0, len(items), step):
            yield items[s : s + step], F


def matrix_json(M: np.ndarray) -> dict:
    """A matrix as the JSON object ``{"shape": [rows, cols], "data": [row-major entries]}``."""
    M = np.asarray(M, dtype=float)
    return {"shape": list(M.shape), "data": M.ravel().tolist()}


def matrix_from_json(entry: Any, what: str) -> np.ndarray:
    """The matrix of a :func:`matrix_json` object, whose ``shape`` must be two non-negative JSON
    integers and ``data`` a flat list of rows x cols JSON numbers (no booleans or strings).
    TypeError naming ``what`` if ``entry`` is no JSON object, KeyError on a missing ``data`` or
    ``shape``, OverflowError on an integer too large for a float, ValueError naming ``what``
    otherwise."""
    entry = json_object(entry, what)
    shape, data = entry["shape"], entry["data"]
    if type(shape) is not list or len(shape) != 2 or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"{what}: shape {shape!r} is not two non-negative integers")
    if type(data) is not list or len(data) != shape[0] * shape[1]:
        raise ValueError(f"{what}: data is not a flat list of {shape[0]} x {shape[1]} numbers")
    bad = next((i for i, x in enumerate(data) if type(x) not in (int, float)), None)
    if bad is not None:
        raise ValueError(f"{what}: data entry {bad} is not a number: {data[bad]!r}")
    return np.array(data, dtype=float).reshape(shape)


@dataclass
class FiberBundle:
    """Fiber dimensions and optional Gram matrices, one per object.

    ``metrics[x] is None`` means the identity metric.  Gram matrices must be
    symmetric positive definite (smallest eigenvalue > 1e-12).
    """

    dims: list[int]
    metrics: list[np.ndarray | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.metrics:
            self.metrics = [None] * len(self.dims)
        if len(self.metrics) != len(self.dims):
            raise ValueError("one metric slot per object required")
        self._half: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._stacked: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @classmethod
    def uniform(cls, n_objects: int, dim: int) -> "FiberBundle":
        return cls(dims=[dim] * n_objects)

    def metric_factors(self, x: int, name=None) -> tuple[np.ndarray, np.ndarray]:
        """(phi^(1/2), phi^(-1/2)) for object index x, which errors call ``name``
        (default x); identity metrics short-circuit."""
        name = x if name is None else name
        if x not in self._half:
            phi = self.metrics[x]
            if phi is None:
                eye = np.eye(self.dims[x])
                self._half[x] = (eye, eye)
            else:
                phi = np.asarray(phi, dtype=float)
                if phi.shape != (self.dims[x], self.dims[x]):
                    raise DegenerateMetric(f"metric of object {name} has shape {phi.shape}")
                if not np.isfinite(phi).all():
                    raise DegenerateMetric(f"metric of object {name} has non-finite entries")
                if np.abs(phi - phi.T).max(initial=0.0) > 1e-12:
                    raise DegenerateMetric(f"metric of object {name} is not symmetric")
                w, v = np.linalg.eigh(phi)
                if w.min(initial=1.0) <= METRIC_EIG_FLOOR:
                    raise DegenerateMetric(
                        f"metric of object {name} has eigenvalue {w.min():.3e} <= {METRIC_EIG_FLOOR}"
                    )
                root = (v * np.sqrt(w)) @ v.T
                inv_root = (v / np.sqrt(w)) @ v.T
                self._half[x] = (root, inv_root)
        return self._half[x]

    def factor_stack(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`metric_factors` of the objects of dimension d, stacked.

        Returns (roots, inverse roots, where): object x of dimension d has its
        factors at ``where[x]``.
        """
        if d not in self._stacked:
            same = [x for x in range(len(self.dims)) if self.dims[x] == d]
            where = np.zeros(len(self.dims), dtype=np.intp)
            where[same] = np.arange(len(same))
            roots, inv_roots = zip(*(self.metric_factors(x) for x in same))
            self._stacked[d] = (np.stack(roots), np.stack(inv_roots), where)
        return self._stacked[d]

    def to_json_dict(self, objects: Sequence) -> dict:
        out = {}
        for x, label in enumerate(objects):
            entry: dict = {"dim": self.dims[x]}
            if self.metrics[x] is not None:
                entry["gram"] = matrix_json(self.metrics[x])
            out[str(label)] = entry
        return out

    @classmethod
    def from_json_dict(cls, d: dict, objects: Sequence) -> "FiberBundle":
        """The bundle keyed by the labels of ``objects``, its Gram matrices checked by :meth:`metric_factors` by label."""
        dims, metrics = [], []
        for label in objects:
            entry = json_object(d[str(label)], f"object {label}")
            dim = entry["dim"]
            if type(dim) is not int or dim < 0:
                raise ValueError(f"object {label}: dim must be a non-negative integer, got {dim!r}")
            dims.append(dim)
            metrics.append(matrix_from_json(entry["gram"], f"the gram of object {label}")
                           if "gram" in entry else None)
        bundle = cls(dims=dims, metrics=metrics)
        for x, label in enumerate(objects):
            bundle.metric_factors(x, label)
        return bundle


def metric_norms(
    bundle: FiberBundle, M: np.ndarray, src: np.ndarray, dst: np.ndarray,
    floor: np.ndarray | float,
) -> np.ndarray:
    """The largest of ``floor`` (a running maximum, one per sample) and the metric norms
    of stacked maps: ``M[..., i, :, :]`` maps the fiber over ``src[i]`` to the fiber over
    ``dst[i]``; its norm is the largest singular value of
    ``phi_dst^(1/2) M[i] phi_src^(-1/2)``.  The bundle's factors broadcast over leading
    sample axes of ``M``; when every object of the maps' dimensions has the identity metric,
    the maps are read as they are.  ``M`` is never written.  A map with a non-finite entry,
    e.g. an overflowed defect, has no finite norm: it reads inf.

    The result has the bits of an SVD of every map: a norm is at most the Frobenius norm,
    so the SVD runs only on the maps whose Frobenius norm reaches the largest norm found
    so far.
    """
    r, c = M.shape[-2:]
    if r == 0 or c == 0:
        return np.maximum(floor, np.zeros(M.shape[:-2]).max(axis=-1))
    if all(phi is None for phi, d in zip(bundle.metrics, bundle.dims) if d in (r, c)):
        X = M  # eye @ M @ eye: M itself, up to the signs of zeros
    else:
        roots, _, at_dst = bundle.factor_stack(r)
        _, inv_roots, at_src = bundle.factor_stack(c)
        X = np.take(roots, at_dst[dst], axis=-3) @ M @ np.take(inv_roots, at_src[src], axis=-3)
    finite = np.isfinite(X).all(axis=(-2, -1))
    if not finite.all():
        X = np.where(finite[..., None, None], X, 0.0)

    def top_sv(keep):  # the largest singular value of each kept map, inf where not finite
        return np.where(finite[keep], np.linalg.svd(X[keep], compute_uv=False)[..., 0], np.inf)

    # scaled by its largest entry, a map's squares neither underflow nor overflow
    peak = np.abs(X).max(axis=(-2, -1))
    unit = X / np.where(peak > 0, peak, 1.0)[..., None, None]
    bound = np.where(finite, peak * np.sqrt(np.square(unit, out=unit).sum(axis=(-2, -1))), np.inf)
    top = bound == bound.max(axis=-1, keepdims=True)
    s = np.zeros(bound.shape)
    s[top] = top_sv(top)
    low = np.maximum(floor, s.max(axis=-1))
    keep = ~top & (bound >= low[..., None] * (1.0 - 1e-12))
    s[keep] = top_sv(keep)
    return np.maximum(low, s.max(axis=-1))


def max_norm(bundle: FiberBundle, part, *key: np.ndarray,
             width: np.ndarray | int = 1, orbit: np.ndarray | None = None,
             n_orbits: int = 1) -> list:
    """Largest metric norm over the work items of each orbit; 0.0 for an orbit with none.

    ``orbit[i]`` is item i's orbit id, below ``n_orbits`` (zeros when None), and the first key
    column for :func:`blocks`.  ``part(items, width)`` returns the stacked maps of a block with
    their source and target objects.  On maps with a sample axis, an orbit's entry is a list
    with one maximum per sample.
    """
    orbit = np.zeros(len(key[0]), dtype=np.intp) if orbit is None else orbit
    worst = [np.float64(0.0)] * n_orbits
    for items, F in blocks(orbit, *key, width=width):
        o = int(orbit[items[0]])
        worst[o] = metric_norms(bundle, *part(items, F), worst[o])
    return [w.tolist() for w in worst]


@dataclass
class PseudoRep:
    """Matrices indexed by arrow id over a finite groupoid and fiber bundle."""

    groupoid: FiniteGroupoid
    bundle: FiberBundle
    maps: list[np.ndarray]

    def __post_init__(self) -> None:
        G, B = self.groupoid, self.bundle
        if len(B.dims) != G.n_objects:
            raise ValueError("bundle object count does not match groupoid")
        if len(self.maps) != G.n_arrows:
            raise ValueError(f"{len(self.maps)} matrices for {G.n_arrows} arrows")
        for g, M in enumerate(self.maps):
            M = np.asarray(M, dtype=float)
            want = (B.dims[G.tgt[g]], B.dims[G.src[g]])
            if M.shape != want:
                raise ValueError(f"arrow {g}: matrix shape {M.shape}, expected {want}")
            if not np.isfinite(M).all():
                raise ValueError(f"arrow {g}: matrix has non-finite entries")
            self.maps[g] = M

    def copy(self) -> "PseudoRep":
        return PseudoRep(self.groupoid, self.bundle, [M.copy() for M in self.maps])

    def stacks(self) -> Stacks:
        """The maps as one stacked array per shape, copied from :attr:`maps` as they stand."""
        return Stacks.of(self.maps)

    def unit_defect(self) -> float:
        """Max metric norm of lambda(1_x) - I over objects."""
        units = Stacks.of([self.maps[e] for e in self.groupoid.unit])

        def part(x: np.ndarray, _: int):
            M = units.take(x)
            return M - np.eye(M.shape[-1]), x, x

        return max_norm(self.bundle, part, units.group)[0]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {str(g): matrix_json(self.maps[g]) for g in self.groupoid.arrows()}

    def save(self, path: str) -> None:
        write_json(self.to_json_dict(), path)

    @classmethod
    def from_json_dict(
        cls, d: dict, groupoid: FiniteGroupoid, bundle: FiberBundle
    ) -> "PseudoRep":
        entries = arrow_keyed(d, groupoid.n_arrows, "psrep")
        maps = []
        for g in groupoid.arrows():
            if g not in entries:
                raise ValueError(f"psrep has no matrix for arrow {g}")
            maps.append(matrix_from_json(entries[g], f"the matrix of arrow {g}"))
        return cls(groupoid, bundle, maps)

    @classmethod
    def load(cls, path: str, groupoid: FiniteGroupoid, bundle: FiberBundle) -> "PseudoRep":
        return read_json(path, lambda d: cls.from_json_dict(d, groupoid, bundle))


@dataclass
class PseudoRepBatch:
    """Samples on one groupoid and a bundle of one fiber dimension d, their maps stacked:
    ``maps[s, g]`` is arrow g's d x d matrix in sample s.  Checked like a :class:`PseudoRep`,
    by one shape test and one ``isfinite`` pass over the stack."""

    groupoid: FiniteGroupoid
    bundle: FiberBundle
    maps: np.ndarray

    def __post_init__(self) -> None:
        G, dims, shape = self.groupoid, self.bundle.dims, np.shape(self.maps)
        if (len(shape) != 4 or shape[1:] != (G.n_arrows, shape[3], shape[3])
                or dims != [shape[3]] * G.n_objects):
            raise ValueError(f"maps of shape {shape} for {G.n_arrows} arrows on fibers {dims}")
        self.maps = np.asarray(self.maps, dtype=float)
        if not np.isfinite(self.maps).all():
            s, g = np.argwhere(~np.isfinite(self.maps))[0, :2]
            raise ValueError(f"sample {s}, arrow {g}: matrix has non-finite entries")

    def __len__(self) -> int:
        return len(self.maps)

    def __getitem__(self, s: slice) -> "PseudoRepBatch":
        return PseudoRepBatch(self.groupoid, self.bundle, self.maps[s])

    def stacks(self) -> Stacks:
        """The maps as one stack with a leading sample axis."""
        return Stacks(np.zeros(self.groupoid.n_arrows, dtype=np.intp), [self.maps])


def b_by_orbit(rep: PseudoRep) -> list[float]:
    """b of each orbit of :meth:`FiniteGroupoid.orbits`: its largest arrow matrix norm."""
    return arrow_norms_by_orbit(rep.bundle, rep.stacks(), rep.groupoid.tables)


def arrow_norms_by_orbit(bundle: FiberBundle, st: Stacks, T: CompositionTables) -> list:
    """The largest arrow matrix norm of each orbit, of the arrow maps ``st`` over the
    tables ``T``; with a sample axis, one per sample (see :func:`max_norm`)."""
    return max_norm(bundle, lambda g, _: (st.take(g), T.src[g], T.tgt[g]), st.group,
                    orbit=T.orbit[T.src], n_orbits=T.n_orbits)


def c_by_orbit(rep: PseudoRep) -> list[float]:
    """c of each orbit of :meth:`FiniteGroupoid.orbits`: its largest multiplicativity defect,
    over the composable pairs (g2, g1) = (g, k) of the averaging triples."""
    T, st = rep.groupoid.tables, rep.stacks()

    def part(t: np.ndarray, _: int):
        g2, g1 = T.avg_g[t], T.avg_k[t]
        return st.take(T.avg_gk[t]) - st.take(g2) @ st.take(g1), T.src[g1], T.tgt[g2]

    return max_norm(rep.bundle, part, st.group[T.avg_g], st.group[T.avg_k],
                    orbit=T.orbit[T.src[T.avg_k]], n_orbits=T.n_orbits)


def b_norm(rep: PseudoRep) -> float:
    """Largest metric norm over all arrow matrices."""
    return max(b_by_orbit(rep), default=0.0)


def c_norm(rep: PseudoRep) -> float:
    """Largest multiplicativity defect over composable pairs."""
    return max(c_by_orbit(rep), default=0.0)


def _gated_inverse(A: np.ndarray, arrows: np.ndarray) -> np.ndarray:
    """Inverses of the stacked maps of ``arrows``, each gated at condition number < 1e12.

    Raises NonInvertible at the lowest arrow that is not square, has a
    non-finite entry, or is singular past the conditioning limit; with a
    leading sample axis, at the first sample that has one.
    """
    r, c = A.shape[-2:]
    if r != c:
        raise NonInvertible(int(arrows[0]), f"arrow {arrows[0]} matrix is not square: {(r, c)}")
    if r == 0:
        return A.copy()
    finite = np.isfinite(A).all(axis=(-2, -1))
    s = np.linalg.svd(np.where(finite[..., None, None], A, 0.0), compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = finite & (s[..., -1] > 0) & (s[..., 0] / s[..., -1] < COND_LIMIT)
    if not ok.all():
        i = int(np.argmin(ok))  # samples before arrows
        g = int(arrows[i % len(arrows)])
        raise NonInvertible(g, None if finite.flat[i] else f"matrix of arrow {g} has non-finite entries")
    return np.linalg.inv(A)


def invert_stacks(st: Stacks) -> Stacks:
    """lambda^(-1) of every arrow, laid out like ``st``.

    NonInvertible names the lowest bad arrow over all shape groups.
    """
    out, bad = [], []
    for gi, A in enumerate(st.arrays):
        try:
            out.append(_gated_inverse(A, np.flatnonzero(st.group == gi)))
        except NonInvertible as exc:
            bad.append(exc)
    if bad:
        raise min(bad, key=lambda exc: exc.arrow)
    return Stacks(st.group, out)


def invert_arrow(rep: PseudoRep, g: int) -> np.ndarray:
    """lambda_g^(-1), rejecting matrices with condition number >= 1e12."""
    return _gated_inverse(rep.maps[g][None], np.array([g]))[0]


def cocycles(st: Stacks, inv: Stacks, T: CompositionTables) -> Stacks:
    """Delta(gk, k) = lambda_{gk} lambda_k^(-1) - lambda_{gk k^(-1)} at every divisible triple
    (gk, k, gk k^(-1)), indexed like the averaging triples.

    Delta at triple t maps the fiber over src(g) to the fiber over tgt(g),
    g = ``T.avg_g[t]``.
    """
    D = st.empty_like(st.group[T.avg_g])
    for g, _ in blocks(st.group, T.row_len):
        for t in T.row_start[g] + np.arange(T.row_len[g[0]])[:, None]:
            D.put(t, st.take(T.avg_gk[t]) @ inv.take(T.avg_k[t]) - st.take(T.div_q[t]))
    return D


@dataclass
class OrbitGateRow:
    objects: list[int]
    b: float
    c: float
    threshold: float
    ok: bool


@dataclass
class GateReport:
    rows: list[OrbitGateRow]
    unit_defect: float  # the input's, from the unital check

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failed_orbits(self) -> list[list[int]]:
        return [r.objects for r in self.rows if not r.ok]


def is_nearly_multiplicative(rep: PseudoRep,
                             by_orbit: tuple[list[float], list[float]] | None = None) -> GateReport:
    """Per-orbit gate c <= (1/9) b^(-2), using the bundle's stored metrics; ``by_orbit`` is the
    (b, c) lists of :func:`b_by_orbit` and :func:`c_by_orbit` when the caller has them.

    The caller must pass a unital pseudo-representation.  No search over
    alternative metrics is attempted: a failing report under the stored metric
    does not preclude the gate holding under some other metric.  Gauges that
    overflow read inf or NaN and fail the gate, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        unit = rep.unit_defect()
        if not unit <= 1e-8:
            raise ValueError("gate check requires a unital pseudo-representation")
        bs, cs = by_orbit or (b_by_orbit(rep), c_by_orbit(rep))
        return GateReport([
            OrbitGateRow(orbit, b, c, GATE_COEFF / square(b) if b > 0 else np.inf, gate_holds(b, c))
            for orbit, b, c in zip(rep.groupoid.orbits(), bs, cs)
        ], unit)
