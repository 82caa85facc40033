"""Finite groupoids with explicit composition tables.

Arrows are dense integer ids 0..n_arrows-1.  Objects carry arbitrary hashable
labels and are addressed by position.  Composition is a partial table held as
rows: ``compose`` is a read-only ``(e, 3)`` int64 array with one row
``(g2, g1, g2g1)`` per listed pair, and a pair is defined exactly when
``src(g2) == tgt(g1)`` (first apply g1, then g2).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np


def read_json(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the JSON object at ``path``.  A key the document lacks, a value of the
    wrong JSON type, a JSON integer too large for a float, or a value ``parse`` rejects, is
    raised as a ValueError that names the file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return parse(json_object(doc, "the document"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def json_object(value: Any, what: str) -> dict:
    """``value``, checked to be a JSON object; TypeError naming ``what`` otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def arrow_keyed(d: dict, m: int, what: str) -> dict[int, Any]:
    """The values of an object keyed by the arrow ids of an m-arrow groupoid, by arrow id;
    ValueError naming the first key that is no arrow id."""
    ids = {str(g): g for g in range(m)}
    for key in d:
        if key not in ids:
            raise ValueError(f"{what} key {key!r} is not an arrow id 0..{m - 1}")
    return {ids[key]: value for key, value in d.items()}


def write_lines(lines: Iterable[str], path: str) -> None:
    """``lines``, written one by one, as the UTF-8 text file ``path``; each ends by LF (none: one LF)."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(next(lines, ""))
        fh.writelines("\n" + line for line in lines)
        fh.write("\n")


def write_json(doc: Any, path: str) -> None:
    """``doc`` as the UTF-8 JSON file ``path``: sorted keys, indent 1, a final newline."""
    write_lines([json.dumps(doc, indent=1, sort_keys=True)], path)


class MalformedAction(ValueError):
    """The translation maps of a group action fail identity or compatibility."""


@dataclass
class Violation:
    rule: str
    witness: tuple
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, witness: tuple, message: str) -> None:
        self.violations.append(Violation(rule, witness, message))

    def __str__(self) -> str:
        if self.ok:
            return "valid groupoid"
        return "\n".join(str(v) for v in self.violations)


@dataclass
class FiniteGroupoid:
    """A finite groupoid given by explicit source/target/compose/unit/inverse tables.

    ``compose`` rows are held as :func:`compose_rows` makes them.  Construction does not
    validate the axioms; :meth:`validate` reports every violation (corrupted tables are data).
    """

    objects: list[Hashable]
    src: list[int]
    tgt: list[int]
    compose: np.ndarray
    unit: list[int]
    inverse: list[int]
    arrow_labels: list[Hashable] | None = None

    def __post_init__(self) -> None:
        self.compose = compose_rows(self.compose)

    def __eq__(self, other: object) -> bool:
        """Field by field, with the compose rows compared in (g2, g1) order, so as a set."""
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.sorted_compose(), other.sorted_compose()) and all(
            getattr(self, f) == getattr(other, f)
            for f in ("objects", "src", "tgt", "unit", "inverse", "arrow_labels"))

    def sorted_compose(self) -> np.ndarray:
        """The compose rows in ascending (g2, g1) order."""
        return self.compose[np.lexsort((self.compose[:, 1], self.compose[:, 0]))]

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def arrows(self) -> range:
        return range(self.n_arrows)

    def mul(self, g2: int, g1: int) -> int:
        """The composite g2 g1, read off the :attr:`tables` snapshot.

        ValueError names an id outside 0..n_arrows-1 or a pair that is not
        composable; the tables name a composable pair missing from the table.
        """
        T = self.tables
        for g in (g2, g1):
            if not 0 <= g < len(T.src):
                raise ValueError(f"{g} is not an arrow id 0..{len(T.src) - 1}")
        if T.src[g2] != T.tgt[g1]:
            raise ValueError(
                f"arrows not composable: src({g2})={T.src[g2]} != tgt({g1})={T.tgt[g1]}"
            )
        return int(T.avg_gk[T.row_start[g2] + T.fiber_pos[g1]])

    @cached_property
    def tables(self) -> "CompositionTables":
        """Integer index tables over the composition, built on first use.

        The tables are a snapshot: built once per instance from :attr:`compose`
        and the source, target and inverse lists as they stand then.
        """
        return CompositionTables.build(self)

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every groupoid axiom; one report row per violation.

        Reads the tables as they stand, composable pairs at their :class:`CompositionTables` slots.
        Rows come as: compose entries in row order, missing pairs (g1, then
        g2), unit laws by (object, arrow), associativity by (g2, g3, g1),
        inverses, then units that are not their own inverse.
        """
        rep = ValidationReport()
        n, m = self.n_objects, self.n_arrows
        if fault := _table_fault(self):
            rep.add("tables", *fault)
            return rep

        src, tgt, unit, inverse = (np.asarray(a, dtype=np.intp)
                                   for a in (self.src, self.tgt, self.unit, self.inverse))
        endo = (src[unit] == np.arange(n)) & (tgt[unit] == np.arange(n))
        for x in np.flatnonzero(~endo).tolist():
            e = self.unit[x]
            rep.add("unit", (x, e), f"unit arrow {e} of object {x} is not an endoarrow of {x}")
        if len(set(self.unit)) != n:
            dupes = [e for e in set(self.unit) if self.unit.count(e) > 1]
            rep.add("unit", tuple(dupes), f"unit arrows shared between objects: {dupes}")

        ids = np.arange(m)
        *_, row_start, _, avg_g, avg_k, composite, filled, slot = _triples(src, tgt, n, self.compose)
        # composition domain: defined iff source matches target
        known = ((0 <= self.compose) & (self.compose < m)).all(axis=1)
        g2, g1, g21 = np.where(known, self.compose.T, 0)
        off = src[g2] != tgt[g1]
        ends = (src[g21] != src[g1]) | (tgt[g21] != tgt[g2])
        for i in np.flatnonzero(~known | off | ends).tolist():
            a2, a1, a21 = self.compose[i].tolist()
            if not known[i]:
                rep.add("compose", (a2, a1), "composition entry references unknown arrow")
            elif off[i]:
                rep.add("compose", (a2, a1), f"compose defined on non-composable pair ({a2},{a1})")
            else:
                rep.add(
                    "compose",
                    (a2, a1, a21),
                    f"composite {a21} of ({a2},{a1}) has wrong source or target",
                )
        for a1, a2 in sorted(zip(avg_k[~filled].tolist(), avg_g[~filled].tolist())):
            rep.add("compose", (a2, a1), f"composable pair ({a2},{a1}) missing from table")

        composite, filled = np.append(composite, 0), np.append(filled, False)  # slot 0 even with no triples
        # listed pairs that are not composable have no slot: only corrupt tables list them
        keys = self.compose[((0 <= self.compose[:, :2]) & (self.compose[:, :2] < m)).all(axis=1)]
        odd = keys[src[keys[:, 0]] != tgt[keys[:, 1]]]
        odd = odd[np.argsort(odd[:, 0] * m + odd[:, 1])]
        odd_key = odd[:, 0] * m + odd[:, 1]

        def listed(a: Any, b: Any) -> tuple[np.ndarray, np.ndarray]:
            """The listed composite of the pairs (a, b), broadcast, and where one is listed."""
            at, ok = slot(a, b)
            value, ok = composite[at], ok & filled[at]
            # arrow ids at no filled slot: a search of the sorted keys g2 m + g1 of the odd pairs
            if odd.size and (need := (0 <= a) & (a < m) & (0 <= b) & (b < m) & ~ok).any():
                key = np.where(need, a % m * m + b % m, -1)
                i = np.minimum(np.searchsorted(odd_key, key), len(odd) - 1)
                hit = odd_key[i] == key
                value, ok = np.where(hit, odd[i, 2], value), ok | hit
            return value, ok

        for x in np.flatnonzero(endo).tolist():
            e = self.unit[x]
            (ge, on_right), (eg, on_left) = listed(ids, e), listed(e, ids)
            right = (src == x) & on_right & (ge != ids)
            left = (tgt == x) & on_left & (eg != ids)
            for g in np.flatnonzero(right | left).tolist():
                if right[g]:
                    rep.add("unit", (g, e), f"right unit law fails: {g}*1_{x} = {ge[g]}")
                if left[g]:
                    rep.add("unit", (e, g), f"left unit law fails: 1_{x}*{g} = {eg[g]}")

        # one block per middle arrow g2: g3 leaves tgt g2, and g1 runs over g2's row of slots
        leaving = [np.flatnonzero(src == x) for x in range(n)]
        for b2 in range(m):
            g3, row = leaving[tgt[b2]], slice(row_start[b2], row_start[b2 + 1])
            g1, t32 = avg_k[row], slot(g3, b2)[0]
            # an unlisted g3 g2 or g2 g1 enters as -1, which reads unlisted
            g32 = np.where(filled[t32], composite[t32], -1)
            g21 = np.where(filled[row], composite[row], -1)
            left, on_left = listed(g3[:, None], g21)
            right, on_right = listed(g32[:, None], g1)
            for i, j in np.argwhere(on_left & on_right & (left != right)).tolist():
                rep.add(
                    "assoc",
                    (int(g3[i]), b2, int(g1[j])),
                    f"associativity fails at ({g3[i]},{b2},{g1[j]}): {left[i, j]} != {right[i, j]}",
                )

        swap = (src[inverse] != tgt) | (tgt[inverse] != src)
        (gi_g, on_src), (g_gi, on_tgt) = listed(inverse, ids), listed(ids, inverse)
        not_src_unit = ~on_src | (gi_g != unit[src])
        not_tgt_unit = ~on_tgt | (g_gi != unit[tgt])
        for g in np.flatnonzero(swap | not_src_unit | not_tgt_unit).tolist():
            gi = self.inverse[g]
            if swap[g]:
                rep.add("inverse", (g, gi), f"inverse {gi} of {g} does not swap source and target")
                continue
            if not_src_unit[g]:
                rep.add("inverse", (g,), f"{gi}*{g} is not the unit at src({g})")
            if not_tgt_unit[g]:
                rep.add("inverse", (g,), f"{g}*{gi} is not the unit at tgt({g})")
        for x in range(n):
            e = self.unit[x]
            if 0 <= e < m and self.inverse[e] != e:
                rep.add("inverse", (x, e), f"unit arrow {e} is not its own inverse")

        return rep

    # -- derived structure --------------------------------------------------

    def orbits(self) -> list[list[int]]:
        """Finest partition of object indices joined by arrows, sorted by least member."""
        parent = list(range(self.n_objects))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for g in self.arrows():
            ra, rb = find(self.src[g]), find(self.tgt[g])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        blocks: dict[int, list[int]] = {}
        for x in range(self.n_objects):
            blocks.setdefault(find(x), []).append(x)
        return [sorted(b) for _, b in sorted(blocks.items())]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "arrows": [
                {"id": g, "src": self.objects[self.src[g]], "tgt": self.objects[self.tgt[g]]}
                for g in self.arrows()
            ],
            "compose": self.sorted_compose().tolist(),
            "units": {str(self.objects[x]): self.unit[x] for x in range(self.n_objects)},
            "inverses": {str(g): self.inverse[g] for g in self.arrows()},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiniteGroupoid":
        objects = list(d["objects"])
        index = {str(x): i for i, x in enumerate(objects)}
        if len(index) < len(objects):  # a file names an object by str(label)
            x = next(x for i, x in enumerate(objects) if index[str(x)] != i)
            raise ValueError(f"objects {x!r} and {objects[index[str(x)]]!r} share the label {str(x)!r}")
        arrows = sorted((json_object(a, "an arrow") for a in d["arrows"]), key=lambda a: a["id"])
        m = len(arrows)
        if [a["id"] for a in arrows] != list(range(m)) or any(type(a["id"]) is not int for a in arrows):
            raise ValueError("arrow ids must be dense integers 0..n-1")
        ids = {str(g): g for g in range(m)}

        def arrow(value: Any, where: str) -> None:
            if type(value) is not int or not 0 <= value < m:
                raise ValueError(f"{where}: {value!r} is not an arrow id 0..{m - 1}")

        for a, end in itertools.product(arrows, ("src", "tgt")):
            if str(a[end]) not in index:
                raise ValueError(f"arrow {a['id']}: {end} {a[end]!r} is not an object")
        src = [index[str(a["src"])] for a in arrows]
        tgt = [index[str(a["tgt"])] for a in arrows]
        compose = d["compose"]
        if type(compose) is not list:
            raise TypeError(f"compose must be a JSON array, got {type(compose).__name__}")
        if any(type(row) is not list or len(row) != 3 for row in compose):
            compose_rows(compose)  # names the first row that is not three integers
        flat = list(itertools.chain.from_iterable(compose))
        if list(map(type, flat)).count(int) < len(flat) or flat and not 0 <= min(flat) <= max(flat) < m:
            i = next(i for i, g in enumerate(flat) if type(g) is not int or not 0 <= g < m)
            arrow(flat[i], f"compose entry {compose[i // 3]!r}")
        units = json_object(d["units"], "units")
        for key, e in units.items():
            if key not in index:
                raise ValueError(f"units key {key!r} is not an object")
            arrow(e, f"units[{key!r}]")
        inverses = json_object(d["inverses"], "inverses")
        for key, gi in inverses.items():
            arrow(ids.get(key, key), "inverses key")
            arrow(gi, f"inverses[{key!r}]")
        for what, table, keys in (("units", units, index), ("inverses", inverses, ids)):
            for key in keys:
                if key not in table:
                    raise ValueError(f"{what}: missing key {key!r}")
        return cls(objects, src, tgt, compose, [units[str(x)] for x in objects], [inverses[k] for k in ids])

    def save(self, path: str) -> None:
        write_json(self.to_json_dict(), path)

    @classmethod
    def load(cls, path: str) -> "FiniteGroupoid":
        return read_json(path, cls.from_json_dict)


def compose_rows(rows: Any) -> np.ndarray:
    """``(g2, g1, g21)`` rows as a read-only ``(e, 3)`` int64 array, in their order.  ValueError
    names the first row that is not three integers that fit an int64, or whose pair an earlier
    row lists; ids outside 0..m-1 are kept for :meth:`FiniteGroupoid.validate`."""
    try:
        a = np.asarray(rows)
    except ValueError:  # rows of different lengths: the loop names the first bad one
        a = np.empty(0)
    if a.dtype.kind != "i" or a.shape[1:] != (3,):
        for row in rows:
            try:
                ok = np.shape(row) == (3,) and np.asarray(row).dtype.kind == "i"
            except ValueError:  # a ragged row
                ok = False
            if not ok:
                raise ValueError(f"compose entry {row!r} is not three integers that fit an int64")
        a = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    a = a.astype(np.int64)  # a copy: the caller holds no writable view of it
    order = np.lexsort((a[:, 1], a[:, 0]))
    pairs = a[order, :2]
    again = order[1:][(pairs[1:] == pairs[:-1]).all(axis=1)]
    if again.size:
        g2, g1, g21 = a[again.min()].tolist()
        raise ValueError(f"compose entry {[g2, g1, g21]}: pair ({g2},{g1}) is already listed")
    a.flags.writeable = False
    return a


def _table_fault(G: FiniteGroupoid) -> tuple[tuple, str] | None:
    """The first short table or out-of-range id of G's src, tgt, unit and inverse lists, as
    (witness, message), or None.  Plain Python over the lists: no numpy routine runs."""
    n, m = G.n_objects, G.n_arrows
    for name, table, size in (("tgt", G.tgt, m), ("unit", G.unit, n), ("inverse", G.inverse, m)):
        if len(table) != size:
            return (), f"{name} table has {len(table)} entries, expected {size}"
    for g in range(m):
        if not (0 <= G.src[g] < n and 0 <= G.tgt[g] < n):
            return (g,), f"arrow {g} has out-of-range src/tgt"
        if not 0 <= G.inverse[g] < m:
            return (g,), f"inverse of {g} out of range"
    for x in range(n):
        if not 0 <= G.unit[x] < m:
            return (x,), f"unit of object {x} out of range"
    return None


def _triples(src: np.ndarray, tgt: np.ndarray, n: int, compose: np.ndarray) -> tuple:
    """The fiber and triple layout of :class:`CompositionTables`, for arrows with these sources
    and targets among n objects, with each compose row of a composable pair scattered into its
    slot: ``(fiber_start, fiber, fiber_pos, row_start, row_len, avg_g, avg_k, avg_gk, filled,
    slot)``.  A slot that no row fills holds 0.  O(rows + composable pairs), with no sort."""
    m = len(src)
    fiber = np.argsort(tgt, kind="stable")
    sizes = np.bincount(tgt, minlength=n)
    fiber_start = np.concatenate(([0], np.cumsum(sizes)))
    fiber_pos = np.empty(m, dtype=np.intp)
    fiber_pos[fiber] = np.arange(m) - fiber_start[tgt[fiber]]
    row_len = sizes[src]
    row_start = np.concatenate(([0], np.cumsum(row_len)))
    avg_g = np.repeat(np.arange(m), row_len)
    avg_k = fiber[fiber_start[src[avg_g]] + np.arange(len(avg_g)) - row_start[avg_g]]

    def slot(g2: Any, g1: Any) -> tuple[np.ndarray, np.ndarray]:
        """The slot ``row_start[g2] + fiber_pos[g1]`` of the pairs (g2, g1), broadcast, and where they
        compose: both arrow ids, src g2 == tgt g1.  Slot 0 elsewhere, so no other id is an index."""
        in2, in1 = (0 <= g2) & (g2 < m), (0 <= g1) & (g1 < m)
        g2, g1 = np.where(in2, g2, 0), np.where(in1, g1, 0)
        ok = in2 & in1 & (src[g2] == tgt[g1])
        return np.where(ok, row_start[g2] + fiber_pos[g1], 0), ok

    at, ok = slot(compose[:, 0], compose[:, 1])
    avg_gk, filled = np.zeros(len(avg_g), dtype=np.int64), np.zeros(len(avg_g), dtype=bool)
    avg_gk[at[ok]], filled[at[ok]] = compose[ok, 2], True
    return fiber_start, fiber, fiber_pos, row_start, row_len, avg_g, avg_k, avg_gk, filled, slot


@dataclass(frozen=True)
class CompositionTables:
    """The composition of a finite groupoid as integer arrays, ascending by arrow id.

    * Target fibers: ``fiber[fiber_start[x]:fiber_start[x + 1]]`` are the
      arrows with target x; ``fiber_pos[a]`` is the place of a in its fiber.
    * Averaging triples ``(avg_g, avg_k, avg_gk)``: every arrow g with every
      k in the target fiber of src(g).  The ``row_len[g]`` triples of g
      start at ``row_start[g]``.  The pairs (g, k) with tgt k = src g are
      exactly the composable pairs (g2, g1), so these run over each composable
      pair once, with its composite g2 g1 = ``avg_gk`` at slot ``row_start[g2] + fiber_pos[g1]``.
    * Divisible triples ``(avg_gk, avg_k, div_q)`` with ``div_q = gk k^(-1)``,
      read at the slot of (gk, k^(-1)).  ``(g, k) -> (gk, k)`` is a bijection onto the
      divisible pairs, so these run over each divisible pair once, in the
      layout of the averaging triples.
    * ``orbit[x]``: the place of object x's orbit among the ``n_orbits`` of :meth:`FiniteGroupoid.orbits`.
    """

    src: np.ndarray
    tgt: np.ndarray
    fiber_start: np.ndarray
    fiber: np.ndarray
    fiber_pos: np.ndarray
    row_start: np.ndarray
    row_len: np.ndarray
    avg_g: np.ndarray
    avg_k: np.ndarray
    avg_gk: np.ndarray
    div_q: np.ndarray
    orbit: np.ndarray
    n_orbits: int

    @classmethod
    def build(cls, G: FiniteGroupoid) -> "CompositionTables":
        if fault := _table_fault(G):
            raise ValueError(fault[1])
        src, tgt, inverse = (np.asarray(a, dtype=np.intp) for a in (G.src, G.tgt, G.inverse))
        *layout, filled, slot = _triples(src, tgt, G.n_objects, G.compose)
        avg_g, avg_k, avg_gk = layout[5:]
        if not filled.all():
            t = np.argmin(filled)
            raise ValueError(f"composable pair ({avg_g[t]},{avg_k[t]}) missing from table")
        at, ok = slot(avg_gk, inverse[avg_k])
        div_q = avg_gk[at]
        # the kernels find gk and gk k^-1 by the endpoints of g; a table that
        # breaks this would silently mix fibers.  q = gk k^-1 composes with k, so src q = src g
        ok &= slot(div_q, avg_k)[1]
        gk, q = np.where(ok, avg_gk, 0), np.where(ok, div_q, 0)
        bad = np.flatnonzero(
            ~ok | (tgt[gk] != tgt[avg_g]) | (src[gk] != src[avg_k]) | (tgt[q] != tgt[avg_g])
        )
        if bad.size:
            t = bad[0]
            raise ValueError(f"composition table is inconsistent at ({avg_g[t]},{avg_k[t]})")
        orbits = G.orbits()
        orbit = np.empty(G.n_objects, dtype=np.intp)
        for o, block in enumerate(orbits):
            orbit[block] = o
        return cls(src, tgt, *layout, div_q, orbit, len(orbits))


# -- builders ----------------------------------------------------------------


def group_from_table(labels: Sequence[Hashable], mul: Callable[[Any, Any], Any]) -> FiniteGroupoid:
    """One-object groupoid from a group given by element labels and multiplication."""
    labels = list(labels)
    pos = {x: i for i, x in enumerate(labels)}
    m = len(labels)
    table = np.array([[pos[mul(a, b)] for b in labels] for a in labels], dtype=np.int64).reshape(m, m)
    # identity: the unique e with e*x = x for all x
    unit_candidates = np.flatnonzero((table == np.arange(m)).all(axis=1)).tolist()
    if len(unit_candidates) != 1:
        raise ValueError(f"multiplication table has {len(unit_candidates)} identities")
    e = unit_candidates[0]
    a, inverse = np.nonzero((table == e) & (table.T == e))
    lonely = np.flatnonzero(np.bincount(a, minlength=m) != 1)
    if lonely.size:
        raise ValueError(f"element {labels[lonely[0]]} has no two-sided inverse")
    return FiniteGroupoid(
        objects=["*"],
        src=[0] * m,
        tgt=[0] * m,
        compose=np.stack((*np.indices((m, m)).reshape(2, -1), table.ravel()), axis=1),
        unit=[e],
        inverse=inverse.tolist(),
        arrow_labels=labels,
    )


def cyclic_group(n: int) -> FiniteGroupoid:
    return group_from_table(range(n), lambda a, b: (a + b) % n)


def symmetric_group(n: int) -> FiniteGroupoid:
    """S_n as a one-object groupoid; arrow labels are permutation tuples."""
    perms = sorted(itertools.permutations(range(n)))
    return group_from_table(perms, lambda p, q: tuple(p[q[i]] for i in range(n)))


def trivial_groupoid(objects: Sequence[Hashable] = ("*",)) -> FiniteGroupoid:
    """Only unit arrows: the discrete groupoid on the given objects, which the trivial
    group's action groupoid is."""
    return action_groupoid(FiniteGroupAction(cyclic_group(1), list(objects), lambda g, u: u))


def pair_groupoid(objects: Sequence[Hashable]) -> FiniteGroupoid:
    """One arrow between every ordered pair of objects; arrow i -> j has id i*n+j."""
    objects = list(objects)
    n = len(objects)
    # x -> y, then y -> z, is x -> z
    x, y, z = np.indices((n, n, n)).reshape(3, -1)
    return FiniteGroupoid(
        objects=objects,
        src=[i for i in range(n) for _ in range(n)],
        tgt=[j for _ in range(n) for j in range(n)],
        compose=np.stack((y * n + z, x * n + y, x * n + z), axis=1),
        unit=[i * n + i for i in range(n)],
        inverse=[j * n + i for i in range(n) for j in range(n)],
        arrow_labels=[(objects[i], objects[j]) for i in range(n) for j in range(n)],
    )


@dataclass
class FiniteGroupAction:
    """A finite group acting on a finite point set.

    ``group`` must have exactly one object; ``act(g_label, point)`` applies the
    element with that arrow label.
    """

    group: FiniteGroupoid
    points: list[Hashable]
    act: Callable[[Any, Any], Any]

    def __post_init__(self) -> None:
        if self.group.n_objects != 1:
            raise MalformedAction("acting groupoid must have exactly one object")
        if self.group.arrow_labels is None:
            raise MalformedAction("acting group needs arrow labels to address elements")


def action_groupoid(action: FiniteGroupAction) -> FiniteGroupoid:
    """Action groupoid: arrows (g, u) with source u and target g.u.

    Arrow order is (group arrow, point) ascending, so ids are g*len(points)+u.
    Calls ``act`` once per (g, u).  Raises MalformedAction if a point is listed twice,
    or if the action leaves the point set or violates identity (checked at each point) or
    compatibility (then at each (g2, g1, u) ascending), naming the first failure.
    """
    G = action.group
    pts = list(action.points)
    pt_index = {u: i for i, u in enumerate(pts)}
    if len(pt_index) < len(pts):  # equal points share one index
        i = next(i for i, u in enumerate(pts) if pt_index[u] != i)
        raise MalformedAction(f"point {pts[i]!r} is listed twice, at positions {i} and {pt_index[pts[i]]}")
    labels = G.arrow_labels
    assert labels is not None
    m, P, e = G.n_arrows, len(pts), G.unit[0]
    out = [[action.act(labels[g], u) for u in pts] for g in range(m)]
    # g.u as a point index; -1 where it leaves the point set
    img = np.array([[pt_index.get(v, -1) for v in row] for row in out], dtype=np.int64).reshape(m, P)

    def act_idx(g: int, ui: int) -> int:
        if img[g, ui] < 0:
            raise MalformedAction(f"action leaves the point set: {labels[g]}.{pts[ui]} = {out[g][ui]}")
        return img[g, ui]

    for ui in range(P):
        if act_idx(e, ui) != ui:
            raise MalformedAction(f"identity does not fix point {pts[ui]}")
    # the tables are built only when every composable pair is defined: in a group, all pairs
    g2, g1, u = np.indices((m, m, P)).reshape(3, -1)
    T = G.tables
    g21, g1u = T.avg_gk[T.row_start[g2] + T.fiber_pos[g1]], img[g1, u]
    # an index of -1 reads the last column; the triple is flagged by g1u < 0 first
    left, right = img[g21, u], img[g2, g1u]
    bad = np.flatnonzero((left < 0) | (g1u < 0) | (left != right))
    if bad.size:
        t = bad[0]
        # a point outside the set is named where act first met one: g21.u, g1.u, g2.(g1.u)
        act_idx(g21[t], u[t])
        act_idx(g2[t], act_idx(g1[t], u[t]))
        raise MalformedAction(f"compatibility fails at ({labels[g2[t]]}, {labels[g1[t]]}, {pts[u[t]]})")
    return FiniteGroupoid(
        objects=pts,
        src=[ui for _ in range(m) for ui in range(P)],
        tgt=img.ravel().tolist(),
        # (g2, g1.u) after (g1, u) = (g2 g1, u)
        compose=np.stack((g2 * P + g1u, g1 * P + u, g21 * P + u), axis=1),
        unit=[e * P + ui for ui in range(P)],
        inverse=(np.asarray(G.inverse)[:, None] * P + img).ravel().tolist(),
        arrow_labels=[(labels[g], u) for g in range(m) for u in pts],
    )
