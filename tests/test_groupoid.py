"""Groupoid axioms, builders, divisible pairs, orbits, restriction, JSON I/O."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import composable_pairs, source_fiber, target_fiber
from groupavg.groupoid import (
    FiniteGroupAction,
    FiniteGroupoid,
    MalformedAction,
    NotInvariant,
    ValidationReport,
    action_groupoid,
    cyclic_group,
    pair_groupoid,
    symmetric_group,
    trivial_groupoid,
)


def swap_action_on_two():
    z2 = cyclic_group(2)
    return FiniteGroupAction(z2, [1, 2], lambda g, u: (3 - u) if g == 1 else u)


# -- validate ----------------------------------------------------------------


def validate_ref(self) -> ValidationReport:
    """``FiniteGroupoid.validate`` as it was on the compose dict, kept as the oracle."""
    rep = ValidationReport()
    n, m = self.n_objects, self.n_arrows

    if len(self.tgt) != m:
        rep.add("tables", (), f"tgt table has {len(self.tgt)} entries, expected {m}")
        return rep
    if len(self.unit) != n:
        rep.add("tables", (), f"unit table has {len(self.unit)} entries, expected {n}")
        return rep
    if len(self.inverse) != m:
        rep.add("tables", (), f"inverse table has {len(self.inverse)} entries, expected {m}")
        return rep
    for g in self.arrows():
        if not (0 <= self.src[g] < n and 0 <= self.tgt[g] < n):
            rep.add("tables", (g,), f"arrow {g} has out-of-range src/tgt")
            return rep
        if not 0 <= self.inverse[g] < m:
            rep.add("tables", (g,), f"inverse of {g} out of range")
            return rep
    for x in range(n):
        if not 0 <= self.unit[x] < m:
            rep.add("tables", (x,), f"unit of object {x} out of range")
            return rep

    for x in range(n):
        e = self.unit[x]
        if self.src[e] != x or self.tgt[e] != x:
            rep.add("unit", (x, e), f"unit arrow {e} of object {x} is not an endoarrow of {x}")
    if len(set(self.unit)) != n:
        dupes = [e for e in set(self.unit) if self.unit.count(e) > 1]
        rep.add("unit", tuple(dupes), f"unit arrows shared between objects: {dupes}")

    # composition domain: defined iff source matches target
    for (g2, g1), g21 in self.compose.items():
        if not (0 <= g1 < m and 0 <= g2 < m and 0 <= g21 < m):
            rep.add("compose", (g2, g1), "composition entry references unknown arrow")
            continue
        if self.src[g2] != self.tgt[g1]:
            rep.add("compose", (g2, g1), f"compose defined on non-composable pair ({g2},{g1})")
        else:
            if self.src[g21] != self.src[g1] or self.tgt[g21] != self.tgt[g2]:
                rep.add(
                    "compose",
                    (g2, g1, g21),
                    f"composite {g21} of ({g2},{g1}) has wrong source or target",
                )
    for g2, g1 in composable_pairs(self):
        if (g2, g1) not in self.compose:
            rep.add("compose", (g2, g1), f"composable pair ({g2},{g1}) missing from table")

    def comp_ok(g2: int, g1: int) -> int | None:
        return self.compose.get((g2, g1))

    for x in range(n):
        e = self.unit[x]
        if self.src[e] != x or self.tgt[e] != x:
            continue
        for g in self.arrows():
            if self.src[g] == x and comp_ok(g, e) not in (None, g):
                rep.add("unit", (g, e), f"right unit law fails: {g}*1_{x} = {comp_ok(g, e)}")
            if self.tgt[g] == x and comp_ok(e, g) not in (None, g):
                rep.add("unit", (e, g), f"left unit law fails: 1_{x}*{g} = {comp_ok(e, g)}")

    for g3, g2 in composable_pairs(self):
        g32 = comp_ok(g3, g2)
        if g32 is None:
            continue
        for g1 in self.arrows():
            if self.tgt[g1] != self.src[g2]:
                continue
            g21 = comp_ok(g2, g1)
            if g21 is None:
                continue
            left = comp_ok(g3, g21)
            right = comp_ok(g32, g1)
            if left is not None and right is not None and left != right:
                rep.add(
                    "assoc",
                    (g3, g2, g1),
                    f"associativity fails at ({g3},{g2},{g1}): {left} != {right}",
                )

    for g in self.arrows():
        gi = self.inverse[g]
        if self.src[gi] != self.tgt[g] or self.tgt[gi] != self.src[g]:
            rep.add("inverse", (g, gi), f"inverse {gi} of {g} does not swap source and target")
            continue
        if comp_ok(gi, g) != self.unit[self.src[g]]:
            rep.add("inverse", (g,), f"{gi}*{g} is not the unit at src({g})")
        if comp_ok(g, gi) != self.unit[self.tgt[g]]:
            rep.add("inverse", (g,), f"{g}*{gi} is not the unit at tgt({g})")
    for x in range(n):
        e = self.unit[x]
        if 0 <= e < m and self.inverse[e] != e:
            rep.add("inverse", (x, e), f"unit arrow {e} is not its own inverse")

    return rep


def test_trivial_groupoid_is_valid():
    report = trivial_groupoid().validate()
    assert report.ok
    assert report.violations == []


@pytest.mark.parametrize("n_objects", [2, 3])
def test_pair_groupoid_is_valid(n_objects):
    G = pair_groupoid(list(range(n_objects)))
    assert G.n_arrows == n_objects**2
    assert G.validate().ok


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cyclic_group_is_valid(n):
    G = cyclic_group(n)
    assert G.n_objects == 1
    assert G.n_arrows == n
    assert G.validate().ok


def test_symmetric_group_is_valid():
    G = symmetric_group(3)
    assert G.n_arrows == 6
    assert G.validate().ok


def test_corrupted_inverse_table_reports_only_that_arrow():
    P = pair_groupoid([0, 1])
    bad = dataclasses.replace(P, inverse=list(P.inverse))
    bad.inverse[1] = 1  # true inverse of arrow 1 is the opposite arrow
    report = bad.validate()
    assert not report.ok
    assert {v.rule for v in report.violations} == {"inverse"}
    assert all(1 in v.witness for v in report.violations)


def test_corrupted_compose_table_reported():
    P = pair_groupoid([0, 1])
    bad_compose = dict(P.compose)
    victim = next(k for k, v in bad_compose.items() if v != k[0])
    bad_compose[victim] = victim[0]
    bad = dataclasses.replace(P, compose=bad_compose)
    report = bad.validate()
    assert not report.ok
    assert any(v.rule in ("compose", "assoc", "unit", "inverse") for v in report.violations)


ORACLE_GROUPOIDS = {
    "pair2": lambda: pair_groupoid([0, 1]),
    "pair3": lambda: pair_groupoid([0, 1, 2]),
    "s3_group": lambda: symmetric_group(3),
    "cyclic3": lambda: cyclic_group(3),
    "trivial": lambda: trivial_groupoid(["a", "b"]),
    "swap": lambda: action_groupoid(swap_action_on_two()),
}


@st.composite
def corrupted_groupoid(draw, clean):
    """``clean`` with one to four corruptions of its tables: dropped, retargeted or
    off-domain compose entries (composites -1, m, m + 5 and +-2**70 included, and
    added keys that hold 2**63 or -2**63 - 1), and bent inverses, units, sources
    and targets.  Ids of +-2**70 and of 2**63 or -2**63 - 1 do not fit an int64.
    Keys and composites draw different ids outside 0..m-1: the table reads a key
    that holds such an id as undefined, where the dict walk could look it up by
    a composite equal to that id."""
    m, n = clean.n_arrows, clean.n_objects
    arrow = st.integers(0, m - 1)
    composite = st.one_of(arrow, st.sampled_from([-1, m, m + 5, 2**70, -2**70]))
    key = st.one_of(arrow, arrow, st.sampled_from([2**63, -2**63 - 1]))
    compose, unit = dict(clean.compose), list(clean.unit)
    inverse, src, tgt = list(clean.inverse), list(clean.src), list(clean.tgt)
    ops = ["drop", "retarget", "add", "inverse", "unit", "src", "tgt"]
    for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=4)):
        if op == "drop" and compose:
            del compose[draw(st.sampled_from(sorted(compose)))]
        elif op == "retarget" and compose:
            compose[draw(st.sampled_from(sorted(compose)))] = draw(composite)
        elif op == "add":
            compose[(draw(key), draw(key))] = draw(composite)
        elif op == "inverse":
            inverse[draw(arrow)] = draw(st.one_of(arrow, st.just(m)))
        elif op == "unit":
            unit[draw(st.integers(0, n - 1))] = draw(st.one_of(arrow, st.just(m)))
        elif op in ("src", "tgt"):
            (src if op == "src" else tgt)[draw(arrow)] = draw(st.integers(0, n - 1))
    return dataclasses.replace(clean, compose=compose, unit=unit, inverse=inverse, src=src, tgt=tgt)


def rows(report):
    return [(v.rule, v.witness, v.message) for v in report.violations]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(sorted(ORACLE_GROUPOIDS) + ["s3", "z2", "two_orbit"]))
def test_validate_matches_dict_oracle(data, name, s3_groupoid, z2_groupoid, two_orbit_disjoint):
    fixtures = {"s3": s3_groupoid, "z2": z2_groupoid, "two_orbit": two_orbit_disjoint}
    clean = fixtures[name] if name in fixtures else ORACLE_GROUPOIDS[name]()
    G = data.draw(corrupted_groupoid(clean))
    assert rows(G.validate()) == rows(validate_ref(G))


def test_validate_matches_dict_oracle_on_clean_groupoids(s3_groupoid, z2_groupoid, two_orbit_disjoint):
    for G in [s3_groupoid, z2_groupoid, two_orbit_disjoint] + [make() for make in ORACLE_GROUPOIDS.values()]:
        assert rows(G.validate()) == rows(validate_ref(G)) == []


def test_mul_names_a_missing_composable_pair():
    G = pair_groupoid([0, 1])
    holed = dataclasses.replace(G, compose={k: v for k, v in G.compose.items() if k != (0, 0)})
    with pytest.raises(ValueError, match="composable pair \\(0,0\\) missing from table"):
        holed.mul(0, 0)
    with pytest.raises(ValueError, match="composable pair \\(0,0\\) missing from table"):
        holed.tables
    assert ("compose", (0, 0), "composable pair (0,0) missing from table") in rows(holed.validate())


def test_mul_names_a_non_composable_pair():
    G = pair_groupoid([0, 1])  # arrow 1 is 0 -> 1
    with pytest.raises(ValueError, match="arrows not composable: src\\(1\\)=0 != tgt\\(1\\)=1"):
        G.mul(1, 1)


@pytest.mark.parametrize("g2, g1, named", [(9, 0, 9), (0, -1, -1), (4, 4, 4)])
def test_mul_names_an_id_out_of_range(g2, g1, named):
    G = pair_groupoid([0, 1])
    with pytest.raises(ValueError, match=f"^{named} is not an arrow id 0..3$"):
        G.mul(g2, g1)


# -- action groupoids --------------------------------------------------------


def test_action_groupoid_z2_swap_on_two_points():
    A = action_groupoid(swap_action_on_two())
    assert A.n_objects == 2
    assert A.n_arrows == 4
    assert A.validate().ok
    assert A.orbits() == [[0, 1]]
    assert all(len(target_fiber(A, x)) == 2 for x in range(A.n_objects))


def test_action_groupoid_trivial_group_gives_units_only():
    act = FiniteGroupAction(cyclic_group(1), [1, 2, 3], lambda g, u: u)
    A = action_groupoid(act)
    assert A.n_arrows == 3
    assert sorted(A.unit) == [0, 1, 2]
    assert A.orbits() == [[0], [1], [2]]


def test_action_groupoid_group_bundle_over_one_point():
    act = FiniteGroupAction(cyclic_group(2), [1], lambda g, u: u)
    B = action_groupoid(act)
    assert B.n_objects == 1
    assert B.n_arrows == 2
    assert B.validate().ok


def test_action_groupoid_always_validates(s3_groupoid, z2_groupoid):
    assert s3_groupoid.validate().ok
    assert z2_groupoid.validate().ok


def test_malformed_action_identity():
    act = FiniteGroupAction(cyclic_group(2), [1, 2], lambda g, u: 1)
    with pytest.raises(MalformedAction):
        action_groupoid(act)


def test_malformed_action_compatibility():
    # act(g, -) is not a group action: applying the generator twice is not the identity
    act = FiniteGroupAction(cyclic_group(2), [1, 2], lambda g, u: 2 if g == 1 else u)
    with pytest.raises(MalformedAction):
        action_groupoid(act)


# -- divisible pairs ---------------------------------------------------------


def divisible_triples(G):
    """The divisible triples (gk, k, gk k^-1) of the composition tables."""
    T = G.tables
    return list(zip(T.avg_gk.tolist(), T.avg_k.tolist(), T.div_q.tolist()))


def divisible_pairs_ref(G):
    """All (g, h, g h^-1) with src(g) == src(h), read off the compose dict."""
    return [
        (g, h, G.compose[(g, G.inverse[h])])
        for g in G.arrows()
        for h in G.arrows()
        if G.src[g] == G.src[h]
    ]


def test_divisible_pairs_trivial_groupoid():
    assert divisible_triples(trivial_groupoid()) == [(0, 0, 0)]


def test_divisible_pairs_counts():
    assert len(divisible_triples(pair_groupoid([0, 1]))) == 8
    assert len(divisible_triples(action_groupoid(swap_action_on_two()))) == 8


def test_divisible_pairs_count_formula(s3_groupoid, z2_groupoid):
    for G in (pair_groupoid([0, 1, 2]), s3_groupoid, z2_groupoid):
        expected = sum(len(source_fiber(G, x)) ** 2 for x in range(G.n_objects))
        assert len(divisible_triples(G)) == expected


def test_divisible_pair_quotient_solves_division(z2_groupoid, s3_groupoid):
    for G in (z2_groupoid, s3_groupoid):
        for g, h, q in divisible_triples(G):
            assert G.src[g] == G.src[h]
            assert q == G.compose[(g, G.inverse[h])]
            assert G.mul(q, h) == g


# -- orbits and left translation ----------------------------------------------


def test_orbits_two_orbit_action(z2_groupoid):
    assert z2_groupoid.orbits() == [[0, 1], [2]]


def test_left_translation_is_fiber_bijection(s3_groupoid, z2_groupoid):
    for G in (pair_groupoid([0, 1]), z2_groupoid, s3_groupoid):
        for g in G.arrows():
            dom = target_fiber(G, G.src[g])
            image = {G.mul(g, k) for k in dom}
            assert image == set(target_fiber(G, G.tgt[g]))


# -- restriction ---------------------------------------------------------------


def test_restrict_to_swapped_orbit(z2_groupoid):
    sub, kept = z2_groupoid.restrict([0, 1])
    assert sub.validate().ok
    assert sub.objects == [1, 2]
    assert kept == sorted(kept)
    assert sub.n_arrows == 4


def test_restrict_to_fixed_point_keeps_isotropy(z2_groupoid):
    sub, kept = z2_groupoid.restrict([2])
    assert sub.n_objects == 1
    assert sub.n_arrows == 2  # unit and the Z/2 isotropy arrow over the fixed point
    assert sub.validate().ok


def test_restrict_non_invariant_raises(z2_groupoid):
    with pytest.raises(NotInvariant):
        z2_groupoid.restrict([0])


@given(subset=st.sets(st.sampled_from([0, 1, 2]), min_size=1))
def test_restrict_accepts_exactly_orbit_unions(subset):
    G = action_groupoid(
        FiniteGroupAction(
            cyclic_group(2),
            [1, 2, 3],
            lambda g, u: {1: 2, 2: 1}.get(u, u) if g == 1 else u,
        )
    )
    splits_orbit = len(subset & {0, 1}) == 1
    if splits_orbit:
        with pytest.raises(NotInvariant):
            G.restrict(sorted(subset))
    else:
        sub, kept = G.restrict(sorted(subset))
        assert sub.validate().ok
        assert kept == sorted(kept)


# -- JSON ----------------------------------------------------------------------


def test_json_roundtrip(tmp_path, z2_groupoid):
    path = tmp_path / "groupoid.json"
    z2_groupoid.save(str(path))
    back = FiniteGroupoid.load(str(path))
    assert back.objects == z2_groupoid.objects
    assert back.src == z2_groupoid.src
    assert back.tgt == z2_groupoid.tgt
    assert back.compose == z2_groupoid.compose
    assert back.unit == z2_groupoid.unit
    assert back.inverse == z2_groupoid.inverse
    assert back.validate().ok


def test_from_json_rejects_sparse_arrow_ids():
    doc = trivial_groupoid().to_json_dict()
    doc["arrows"][0]["id"] = 1
    doc["inverses"] = {"1": 1}
    with pytest.raises(ValueError, match="dense"):
        FiniteGroupoid.from_json_dict(doc)


# -- composition tables --------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: pair_groupoid([0, 1, 2]),
        lambda: action_groupoid(swap_action_on_two()),
        lambda: symmetric_group(3),
        lambda: trivial_groupoid(["a", "b"]),
    ],
)
def test_tables_match_dict_definitions(make):
    G = make()
    T = G.tables
    # target fibers, in ascending arrow order
    for x in range(G.n_objects):
        fiber = T.fiber[T.fiber_start[x] : T.fiber_start[x + 1]].tolist()
        assert fiber == target_fiber(G, x)
        assert [T.fiber_pos[a] for a in fiber] == list(range(len(fiber)))
    # averaging triples (g, k, gk), k ascending in the target fiber of src g
    triples = [
        (g, k, G.compose[(g, k)]) for g in G.arrows() for k in target_fiber(G, G.src[g])
    ]
    assert list(zip(T.avg_g.tolist(), T.avg_k.tolist(), T.avg_gk.tolist())) == triples
    for g in G.arrows():
        row = T.avg_g[T.row_start[g] : T.row_start[g] + T.row_len[g]]
        assert row.tolist() == [g] * len(target_fiber(G, G.src[g]))
    # divisible triples cover each divisible pair once
    divisible = list(zip(T.avg_gk.tolist(), T.avg_k.tolist(), T.div_q.tolist()))
    assert sorted(divisible) == sorted(divisible_pairs_ref(G))
    # composable triples, g1 ascending, then g2
    pairs = list(zip(T.pair_g2.tolist(), T.pair_g1.tolist(), T.pair_g21.tolist()))
    assert pairs == [(g2, g1, G.compose[(g2, g1)]) for g2, g1 in composable_pairs(G)]


def test_tables_orbit_ids_follow_orbits(z2_groupoid, two_orbit_disjoint, s3_groupoid):
    for G in (z2_groupoid, two_orbit_disjoint, s3_groupoid, trivial_groupoid(["a", "b", "c"])):
        T = G.tables
        assert T.n_orbits == len(G.orbits())
        assert [np.flatnonzero(T.orbit == o).tolist() for o in range(T.n_orbits)] == G.orbits()


def test_tables_reject_inconsistent_composition():
    G = pair_groupoid([0, 1])
    # arrow 1 is 0 -> 1 and arrow 0 the unit at 0: their composite must be 0 -> 1
    bent = dataclasses.replace(G, compose={**G.compose, (1, 0): 0})
    assert not bent.validate().ok
    with pytest.raises(ValueError, match="inconsistent at \\(1,0\\)"):
        bent.tables


def test_tables_are_built_lazily():
    G = symmetric_group(3)
    assert "tables" not in vars(G)
    assert G.tables is G.tables
