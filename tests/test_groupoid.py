"""Groupoid axioms, builders, divisible pairs, orbits, restriction, JSON I/O."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import NotInvariant, composable_pairs, compose_dict, restrict, source_fiber, target_fiber
from groupavg import presets
from groupavg.groupoid import (
    FiniteGroupAction,
    FiniteGroupoid,
    MalformedAction,
    ValidationReport,
    action_groupoid,
    cyclic_group,
    group_from_table,
    pair_groupoid,
    symmetric_group,
    trivial_groupoid,
    write_lines,
)


def swap_action_on_two():
    z2 = cyclic_group(2)
    return FiniteGroupAction(z2, [1, 2], lambda g, u: (3 - u) if g == 1 else u)


# -- validate ----------------------------------------------------------------


def validate_ref(self) -> ValidationReport:
    """``FiniteGroupoid.validate`` as it was on the compose dict, kept as the oracle; the
    dict is built from the compose rows, in row order."""
    rep = ValidationReport()
    n, m = self.n_objects, self.n_arrows
    compose = compose_dict(self)

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
    for (g2, g1), g21 in compose.items():
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
        if (g2, g1) not in compose:
            rep.add("compose", (g2, g1), f"composable pair ({g2},{g1}) missing from table")

    def comp_ok(g2: int, g1: int) -> int | None:
        return compose.get((g2, g1))

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
    bad_compose = compose_dict(P)
    victim = next(k for k, v in bad_compose.items() if v != k[0])
    bad_compose[victim] = victim[0]
    bad = dataclasses.replace(P, compose=[(*k, v) for k, v in bad_compose.items()])
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
    off-domain compose entries (composites -1, m and m + 5 included, and added
    keys that hold -2 or m + 1), and bent inverses, units, sources and targets.
    Keys and composites draw different ids outside 0..m-1: the table reads a key
    that holds such an id as undefined, where the dict walk could look it up by
    a composite equal to that id.  Ids that do not fit an int64 cannot be built
    (see test_compose_rejects_ids_beyond_int64)."""
    m, n = clean.n_arrows, clean.n_objects
    arrow = st.integers(0, m - 1)
    composite = st.one_of(arrow, st.sampled_from([-1, m, m + 5]))
    key = st.one_of(arrow, arrow, st.sampled_from([-2, m + 1]))
    compose, unit = compose_dict(clean), list(clean.unit)
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
    compose = [(*k, v) for k, v in compose.items()]
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
    assert_tables_read_the_listed_composites(G)


def assert_tables_read_the_listed_composites(G):
    """The compose rows are scattered into the averaging triples: on corrupt rows (composites
    -1, m and m + 5 among them) ``tables`` either refuses, as ``mul`` then does on every
    composable pair, or gives each triple its listed composite, as ``mul`` does."""
    compose, pairs = compose_dict(G), list(composable_pairs(G))
    try:
        T = G.tables
    except ValueError:
        for g2, g1 in pairs:
            with pytest.raises(ValueError):
                G.mul(g2, g1)
        return
    triples = list(zip(T.avg_g.tolist(), T.avg_k.tolist()))
    assert sorted(triples) == sorted(pairs)
    assert T.avg_gk.tolist() == [compose[pair] for pair in triples]
    for g2, g1 in pairs:
        assert G.mul(g2, g1) == compose[(g2, g1)]


def test_validate_matches_dict_oracle_on_clean_groupoids(s3_groupoid, z2_groupoid, two_orbit_disjoint):
    for G in [s3_groupoid, z2_groupoid, two_orbit_disjoint] + [make() for make in ORACLE_GROUPOIDS.values()]:
        assert rows(G.validate()) == rows(validate_ref(G)) == []


def test_mul_names_a_missing_composable_pair():
    G = pair_groupoid([0, 1])
    holed = dataclasses.replace(G, compose=[r for r in G.compose.tolist() if r[:2] != [0, 0]])
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


@pytest.mark.parametrize("points, where", [(["a", "a"], "'a' is listed twice, at positions 0 and 1"),
                                           ([1, 1.0], "1 is listed twice, at positions 0 and 1"),
                                           ([0, 1, 2, 1], "1 is listed twice, at positions 1 and 3")],
                         ids=["same_str", "int_and_float", "later"])
def test_repeated_point_is_named(points, where):
    with pytest.raises(MalformedAction) as exc:
        trivial_groupoid(points)
    assert str(exc.value) == f"point {where}"
    # named before the action is applied, so the identity is not blamed
    with pytest.raises(MalformedAction, match="listed twice"):
        action_groupoid(FiniteGroupAction(cyclic_group(2), points, lambda g, u: u))


# -- builders: the dict-building builders they replaced, kept as the oracle -----------
#
# Each returns the constructor's fields with ``compose`` as the dict {(g2, g1): g21}.


def group_from_table_ref(labels, mul):
    labels = list(labels)
    pos = {x: i for i, x in enumerate(labels)}
    m = len(labels)
    compose = {(a, b): pos[mul(labels[a], labels[b])] for a in range(m) for b in range(m)}
    # identity: the unique e with e*x = x for all x
    unit_candidates = [e for e in range(m) if all(compose[(e, x)] == x for x in range(m))]
    if len(unit_candidates) != 1:
        raise ValueError(f"multiplication table has {len(unit_candidates)} identities")
    e = unit_candidates[0]
    inverse = [0] * m
    for a in range(m):
        inv = [b for b in range(m) if compose[(a, b)] == e and compose[(b, a)] == e]
        if len(inv) != 1:
            raise ValueError(f"element {labels[a]} has no two-sided inverse")
        inverse[a] = inv[0]
    return dict(objects=["*"], src=[0] * m, tgt=[0] * m, compose=compose, unit=[e],
                inverse=inverse, arrow_labels=labels)


def pair_groupoid_ref(objects):
    objects = list(objects)
    n = len(objects)
    aid = lambda i, j: i * n + j  # arrow i -> j
    compose = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                compose[(aid(j, k), aid(i, j))] = aid(i, k)
    return dict(
        objects=objects,
        src=[i for i in range(n) for _ in range(n)],
        tgt=[j for _ in range(n) for j in range(n)],
        compose=compose,
        unit=[aid(i, i) for i in range(n)],
        inverse=[aid(j, i) for i in range(n) for j in range(n)],
        arrow_labels=[(objects[i], objects[j]) for i in range(n) for j in range(n)],
    )


def action_groupoid_ref(action):
    G = action.group
    pts = list(action.points)
    pt_index = {u: i for i, u in enumerate(pts)}
    labels = G.arrow_labels
    e = G.unit[0]

    def act_idx(g, ui):
        out = action.act(labels[g], pts[ui])
        if out not in pt_index:
            raise MalformedAction(f"action leaves the point set: {labels[g]}.{pts[ui]} = {out}")
        return pt_index[out]

    for ui in range(len(pts)):
        if act_idx(e, ui) != ui:
            raise MalformedAction(f"identity does not fix point {pts[ui]}")
    prod = compose_dict(G)
    for g2 in G.arrows():
        for g1 in G.arrows():
            g21 = prod[(g2, g1)]
            for ui in range(len(pts)):
                if act_idx(g21, ui) != act_idx(g2, act_idx(g1, ui)):
                    raise MalformedAction(
                        f"compatibility fails at ({labels[g2]}, {labels[g1]}, {pts[ui]})"
                    )

    np_ = len(pts)
    aid = lambda g, ui: g * np_ + ui
    compose = {}
    for g2 in G.arrows():
        for g1 in G.arrows():
            g21 = prod[(g2, g1)]
            for ui in range(np_):
                # (g2, g1.u) after (g1, u) = (g2 g1, u)
                compose[(aid(g2, act_idx(g1, ui)), aid(g1, ui))] = aid(g21, ui)
    return dict(
        objects=pts,
        src=[ui for g in G.arrows() for ui in range(np_)],
        tgt=[act_idx(g, ui) for g in G.arrows() for ui in range(np_)],
        compose=compose,
        unit=[aid(e, ui) for ui in range(np_)],
        inverse=[aid(G.inverse[g], act_idx(g, ui)) for g in G.arrows() for ui in range(np_)],
        arrow_labels=[(labels[g], pts[ui]) for g in G.arrows() for ui in range(np_)],
    )


def saved_ref(fields):
    """The bytes ``FiniteGroupoid.save`` wrote for these fields when compose was a dict."""
    objects, src, tgt = fields["objects"], fields["src"], fields["tgt"]
    doc = {
        "objects": list(objects),
        "arrows": [{"id": g, "src": objects[src[g]], "tgt": objects[tgt[g]]} for g in range(len(src))],
        "compose": [[g2, g1, g21] for (g2, g1), g21 in sorted(fields["compose"].items())],
        "units": {str(objects[x]): fields["unit"][x] for x in range(len(objects))},
        "inverses": {str(g): fields["inverse"][g] for g in range(len(src))},
    }
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def sn_action(n):
    return FiniteGroupAction(symmetric_group(n), list(range(n)), lambda p, u: p[u])


def two_orbit_disjoint_ref():
    """The conftest groupoid as it was written, with a compose dict."""
    return dict(
        objects=[1, 2, 3], src=[0, 1, 1, 0, 2], tgt=[0, 1, 0, 1, 2],
        compose={(0, 0): 0, (1, 1): 1, (4, 4): 4, (0, 2): 2, (2, 1): 2, (3, 2): 1,
                 (1, 3): 3, (3, 0): 3, (2, 3): 0},
        unit=[0, 1, 4], inverse=[0, 1, 3, 2, 4], arrow_labels=None,
    )


S3_MUL = lambda p, q: tuple(p[q[i]] for i in range(3))
BUILDERS = {
    "z2_swap_two": (lambda: action_groupoid(swap_action_on_two()),
                    lambda: action_groupoid_ref(swap_action_on_two())),
    "z2_swap_three": (lambda: action_groupoid(presets.z2_swap_action()),
                      lambda: action_groupoid_ref(presets.z2_swap_action())),
    "pair3": (lambda: pair_groupoid(["a", "b", "c"]), lambda: pair_groupoid_ref(["a", "b", "c"])),
    "s3_group": (lambda: group_from_table(sorted(itertools.permutations(range(3))), S3_MUL),
                 lambda: group_from_table_ref(sorted(itertools.permutations(range(3))), S3_MUL)),
    "s3_action": (lambda: action_groupoid(sn_action(3)), lambda: action_groupoid_ref(sn_action(3))),
    "s4_action": (lambda: action_groupoid(sn_action(4)), lambda: action_groupoid_ref(sn_action(4))),
    "s5_action": (lambda: action_groupoid(sn_action(5)), lambda: action_groupoid_ref(sn_action(5))),
}


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["two_orbit_disjoint"])
def test_builders_match_dict_oracle(name, tmp_path, two_orbit_disjoint):
    if name == "two_orbit_disjoint":
        G, ref = two_orbit_disjoint, two_orbit_disjoint_ref()
    else:
        G, ref = (make() for make in BUILDERS[name])
    assert sorted(map(tuple, G.compose.tolist())) == sorted((*k, v) for k, v in ref["compose"].items())
    for field in ("objects", "src", "tgt", "unit", "inverse", "arrow_labels"):
        assert getattr(G, field) == ref[field]
    G.save(str(tmp_path / "G.json"))
    assert (tmp_path / "G.json").read_bytes() == saved_ref(ref)


MALFORMED_ACTIONS = {
    "identity": (cyclic_group(2), [1, 2], lambda g, u: 1),
    "compatibility": (cyclic_group(2), [1, 2], lambda g, u: 2 if g == 1 else u),
    "leaves": (cyclic_group(3), [0, 1, 2], lambda g, u: 7 if (g, u) == (2, 1) else (g + u) % 3),
    "leaves_at_identity": (cyclic_group(2), [1, 2], lambda g, u: 5 if g == 0 and u == 2 else u),
    "identity_before_leaves": (cyclic_group(2), [1, 2], lambda g, u: 9 if g else 1),
    # at the first triple (1, 1, 0), act leaves the set at both g21.u = 2.0 and g1.u = 1.0
    "leaves_at_the_composite_first": (group_from_table([1, 2, 0], lambda a, b: (a + b) % 3), [0, 1, 2],
                                      lambda g, u: 9 if g and u == 0 else (g + u) % 3),
    # the identity is arrow 2, so compatibility is checked at g2 = 1 before act meets 2.2
    "compatibility_before_leaves": (group_from_table([1, 2, 0], lambda a, b: (a + b) % 3), [0, 1, 2],
                                    lambda g, u: {(1, 0): 0, (2, 2): "x"}.get((g, u), (g + u) % 3)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ACTIONS))
def test_malformed_action_messages_match_dict_oracle(name):
    action = FiniteGroupAction(*MALFORMED_ACTIONS[name])
    with pytest.raises(MalformedAction) as ref:
        action_groupoid_ref(action)
    with pytest.raises(MalformedAction) as new:
        action_groupoid(action)
    assert str(new.value) == str(ref.value)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), n_pts=st.integers(1, 3))
def test_action_groupoid_matches_dict_oracle_on_random_maps(data, n, n_pts):
    """Any map Z/n x points -> points or beyond, with the elements in any arrow order: the
    same groupoid, or the same first MalformedAction."""
    labels = data.draw(st.permutations(range(n)))
    image = data.draw(st.lists(st.sampled_from(list(range(n_pts)) + [9, 9]), min_size=n * n_pts,
                               max_size=n * n_pts))
    group = group_from_table(labels, lambda a, b: (a + b) % n)
    action = FiniteGroupAction(group, list(range(n_pts)), lambda g, u: image[g * n_pts + u])
    try:
        ref = action_groupoid_ref(action)
    except MalformedAction as exc:
        with pytest.raises(MalformedAction) as new:
            action_groupoid(action)
        assert str(new.value) == str(exc)
        return
    G = action_groupoid(action)
    assert compose_dict(G) == ref["compose"]
    assert (G.src, G.tgt, G.unit, G.inverse) == (ref["src"], ref["tgt"], ref["unit"], ref["inverse"])


# -- the compose rows ----------------------------------------------------------


@pytest.mark.parametrize("big", [2**70, -2**70, 2**63, -2**63 - 1])
@pytest.mark.parametrize("place", [0, 1, 2], ids=["key_g2", "key_g1", "composite"])
def test_compose_rejects_ids_beyond_int64(big, place):
    G = pair_groupoid([0, 1])
    row = [0, 0, 0]
    row[place] = big
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(G, compose=G.compose.tolist() + [row])
    assert str(exc.value) == f"compose entry {row!r} is not three integers that fit an int64"


@pytest.mark.parametrize("row", [[0, 1.5, 0], [0, 1, "2"], [0, None, 1], [0, 1]])
def test_compose_rejects_a_row_that_is_not_three_integers(row):
    with pytest.raises(ValueError, match=f"^compose entry {re.escape(repr(row))} is not three"):
        dataclasses.replace(pair_groupoid([0, 1]), compose=[row])


@pytest.mark.parametrize("rows, named", [([[0, 0, 0], [0, 1]], [0, 1]), ([[0, 1], [0, 0, 0]], [0, 1]),
                                         ([[0, 0, 0], [1, 1, 1, 1]], [1, 1, 1, 1])])
def test_compose_names_the_first_row_of_ragged_rows(rows, named):
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(pair_groupoid([0, 1]), compose=rows)
    assert str(exc.value) == f"compose entry {named!r} is not three integers that fit an int64"


def test_groupoids_compare_by_value_with_compose_rows_as_a_set():
    S3 = symmetric_group(3)
    assert cyclic_group(2) == cyclic_group(2) and not cyclic_group(2) != cyclic_group(2)
    assert dataclasses.replace(S3, compose=S3.compose[::-1]) == S3
    assert action_groupoid(presets.s3_action()) == action_groupoid(presets.s3_action())
    # a different composite, arrow label, unit, object or group is a different groupoid
    bent = S3.compose.copy()
    bent[0, 2] = (bent[0, 2] + 1) % S3.n_arrows
    assert dataclasses.replace(S3, compose=bent) != S3
    assert dataclasses.replace(S3, arrow_labels=None) != S3
    assert dataclasses.replace(S3, unit=[1]) != S3
    assert dataclasses.replace(S3, objects=["x"]) != S3
    assert cyclic_group(2) != cyclic_group(3) and cyclic_group(2) != pair_groupoid([0, 1])
    assert cyclic_group(2) != "Z/2"


def test_compose_rejects_a_pair_listed_twice():
    Z2 = cyclic_group(2)
    rows = [[0, 0, 0], [0, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    with pytest.raises(ValueError, match=r"^compose entry \[0, 1, 1\]: pair \(0,1\) is already listed$"):
        dataclasses.replace(Z2, compose=rows)
    # ids outside 0..m-1 are rows like any other
    with pytest.raises(ValueError, match=r"^compose entry \[5, -1, 3\]: pair \(5,-1\) is already listed$"):
        dataclasses.replace(Z2, compose=[[5, -1, 0], [0, 0, 0], [5, -1, 3]])


def test_compose_is_a_read_only_copy_and_keeps_ids_outside_the_arrows():
    G = pair_groupoid([0, 1])
    given = np.vstack([G.compose, [[0, 0, -1], [4, 0, 9]]])[1:]  # (0, 0) now gives -1
    bent = dataclasses.replace(G, compose=given)
    given[0, 2] = 7
    assert bent.compose.dtype == np.int64 and bent.compose.shape == (len(G.compose) + 1, 3)
    assert not bent.compose.flags.writeable
    assert bent.compose[0].tolist() == G.compose[1].tolist()
    with pytest.raises(ValueError):
        bent.compose[0, 0] = 1
    reported = rows(bent.validate())
    assert ("compose", (4, 0), "composition entry references unknown arrow") in reported
    assert ("compose", (0, 0), "composition entry references unknown arrow") in reported
    assert reported == rows(validate_ref(bent))


# -- divisible pairs ---------------------------------------------------------


def divisible_triples(G):
    """The divisible triples (gk, k, gk k^-1) of the composition tables."""
    T = G.tables
    return list(zip(T.avg_gk.tolist(), T.avg_k.tolist(), T.div_q.tolist()))


def divisible_pairs_ref(G):
    """All (g, h, g h^-1) with src(g) == src(h), read off the compose dict."""
    compose = compose_dict(G)
    return [
        (g, h, compose[(g, G.inverse[h])])
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
            assert q == compose_dict(G)[(g, G.inverse[h])]
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
    sub, kept = restrict(z2_groupoid, [0, 1])
    assert sub.validate().ok
    assert sub.objects == [1, 2]
    assert kept == sorted(kept)
    assert sub.n_arrows == 4


def test_restrict_to_fixed_point_keeps_isotropy(z2_groupoid):
    sub, kept = restrict(z2_groupoid, [2])
    assert sub.n_objects == 1
    assert sub.n_arrows == 2  # unit and the Z/2 isotropy arrow over the fixed point
    assert sub.validate().ok


def test_restrict_non_invariant_raises(z2_groupoid):
    with pytest.raises(NotInvariant):
        restrict(z2_groupoid, [0])


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
            restrict(G, sorted(subset))
    else:
        sub, kept = restrict(G, sorted(subset))
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
    assert compose_dict(back) == compose_dict(z2_groupoid)
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
    compose = compose_dict(G)
    # target fibers, in ascending arrow order
    for x in range(G.n_objects):
        fiber = T.fiber[T.fiber_start[x] : T.fiber_start[x + 1]].tolist()
        assert fiber == target_fiber(G, x)
        assert [T.fiber_pos[a] for a in fiber] == list(range(len(fiber)))
    # averaging triples (g, k, gk), k ascending in the target fiber of src g
    triples = [
        (g, k, compose[(g, k)]) for g in G.arrows() for k in target_fiber(G, G.src[g])
    ]
    assert list(zip(T.avg_g.tolist(), T.avg_k.tolist(), T.avg_gk.tolist())) == triples
    for g in G.arrows():
        row = T.avg_g[T.row_start[g] : T.row_start[g] + T.row_len[g]]
        assert row.tolist() == [g] * len(target_fiber(G, G.src[g]))
    # divisible triples cover each divisible pair once
    divisible = list(zip(T.avg_gk.tolist(), T.avg_k.tolist(), T.div_q.tolist()))
    assert sorted(divisible) == sorted(divisible_pairs_ref(G))
    # averaging triples cover each composable pair once
    composable = list(zip(T.avg_g.tolist(), T.avg_k.tolist(), T.avg_gk.tolist()))
    assert sorted(composable) == sorted((g2, g1, compose[(g2, g1)]) for g2, g1 in composable_pairs(G))


def test_tables_orbit_ids_follow_orbits(z2_groupoid, two_orbit_disjoint, s3_groupoid):
    for G in (z2_groupoid, two_orbit_disjoint, s3_groupoid, trivial_groupoid(["a", "b", "c"])):
        T = G.tables
        assert T.n_orbits == len(G.orbits())
        assert [np.flatnonzero(T.orbit == o).tolist() for o in range(T.n_orbits)] == G.orbits()


def test_tables_reject_inconsistent_composition():
    G = pair_groupoid([0, 1])
    # arrow 1 is 0 -> 1 and arrow 0 the unit at 0: their composite must be 0 -> 1
    bent = dataclasses.replace(G, compose=[(*k, v) for k, v in {**compose_dict(G), (1, 0): 0}.items()])
    assert not bent.validate().ok
    with pytest.raises(ValueError, match="inconsistent at \\(1,0\\)"):
        bent.tables
    # with 0 -> 0 as the inverse of 0 -> 1, gk k^-1 at (g, k) = (1 -> 0, 0 -> 1) would start at 0,
    # not at src g = 1
    bent = dataclasses.replace(G, inverse=[0, 0, 1, 3])
    assert not bent.validate().ok
    with pytest.raises(ValueError, match="inconsistent at \\(2,1\\)"):
        bent.tables
    # a short table or an out-of-range id is named as validate() names it, not indexed
    for bent, named in ((dataclasses.replace(G, inverse=[0, 2, 1]), "inverse table has 3 entries, expected 4"),
                        (dataclasses.replace(G, src=[0, 0, 5, 1]), "arrow 2 has out-of-range src/tgt")):
        assert [v.message for v in bent.validate().violations] == [named]
        with pytest.raises(ValueError, match=f"^{named}$"):
            bent.tables
        with pytest.raises(ValueError, match=f"^{named}$"):
            bent.mul(0, 0)


def test_tables_are_built_lazily():
    G = symmetric_group(3)
    assert "tables" not in vars(G)
    assert G.tables is G.tables


@pytest.mark.parametrize("lines", [[], [""], ["a"], ["i,b,c", "", "0,1.0,0.5"]])
@pytest.mark.parametrize("as_iter", [False, True], ids=["list", "generator"])
def test_write_lines_writes_the_joined_text(tmp_path, lines, as_iter):
    # written line by line: the bytes of the joined text, and one LF for no lines
    path = tmp_path / "lines.txt"
    write_lines((line for line in lines) if as_iter else lines, str(path))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
