"""Invariances of the paper's objects, as oracles that share no formula with the kernels.

Relabelling: renumber the arrows and the objects of a groupoid, and rewrite its compose
rows, units, inverses, bundle and maps to match. Each defect map is then computed from the
same matrices in the same way, and a maximum is exact, so b, c, the unit defect and the
per-orbit gate rows are bit-equal. An average sums its fiber in ascending arrow id, so under
new ids it adds the same terms in another order: it may move by rounding, held here to
AVERAGE_ULPS units of eps b^2 (b^2 bounds each term's entries on these gated inputs).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groupavg import averaging, presets
from groupavg.groupoid import FiniteGroupoid
from groupavg.haar import counting_haar
from groupavg.psrep import FiberBundle, PseudoRep, b_norm, c_norm, is_nearly_multiplicative

EPS = np.finfo(float).eps
AVERAGE_ULPS = 4


def relabelled(rep: PseudoRep, pa: np.ndarray, po: np.ndarray, rows: np.ndarray) -> PseudoRep:
    """``rep`` with arrow g renamed pa[g] and object x renamed po[x], its compose rows
    listed in the order ``rows``."""
    G, B = rep.groupoid, rep.bundle
    objects, dims, metrics = [None] * G.n_objects, [0] * G.n_objects, [None] * G.n_objects
    for x in range(G.n_objects):
        objects[po[x]], dims[po[x]], metrics[po[x]] = G.objects[x], B.dims[x], B.metrics[x]
    src, tgt, inverse, labels, maps = ([None] * G.n_arrows for _ in range(5))
    for g in G.arrows():
        src[pa[g]], tgt[pa[g]] = int(po[G.src[g]]), int(po[G.tgt[g]])
        inverse[pa[g]], labels[pa[g]], maps[pa[g]] = int(pa[G.inverse[g]]), G.arrow_labels[g], rep.maps[g]
    unit = [None] * G.n_objects
    for x in range(G.n_objects):
        unit[po[x]] = int(pa[G.unit[x]])
    H = FiniteGroupoid(objects, src, tgt, pa[G.compose[rows]], unit, inverse, labels)
    return PseudoRep(H, FiberBundle(dims, metrics), maps)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), s3=st.booleans(), grams=st.booleans())
def test_relabelling_leaves_the_gauges_and_moves_the_average_by_rounding(seed, s3, grams):
    rng = np.random.default_rng(seed)
    G, base = presets.s3_example_rep(rng) if s3 else presets.z2_example_rep(rng)
    metrics = [presets.random_spd(rng, 2) for _ in G.objects] if grams else []
    rep, _ = presets.gated_perturbation(PseudoRep(G, FiberBundle([2] * G.n_objects, metrics), base.maps),
                                        rng, 1e-2)
    pa, po = rng.permutation(G.n_arrows), rng.permutation(G.n_objects)
    new = relabelled(rep, pa, po, rng.permutation(len(G.compose)))

    assert (b_norm(new), c_norm(new), new.unit_defect()) == (b_norm(rep), c_norm(rep), rep.unit_defect())
    rows = {tuple(sorted(po[r.objects])): (r.b, r.c, r.threshold, r.ok)
            for r in is_nearly_multiplicative(rep).rows}
    assert {tuple(r.objects): (r.b, r.c, r.threshold, r.ok) for r in is_nearly_multiplicative(new).rows} == rows

    avg = averaging.average(rep, counting_haar(G))
    avg_new = averaging.average(new, counting_haar(new.groupoid))
    moved = max(np.abs(avg_new.maps[pa[g]] - avg.maps[g]).max() for g in G.arrows())
    assert moved <= AVERAGE_ULPS * EPS * b_norm(rep) ** 2
