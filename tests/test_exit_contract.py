"""The exit contract of the command line under corrupted input files.

Every run ends with exit 0 (all assertions pass), 1 (an assertion fails) or
2 (the input is malformed), and no exception escapes ``cli.main``.  The
inputs are the groupoid, bundle (with two Gram matrices), psrep and Haar
files of a gated pseudo-representation on the two-orbit Z/2 action groupoid,
corrupted at one or two random places: a dropped key or element, a renamed
key, a value of the wrong JSON type, an out-of-range or negative arrow id,
NaN or infinity, a list of the wrong shape, or a whole document replaced.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupavg import presets
from groupavg.cli import main
from groupavg.haar import counting_haar
from groupavg.psrep import FiberBundle, PseudoRep


def clean_documents() -> dict:
    rng = np.random.default_rng(3)
    G, base = presets.z2_example_rep(rng)
    grams = [presets.random_spd(rng, 2, 0.8, 1.25), None, presets.random_spd(rng, 2, 0.8, 1.25)]
    base = PseudoRep(G, FiberBundle([2, 2, 2], grams), base.maps)
    rep, _ = presets.gated_perturbation(base, rng, 1e-3)
    return {
        "groupoid": G.to_json_dict(),
        "bundle": rep.bundle.to_json_dict(G.objects),
        "psrep": rep.to_json_dict(),
        "haar": counting_haar(G).to_json_dict(),
    }


CLEAN = clean_documents()
N_ARROWS = len(CLEAN["groupoid"]["arrows"])

# values that break a file wherever they land: wrong JSON types, arrow ids
# out of range or negative, non-finite numbers, and lists of the wrong shape
BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "x", "", {}, [], 0.5, 1.5, -1, N_ARROWS, 99, 10**20,
                     float("nan"), float("inf"), -float("inf")]),
    st.lists(st.integers(-2, N_ARROWS + 1), max_size=4),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5),
)
BAD_KEYS = st.sampled_from(["-1", "99", str(N_ARROWS), "x", "", "1.0", " 1"])


def places(node, path=()):
    """Every (path to a container, key or index in it) below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from places(child, (*path, key))


@st.composite
def corrupted(draw):
    docs = json.loads(json.dumps(CLEAN))
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(docs)))
        if draw(st.integers(0, 19)) == 0:
            docs[name] = draw(BAD_VALUES)
            continue
        path, key = draw(st.sampled_from(list(places(docs[name])) or [((), None)]))
        if key is None:  # an empty or scalar document: nothing to corrupt inside it
            continue
        parent = docs[name]
        for step in path:
            parent = parent[step]
        how = draw(st.sampled_from(["drop", "rename", "replace", "replace"]))
        if how == "drop":
            del parent[key]
        elif how == "rename" and isinstance(parent, dict):
            parent[draw(BAD_KEYS)] = parent.pop(key)
        else:
            parent[key] = draw(BAD_VALUES)
    return docs


def run_cli(docs: dict, command: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.json") for name in docs}
        for name, doc in docs.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)  # NaN and infinity are written as JSON extension tokens
        if command == "validate":
            argv = ["validate", "--groupoid", paths["groupoid"], "--haar", paths["haar"]]
        else:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({"kind": "finite_iterate", "max_iter": 3, **paths}, fh)
            argv = ["run", "--config", cfg, "--out", os.path.join(tmp, "out")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                np.errstate(all="ignore"):
            return main(argv)


def test_clean_inputs_pass():
    assert run_cli(CLEAN, "run") == 0
    assert run_cli(CLEAN, "validate") == 0


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=corrupted(), command=st.sampled_from(["run", "validate"]))
def test_corrupted_inputs_keep_the_exit_contract(docs, command):
    assert run_cli(docs, command) in (0, 1, 2)
