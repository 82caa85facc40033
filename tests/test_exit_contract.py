"""The exit contract of the command line under corrupted input files.

Every run ends with exit 0 (all assertions pass), 1 (an assertion fails) or
2 (the input is malformed), and no exception escapes ``cli.main``.  The
inputs are the groupoid, bundle (with two Gram matrices), psrep and Haar
files of a gated pseudo-representation on the two-orbit Z/2 action groupoid,
corrupted at one or two random places: a dropped key or element, a renamed
key, a value of the wrong JSON type (an integral float such as 2.0 where an
integer belongs, too), an out-of-range or negative arrow id, NaN or infinity, an integer too large for a float, a list of the wrong shape, or a whole document replaced.

Config files get the same corruptions.  Trace CSVs (``bounds-check``) and
profile CSVs (``run circle_profile --profile``) are corrupted as text: a
dropped, doubled or inserted line, a dropped cell, a cell replaced by a bad
token, or the whole file replaced.
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
from groupavg.averaging import TRACE_HEADER
from groupavg.bounds import envelope
from groupavg.circle import CircleProfile, save_profile_csv
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

# values that break a file wherever they land: wrong JSON types (integral floats
# too), arrow ids out of range or negative, non-finite numbers, an integer too
# large for a float, and lists of the wrong shape
BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "x", "", {}, [], 0.5, 1.5, 1.0, 2.0, 32.0, -1, N_ARROWS,
                     99, 10**20, 10**400, float("nan"), float("inf"), -float("inf")]),
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
def corrupted(draw, clean=CLEAN):
    docs = json.loads(json.dumps(clean))
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
        return quiet_main(argv)


def quiet_main(argv: list[str]) -> int:
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


# -- text inputs: trace and profile CSVs, and config files --------------------------


def clean_texts() -> dict:
    bs, cs = envelope(1.0, 0.01, 5)
    rows = [f"{i},{b!r},{c!r},0.0,0.0," for i, (b, c) in enumerate(zip(bs, cs))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.csv")
        save_profile_csv(CircleProfile.from_function(lambda t: 0.1 * np.sin(4 * np.pi * t), 16, 2), path)
        with open(path, encoding="utf-8") as fh:
            profile = fh.read()
    return {"trace": "\n".join([TRACE_HEADER, *rows]) + "\n", "profile": profile}


CLEAN_TEXTS = clean_texts()

# kinds whose run length grows with ``count`` are left out: a valid count of
# 10**20 asks for 10**20 samples, which is no fault of the program
CLEAN_CONFIGS = {
    "circle_profile": {"kind": "circle_profile", "N": 16, "k": 1},
    "circle_profile_file": {"kind": "circle_profile", "N": 16, "profile": "profile.csv"},
    "circle_iterate": {"kind": "circle_iterate", "N": 16, "k": 2, "seed": 1, "max_iter": 8,
                       "perturb": 1e-3},
    "finite_iterate": {"kind": "finite_iterate", "seed": 1, "max_iter": 3, "tol_c": 1e-12},
    "bounds_check": {"kind": "bounds_check", "trace": "trace.csv"},
}

BAD_TOKENS = st.one_of(
    st.sampled_from(["", " ", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "2", "99", "1.5",
                     "0x10", '"', "a,b", "1;2", "\x00", "\r"]),
    st.integers(-3, 100).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
)


@st.composite
def corrupted_text(draw, text: str) -> str:
    lines = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 19)) == 0:
            lines = [[draw(BAD_TOKENS)]]
            continue
        n = draw(st.integers(0, max(len(lines) - 1, 0)))
        how = draw(st.sampled_from(["drop_line", "double_line", "insert_line",
                                    "drop_cell", "replace_cell", "replace_cell"]))
        if not lines or not lines[n] or how == "insert_line":
            lines.insert(n, [draw(BAD_TOKENS) for _ in range(draw(st.integers(1, 3)))])
        elif how == "drop_line":
            del lines[n]
        elif how == "double_line":
            lines.insert(n, list(lines[n]))
        else:
            cell = draw(st.integers(0, len(lines[n]) - 1))
            if how == "drop_cell":
                del lines[n][cell]
            else:
                lines[n][cell] = draw(BAD_TOKENS)
    return "\n".join(",".join(cells) for cells in lines) + "\n"


def in_tmp(texts: dict, argv) -> int:
    """Exit code of ``argv(tmp) --out tmp/out``, with the clean CSVs, overridden by
    ``texts``, written as tmp/<name>.csv in a fresh directory tmp."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in {**CLEAN_TEXTS, **texts}.items():
            with open(os.path.join(tmp, f"{name}.csv"), "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        return quiet_main(argv(tmp) + ["--out", os.path.join(tmp, "out")])


CSV_COMMANDS = {
    "trace": lambda path: ["bounds-check", "--trace", path],
    "profile": lambda path: ["run", "circle_profile", "--profile", path, "--N", "16"],
}


def run_csv(name: str, text: str) -> int:
    return in_tmp({name: text}, lambda tmp: CSV_COMMANDS[name](os.path.join(tmp, f"{name}.csv")))


def run_config(config) -> int:
    """``run --config`` on ``config``, its file names taken in the run's directory."""
    def argv(tmp: str) -> list[str]:
        doc = config
        if isinstance(config, dict):
            doc = {k: os.path.join(tmp, v) if k in CSV_COMMANDS and isinstance(v, str) else v
                   for k, v in config.items()}
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return ["run", "--config", path]

    return in_tmp({}, argv)


def test_clean_text_inputs_pass():
    for name, text in CLEAN_TEXTS.items():
        assert run_csv(name, text) == 0, name
    for config in CLEAN_CONFIGS.values():
        assert run_config(config) == 0, config


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), name=st.sampled_from(["trace", "profile"]))
def test_corrupted_csv_inputs_keep_the_exit_contract(data, name):
    text = data.draw(corrupted_text(CLEAN_TEXTS[name]))
    assert run_csv(name, text) in (0, 1, 2)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), base=st.sampled_from(sorted(CLEAN_CONFIGS)))
def test_corrupted_configs_keep_the_exit_contract(data, base):
    config = data.draw(corrupted({"config": CLEAN_CONFIGS[base]}))["config"]
    assert run_config(config) in (0, 1, 2)
