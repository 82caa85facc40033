"""End-to-end runs of the command line driver, in process via main(argv)."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import load_grid_csv
from groupavg import averaging, bounds, circle, cli
from groupavg.circle import CircleProfile, save_profile_csv
from groupavg.cli import main
from groupavg.groupoid import action_groupoid, cyclic_group, pair_groupoid
from groupavg.haar import HaarSystem, counting_haar
from groupavg.psrep import FiberBundle, PseudoRep
from groupavg import presets


@pytest.fixture
def groupoid_file(tmp_path, z2_groupoid):
    path = tmp_path / "groupoid.json"
    z2_groupoid.save(str(path))
    return str(path)


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"expected exit 0, got {code} for {argv}"


# -- validate ----------------------------------------------------------------------


def test_validate_ok(groupoid_file, capsys):
    run_ok(["validate", "--groupoid", groupoid_file])
    assert "valid groupoid" in capsys.readouterr().out


def test_validate_with_haar(tmp_path, groupoid_file, z2_groupoid):
    haar_path = tmp_path / "haar.json"
    counting_haar(z2_groupoid).save(str(haar_path))
    run_ok(["validate", "--groupoid", groupoid_file, "--haar", str(haar_path)])


def test_validate_reports_violations(tmp_path, z2_groupoid, capsys):
    broken = dataclasses.replace(z2_groupoid, inverse=[1, 0, 2, 3, 4, 5])
    path = tmp_path / "broken.json"
    broken.save(str(path))
    assert main(["validate", "--groupoid", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--groupoid", str(tmp_path / "absent.json")]) == 2
    assert "cannot load" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [
        ([1, 2], "the document must be a JSON object, got list"),
        ({"objects": [0], "arrows": [0], "compose": []}, "an arrow must be a JSON object, got int"),
        ({"objects": [0], "arrows": [{"id": 0, "src": 0, "tgt": 0}], "compose": [],
          "units": [0], "inverses": {"0": 0}}, "units must be a JSON object, got list"),
        ({"objects": [0], "arrows": [{"id": 0, "src": 0, "tgt": 0}], "compose": [0],
          "units": {"0": 0}, "inverses": {"0": 0}}, "cannot unpack non-iterable int"),
    ],
    ids=["top_level_list", "arrow_is_number", "units_is_list", "compose_entry_is_number"],
)
def test_validate_wrong_json_type_named(tmp_path, capsys, doc, named):
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--groupoid", str(path)]) == 2
    assert f"{path}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda d: d["inverses"].update({"99": 0}), "inverses key: '99' is not an arrow id 0..17"),
        (lambda d: d["inverses"].update({"-1": d["inverses"]["17"]}),
         "inverses key: '-1' is not an arrow id 0..17"),
        (lambda d: d["compose"].append([1.5, 1.5, 1.5]),
         "compose entry [1.5, 1.5, 1.5]: 1.5 is not an arrow id 0..17"),
        (lambda d: d["inverses"].update({"3": float(d["inverses"]["3"])}),
         "inverses['3']: 3.0 is not an arrow id 0..17"),
        (lambda d: d["units"].update({"0": 18}), "units['0']: 18 is not an arrow id 0..17"),
        (lambda d: d["arrows"][5].update(id=5.0), "arrow ids must be dense integers"),
        (lambda d: d["units"].update(zz=0), "units key 'zz' is not an object"),
        (lambda d: d["compose"].append([0, 18, -1]), "compose entry [0, 18, -1]: 18 is not an arrow id 0..17"),
        (lambda d: d["compose"].insert(3, [1, True, 1]), "compose entry [1, True, 1]: True is not an arrow id 0..17"),
        (lambda d: d["compose"].insert(0, [0, 0, 1]), "compose entry [0, 0, 0]: pair (0,0) is already listed"),
        (lambda d: d["units"].pop("1"), "units: missing key '1'"),
        (lambda d: d["inverses"].pop("5"), "inverses: missing key '5'"),
    ],
    ids=["inverses_key_99", "inverses_key_minus_1", "compose_entry_fractional",
         "inverse_value_float", "unit_out_of_range", "arrow_id_float", "units_key_not_object",
         "compose_id_out_of_range", "compose_id_bool", "pair_listed_twice", "unit_missing",
         "inverse_missing"],
)
def test_validate_rejects_bad_ids(tmp_path, capsys, s3_groupoid, corrupt, named):
    doc = s3_groupoid.to_json_dict()
    corrupt(doc)
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--groupoid", str(path)]) == 2
    assert f"{path}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt, named",
    [
        # the first listing of a pair used to be dropped without a word
        (lambda d: d["compose"].insert(1, [0, 1, 0]), "compose entry [0, 1, 1]: pair (0,1) is already listed"),
        # missing entries used to read arrow 0
        (lambda d: d.update(units={}, inverses={"1": 1}), "units: missing key '*'"),
        (lambda d: d.update(inverses={"1": 1}), "inverses: missing key '0'"),
    ],
    ids=["pair_listed_twice", "units_empty", "inverse_missing"],
)
def test_validate_names_an_incomplete_or_doubled_z2_table(tmp_path, capsys, corrupt, named):
    doc = cyclic_group(2).to_json_dict()
    assert doc["compose"][1] == [0, 1, 1]
    corrupt(doc)
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--groupoid", str(path)]) == 2
    assert f"{path}: {named}" in capsys.readouterr().err


def test_validate_skips_haar_check_on_invalid_groupoid(tmp_path, z2_groupoid, capsys):
    # the invariance check composes arrows, so it needs a table that holds every composite
    doc = z2_groupoid.to_json_dict()
    doc["compose"] = doc["compose"][1:]
    path, haar_path = tmp_path / "groupoid.json", tmp_path / "haar.json"
    path.write_text(json.dumps(doc))
    counting_haar(z2_groupoid).save(str(haar_path))
    assert main(["validate", "--groupoid", str(path), "--haar", str(haar_path)]) == 1
    captured = capsys.readouterr()
    assert "missing from table" in captured.out
    assert "haar weights not checked: the groupoid is invalid" in captured.out


def test_validate_bad_haar_weights(tmp_path, groupoid_file, z2_groupoid, capsys):
    nu = counting_haar(z2_groupoid)
    skew = HaarSystem(z2_groupoid, [w * 0.9 for w in nu.weights])
    path = tmp_path / "haar.json"
    skew.save(str(path))
    assert main(["validate", "--groupoid", groupoid_file, "--haar", str(path)]) == 1


def negative_pair_haar():
    """The Haar weights 1.5 on each arrow from object 0 of a pair groupoid on two objects and
    -0.5 on each arrow from object 1: normalized and left invariant, but no measure."""
    G = pair_groupoid([0, 1])
    return HaarSystem(G, [1.5 if G.src[k] == 0 else -0.5 for k in G.arrows()])


def test_validate_names_negative_haar_weights(tmp_path, capsys):
    nu = negative_pair_haar()
    path, haar_path = tmp_path / "pair.json", tmp_path / "haar.json"
    nu.groupoid.save(str(path))
    nu.save(str(haar_path))
    assert main(["validate", "--groupoid", str(path), "--haar", str(haar_path)]) == 1
    out = capsys.readouterr().out
    assert all(f"negative weight at arrow {k}" in out for k, w in enumerate(nu.weights) if w < 0)


def test_run_rejects_negative_haar_weights(tmp_path, capsys):
    nu = negative_pair_haar()
    G = nu.groupoid
    cfg, _ = write_finite_inputs(tmp_path, PseudoRep(G, FiberBundle.uniform(2, 1), [np.eye(1) for _ in G.arrows()]), nu)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "haar weights fail the Haar checks" in err and "negative weight at arrow 2" in err


@pytest.mark.parametrize("labels, named", [
    ([1, "1"], "objects 1 and '1' share the label '1'"),
    (["a", "a"], "objects 'a' and 'a' share the label 'a'"),
], ids=["int_and_str", "repeated"])
def test_colliding_object_labels_named_on_validate_and_run(tmp_path, capsys, labels, named):
    # a file names objects by str(label), so two labels with one str would be one object
    doc = {"objects": labels, "arrows": [{"id": i, "src": x, "tgt": x} for i, x in enumerate(labels)],
           "compose": [[0, 0, 0], [1, 1, 1]], "units": {str(x): i for i, x in enumerate(labels)},
           "inverses": {"0": 0, "1": 1}}
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--groupoid", str(path)]) == 2
    assert f"{path}: {named}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "finite_iterate", "groupoid": str(path)}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: {named}" in capsys.readouterr().err


# -- run: finite kinds ----------------------------------------------------------------


def test_finite_iterate_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(["run", "finite_iterate", "--seed", "7", "--out", str(out), "--perturb", "1e-3"])
    assert "all assertions passed" in capsys.readouterr().out
    assert (out / "trace.csv").exists()
    assert (out / "bounds_check.csv").exists()
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["verdict"]["kind"] == "Converged"
    assert doc["gate_ok"] is True
    assert doc["envelope_ok"] is True
    assert doc["seed"] == 7
    head = (out / "trace.csv").read_text().splitlines()[0]
    assert head == "i,b,c,unit_defect,quadratic_bound_rhs,envelope"


def test_finite_iterate_counts_failed_bounds_rows(tmp_path, capsys):
    # at 1e-5 the last step's c is rounding, above its quadratic bound: bounds_check.csv
    # fails a row that the kind does not assert, and the run says so
    out = tmp_path / "out"
    run_ok(["run", "finite_iterate", "--perturb", "1e-5", "--out", str(out)])
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "[groupavg] bounds_check.csv: 1 of 6 rows failed (not asserted)",
        "[groupavg] finite_iterate: all assertions passed"]
    assert json.loads((out / "verdict.json").read_text())["bounds_check_ok"] is False


def test_finite_iterate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_ok(["run", "finite_iterate", "--seed", "11", "--out", str(out)])
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "verdict.json").read_bytes() == (b / "verdict.json").read_bytes()


def test_finite_iterate_tol_flag(tmp_path):
    out = tmp_path / "out"
    run_ok(["run", "finite_iterate", "--seed", "3", "--out", str(out), "--tol-c", "1e-6"])
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["c_final"] <= 1e-6


def ungated_finite_inputs(tmp_path, delta: float) -> str:
    """A finite_iterate config over files of the S3 example perturbed at ``delta``, with no
    gate rescale: the run's only route to an input outside the gate."""
    rng = np.random.default_rng(0)
    G, rep = presets.s3_example_rep(rng)
    return write_finite_inputs(tmp_path, presets.perturb_rep(rep, rng, delta), counting_haar(G))[0]


def test_finite_iterate_budget_exhausted(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", ungated_finite_inputs(tmp_path, 10.0), "--max-iter", "2",
                 "--out", str(out)]) == 1
    assert "verdict Diverged" in capsys.readouterr().err
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["gate_ok"] is False


def test_finite_iterate_ungated_file_input_runs(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", ungated_finite_inputs(tmp_path, 10.0), "--out", str(out)])
    assert code in (0, 1)
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["gate_ok"] is False
    assert doc["verdict"]["kind"] in ("Converged", "Diverged")


def test_finite_iterate_records_the_rescaled_perturbation(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(["run", "finite_iterate", "--seed", "1", "--perturb", "0.2", "--out", str(out)])
    used = re.search(r"after gate rescale: (\S+)", capsys.readouterr().out).group(1)
    assert json.loads((out / "verdict.json").read_text())["perturb"] == float(used) < 0.2


def test_finite_identities_count(tmp_path):
    out = tmp_path / "out"
    run_ok(["run", "finite_identities", "--seed", "1", "--count", "5", "--out", str(out)])
    lines = (out / "identities.csv").read_text().splitlines()
    assert lines[0] == "i,residual_a,residual_b,tol,pass"
    assert len(lines) == 6
    assert all(line.endswith("true") for line in lines[1:])


def test_finite_identities_builds_no_pseudorep(tmp_path, monkeypatch):
    """Each run's samples stay one stacked batch from the draw to the report."""
    built = []
    check = PseudoRep.__post_init__
    monkeypatch.setattr(PseudoRep, "__post_init__", lambda rep: built.append(rep) or check(rep))
    run_ok(["run", "finite_identities", "--seed", "1", "--count", "300", "--out", str(tmp_path)])
    assert len((tmp_path / "identities.csv").read_text().splitlines()) == 301
    assert built == []


def test_finite_identities_runs_equal_single_samples(tmp_path):
    """Drawn and checked a run at a time, the samples' rows equal those of samples drawn
    and checked one at a time; 40 samples cross the end of the first 37-sample run."""
    out = tmp_path / "out"
    run_ok(["run", "finite_identities", "--seed", "3", "--count", "40", "--out", str(out)])
    rng = np.random.default_rng(3)
    G = action_groupoid(presets.s3_action())
    nu = counting_haar(G)
    assert averaging.identity_run(G) == 37
    want = ["i,residual_a,residual_b,tol,pass"]
    for i in range(40):
        r = averaging.verify_fundamental_identities([presets.random_pseudorep(G, rng)], nu)[0]
        want.append(f"{i},{r.residual_a!r},{r.residual_b!r},{r.tol!r},{str(r.ok).lower()}")
    assert (out / "identities.csv").read_text().splitlines() == want


# -- run: circle kinds ----------------------------------------------------------------


def test_circle_iterate_artifacts(tmp_path):
    out = tmp_path / "out"
    run_ok(["run", "circle_iterate", "--seed", "5", "--N", "32", "--out", str(out)])
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["verdict"]["kind"] == "Converged"
    assert doc["envelope_ok"] is True
    assert doc["N"] == 32
    assert (out / "limit_profile.csv").exists()
    head = (out / "limit_profile.csv").read_text().splitlines()[0]
    assert head == "32,2"


def test_circle_iterate_gauges_c_only(tmp_path, monkeypatch):
    # every defect pass of the run is an order-0 pass: one per trace row but row 0, and the
    # gate's, which gives row 0
    sups, residual, iterate = (circle._defect_sups, circle.multiplicativity_residual,
                               circle.iterate_circle)
    orders, gate_passes, runs = [], [], []

    def spy_iterate(L0, **kw):
        runs.append((L0, kw, iterate(L0, **kw)))
        return runs[-1][2]

    monkeypatch.setattr(circle, "_defect_sups",
                        lambda slice_at, N, order: orders.append(order) or sups(slice_at, N, order))
    monkeypatch.setattr(circle, "multiplicativity_residual",
                        lambda L: gate_passes.append(L) or residual(L))
    monkeypatch.setattr(circle, "iterate_circle", spy_iterate)
    out = tmp_path / "out"
    run_ok(["run", "circle_iterate", "--N", "32", "--seed", "3", "--out", str(out)])
    rows = len((out / "trace.csv").read_text().splitlines()) - 1
    assert rows >= 3
    assert set(orders) == {0}
    assert len(gate_passes) >= 1
    assert len(orders) == rows - 1 + len(gate_passes)

    # the rows equal those of the library at its default order 1
    (lam0, kw, trace), = runs
    got, want = trace.rows, iterate(lam0, tol_c=kw["tol_c"], max_iter=kw["max_iter"]).rows
    assert [(r.b, r.c, r.unit_defect) for r in got] == [(r.b, r.c, r.unit_defect) for r in want]
    assert want[0].extras and not got[0].extras


def test_circle_iterate_builds_each_candidate_from_the_seed(tmp_path, monkeypatch):
    # a candidate is the exact field plus the amplitude times the seed's noise with its unit
    # row zeroed, bit for bit, at each amplitude of a run that rescales more than once
    rescale, makers, scales = presets.rescale_to_gate, [], []

    def spy(make, gauges, delta):
        makers.append(make)
        return rescale(lambda s: scales.append(s) or make(s), gauges, delta)

    monkeypatch.setattr(presets, "rescale_to_gate", spy)
    N, seed = 64, 1
    run_ok(["run", "circle_iterate", "--N", str(N), "--seed", str(seed), "--perturb", "0.2",
            "--out", str(tmp_path)])
    assert len(scales) >= 3
    noise = presets.smooth_torus_field(np.random.default_rng(seed), N)
    noise[0] = 0.0
    exact = circle.from_profile(cli.default_profile({"k": 2}), N, 2)[1].values
    for scale in scales[:3]:
        assert np.array_equal(makers[0](scale).values, exact + scale * noise), scale


def test_circle_profile_defaults(tmp_path):
    out = tmp_path / "out"
    run_ok(["run", "circle_profile", "--N", "16", "--k", "1", "--out", str(out)])
    doc = json.loads((out / "residuals.json").read_text())
    assert doc["res_cocycle"] <= 1e-13
    assert doc["res_unit"] <= 1e-13
    assert (out / "connection.csv").read_text().splitlines()[0] == "16,1"
    assert (out / "effect.csv").exists()


@pytest.mark.parametrize("k", [9, 10, 64])
def test_circle_profile_default_in_range_at_high_twist(tmp_path, k):
    run_ok(["run", "circle_profile", "--N", "32", "--k", str(k), "--out", str(tmp_path / "prof")])


@pytest.mark.parametrize("N, k, tol", [(64, 14, 1e-13), (256, 48, 32 * 48 * 2.0**-52),
                                       (512, 64, 32 * 64 * 2.0**-52)])
def test_circle_profile_tolerance_is_linear_in_the_twist(tmp_path, N, k, tol):
    # the closed form's rounding grows linearly in k: a fixed 1e-13 failed these valid grids
    out = tmp_path / "prof"
    run_ok(["run", "circle_profile", "--N", str(N), "--k", str(k), "--out", str(out)])
    doc = json.loads((out / "residuals.json").read_text())
    assert doc["tol"] == tol
    assert doc["res_cocycle"] <= tol


def test_circle_profile_from_file(tmp_path):
    for k in (2, 3):
        prof_path = tmp_path / f"profile{k}.csv"
        save_profile_csv(
            CircleProfile.from_function(lambda t: 0.1 * np.sin(2 * k * np.pi * t), 32, k),
            str(prof_path),
        )
        out = tmp_path / f"out{k}"
        run_ok(["run", "circle_profile", "--profile", str(prof_path), "--N", "32",
                "--out", str(out)])
        assert json.loads((out / "residuals.json").read_text())["k"] == k


def test_circle_profile_rejects_nonperiodic(tmp_path, capsys):
    prof_path = tmp_path / "profile.csv"
    save_profile_csv(
        CircleProfile.from_function(lambda t: 0.1 * np.sin(2 * np.pi * t), 32, 2),
        str(prof_path),
    )
    out = tmp_path / "out"
    code = main(["run", "circle_profile", "--profile", str(prof_path), "--N", "32",
                 "--out", str(out)])
    assert code == 2
    assert "periodic" in capsys.readouterr().err


def test_group_bundle_kind(tmp_path):
    out = tmp_path / "out"
    run_ok(["run", "group_bundle", "--seed", "2", "--count", "3", "--N", "16",
            "--out", str(out)])
    lines = (out / "group_bundle.csv").read_text().splitlines()
    assert lines[0] == "i,max_abs_average,tol,pass"
    assert len(lines) == 4


# -- run: config handling ---------------------------------------------------------------


def test_config_supplies_kind_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "circle_profile", "N": 16, "k": 1}))
    out = tmp_path / "out"
    run_ok(["run", "--config", str(cfg), "--N", "32", "--out", str(out)])
    doc = json.loads((out / "residuals.json").read_text())
    assert doc["N"] == 32
    assert doc["k"] == 1


def test_run_without_kind(capsys):
    assert main(["run"]) == 2
    assert "no kind" in capsys.readouterr().err


def test_run_unknown_kind_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["run", "telemetry"])
    assert exc.value.code == 2


def test_config_schema_violation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "finite_iterate", "seed": "nope"}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "schema" in capsys.readouterr().err


def test_config_unreadable(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "cannot read config" in capsys.readouterr().err


# -- bounds-check -----------------------------------------------------------------------


def test_bounds_check_roundtrip(tmp_path):
    gen = tmp_path / "gen"
    # stop above the rounding floor so every step row stays decidable
    run_ok(["run", "finite_iterate", "--seed", "7", "--out", str(gen),
            "--tol-c", "1e-8"])
    out = tmp_path / "check"
    run_ok(["bounds-check", "--trace", str(gen / "trace.csv"), "--out", str(out)])
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["ok"] is True
    assert doc["first_failure"] is None


def test_bounds_check_flags_corruption(tmp_path, capsys):
    gen = tmp_path / "gen"
    run_ok(["run", "finite_iterate", "--seed", "7", "--out", str(gen),
            "--tol-c", "1e-8"])
    trace = gen / "trace.csv"
    lines = trace.read_text().splitlines()
    head, first, second = lines[0], lines[1], lines[2]
    cells = second.split(",")
    cells[2] = repr(float(cells[2]) * 50.0)
    doctored = tmp_path / "doctored.csv"
    doctored.write_text("\n".join([head, first, ",".join(cells)] + lines[3:]) + "\n")
    out = tmp_path / "check"
    assert main(["bounds-check", "--trace", str(doctored), "--out", str(out)]) == 1
    assert "bounds row i=1" in capsys.readouterr().err
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["ok"] is False
    assert doc["first_failure"] == 1


@pytest.mark.parametrize(
    "text, named",
    [
        ("i,b\n0,1\n1,1\n", "trace has no 'c' column"),
        ("i,c,b\n0,0.1\n1,0.01,1\n", "trace row 0 is short: no 'b' value"),
        ("i,b,c\n0,1,0.01\n1,1,x\n", "trace row 1: 'c' value 'x' is not a number"),
        ("i,b,c\n0,1," + "0" * 200_000 + "\n", "field larger than field limit"),
        ("i,b,c\n0,1.0,0.01\n1,1.0,-0.5\n", "trace row 1: 'c' value '-0.5' is negative"),
    ],
    ids=["no_c_column", "short_row", "not_a_number", "field_too_long", "negative_c"],
)
def test_bounds_check_malformed_trace_named(tmp_path, capsys, text, named):
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    assert main(["bounds-check", "--trace", str(trace), "--out", str(tmp_path / "o")]) == 2
    assert f"{trace}: {named}" in capsys.readouterr().err


def test_bounds_check_reads_nonfinite_values(tmp_path, capsys):
    # a Diverged trace holds inf and NaN; they fail the check, not the parse
    trace = tmp_path / "trace.csv"
    trace.write_text("i,b,c\n0,inf,nan\n1,1.0,0.0\n")
    assert main(["bounds-check", "--trace", str(trace), "--out", str(tmp_path / "o")]) == 1
    assert "bounds row i=0 eps_le_2_3: observed nan" in capsys.readouterr().err


def test_bounds_check_fails_just_past_the_gate(tmp_path, capsys):
    # 6 b0^2 c0 is within 1e-12 of 2/3 here, but c0 is above the gate (1/9) b0^-2
    b1, c1 = bounds.step_bounds(1.0, 0.11111111111112221)
    trace = tmp_path / "trace.csv"
    trace.write_text(f"i,b,c\n0,1.0,0.11111111111112221\n1,{b1!r},{c1!r}\n")
    assert main(["bounds-check", "--trace", str(trace), "--out", str(tmp_path / "o")]) == 1
    assert "bounds row i=0 eps_le_2_3" in capsys.readouterr().err
    row = "0,eps_le_2_3,0.6666666666666666,0.6666666666667332,false"
    assert row in (tmp_path / "o" / "bounds_check.csv").read_text().splitlines()


def test_bounds_check_needs_trace(capsys):
    assert main(["bounds-check"]) == 2
    assert "trace" in capsys.readouterr().err


RUN_FLAGS = ["--config CONFIG", "--seed SEED", "--out OUT", "--tol-c TOL_C", "--max-iter MAX_ITER",
             "--N N", "--k K", "--perturb PERTURB", "--count COUNT", "--trace TRACE",
             "--profile PROFILE"]


@pytest.mark.parametrize("command", ["run", "bounds-check"])
def test_help_lists_the_run_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert re.findall(r"^  (--\S+ \S+)$", capsys.readouterr().out, re.M) == RUN_FLAGS
    args = cli.build_parser().parse_args([command, "--seed", "3", "--tol-c", "1", "--trace", "t.csv"])
    assert (args.seed, args.tol_c, args.trace) == (3, 1.0, "t.csv")
    assert type(args.tol_c) is float


# -- boundary cases -----------------------------------------------------------------------


def write_finite_inputs(tmp_path, rep, nu):
    """Groupoid, Haar, bundle and psrep files for `rep`, plus a finite_iterate config."""
    G = rep.groupoid
    names = ("groupoid", "haar", "bundle", "psrep")
    paths = {name: str(tmp_path / f"{name}.json") for name in names}
    G.save(paths["groupoid"])
    nu.save(paths["haar"])
    with open(paths["bundle"], "w") as fh:
        json.dump(rep.bundle.to_json_dict(G.objects), fh)
    rep.save(paths["psrep"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "finite_iterate", **paths}))
    return str(cfg), paths


def assert_converged_at_zero(out):
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["verdict"] == {"kind": "Converged", "iteration": 0, "arrow": None}
    assert doc["envelope_ok"] is True
    assert (out / "bounds_check.csv").read_text() == "i,check,bound,observed,pass\n"
    assert len((out / "trace.csv").read_text().splitlines()) == 2


def test_circle_iterate_already_converged(tmp_path):
    out = tmp_path / "out"
    run_ok(["run", "circle_iterate", "--perturb", "0", "--N", "32", "--out", str(out)])
    assert_converged_at_zero(out)


def test_finite_iterate_exact_rep_from_files(tmp_path, rng):
    G, rep = presets.s3_example_rep(rng)
    cfg, _ = write_finite_inputs(tmp_path, rep, counting_haar(G))
    out = tmp_path / "out"
    run_ok(["run", "--config", cfg, "--out", str(out)])
    assert_converged_at_zero(out)
    assert json.loads((out / "verdict.json").read_text())["perturb"] is None


def test_bounds_check_kind_still_needs_two_rows(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("i,b,c,unit_defect,quadratic_bound_rhs,envelope\n0,1.0,0.0,0.0,0.0,\n")
    assert main(["bounds-check", "--trace", str(trace), "--out", str(tmp_path / "o")]) == 2
    assert "at least two entries" in capsys.readouterr().err


def test_psrep_missing_arrow_named(tmp_path, rng, capsys):
    G, rep = presets.s3_example_rep(rng)
    cfg, paths = write_finite_inputs(tmp_path, rep, counting_haar(G))
    doc = json.loads(open(paths["psrep"]).read())
    del doc["7"]
    with open(paths["psrep"], "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "arrow 7" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("99", {"shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]}),
                                        ("x", 5), ("-1", None)])
def test_psrep_extra_key_named(tmp_path, rng, capsys, key, value):
    G, rep = presets.s3_example_rep(rng)
    cfg, paths = write_finite_inputs(tmp_path, rep, counting_haar(G))
    doc = json.loads(open(paths["psrep"]).read())
    doc[key] = value
    with open(paths["psrep"], "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    named = f"{paths['psrep']}: psrep key {key!r} is not an arrow id 0..17"
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_psrep_nonfinite_entry_named(tmp_path, rng, capsys):
    G, rep = presets.s3_example_rep(rng)
    cfg, paths = write_finite_inputs(tmp_path, rep, counting_haar(G))
    doc = json.loads(open(paths["psrep"]).read())
    doc["11"]["data"][1] = float("nan")
    doc["5"]["data"][0] = float("inf")
    with open(paths["psrep"], "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "arrow 5" in err and "non-finite" in err


def test_config_grid_below_minimum(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "circle_profile", "N": 3}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "schema" in capsys.readouterr().err


def load_schema() -> dict:
    return json.loads(Path(cli.__file__).with_name("config.schema.json").read_text())


def test_schema_uses_only_checked_keywords():
    schema = load_schema()
    assert set(schema) <= {"$schema", "title", "type", "properties", "additionalProperties"}
    assert schema["type"] == "object" and schema["additionalProperties"] is False
    for field, rule in schema["properties"].items():
        assert set(rule) <= set(cli.FIELD_CHECKS), field
        assert rule.get("type") in {None, *cli.JSON_TYPES}, field


@pytest.mark.parametrize(
    "config, named",
    [
        ({"kind": "finite_iterate", "seed": True}, "seed: True is not of type 'integer'"),
        ({"kind": "finite_iterate", "perturb": False}, "perturb: False is not of type 'number'"),
        ({"kind": "finite_iterate", "gate_rescale": 1}, "gate_rescale: unknown field"),
        ({"kind": "finite_iterate", "tol_c": "1e-12"}, "tol_c: '1e-12' is not of type 'number'"),
        ({"kind": "finite_iterate", "tol_c": 0}, "tol_c: 0 is less than or equal to the minimum of 0"),
        ({"kind": "telemetry"}, "kind: 'telemetry' is not one of"),
        ({"kind": "finite_iterate", "colour": "red"}, "colour: unknown field"),
    ],
    ids=["bool_integer", "bool_number", "gate_rescale_unknown", "string_number",
         "exclusive_minimum", "enum", "unknown_key"],
)
def test_config_rule_rejects_named(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config or flags do not match schema: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ({"kind": "circle_iterate", "N": 32.0}, "N"),
        ({"kind": "circle_profile", "k": 2.0}, "k"),
        ({"kind": "group_bundle", "count": 3.0}, "count"),
        ({"kind": "group_bundle", "seed": 1.0}, "seed"),
        ({"kind": "group_bundle", "N": 8.0}, "N"),
        ({"kind": "finite_iterate", "max_iter": 5.0}, "max_iter"),
    ],
)
def test_integral_float_is_not_an_integer(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{field}: {config[field]!r} is not of type 'integer'" in capsys.readouterr().err


def test_schema_accepts_its_edges():
    edges = {"kind": "circle_iterate", "N": circle.MAX_N, "k": circle.MAX_TWIST, "seed": 0,
             "perturb": 0, "tol_c": 1}
    cli.check_schema(edges, load_schema())


def test_schema_maxima_are_the_circle_limits():
    props = load_schema()["properties"]
    assert props["N"]["maximum"] == circle.MAX_N >= 512  # 512 is on the bench ladder
    assert props["k"]["maximum"] == circle.MAX_TWIST


def exit_and_peak(argv) -> tuple[int, int]:
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["circle_iterate", "circle_profile"])
def test_circle_kind_peaks_below_six_grids(tmp_path, monkeypatch, kind):
    # no grid outlives its use: the iterate run drops its noise and exact field after the
    # gate and holds no index grid; the profile run writes its grid CSVs line by line and
    # drops the connection before the residual pass. On two workers, the larger peak: N = 256
    # runs on one unless _WORKER_ROWS allows two. They read 3.33 and 3.11 N^2 (held to 3.5);
    # the profile run holding its connection through the residual pass read 4.12
    monkeypatch.setattr(circle, "_THREADS", 2)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)
    N = 256
    code, peak = exit_and_peak(["run", kind, "--N", str(N), "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    assert peak < 3.5 * N * N * 8, f"peak {peak / (8 * N * N):.2f} N^2 doubles"


def warm_peak(tmp_path, argv, N=256) -> float:
    """The traced peak of a run at resolution N, in N^2 doubles, after a run at N = 16 has
    made the imports that the kind does on first use."""
    exit_and_peak(["run", *argv, "--N", "16", "--out", str(tmp_path / "warm")])
    code, peak = exit_and_peak(["run", *argv, "--N", str(N), "--out", str(tmp_path / "out")])
    assert code == 0
    return peak / (8 * N * N)


def test_circle_iterate_frees_its_gated_input(tmp_path, monkeypatch):
    # the iteration holds the only reference to the gated field, so no average runs while it
    # is live, and the noise dies with its candidate: the peak is an average's, its input, the
    # sum and a 128-row chunk per worker, 3.34 N^2 (held to 3.5). Holding the noise through
    # the gate pass, and each block's numerator rows, read 4.11
    monkeypatch.setattr(circle, "_THREADS", 2)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)
    peak = warm_peak(tmp_path, ["circle_iterate", "--seed", "1"])
    assert peak < 3.5, f"peak {peak:.2f} N^2 doubles"


def test_circle_iterate_drops_each_rejected_candidate(tmp_path, monkeypatch):
    # six gate attempts peak as one does, 3.34 N^2 (held to 3.5): holding a rejected
    # candidate through the next candidate's noise draw read 3.62
    monkeypatch.setattr(circle, "_THREADS", 2)
    monkeypatch.setattr(circle, "_WORKER_ROWS", 1)
    peak = warm_peak(tmp_path, ["circle_iterate", "--seed", "1", "--perturb", "0.2"])
    assert peak < 3.5, f"peak {peak:.2f} N^2 doubles"


def test_group_bundle_holds_one_sample_at_a_time(tmp_path, monkeypatch):
    # the peak is the average's, above a held sample plus the next draw, so the live bytes at
    # each draw are compared too: a sample held across the next draw adds one N^2 there
    one, three = (warm_peak(tmp_path, ["group_bundle", "--count", c]) for c in ("1", "3"))
    assert three < one + 0.1, f"peaks {one:.2f} and {three:.2f} N^2 doubles"
    live, draw = [], presets.smooth_torus_field
    monkeypatch.setattr(presets, "smooth_torus_field",
                        lambda rng, N: live.append(tracemalloc.get_traced_memory()[0]) or draw(rng, N))
    warm_peak(tmp_path, ["group_bundle", "--count", "3"])
    first, *later = (x / (8 * 256 * 256) for x in live[-3:])  # the N = 256 run's draws
    assert all(abs(x - first) < 0.1 for x in later), f"live {first:.2f}, then {[round(x, 2) for x in later]} N^2 doubles"


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["circle_profile", "--N", str(circle.MAX_N + 1)], None, f"N: {circle.MAX_N + 1} is greater"),
        (["circle_profile", "--N", "64", "--k", str(circle.MAX_TWIST + 1)], None,
         f"k: {circle.MAX_TWIST + 1} is greater"),
        ([], {"kind": "circle_profile", "N": circle.MAX_N + 1}, f"N: {circle.MAX_N + 1} is greater"),
        ([], {"kind": "group_bundle", "k": circle.MAX_TWIST + 1}, f"k: {circle.MAX_TWIST + 1} is greater"),
    ],
    ids=["flag_N", "flag_k", "config_N", "config_k"],
)
def test_oversized_grid_rejected_before_allocating(tmp_path, capsys, argv, config, named):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    code, peak = exit_and_peak(["run", *argv, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config or flags do not match schema: {named}" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", [f"4,{circle.MAX_TWIST + 1}", f"{circle.MAX_N + 1},1"])
def test_oversized_csv_header_rejected_before_allocating(tmp_path, capsys, header):
    path = tmp_path / "profile.csv"
    path.write_text(f"{header}\n0\n0.1\n0.2\n0.1\n")
    code, peak = exit_and_peak(["run", "circle_profile", "--profile", str(path), "--N", "16",
                                "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{path}: header '{header}' is above the size limits" in capsys.readouterr().err
    assert peak < 2**20
    with pytest.raises(ValueError, match="above the size limits"):
        load_grid_csv(str(path))


def modules_after_cli_import(*names: str, then: str = "", no_site: bool = False) -> str:
    """Those of ``names`` that a fresh interpreter holds once it has imported groupavg.cli
    and run the statements ``then``.  With ``no_site`` it starts with -S, so that no .pth
    file of site-packages imports anything first, and finds numpy through PYTHONPATH."""
    path = [str(Path(cli.__file__).parents[1]), str(Path(np.__file__).parents[1]) if no_site else None]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*path, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, groupavg.cli\n{then}\nprint([m for m in {names!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, *(["-S"] if no_site else []), "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_import_leaves_jsonschema_out():
    assert modules_after_cli_import("jsonschema") == "[]"


def test_import_leaves_fractions_and_decimal_out():
    # the Haar weights are floats; fractions would load decimal into every CLI start
    assert modules_after_cli_import("fractions", "decimal", "_decimal") == "[]"


def test_import_leaves_importlib_resources_out():
    # the schema is read with open: importlib.resources would load pathlib, zipfile (with bz2,
    # lzma and zlib), tempfile and urllib into every CLI start
    assert modules_after_cli_import("importlib.resources", "zipfile", "tempfile", no_site=True) == "[]"


def test_circle_kinds_leave_numpy_random_out(tmp_path, rng):
    # the circle kinds draw only uniforms, from presets.UniformStream, and a finite run from
    # files, validate and bounds-check draw nothing: numpy.random would load OpenSSL through
    # secrets and hmac, 5.5 MB of a run's peak RSS
    G, rep = presets.s3_example_rep(rng)
    cfg, paths = write_finite_inputs(tmp_path, presets.gated_perturbation(rep, rng, 1e-3)[0],
                                     counting_haar(G))
    out = {kind: str(tmp_path / kind) for kind in ("circle", "bundle", "profile", "finite", "check")}
    runs = [["run", "circle_iterate", "--N", "16", "--out", out["circle"]],
            ["run", "group_bundle", "--N", "16", "--count", "2", "--out", out["bundle"]],
            ["run", "circle_profile", "--N", "16", "--out", out["profile"]],
            ["run", "finite_iterate", "--config", cfg, "--out", out["finite"]],
            ["validate", "--groupoid", paths["groupoid"], "--haar", paths["haar"]],
            ["bounds-check", "--trace", os.path.join(out["finite"], "trace.csv"), "--out", out["check"]]]
    then = "\n".join(f"assert groupavg.cli.main({argv!r}) == 0" for argv in runs)
    assert modules_after_cli_import("numpy.random", "secrets", "_hashlib", then=then) == "[]"


# -- flags are checked like config fields --------------------------------------------------


@pytest.mark.parametrize(
    "argv, field",
    [
        (["finite_identities", "--count", "-3"], "count"),
        (["finite_iterate", "--max-iter", "0"], "max_iter"),
        (["circle_iterate", "--N", "2"], "N"),
        (["circle_iterate", "--seed", "-1"], "seed"),
    ],
)
def test_flag_outside_schema_rejected(tmp_path, capsys, argv, field):
    assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "schema" in err and f"{field}:" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_nonfinite_flag_named(tmp_path, capsys, value):
    assert main(["run", "circle_iterate", "--N", "16", f"--perturb={value}",
                 "--out", str(tmp_path / "out")]) == 2
    assert "field perturb: non-finite" in capsys.readouterr().err


def test_nonfinite_config_field_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kind": "finite_iterate", "perturb": NaN}')
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "field perturb: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, field",
    [
        ({"kind": "circle_iterate", "N": 16, "perturb": 10**400}, "perturb"),
        ({"kind": "finite_iterate", "perturb": 10**400}, "perturb"),
        ({"kind": "finite_iterate", "tol_c": 10**400}, "tol_c"),
    ],
    ids=["circle_perturb", "finite_perturb", "finite_tol_c"],
)
def test_number_too_large_for_a_float_named(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"field {field}: integer too large for a float" in capsys.readouterr().err


def test_flag_and_config_checked_together(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "group_bundle", "count": -1}))
    # the flag overrides the bad config value, so the merged input is valid
    run_ok(["run", "--config", str(cfg), "--count", "2", "--N", "8", "--out", str(tmp_path / "o")])
    cfg.write_text(json.dumps([1, 2]))
    assert main(["run", "group_bundle", "--config", str(cfg)]) == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["finite_iterate", "circle_iterate"])
def test_perturbation_too_large_to_gate(tmp_path, capsys, kind):
    assert main(["run", kind, "--N", "16", "--perturb", "1e300",
                 "--out", str(tmp_path / "out")]) == 2
    assert "perturbation amplitude 1e+300" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        ("4,1\n0\nnan\n0.2\n0.1\n", "sample 1 is not finite: nan"),
        ("4,1\n0\n0.1\ninf\n0.1\n", "sample 2 is not finite: inf"),
        ("4,0\n0\n0.1\n0.2\n0.1\n", "twist must be a positive integer, got 0"),
        ("4\n0\n0.1\n0.2\n0.1\n", "header must be two integers N,k, got '4'"),
    ],
    ids=["nan_sample", "inf_sample", "twist_0", "header_without_twist"],
)
def test_bad_profile_file_exits_2(tmp_path, capsys, text, named):
    path = tmp_path / "profile.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "circle_profile", "--profile", str(path), "--N", "16",
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "residuals.json").exists()


@pytest.mark.parametrize(
    "example, name, corrupt, named",
    [
        ("s3", "groupoid", lambda d: d.pop("compose"), "missing key 'compose'"),
        ("s3", "groupoid", lambda d: d["arrows"][4].update(src=9), "arrow 4: src 9 is not an object"),
        ("s3", "groupoid", lambda d: d["compose"].append(d["compose"][7]),
         "compose entry [1, 5, 5]: pair (1,5) is already listed"),
        ("s3", "groupoid", lambda d: d.update(units={}), "units: missing key '0'"),
        ("s3", "bundle", lambda d: d.pop("1"), "missing key '1'"),
        ("s3", "bundle", lambda d: d["2"].pop("dim"), "missing key 'dim'"),
        ("s3", "psrep", lambda d: d["3"].pop("data"), "missing key 'data'"),
        ("s3", "groupoid", lambda d: d.update(inverses=[]), "inverses must be a JSON object, got list"),
        ("s3", "bundle", lambda d: d.update({"2": 3}), "object 2 must be a JSON object, got int"),
        ("s3", "bundle", lambda d: d["0"].update(gram=[1.0]), "the gram of object 0 must be a JSON object"),
        ("s3", "psrep", lambda d: d.update({"3": [1.0]}), "the matrix of arrow 3 must be a JSON object"),
        ("s3", "psrep", lambda d: d["3"].update(shape="2x2"), "'str' object cannot be interpreted"),
        ("s3", "bundle", lambda d: d["0"].update(gram={"shape": [2, 2], "data": [float("nan"), 0.0, 0.0, 1.0]}),
         "metric of object 0 has non-finite entries"),
        ("s3", "psrep", lambda d: d["3"]["data"].__setitem__(0, 10**400), "int too large to convert to float"),
        # the Z/2 objects are labelled 1, 2, 3: the error names the label, not the index 2
        ("z2", "bundle", lambda d: d["3"].update(gram={"shape": [2, 2], "data": [1.0, float("nan"), float("nan"), 1.0]}),
         "metric of object 3 has non-finite entries"),
    ],
    ids=["groupoid_without_compose", "arrow_src_not_object", "groupoid_pair_listed_twice",
         "groupoid_units_empty", "bundle_without_object",
         "bundle_object_without_dim", "psrep_entry_without_data", "inverses_is_list",
         "bundle_object_is_number", "gram_is_list", "psrep_entry_is_list", "psrep_shape_is_text",
         "gram_is_nan", "psrep_entry_too_large_for_a_float", "gram_is_nan_on_a_labelled_object"],
)
def test_malformed_input_file_named(tmp_path, capsys, rng, example, name, corrupt, named):
    G, rep = getattr(presets, f"{example}_example_rep")(rng)
    cfg, paths = write_finite_inputs(tmp_path, rep, counting_haar(G))
    doc = json.loads(open(paths[name]).read())
    corrupt(doc)
    with open(paths[name], "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{paths[name]}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["2", 2.7, True, -1, None])
def test_bundle_dim_must_be_a_count(tmp_path, capsys, rng, dim):
    G, rep = presets.s3_example_rep(rng)
    cfg, paths = write_finite_inputs(tmp_path, rep, counting_haar(G))
    doc = json.loads(open(paths["bundle"]).read())
    doc["1"]["dim"] = dim
    with open(paths["bundle"], "w") as fh:
        json.dump(doc, fh)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    named = f"object 1: dim must be a non-negative integer, got {dim!r}"
    assert f"{paths['bundle']}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_ungated_overflowing_perturbation_diverges(tmp_path):
    # the circle kinds always gate, so the library takes the field: b0 = 5e199, b0**2
    # overflows a Python float, and the defects are inf
    lam = circle.from_profile(cli.default_profile({"k": 2}), 16, 2)[1]
    noise = presets.smooth_torus_field(presets.UniformStream(0), 16)
    noise[0] = 0.0
    lam.values += 1e200 * noise
    out = tmp_path / "out"
    out.mkdir()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = circle.iterate_circle(lam, tol_c=1e-12, max_iter=3, order=0)
        failures = cli.finish_iterate(trace, str(out), {"kind": "circle_iterate"})
    assert failures[0] == "verdict Diverged at iteration 3"
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["verdict"]["kind"] == "Diverged"
    assert (doc["gate_ok"], doc["envelope_valid"], doc["bounds_check_ok"]) == (False, False, False)
    assert "0,eps_le_2_3,0.6666666666666666,inf,false" in (out / "bounds_check.csv").read_text()
    assert len((out / "trace.csv").read_text().splitlines()) == 5


def test_ungated_overflowing_finite_perturbation_diverges(tmp_path, capsys):
    # the defects overflow to inf and then NaN, and the SVD of a NaN matrix fails to converge
    cfg = ungated_finite_inputs(tmp_path, 1e200)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", cfg, "--max-iter", "3", "--out", str(out)]) == 1
    assert "verdict Diverged at iteration 3" in capsys.readouterr().err
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["verdict"]["kind"] == "Diverged"
    assert doc["c0"] == float("inf")
    assert (doc["gate_ok"], doc["envelope_valid"], doc["bounds_check_ok"]) == (False, False, False)
    assert len((out / "trace.csv").read_text().splitlines()) == 5


# -- Haar weight files ------------------------------------------------------------------------


def write_haar(tmp_path, doc):
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"99": 0.5}, "'99'"),
        ({"-1": 0.5}, "'-1'"),
        ({"x": 0.5}, "'x'"),
        ({"0": "half"}, "arrow 0"),
        ({"3": float("inf")}, "arrow 3"),
        ({"0": True}, "arrow 0 is not a finite number: True"),
        ({"5": False}, "arrow 5 is not a finite number: False"),
    ],
)
def test_bad_haar_file_named_on_run_and_validate(tmp_path, capsys, rng, doc, named):
    G, rep = presets.s3_example_rep(rng)
    cfg, paths = write_finite_inputs(tmp_path, rep, counting_haar(G))
    write_haar(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert named in err and f"{paths['haar']}: haar" in err
    assert main(["validate", "--groupoid", paths["groupoid"], "--haar", paths["haar"]]) == 2
    err = capsys.readouterr().err
    assert named in err and f"{paths['haar']}: haar" in err


def test_run_rejects_haar_failing_checks(tmp_path, capsys, rng):
    G, rep = presets.s3_example_rep(rng)
    cfg, paths = write_finite_inputs(tmp_path, rep, counting_haar(G))
    write_haar(tmp_path, {str(g): 1.0 for g in G.arrows()})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "normalization residual" in capsys.readouterr().err
