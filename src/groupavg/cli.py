"""Config-driven experiment runner.

Subcommands:

* ``validate``   check a groupoid description file (and optionally a Haar
                 weight file against it);
* ``run``        execute one experiment kind and write its artifacts;
* ``bounds-check``  shortcut for ``run bounds_check`` on an existing trace.

Exit codes: 0 when every declared assertion of the kind passes, 1 on an
assertion failure (the failing row is named on stderr), 2 on config or parse
errors.  Artifacts are plain UTF-8 CSV/JSON and are byte-identical for a fixed
config and seed (no timestamps, shortest round-trip float formatting).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys

import numpy as np

from . import averaging, bounds, circle, presets
from .groupoid import FiniteGroupoid, action_groupoid, read_json, write_json, write_lines
from .haar import HaarSystem, check_haar, counting_haar
from .psrep import FiberBundle, PseudoRep

DEFAULTS = {
    "seed": 0,
    "out": "out",
    "tol_c": 1e-12,
    "max_iter": 64,
    "N": 64,
    "k": 2,
    "perturb": 1e-3,
}

KIND_COUNTS = {"finite_identities": 100, "group_bundle": 20}


class ConfigError(Exception):
    pass


def log(msg: str) -> None:
    print(f"[groupavg] {msg}")


def fail(msg: str) -> None:
    print(f"[groupavg] FAIL: {msg}", file=sys.stderr)


# the config fields that are also run flags, in --help order; the schema gives each its type
FLAGS = ("seed", "out", "tol_c", "max_iter", "N", "k", "perturb", "count", "trace", "profile")
with open(os.path.join(os.path.dirname(__file__), "config.schema.json"), encoding="utf-8") as fh:
    SCHEMA = json.load(fh)


# JSON types by name: a bool is neither an integer nor a number, and an integral float
# such as 2.0 is a number but not an integer
JSON_TYPES = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
}

# every keyword a field of config.schema.json may use: (holds(value, arg), reason).
# "type" comes first, so the bounds only ever compare numbers.
FIELD_CHECKS = {
    "type": (lambda v, t: JSON_TYPES[t](v), "is not of type {!r}"),
    "enum": (lambda v, e: v in e, "is not one of {!r}"),
    "minimum": (operator.ge, "is less than the minimum of {!r}"),
    "exclusiveMinimum": (operator.gt, "is less than or equal to the minimum of {!r}"),
    "maximum": (operator.le, "is greater than the maximum of {!r}"),
}


def check_schema(user: dict, schema: dict) -> None:
    """ConfigError naming the first field of ``user`` that the flat object schema
    ``schema`` (``properties``, no additional properties) rejects."""
    for key, value in user.items():
        rule = schema["properties"].get(key)
        if rule is None:
            raise ConfigError(f"config or flags do not match schema: {key}: unknown field")
        for word, (holds, reason) in FIELD_CHECKS.items():
            if word in rule and not holds(value, rule[word]):
                raise ConfigError(f"config or flags do not match schema: {key}: "
                                  f"{value!r} {reason.format(rule[word])}")


def load_config(path: str | None, args: argparse.Namespace) -> dict:
    """The config file's fields with the flags given in ``args`` laid over
    them, checked once against the schema and for non-finite numbers."""
    cfg = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config does not match schema: {path} does not hold an object")
    user = {**cfg, **{f: getattr(args, f) for f in FLAGS if getattr(args, f, None) is not None}}
    for key, value in user.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"field {key}: non-finite value {value!r}")
        if isinstance(value, int) and SCHEMA["properties"].get(key, {}).get("type") == "number":
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"field {key}: integer too large for a float") from None
    check_schema(user, SCHEMA)
    return user


def ensure_out(p: dict) -> str:
    os.makedirs(p["out"], exist_ok=True)
    return p["out"]


# -- kinds ---------------------------------------------------------------------


def finish_iterate(trace, out: str, extra: dict) -> list[str]:
    """Shared tail of the iterate kinds: trace.csv, bounds_check.csv, verdict.json.

    A trace of one row (the input had already converged) has no steps to
    check, so its bounds_check.csv holds the header only.  Its failed rows
    are counted on stdout but not asserted.
    """
    averaging.write_trace_csv(trace, os.path.join(out, "trace.csv"))
    if len(trace.rows) < 2:
        report = bounds.BoundSeqReport(hypothesis_ok=True)
    else:
        report = bounds.check_quadratic_decay(
            [float(r.b) for r in trace.rows], [float(r.c) for r in trace.rows]
        )
    bounds.write_check_csv(report, os.path.join(out, "bounds_check.csv"))
    if not report.ok:
        log(f"bounds_check.csv: {len(report.failed_rows())} of {len(report.rows)} rows failed"
            " (not asserted)")
    failures = []
    if trace.verdict.kind != "Converged":
        failures.append(f"verdict {trace.verdict.kind} at iteration {trace.verdict.iteration}")
    env_fails = (bounds.envelope_failures(trace.b0, trace.c0, [r.c for r in trace.rows])
                 if trace.envelope_valid else [])
    failures += env_fails
    averaging.write_verdict_json(
        trace,
        os.path.join(out, "verdict.json"),
        extra={**extra, "bounds_check_ok": report.ok, "envelope_ok": not env_fails},
    )
    return failures


def load_finite_inputs(p: dict) -> tuple[FiniteGroupoid, HaarSystem, PseudoRep]:
    G = FiniteGroupoid.load(p["groupoid"])
    report = G.validate()
    if not report.ok:
        raise ConfigError(f"groupoid file invalid:\n{report}")
    nu = HaarSystem.load(p["haar"], G) if "haar" in p else counting_haar(G)
    if "haar" in p and not (hrep := check_haar(nu)).ok:
        raise ConfigError(f"haar weights fail the Haar checks:\n{hrep}")
    if "psrep" not in p or "bundle" not in p:
        raise ConfigError("groupoid input requires psrep and bundle files")
    bundle = read_json(p["bundle"], lambda d: FiberBundle.from_json_dict(d, G.objects))
    rep = PseudoRep.load(p["psrep"], G, bundle)
    return G, nu, rep


def kind_finite_iterate(p: dict) -> list[str]:
    out = ensure_out(p)
    if "groupoid" in p:
        G, nu, lam0 = load_finite_inputs(p)
        scale = None  # the input files' pseudo-representation is not perturbed
    else:
        rng = np.random.default_rng(p["seed"])
        G, rep = presets.s3_example_rep(rng)
        nu = counting_haar(G)
        lam0, scale = presets.gated_perturbation(rep, rng, p["perturb"])
        log(f"perturbation amplitude after gate rescale: {scale!r}")
    trace = averaging.iterate(lam0, nu, tol_c=p["tol_c"], max_iter=p["max_iter"])
    return finish_iterate(trace, out, {"kind": "finite_iterate", "seed": p["seed"],
                                       "perturb": scale})


def kind_finite_identities(p: dict) -> list[str]:
    out = ensure_out(p)
    rng = np.random.default_rng(p["seed"])
    count = p.get("count", KIND_COUNTS["finite_identities"])
    G = action_groupoid(presets.s3_action())
    nu = counting_haar(G)
    lines = ["i,residual_a,residual_b,tol,pass"]
    failures = []
    run = averaging.identity_run(G)
    reports = (r for n in range(0, count, run)
               for r in averaging.verify_fundamental_identities(
                   presets.random_pseudorep(G, rng, count=min(run, count - n)), nu))
    for i, r in enumerate(reports):
        lines.append(f"{i},{r.residual_a!r},{r.residual_b!r},{r.tol!r},{str(r.ok).lower()}")
        if not r.ok:
            failures.append(
                f"identity residuals at sample {i}: a={r.residual_a!r} b={r.residual_b!r} tol={r.tol!r}"
            )
    write_lines(lines, os.path.join(out, "identities.csv"))
    write_json(
        {"kind": "finite_identities", "seed": p["seed"], "count": count,
         "failures": len(failures)},
        os.path.join(out, "verdict.json"),
    )
    return failures


def default_profile(p: dict):
    # an amplitude of at most 0.5 / k keeps 1 + k f >= 1/2 at every twist
    amplitude = min(0.1, 0.5 / p["k"])

    def f(t: float) -> float:
        return amplitude * np.sin(2 * np.pi * p["k"] * t)

    return f


def kind_circle_profile(p: dict) -> list[str]:
    out = ensure_out(p)
    if "profile" in p and p["profile"]:
        prof = circle.load_profile_csv(p["profile"])
        X, lam = circle.from_profile(prof, p["N"])
    else:
        X, lam = circle.from_profile(default_profile(p), p["N"], p["k"])
    circle.save_grid_csv(X, os.path.join(out, "connection.csv"))
    circle.save_grid_csv(lam, os.path.join(out, "effect.csv"))
    del X  # the residuals read only lam
    res_c, res_u = circle.multiplicativity_residual(lam)
    # the rounding of the closed form grows linearly in k (see README): 1e-13 up to k = 14
    tol = max(1e-13, 32 * lam.twist * 2.0**-52)
    write_json(
        {"kind": "circle_profile", "N": p["N"], "k": lam.twist,
         "res_cocycle": res_c, "res_unit": res_u, "tol": tol},
        os.path.join(out, "residuals.json"),
    )
    failures = []
    if res_c > tol:
        failures.append(f"cocycle residual {res_c!r} > {tol!r}")
    if res_u > tol:
        failures.append(f"unit residual {res_u!r} > {tol!r}")
    return failures


def kind_circle_iterate(p: dict) -> list[str]:
    out = ensure_out(p)

    def make(scale: float) -> circle.TorusGridFn:  # Lambda, then the seed's noise added in place
        lam = circle.from_profile(default_profile(p), p["N"], p["k"])[1]
        noise = presets.smooth_torus_field(presets.UniformStream(p["seed"]), p["N"])
        noise[0, :] = 0.0  # keep the unit row exact
        np.add(lam.values, np.multiply(noise, scale, out=noise), out=lam.values)
        return lam

    gated = list(presets.rescale_to_gate(
        make,
        lambda L: (float(np.abs(L.values).max()), circle.multiplicativity_residual(L)[0]),
        p["perturb"],
    ))
    log(f"perturbation amplitude after gate rescale: {gated[1]!r}")
    scale, row0 = gated[1:]
    # the artifacts hold c, not the seminorms: one order-0 pass per row, and none for
    # row 0, whose (b, c) the gate pass gave.  The gated field is popped, so that
    # iterate_circle holds its only reference and frees it once it is averaged.
    trace = circle.iterate_circle(gated.pop(0), tol_c=p["tol_c"], max_iter=p["max_iter"],
                                  order=0, row0=row0)
    extra = {"kind": "circle_iterate", "seed": p["seed"], "N": p["N"], "k": p["k"],
             "perturb": scale}
    if trace.verdict.kind == "Converged":
        prof = circle.limit_profile(trace.final)
        circle.save_profile_csv(prof, os.path.join(out, "limit_profile.csv"))
        extra["limit_profile"] = "limit_profile.csv"
    return finish_iterate(trace, out, extra)


def kind_bounds_check(p: dict) -> list[str]:
    if "trace" not in p or not p["trace"]:
        raise ConfigError("bounds_check needs a trace file (--trace or config field)")
    out = ensure_out(p)
    b, c = bounds.load_trace_csv(p["trace"])
    report = bounds.check_quadratic_decay(b, c)
    bounds.write_check_csv(report, os.path.join(out, "bounds_check.csv"))
    write_json(
        {"kind": "bounds_check", "trace": p["trace"], "ok": report.ok,
         "hypothesis_ok": report.hypothesis_ok, "first_failure": report.first_failure},
        os.path.join(out, "verdict.json"),
    )
    if report.ok:
        return []
    bad = report.failed_rows()[0]
    return [f"bounds row i={bad.i} {bad.check}: observed {bad.observed!r} > bound {bad.bound!r}"]


def kind_group_bundle(p: dict) -> list[str]:
    out = ensure_out(p)
    rng = presets.UniformStream(p["seed"])  # one stream across the samples
    count = p.get("count", KIND_COUNTS["group_bundle"])
    lines = ["i,max_abs_average,tol,pass"]
    failures = []
    for i in range(count):
        X = circle.TorusGridFn(presets.smooth_torus_field(rng, p["N"]), p["k"])
        worst = float(np.abs(circle.group_bundle_average(X).values).max())
        del X  # no grid of this sample is held while the next is drawn
        ok = worst <= 1e-13
        lines.append(f"{i},{worst!r},1e-13,{str(ok).lower()}")
        if not ok:
            failures.append(f"group bundle average {worst!r} > 1e-13 at sample {i}")
    write_lines(lines, os.path.join(out, "group_bundle.csv"))
    write_json(
        {"kind": "group_bundle", "seed": p["seed"], "N": p["N"], "count": count,
         "failures": len(failures)},
        os.path.join(out, "verdict.json"),
    )
    return failures


KINDS = {
    "finite_iterate": kind_finite_iterate,
    "finite_identities": kind_finite_identities,
    "circle_iterate": kind_circle_iterate,
    "circle_profile": kind_circle_profile,
    "bounds_check": kind_bounds_check,
    "group_bundle": kind_group_bundle,
}


# -- entry points ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        G = FiniteGroupoid.load(args.groupoid)
    except (OSError, ValueError) as exc:
        fail(f"cannot load groupoid: {exc}")
        return 2
    report = G.validate()
    ok = report.ok
    print(report)
    if args.haar:
        try:
            nu = HaarSystem.load(args.haar, G)
        except (OSError, ValueError) as exc:
            fail(f"cannot load haar weights: {exc}")
            return 2
        if ok:  # the invariance check composes arrows, which needs a valid groupoid
            hrep = check_haar(nu)
            print(hrep)
            ok = hrep.ok
        else:
            print("haar weights not checked: the groupoid is invalid")
    if not ok:
        fail("validation found violations")
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        user = load_config(args.config, args)
        kind = args.kind or user.get("kind")
        if kind is None:
            raise ConfigError("no kind: pass it positionally or in the config file")
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; choose from {sorted(KINDS)}")
        failures = KINDS[kind]({**DEFAULTS, **user})
    except ConfigError as exc:
        fail(str(exc))
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"input error: {exc}")
        return 2
    except (circle.NonPeriodicProfile, circle.ProfileOutOfRange, ValueError) as exc:
        fail(f"invalid input data: {exc}")
        return 2
    if failures:
        for f in failures:
            fail(f)
        return 1
    log(f"{kind}: all assertions passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="groupavg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a groupoid description file")
    v.add_argument("--groupoid", required=True)
    v.add_argument("--haar")
    v.set_defaults(func=cmd_validate)

    def common(sp):
        sp.add_argument("--config")
        types = {"integer": int, "number": float, "string": str}
        for f in FLAGS:
            sp.add_argument("--" + f.replace("_", "-"), dest=f,
                            type=types[SCHEMA["properties"][f]["type"]])

    r = sub.add_parser("run", help="run an experiment kind and write artifacts")
    r.add_argument("kind", nargs="?", choices=sorted(KINDS))
    common(r)
    r.set_defaults(func=cmd_run)

    bc = sub.add_parser("bounds-check", help="check a trace CSV against the decay envelope")
    common(bc)
    bc.set_defaults(func=cmd_run, kind="bounds_check")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
