"""Configuration-driven builds, verification suites and family sweeps.

Configs are INI-style sectioned key/value files (see README for the
grammar).  Exit codes: 0 all requested checks pass, 1 verification failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from psurf import birkhoff, potentials as pots
from psurf.birkhoff import FactorizationFailure
from psurf.frames import IntegrationDrift, direct_frame_solve
from psurf.loops import PROBE_LAMBDAS, random_twisted_unitary_loop
from psurf.oracle import GoursatProblem, StiffnessError, goursat_solve
from psurf.surface import (associated_family, cone_line_check, find_cone_point,
                           geometry_grid_problem, geometry_report, reconstruct_frames,
                           write_csv, write_obj)
from psurf.symmetry import (CERT_EQUIVARIANCE_TOL, CERT_MONODROMY_TOL, CERT_SURFACE_TOL,
                            _image_axes, certify_from_potentials, coverage_window)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _parse_config(path):
    # no interpolation: a '%' in a value is plain text, not a syntax error
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:  # duplicate keys, lines without '='
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return cp


# Each parser maps an entry's text to its value, or raises ValueError with
# the rule the text broke; _config_value adds the key and the text.

def _rule(what, convert, ok):
    """Parser of the texts that convert maps to a value v (not None) with ok(v)."""
    def parse(text):
        try:
            val = convert(text)
        except ValueError:
            val = None
        if val is None or not ok(val):
            raise ValueError(f"must be {what}")
        return val
    return parse


def _real_list(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _integer(lo):
    return _rule(f">= {lo} (an integer)", int, lambda v: v >= lo)


def _words(choices):
    return _rule(f"a list of {' / '.join(choices)}", lambda t: t.replace(",", " ").split(),
                 lambda words: set(words) <= set(choices))


_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
_boolean = _rule(f"one of {', '.join(_BOOLEANS)}", lambda t: _BOOLEANS.get(t.lower()),
                 lambda v: True)
_positive = _rule("a positive number", float, lambda v: 0 < v < np.inf)
_positives = _rule("one or more positive finite reals", _real_list,
                   lambda v: v and all(0 < s < np.inf for s in v))
_pair = _rule("an increasing pair of finite reals", _real_list,
              lambda v: len(v) == 2 and -np.inf < v[0] < v[1] < np.inf)
_path = _rule("a non-empty path", str, bool)


def _function(text, base_dir):
    """A builtin:<name>, a table:<csv> relative to base_dir, or a constant."""
    scheme, _, name = text.partition(":")
    if scheme == "builtin":
        if name not in pots.BUILTIN_FUNCTIONS:
            raise ValueError("must name a builtin, one of "
                             f"{', '.join(sorted(pots.BUILTIN_FUNCTIONS))}")
        return pots.BUILTIN_FUNCTIONS[name]
    if scheme == "table":
        try:
            return pots.function_from_table(os.path.join(base_dir, name))
        except ValueError as exc:
            raise ValueError(f"must name a valid table ({exc})") from None
    try:
        return float(text)
    except ValueError:
        raise ValueError("must be builtin:<name>, table:<csv>, or a constant") from None


def _theta_to_t(th):
    return np.tan(0.5 * (np.asarray(th, dtype=float) + np.pi))


def _write_report(report, ok, outdir):
    """Write report.txt and report.json with the verdict ok as `pass`; a
    command's exit code."""
    report["pass"] = bool(ok)
    os.makedirs(outdir, exist_ok=True)
    txt = os.path.join(outdir, "report.txt")
    with open(txt, "w", encoding="utf-8", newline="\n") as fh:
        for key in report:
            fh.write(f"{key}: {report[key]}\n")
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({k: (v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in report.items()}, fh, indent=1, sort_keys=True)
    print(f"report written to {txt}")
    return EXIT_OK if ok else EXIT_VERIFY


def _build_surfaces(cfg):
    fgrid = reconstruct_frames(cfg.pair, cfg.x, cfg.y, trunc=cfg.trunc, step=cfg.step,
                               drift_samples=cfg.drift_samples)
    try:
        surfaces = associated_family(fgrid, cfg.lambdas)
    except ValueError as exc:  # a lambda at which the immersion is not finite
        raise ConfigError(str(exc)) from None
    return fgrid, surfaces


def _geometry_pass(rep, tol):
    if rep.get("all_degenerate"):  # no node to check
        return True
    checks = [rep["curvature_max_abs_err"] < tol["curvature"],
              rep["speed_x_max_err"] < tol["speed"],
              rep["speed_y_max_err"] < tol["speed"],
              rep["asymptotic_max"] < tol["asymptotic"]]
    return all(bool(c) for c in checks)


def _lambda_tag(lam):
    return ("lambda_%g" % lam).replace(".", "p")


# each command returns (report, passed), which main writes

def cmd_build(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    fgrid, surfaces = _build_surfaces(cfg)
    report = {"kind": cfg.kind, "trunc": cfg.trunc, "seed": cfg.seed,
              "max_split_residual": fgrid.max_split_residual,
              "max_tail": fgrid.max_tail}
    ok = True
    # coarse or non-uniform grids get the degeneracy counts only
    full_geometry = geometry_grid_problem(cfg.x, cfg.y) is None
    geometry = [] if full_geometry else None
    for sg in surfaces:
        tag = _lambda_tag(sg.lam)
        if "obj" in cfg.formats:
            write_obj(sg, os.path.join(cfg.output_dir, f"surface_{tag}.obj"),
                      drop_degenerate_faces=cfg.drop_degenerate_faces)
        if "csv" in cfg.formats:
            write_csv(sg, os.path.join(cfg.output_dir, f"surface_{tag}.csv"))
        rep = geometry_report(sg, fgrid) if full_geometry else \
            {"all_degenerate": bool(np.all(sg.degenerate)),
             "degenerate_count": int(np.sum(sg.degenerate))}
        for k, v in rep.items():
            report[f"{tag}.{k}"] = v
        if full_geometry:
            geometry.append(rep)
            ok = ok and _geometry_pass(rep, cfg.tolerances)
    vr, vok = _run_suites(cfg, fgrid, surfaces, geometry)
    report.update(vr)
    return report, ok and vok


# suite runners return (report entries, passed); fgrid and surfaces are the
# command's one build (None when no suite needs it), geometry holds the
# build's reports if any

def _suite_loops(cfg, fgrid, surfaces, geometry):
    rng = np.random.default_rng(cfg.seed)
    worst_twist = worst_hom = 0.0
    for _ in range(50):
        g = random_twisted_unitary_loop(rng)
        h = random_twisted_unitary_loop(rng)
        gh = g * h
        worst_twist = max(worst_twist, gh.check_twist())
        worst_hom = max(worst_hom, float(np.max(np.abs(
            gh.evaluate(PROBE_LAMBDAS) - g.evaluate(PROBE_LAMBDAS) @ h.evaluate(PROBE_LAMBDAS)))))
    rep = {"loops.twist_closure": worst_twist, "loops.evaluation_homomorphism": worst_hom}
    return rep, worst_twist < 1e-12 and worst_hom < 1e-12


def _suite_birkhoff(cfg, fgrid, surfaces, geometry):
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    worst = {"residual": 0.0, "norm": 0.0, "twist": 0.0}
    for _ in range(200):
        g = random_twisted_unitary_loop(rng)
        r = birkhoff.split_plus_star_minus(g, trunc=cfg.trunc)
        worst["residual"] = max(worst["residual"], r.residual)
        worst["norm"] = max(worst["norm"], float(np.max(np.abs(r.plus.coeff(0) - np.eye(2)))))
        worst["twist"] = max(worst["twist"], r.plus.check_twist(), r.minus.check_twist())
    rep = {f"birkhoff.{k}": v for k, v in worst.items()}
    ok = (worst["residual"] < tol["birkhoff_residual"]
          and worst["norm"] < tol["birkhoff_normalization"]
          and worst["twist"] < tol["birkhoff_twist"])
    return rep, ok


def _suite_geometry(cfg, fgrid, surfaces, geometry):
    if geometry is None:
        geometry = [geometry_report(sg, fgrid) for sg in surfaces]
    rep, ok = {}, True
    for sg, r in zip(surfaces, geometry):
        tag = _lambda_tag(sg.lam)
        rep[f"geometry.{tag}.curvature"] = r["curvature_max_abs_err"]
        rep[f"geometry.{tag}.all_degenerate"] = r["all_degenerate"]
        ok = ok and _geometry_pass(r, cfg.tolerances)
    return rep, ok


def _suite_oracle(cfg, fgrid, surfaces, geometry):
    tol = cfg.tolerances
    rep = {}
    prob = GoursatProblem(fgrid.x, fgrid.y, fgrid.phi[:, 0], fgrid.phi[0, :],
                          a=fgrid.a_fn, b=fgrid.b_fn)
    phi_oracle = goursat_solve(prob)
    diff = float(np.max(np.abs(phi_oracle - fgrid.phi)))
    rep["oracle.phi_max_diff"] = diff
    ok = diff < tol["oracle_phi"]
    u_direct, resid = direct_frame_solve(fgrid.phi, fgrid.a_fn, fgrid.b_fn, 1.0,
                                         fgrid.x, fgrid.y)
    rep["oracle.path_independence"] = resid
    u_loop = fgrid.evaluate(1.0)
    c = u_loop[0, 0] @ np.linalg.inv(u_direct[0, 0])
    stride = max(1, fgrid.x.size // 8)
    worst = float(np.max(np.abs(c @ u_direct[::stride, ::stride]
                                - u_loop[::stride, ::stride])))
    rep["oracle.frame_match"] = worst
    ok = ok and worst < tol["frame_match"]
    return rep, ok


def _suite_symmetry(cfg, fgrid, surfaces, geometry):
    tol, d = cfg.tolerances, cfg.descriptor
    interp = {}
    idx_x, idx_y = coverage_window(fgrid.x, fgrid.y, d)
    # an empty window is certify_from_potentials' named error
    if cfg.symmetry_interp and idx_x.size and idx_y.size:
        # refine the gamma-image of the covered sample window as the target
        n = cfg.symmetry_interp
        pre_x = np.linspace(fgrid.x[idx_x[0]], fgrid.x[idx_x[-1]], n)
        pre_y = np.linspace(fgrid.y[idx_y[0]], fgrid.y[idx_y[-1]], n)
        interp_x, interp_y = _image_axes(d, pre_x, pre_y)
        interp = {"interp_x": interp_x, "interp_y": interp_y}
    try:
        report, _ = certify_from_potentials(
            fgrid, d, equivariance_tol=tol["equivariance"], monodromy_tol=tol["monodromy"],
            surface_tol=tol["surface_symmetry"], **interp)
    except ValueError as exc:
        return {"symmetry.error": str(exc)}, False
    rep = {f"symmetry.{k}": v for k, v in report.items()}
    for key in ("equivariance_x", "equivariance_y", "monodromy_spread",
                "surface_residual", "rotation_angle_measured_rad", "rigid_rotation",
                "rigid_translation"):
        if key in report:
            rep[key] = report[key]
    return rep, bool(report.get("all_pass", False))


def _suite_cone(cfg, fgrid, surfaces, geometry):
    sg = surfaces[0]
    cone = find_cone_point(sg)
    if cone is None:
        return {"cone.found": False}, False
    worst, ctol, passed = cone_line_check(sg, cone["point"])
    rep = {"cone.found": True,
           "cone.point": list(np.round(cone["point"], 12)),
           "cone.spread": cone["spread"],
           "cone.line_coverage": cone["line_coverage"],
           "cone.max_line_distance": worst,
           "cone.tolerance": ctol}
    return rep, passed


SUITES = {"loops": _suite_loops, "birkhoff": _suite_birkhoff, "geometry": _suite_geometry,
          "oracle": _suite_oracle, "symmetry": _suite_symmetry, "cone": _suite_cone}


# section -> key -> (parser, default); a default of None means unset
CONFIG_SCHEMA = {
    "grid": {"nx": (_integer(2), 33), "ny": (_integer(2), 33),
             "x_range": (_pair, (0.0, 1.0)), "y_range": (_pair, (0.0, 1.0)),
             "theta_uniform": (_boolean, False)},
    "run": {"lambdas": (_positives, (1.0,)), "trunc": (_integer(1), birkhoff.DEFAULT_TRUNC),
            "seed": (_integer(0), 20090228), "step_divisor": (_positive, 2048.0),
            "drift_lambdas": (_positives, PROBE_LAMBDAS),
            # fine interpolation target for the symmetry suite (0 = main grid)
            "symmetry_interp": (_rule("0, or an integer >= 4", int,
                                      lambda v: v == 0 or v >= 4), 0)},
    # explicit potential domains may exceed the grid ranges
    "potential": {"kind": (_rule("one of normalized, generalized, amsler3", str,
                                 lambda t: t in ("normalized", "generalized", "amsler3")), None),
                  "alpha": (_function, None), "beta": (_function, None),
                  "speed_a": (_function, 1.0), "speed_b": (_function, 1.0),
                  "domain_x": (_pair, None), "domain_y": (_pair, None)},
    "verify": {"suites": (_words(tuple(SUITES)), [])},
    "tolerances": {key: (_positive, tol) for key, tol in dict(
        curvature=5e-3, speed=1e-3, asymptotic=5e-3, oracle_phi=1e-5,
        frame_match=1e-5, birkhoff_residual=1e-9, birkhoff_normalization=1e-10,
        birkhoff_twist=1e-10, equivariance=CERT_EQUIVARIANCE_TOL,
        monodromy=CERT_MONODROMY_TOL, surface_symmetry=CERT_SURFACE_TOL).items()},
    "output": {"directory": (_path, "out"), "formats": (_words(("obj", "csv")), ["obj", "csv"]),
               "drop_degenerate_faces": (_boolean, True)},
}
# [potential] keys a kind never reads; setting one is a config error
UNREAD_POTENTIAL_KEYS = {"normalized": ("speed_a", "speed_b"),
                         "amsler3": ("alpha", "beta", "speed_a", "speed_b", "domain_y")}


def _config_value(cp, base_dir, section, key, flag=None):
    """[section] key from its command-line flag, else the config, else the
    default; a rejected text is a ConfigError naming the key and the text."""
    parse, default = CONFIG_SCHEMA[section][key]
    if flag is None and not cp.has_option(section, key):
        return default
    text = cp[section][key] if flag is None else flag
    try:
        return parse(text, base_dir) if parse is _function else parse(text)
    except ValueError as exc:
        source = "" if flag is None else f" from --{key}"
        raise ConfigError(f"[{section}] {key} {exc}, got {text!r}{source}") from None


def _require_domain(key, dom, axis, nodes):
    # the axis angles are splined over the domain: a node outside reads an extrapolation
    if not dom[0] <= nodes[0] <= nodes[-1] <= dom[1]:
        raise ConfigError(f"[potential] {key} {dom} must contain the {axis} grid nodes, "
                          f"which span t = [{nodes[0]}, {nodes[-1]}]")


class RunConfig:
    """Validated run settings resolved from one config file."""

    def __init__(self, cp, base_dir, overrides):
        # a misspelled key would otherwise fall back to its default unnoticed;
        # [DEFAULT] keys would land in every section
        for section in (["DEFAULT"] if cp.defaults() else []) + cp.sections():
            if section not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{section}]; "
                                  f"have {sorted(CONFIG_SCHEMA)}")
            unknown = sorted(set(cp[section]) - set(CONFIG_SCHEMA[section]))
            if unknown:
                key = unknown[0]
                raise ConfigError(f"unknown key {key!r} in [{section}]: [{section}] {key} = "
                                  f"{cp[section][key]!r} is read by nothing; "
                                  f"have {sorted(CONFIG_SCHEMA[section])}")
        flags = {"trunc": overrides.trunc, "seed": overrides.seed}
        val = {section: {key: _config_value(cp, base_dir, section, key, flags.get(key))
                         for key in keys} for section, keys in CONFIG_SCHEMA.items()}
        g, r, p, o = val["grid"], val["run"], val["potential"], val["output"]
        # every check below spans several keys
        xr, yr = g["x_range"], g["y_range"]
        # theta -> tan((theta + pi) / 2) is finite and increasing on (-2 pi, 0) only
        if g["theta_uniform"] and not all(-2 * np.pi < s[0] and s[1] < 0 for s in (xr, yr)):
            raise ConfigError("[grid] with theta_uniform, x_range / y_range must lie inside "
                              f"(-2 pi, 0), got {xr} and {yr}")
        self.x = np.linspace(xr[0], xr[1], g["nx"])
        self.y = np.linspace(yr[0], yr[1], g["ny"])
        if g["theta_uniform"]:
            self.x = _theta_to_t(self.x)
            self.y = _theta_to_t(self.y)

        self.lambdas, self.trunc, self.seed = r["lambdas"], r["trunc"], r["seed"]
        tags = [_lambda_tag(lam) for lam in self.lambdas]
        for i, tag in enumerate(tags):  # a shared tag would overwrite one surface's outputs
            if tag in tags[:i]:
                raise ConfigError(f"[run] lambdas {self.lambdas[tags.index(tag)]!r} and "
                                  f"{self.lambdas[i]!r} share the output tag {tag}, "
                                  f"got {cp['run']['lambdas']!r}")
        span = max(self.x[-1] - self.x[0], self.y[-1] - self.y[0], 1e-9)
        self.step = span / r["step_divisor"]
        self.drift_samples, self.symmetry_interp = r["drift_lambdas"], r["symmetry_interp"]

        self.kind, self.descriptor = p["kind"], None
        if self.kind is None:
            raise ConfigError("[potential] kind is required")
        for key in UNREAD_POTENTIAL_KEYS.get(self.kind, ()):
            if cp.has_option("potential", key):
                raise ConfigError(f"[potential] {key} is not read by kind = {self.kind}")
        if self.kind == "amsler3":
            lo, hi = min(self.x[0], self.y[0]), max(self.x[-1], self.y[-1])
            dom = p["domain_x"] or (lo - 1e-9, hi + 1e-9)
            _require_domain("domain_x", dom, "x and y", (lo, hi))
            self.pair, self.descriptor = pots.generalized_amsler_example(domain=dom)
        else:
            for key in ("alpha", "beta"):
                if not callable(p[key]):
                    raise ConfigError(f"[potential] {key} must be builtin:<name> or table:<csv> "
                                      f"for kind = {self.kind}, got {p[key]!r}")
            dx = p["domain_x"] or (float(self.x[0]), float(self.x[-1]))
            dy = p["domain_y"] or (float(self.y[0]), float(self.y[-1]))
            if self.kind == "normalized":
                if not (dx[0] <= 0.0 <= dx[1] and dy[0] <= 0.0 <= dy[1]):
                    raise ConfigError("[potential] kind = normalized needs 0 inside both ranges "
                                      f"(domain_x / domain_y, else the grid's), got {dx} and {dy}")
                bnd = pots.BoundaryAngles(alpha=p["alpha"], beta=p["beta"])
                self.pair = pots.normalized_from_boundary(bnd, dx, dy)
            else:
                for axis, dom, key, nodes in (("x", dx, "speed_a", self.x),
                                              ("y", dy, "speed_b", self.y)):
                    _require_domain(f"domain_{axis}", dom, axis, nodes)
                    vals = np.array([float(pots.speed_fn(p[key])(t)) for t in nodes])
                    bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0)))
                    if bad.size:
                        raise ConfigError(f"[potential] {key} must be finite and > 0 at every "
                                          f"grid node; got {vals[bad[0]]:g} at {nodes[bad[0]]:g}")
                bnd = pots.BoundaryAngles(alpha=p["alpha"], beta=p["beta"],
                                          a=p["speed_a"], b=p["speed_b"])
                self.pair = pots.stretched_from_boundary(bnd, dx, dy)

        self.suites, self.tolerances = val["verify"]["suites"], val["tolerances"]
        if "geometry" in self.suites:
            self.require_geometry_grid("the geometry suite")
        if "symmetry" in self.suites and self.descriptor is None:
            raise ConfigError(f"[verify] suites: the symmetry suite needs a declared symmetry, "
                              f"and kind = {self.kind} declares none (only amsler3 does)")
        self.output_dir = overrides.output_dir or o["directory"]
        self.formats, self.drop_degenerate_faces = o["formats"], o["drop_degenerate_faces"]

    def require_geometry_grid(self, what):
        problem = geometry_grid_problem(self.x, self.y)
        if problem is not None:
            raise ConfigError(f"[grid] {what} {problem}")


def _run_suites(cfg, fgrid, surfaces, geometry=None):
    """Run the configured suites (none is a pass)."""
    rep, ok = {}, True
    for suite in cfg.suites:
        r, o = SUITES[suite](cfg, fgrid, surfaces, geometry)
        rep.update(r)
        rep[f"suite.{suite}"] = "pass" if o else "fail"
        ok = ok and o
    return rep, ok


def cmd_verify(cfg):
    if not cfg.suites:
        raise ConfigError("verify requires a [verify] suites entry")
    # every suite but loops and birkhoff reads the build
    need_build = set(cfg.suites) - {"loops", "birkhoff"}
    fgrid, surfaces = _build_surfaces(cfg) if need_build else (None, None)
    return _run_suites(cfg, fgrid, surfaces)


def cmd_sweep(cfg):
    """build, plus family_summary.csv read from build's report."""
    cfg.require_geometry_grid("sweep")
    report, ok = cmd_build(cfg)
    keys = ("curvature_max_abs_err", "speed_x_max_err", "speed_y_max_err")
    with open(os.path.join(cfg.output_dir, "family_summary.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(", ".join(("lambda",) + keys) + "\n")
        for lam in cfg.lambdas:  # RunConfig keeps the tags distinct
            fh.write("%g, %.6g, %.6g, %.6g\n" % (
                lam, *(report[f"{_lambda_tag(lam)}.{k}"] for k in keys)))
    return report, ok


COMMANDS = {"build": cmd_build, "verify": cmd_verify, "sweep": cmd_sweep}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="psurf",
        description="Synthesize and verify pseudospherical surfaces from "
                    "loop-group potential data.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="INI-style run configuration")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--trunc", default=None, help="overrides [run] trunc")
    parser.add_argument("--seed", default=None, help="overrides [run] seed")
    args = parser.parse_args(argv)

    try:
        cp = _parse_config(args.config)
        cfg = RunConfig(cp, os.path.dirname(os.path.abspath(args.config)), args)
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report, ok = COMMANDS[args.command](cfg)
        return _write_report(report, ok, cfg.output_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # the only files the commands touch are their outputs
        print(f"configuration error: [output] directory {cfg.output_dir!r} cannot be written: "
              f"{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FactorizationFailure, IntegrationDrift, StiffnessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
