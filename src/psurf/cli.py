"""Configuration-driven builds, verification suites and family sweeps.

Configs are INI-style sectioned key/value files (see README for the
grammar).  Exit codes: 0 all requested checks pass, 1 verification failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from psurf import birkhoff, potentials as pots
from psurf.birkhoff import FactorizationFailure
from psurf.frames import DRIFT_LAMBDAS, IntegrationDrift, direct_frame_solve
from psurf.loops import random_twisted_unitary_loop
from psurf.oracle import GoursatProblem, StiffnessError, goursat_solve
from psurf.surface import (associated_family, cone_line_check, find_cone_point,
                           geometry_grid_problem, geometry_report, reconstruct_frames,
                           write_csv, write_obj)
from psurf.symmetry import (CERT_EQUIVARIANCE_TOL, CERT_MONODROMY_TOL, CERT_SURFACE_TOL,
                            certify_from_potentials)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_TOLERANCES = {
    "curvature": 5e-3,
    "speed": 1e-3,
    "asymptotic": 5e-3,
    "boundary": 1e-7,
    "oracle_phi": 1e-5,
    "frame_match": 1e-5,
    "birkhoff_residual": 1e-9,
    "birkhoff_normalization": 1e-10,
    "birkhoff_twist": 1e-10,
    "equivariance": CERT_EQUIVARIANCE_TOL,
    "monodromy": CERT_MONODROMY_TOL,
    "surface_symmetry": CERT_SURFACE_TOL,
}


# the keys each config section may hold
CONFIG_KEYS = {
    "grid": {"nx", "ny", "x_range", "y_range", "theta_uniform"},
    "run": {"lambdas", "trunc", "seed", "step_divisor", "drift_lambdas", "symmetry_interp"},
    "potential": {"kind", "alpha", "beta", "speed_a", "speed_b", "domain_x", "domain_y"},
    "verify": {"suites"},
    "tolerances": set(DEFAULT_TOLERANCES),
    "output": {"directory", "formats", "drop_degenerate_faces"},
}


class ConfigError(ValueError):
    pass


def _parse_config(path):
    import configparser
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:  # duplicate keys, lines without '='
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return cp


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _positive_reals(section, key, default):
    """The values of key, which must be one or more positive finite reals."""
    if key not in section:
        return default
    vals = tuple(_floats(section[key]))
    if not vals or not all(np.isfinite(v) and v > 0 for v in vals):
        raise ConfigError(f"{key} must be one or more positive finite reals, "
                          f"got {section[key]!r}")
    return vals


def _resolve_function(spec, base_dir):
    spec = spec.strip()
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in pots.BUILTIN_FUNCTIONS:
            raise ConfigError(f"unknown builtin function {name!r}; "
                              f"have {sorted(pots.BUILTIN_FUNCTIONS)}")
        return pots.BUILTIN_FUNCTIONS[name]
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return pots.function_from_table(path)
    try:
        return float(spec)
    except ValueError:
        raise ConfigError(f"function spec {spec!r} must be builtin:<name>, "
                          "table:<csv>, or a constant") from None


def _theta_to_t(th):
    return np.tan(0.5 * (np.asarray(th, dtype=float) + np.pi))


class RunConfig:
    """Validated run settings resolved from one config file."""

    def __init__(self, cp, base_dir, overrides):
        # a misspelled key would otherwise fall back to its default unnoticed;
        # [DEFAULT] keys would land in every section
        for section in (["DEFAULT"] if cp.defaults() else []) + cp.sections():
            if section not in CONFIG_KEYS:
                raise ConfigError(f"unknown config section [{section}]; "
                                  f"have {sorted(CONFIG_KEYS)}")
            unknown = sorted(set(cp[section]) - CONFIG_KEYS[section])
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]; "
                                  f"have {sorted(CONFIG_KEYS[section])}")
        g = cp["grid"] if cp.has_section("grid") else {}
        self.nx = int(g.get("nx", 33))
        self.ny = int(g.get("ny", 33))
        if self.nx < 2 or self.ny < 2:
            raise ConfigError("grid must be at least 2 x 2")
        xr = _floats(g.get("x_range", "0, 1"))
        yr = _floats(g.get("y_range", "0, 1"))
        if not (len(xr) == len(yr) == 2 and all(-np.inf < r[0] < r[1] < np.inf for r in (xr, yr))):
            raise ConfigError("x_range / y_range must be increasing pairs of finite reals")
        theta_uniform = str(g.get("theta_uniform", "false")).lower() in ("1", "true", "yes")
        self.x = np.linspace(xr[0], xr[1], self.nx)
        self.y = np.linspace(yr[0], yr[1], self.ny)
        if theta_uniform:
            self.x = _theta_to_t(self.x)
            self.y = _theta_to_t(self.y)

        r = cp["run"] if cp.has_section("run") else {}
        self.lambdas = _positive_reals(r, "lambdas", (1.0,))
        if overrides.trunc is not None:
            self.trunc = overrides.trunc
        else:
            self.trunc = int(r.get("trunc", 24))
        if self.trunc < 1:
            raise ConfigError(f"trunc must be >= 1, got {self.trunc}")
        self.seed = overrides.seed if overrides.seed is not None else int(r.get("seed", 20090228))
        div = float(r.get("step_divisor", 2048))
        if not (np.isfinite(div) and div > 0):
            raise ConfigError(f"step_divisor must be a positive number, got {div:g}")
        span = max(self.x[-1] - self.x[0], self.y[-1] - self.y[0], 1e-9)
        self.step = span / div
        self.drift_samples = _positive_reals(r, "drift_lambdas", DRIFT_LAMBDAS)
        # fine interpolation target for the symmetry suite (0 = main grid)
        self.symmetry_interp = int(r.get("symmetry_interp", 0))

        p = cp["potential"] if cp.has_section("potential") else {}
        self.kind = p.get("kind", "").strip()
        if self.kind not in ("normalized", "generalized", "amsler3"):
            raise ConfigError("potential.kind must be normalized, generalized or amsler3")
        self.descriptor = None
        # explicit potential domains may exceed the grid ranges
        dom_x = tuple(_floats(p["domain_x"])) if "domain_x" in p else None
        dom_y = tuple(_floats(p["domain_y"])) if "domain_y" in p else None
        if self.kind == "amsler3":
            dom = dom_x or (min(self.x[0], self.y[0]) - 1e-9,
                            max(self.x[-1], self.y[-1]) + 1e-9)
            self.pair, self.descriptor = pots.generalized_amsler_example(domain=dom)
        else:
            if "alpha" not in p or "beta" not in p:
                raise ConfigError(f"potential.alpha and potential.beta are required for kind={self.kind}")
            alpha = _resolve_function(p["alpha"], base_dir)
            beta = _resolve_function(p["beta"], base_dir)
            if not callable(alpha) or not callable(beta):
                raise ConfigError("alpha/beta must resolve to functions, not constants")
            dx = dom_x or (float(self.x[0]), float(self.x[-1]))
            dy = dom_y or (float(self.y[0]), float(self.y[-1]))
            if self.kind == "normalized":
                if not (dx[0] <= 0.0 <= dx[1] and dy[0] <= 0.0 <= dy[1]):
                    raise ConfigError("normalized potentials need 0 inside both grid ranges")
                bnd = pots.BoundaryAngles(alpha=alpha, beta=beta)
                self.pair = pots.normalized_from_boundary(bnd, dx, dy)
            else:
                sa = _resolve_function(p.get("speed_a", "1.0"), base_dir)
                sb = _resolve_function(p.get("speed_b", "1.0"), base_dir)
                for key, fn, nodes in (("speed_a", sa, self.x), ("speed_b", sb, self.y)):
                    vals = np.array([float(pots.speed_fn(fn)(t)) for t in nodes])
                    bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0)))
                    if bad.size:
                        raise ConfigError(f"{key} must be finite and > 0 at every grid node; "
                                          f"got {vals[bad[0]]:g} at {nodes[bad[0]]:g}")
                bnd = pots.BoundaryAngles(alpha=alpha, beta=beta, a=sa, b=sb)
                self.pair = pots.stretched_from_boundary(bnd, dx, dy)

        v = cp["verify"] if cp.has_section("verify") else {}
        self.suites = [s.strip() for s in v.get("suites", "").replace(",", " ").split() if s.strip()]
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown verify suite {s!r}; have {sorted(SUITES)}")
        if "geometry" in self.suites:
            self.require_geometry_grid("the geometry suite")

        self.tolerances = dict(DEFAULT_TOLERANCES)
        if cp.has_section("tolerances"):
            for key, val in cp["tolerances"].items():
                self.tolerances[key] = float(val)

        o = cp["output"] if cp.has_section("output") else {}
        self.output_dir = overrides.output_dir or o.get("directory", "out")
        self.formats = [s.strip() for s in o.get("formats", "obj, csv").replace(",", " ").split() if s.strip()]
        self.drop_degenerate_faces = str(o.get("drop_degenerate_faces", "true")).lower() \
            in ("1", "true", "yes")

    def require_geometry_grid(self, what):
        problem = geometry_grid_problem(self.x, self.y)
        if problem is not None:
            raise ConfigError(f"{what} {problem}")


def _write_report(report, outdir, name="report"):
    os.makedirs(outdir, exist_ok=True)
    txt = os.path.join(outdir, name + ".txt")
    with open(txt, "w", encoding="utf-8", newline="\n") as fh:
        for key in report:
            fh.write(f"{key}: {report[key]}\n")
    with open(os.path.join(outdir, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({k: (v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in report.items()}, fh, indent=1, sort_keys=True)
    return txt


def _build_surfaces(cfg):
    fgrid = reconstruct_frames(cfg.pair, cfg.x, cfg.y, trunc=cfg.trunc, step=cfg.step,
                               drift_samples=cfg.drift_samples)
    try:
        surfaces = associated_family(fgrid, cfg.lambdas)
    except ValueError as exc:  # a lambda at which the immersion is not finite
        raise ConfigError(str(exc)) from None
    return fgrid, surfaces


def _geometry_pass(rep, tol, all_degenerate_ok=True):
    if rep.get("all_degenerate"):
        return all_degenerate_ok
    checks = [rep["curvature_max_abs_err"] < tol["curvature"],
              rep["speed_x_max_err"] < tol["speed"],
              rep["speed_y_max_err"] < tol["speed"]]
    return all(bool(c) for c in checks)


def _lambda_tag(lam):
    return ("lambda_%g" % lam).replace(".", "p")


def _export(cfg, sg):
    """Write the configured OBJ / CSV files of one surface; returns its tag."""
    tag = _lambda_tag(sg.lam)
    if "obj" in cfg.formats:
        write_obj(sg, os.path.join(cfg.output_dir, f"surface_{tag}.obj"),
                  drop_degenerate_faces=cfg.drop_degenerate_faces)
    if "csv" in cfg.formats:
        write_csv(sg, os.path.join(cfg.output_dir, f"surface_{tag}.csv"))
    return tag


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
        tag = _export(cfg, sg)
        rep = geometry_report(sg, fgrid) if full_geometry else \
            {"all_degenerate": bool(np.all(sg.degenerate)),
             "degenerate_count": int(np.sum(sg.degenerate))}
        for k, v in rep.items():
            report[f"{tag}.{k}"] = v
        if full_geometry:
            geometry.append(rep)
            ok = ok and _geometry_pass(rep, cfg.tolerances)
    if cfg.suites:
        vr, vok = _run_suites(cfg, fgrid, surfaces, geometry)
        report.update(vr)
        ok = ok and vok
    report["pass"] = bool(ok)
    path = _write_report(report, cfg.output_dir)
    print(f"report written to {path}")
    return EXIT_OK if ok else EXIT_VERIFY


# suite runners return (report entries, passed); fgrid and surfaces are None
# unless the suite needs a build, geometry holds the build's reports if any

def _suite_loops(cfg, fgrid, surfaces, geometry):
    rng = np.random.default_rng(cfg.seed)
    worst_twist = worst_hom = 0.0
    for _ in range(50):
        g = random_twisted_unitary_loop(rng)
        h = random_twisted_unitary_loop(rng)
        worst_twist = max(worst_twist, (g * h).check_twist())
        lams = np.array([0.5, 1.0, 2.0])
        worst_hom = max(worst_hom, float(np.max(np.abs(
            (g * h).evaluate(lams) - g.evaluate(lams) @ h.evaluate(lams)))))
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
    tol = cfg.tolerances
    if cfg.descriptor is None:
        _, d = pots.generalized_amsler_example(domain=(float(cfg.x[0]), float(cfg.x[-1])))
    else:
        d = cfg.descriptor
    interp = {}
    if cfg.symmetry_interp > 0:
        # refine the gamma-image of the covered sample window as the target
        lo, hi = float(cfg.x[0]), float(cfg.x[-1])
        window = [t for t in cfg.x if lo <= d.gamma1(float(t)) <= hi]
        if len(window) >= 2:
            pre = np.linspace(window[0], window[-1], cfg.symmetry_interp)
            img = np.array([d.gamma1(float(t)) for t in pre])
            if img.size >= 4 and np.all(np.diff(img) > 0):
                interp = {"interp_x": img, "interp_y": img,
                          "interp_trunc": max(24, cfg.trunc - 8)}
    try:
        report, _, _ = certify_from_potentials(
            cfg.pair, d, cfg.x, cfg.y, trunc=cfg.trunc, step=cfg.step,
            drift_samples=cfg.drift_samples, monodromy_lambdas=pots.CIRCLE_LAMBDAS,
            equivariance_tol=tol["equivariance"], monodromy_tol=tol["monodromy"],
            surface_tol=tol["surface_symmetry"], **interp)
    except ValueError as exc:
        return {"symmetry.error": str(exc)}, False
    rep = {f"symmetry.{k}": v for k, v in report.items()}
    for key in ("equivariance_x", "equivariance_y", "monodromy_spread",
                "surface_residual", "rotation_angle_measured_rad"):
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


def _run_suites(cfg, fgrid, surfaces, geometry=None):
    """Run the configured suites; `geometry` holds the per-surface geometry
    reports when the caller has already computed them."""
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
    need_build = any(s in ("geometry", "oracle", "cone") for s in cfg.suites)
    fgrid = surfaces = None
    if need_build:
        fgrid, surfaces = _build_surfaces(cfg)
    report, ok = _run_suites(cfg, fgrid, surfaces)
    report["pass"] = bool(ok)
    path = _write_report(report, cfg.output_dir)
    print(f"report written to {path}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_sweep(cfg):
    cfg.require_geometry_grid("sweep")
    os.makedirs(cfg.output_dir, exist_ok=True)
    fgrid, surfaces = _build_surfaces(cfg)
    report = {"kind": cfg.kind, "trunc": cfg.trunc}
    ok = True
    lines = ["lambda, curvature_max_abs_err, speed_x_max_err, speed_y_max_err"]
    for sg in surfaces:
        tag = _export(cfg, sg)
        rep = geometry_report(sg, fgrid)
        lines.append("%g, %.6g, %.6g, %.6g" % (
            sg.lam, rep["curvature_max_abs_err"], rep["speed_x_max_err"],
            rep["speed_y_max_err"]))
        report[f"{tag}.curvature_max_abs_err"] = rep["curvature_max_abs_err"]
        ok = ok and _geometry_pass(rep, cfg.tolerances)
    with open(os.path.join(cfg.output_dir, "family_summary.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    report["pass"] = bool(ok)
    path = _write_report(report, cfg.output_dir)
    print(f"report written to {path}")
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="psurf",
        description="Synthesize and verify pseudospherical surfaces from "
                    "loop-group potential data.")
    parser.add_argument("command", choices=["build", "verify", "sweep"])
    parser.add_argument("config", help="INI-style run configuration")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--trunc", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cp = _parse_config(args.config)
        cfg = RunConfig(cp, os.path.dirname(os.path.abspath(args.config)), args)
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FactorizationFailure, IntegrationDrift, StiffnessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
