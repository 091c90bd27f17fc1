"""The benchmark workloads: set-up, one closed-loop operation, and its checks.

Every workload object is built once per process (that is the set-up the
benchmark times) and then runs `op(index)` repeatedly.  An operation returns
a `Checks` tally; an exception inside it counts as every check of that
operation failed.  Checks compare against fixed references computed here,
never against psurf's own verdicts, except where a verdict is the thing
being checked (the CLI's `suite.oracle`).
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import os
import shutil
import sys
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")


class Checks:
    """Tally of one operation's checks; `known` failures are reported findings."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.known_failed = []

    def check(self, name, ok, known=False):
        self.attempted += 1
        if not ok:
            (self.known_failed if known else self.failed).append(name)

    def fail_all(self, count, reason):
        self.attempted = count
        self.failed = [reason] * count
        self.known_failed = []


def _lambda_tag(lam):
    return ("lambda_%g" % lam).replace(".", "p")


class CliWorkload:
    """One in-process `psurf <command> <config> --output-dir <fresh dir>`."""

    command = None
    n_checks = None

    def __init__(self, name, workdir):
        from psurf import cli
        self.name = name
        self.cli = cli                      # looked up per call, so wrappers apply
        self.config = os.path.join(CONFIGS, name + ".ini")
        self.workdir = workdir
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not cp.read(self.config):
            raise FileNotFoundError(self.config)
        self.settings = cp

    def op(self, index):
        out = os.path.join(self.workdir, f"{self.name}-op{index}")
        shutil.rmtree(out, ignore_errors=True)
        checks = Checks()
        info = {"exit_code": -1}
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                info["exit_code"] = self.cli.main([self.command, self.config, "--output-dir", out])
            if info["exit_code"] not in (0, 1):
                raise RuntimeError(f"psurf {self.command} exited {info['exit_code']}")
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            self.check(out, report, checks, info)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checks.fail_all(self.n_checks, "exception")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return checks, info


class SolitonBuild(CliWorkload):
    """`psurf build` on the README example: the 65 x 65 normalized soliton."""

    command = "build"
    n_checks = 15
    nodes = 65 * 65
    splits_per_op = nodes       # one splitting per grid node

    def check(self, out, report, checks, info):
        lambdas = [float(v) for v in self.settings["run"]["lambdas"].replace(",", " ").split()]
        for lam in lambdas:
            tag = _lambda_tag(lam)
            checks.check(f"{tag}.curvature", report[f"{tag}.curvature_max_abs_err"] < 5e-3)
            checks.check(f"{tag}.speed", max(report[f"{tag}.speed_x_max_err"],
                                              report[f"{tag}.speed_y_max_err"]) < 1e-3)
            table = np.loadtxt(os.path.join(out, f"surface_{tag}.csv"), delimiter=",",
                               skiprows=1, ndmin=2)
            checks.check(f"{tag}.csv_vertices", table.shape[0] == self.nodes)
            with open(os.path.join(out, f"surface_{tag}.obj"), encoding="utf-8") as fh:
                n_obj = sum(1 for line in fh if line.startswith("v "))
            checks.check(f"{tag}.obj_vertices", n_obj == self.nodes)
            if lam == 1.0:
                x, y, phi = table[:, 0], table[:, 1], table[:, 5]
                kink_err = float(np.max(np.abs(phi - 4.0 * np.arctan(np.exp(x + y)))))
                checks.check("phi_vs_kink", kink_err < 1e-5)
                info["phi_kink_err"] = kink_err
        checks.check("max_split_residual", report["max_split_residual"] < 1e-6)
        # Known finding: the second-order Goursat oracle misses its own
        # default 1e-5 tolerance at h = 1/64.  Counted as failed, never loosened.
        checks.check("suite.oracle", report.get("suite.oracle") == "pass", known=True)
        info["phi_diff"] = float(report.get("oracle.phi_max_diff", 0.0))


class AmslerCertify(CliWorkload):
    """`psurf verify` of the rotational example on the criterion-7 domain."""

    command = "verify"
    n_checks = 4

    def check(self, out, report, checks, info):
        inf = float("inf")
        checks.check("equivariance", max(report.get("equivariance_x", inf),
                                          report.get("equivariance_y", inf)) < 1e-8)
        checks.check("monodromy_spread", report.get("monodromy_spread", inf) < 1e-4)
        checks.check("chi_vs_R", report.get("symmetry.chi_vs_R", inf) < 1e-3)
        checks.check("surface_residual", report.get("surface_residual", inf) < 1e-3)
        info["surface_residual"] = report.get("surface_residual", inf)


# constructed as WORKLOADS[name](name, workdir)
WORKLOADS = {"soliton_build": SolitonBuild, "amsler_certify": AmslerCertify}
