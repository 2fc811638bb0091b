"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

Each workload object is built from a `Draw` and a plan (full or smoke
grids).  `setup` imports the tomoflow modules the workload calls and
builds its inputs; `run_pass` attempts the same operations every time and
returns their outputs (or `Failed`); `check` compares every output with
the independent references in `reference.py` or with properties the
method must have, and returns one `Verdict` per operation.

Why these three: each layer with a planned rewrite carries most of the
time in one workload and none in another (see README.md).
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from cli_child import MARKER

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Draw:
    """Inputs drawn from the seed and shared by all workloads.

    The odd-cat displacement has radius in [1.2, 1.6] and lies within 20
    degrees of the q axis.  Further off the axis the default rho
    quadrature range (mu in [-8, 8]) truncates chi of the
    momentum-displaced cat (rho error 2.8e-5 at p0 = -1.35), and the
    CLI's field box truncates the freely evolved one (see CHANGES.md).
    All snapshot times are scaled by one common factor in [0.98, 1.02],
    a range in which every evolve_pde run makes the same resamples.
    """

    q0: float
    p0: float
    jitter: float

    @classmethod
    def from_seed(cls, seed: int) -> "Draw":
        rng = random.Random(seed)
        radius = rng.uniform(1.2, 1.6)
        angle = rng.uniform(-0.35, 0.35)
        return cls(radius * math.cos(angle), radius * math.sin(angle),
                   rng.uniform(0.98, 1.02))


class Failed:
    """Outcome of an operation that raised or exited nonzero."""

    def __init__(self, reason: str):
        self.reason = reason


@dataclass
class Verdict:
    """One operation's outcome: measured values next to their limits.

    `error` is set when the operation produced no output (it raised or
    exited nonzero); `wrong` when its output failed a check.
    """

    op: str
    error: str = ""
    check_error: str = ""
    measured: dict = field(default_factory=dict)

    def limit(self, name: str, value: float, tolerance: float) -> None:
        self.measured[name] = (float(value), tolerance)

    @property
    def wrong(self) -> bool:
        return bool(self.check_error) or any(
            not v <= tol for v, tol in self.measured.values())

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.wrong


def attempt(outputs: dict, name: str, fn, *needs: str) -> None:
    """Run one operation; an exception, or a failed input, marks it Failed."""
    if any(isinstance(outputs[n], Failed) for n in needs):
        outputs[name] = Failed("an input operation failed")
        return
    try:
        outputs[name] = fn()
    except Exception as exc:  # any library error is one failed operation
        outputs[name] = Failed(f"{type(exc).__name__}: {exc}")


def _verdicts(outputs: dict, checks: dict) -> list[Verdict]:
    verdicts = []
    for op, out in outputs.items():
        verdict = Verdict(op)
        if isinstance(out, Failed):
            verdict.error = out.reason
        else:
            try:
                checks[op](verdict, out)
            except Exception as exc:  # unreadable or malformed output
                verdict.check_error = f"{type(exc).__name__}: {exc}"
        verdicts.append(verdict)
    return verdicts


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.full(grid.size, grid[1] - grid[0])
    w[[0, -1]] *= 0.5
    return w


def check_wigner(verdict: Verdict, values, q, p, expected, tol: float):
    """Max error against the reference and W(0,0) = -2 (odd states)."""
    verdict.limit("wigner_err", np.max(np.abs(values - expected)), tol)
    i, j = int(np.argmin(np.abs(q))), int(np.argmin(np.abs(p)))
    if q[i] != 0.0 or p[j] != 0.0:
        raise ValueError("the Wigner grid must contain the origin")
    verdict.limit("wigner_origin_err", abs(values[i, j] + 2.0), tol)


def check_rho(verdict: Verdict, values, q, psi, tol: float, tol_trace: float):
    """Against psi psi^*; trace 1, hermitian and purity 1 (pure states)."""
    w = _trapezoid_weights(q)
    verdict.limit("rho_err", np.max(np.abs(values - ref.rho_from_psi(psi))),
                  tol)
    verdict.limit("trace_err", abs(np.real(np.sum(w * np.diag(values))) - 1.0),
                  tol_trace)
    verdict.limit("hermiticity_err",
                  np.max(np.abs(values - values.conj().T)), 1e-9)
    purity = np.sum(w[:, None] * w[None, :] * np.abs(values) ** 2)
    verdict.limit("purity_err", abs(purity - 1.0), tol_trace)


def check_evolved(verdict: Verdict, values, state, dyn: str, t: float,
                  mu, nu, x, tol: float, name: str = "evolve_err"):
    """Exact flow on cells of radius >= 0.5 that stay resolvable."""
    mask = ref.resolvable_cells(dyn, mu, nu, t)
    exact = ref.evolved_marginal_field(state, dyn, t, mu, nu, x)
    err = np.max(np.abs(values - exact), axis=2)[mask]
    verdict.limit(name, np.max(err, initial=0.0), tol)


class Workload:
    """Defaults for workloads that run in the benchmark's own process."""

    def peak_rss_mb(self):
        """Peak memory of the child processes; None means this process."""
        return None

    def close(self) -> None:
        pass


# -- reconstruct ---------------------------------------------------------

class Reconstruct(Workload):
    """In-process inversion of a Radon table and of a closed form.

    Source 1: RadonMarginalEvaluator of the odd-cat Wigner callable.
    Source 2: the closed-form marginal of the first excited state.
    Each goes through chi, then W, then rho (s = 1).
    """

    name = "reconstruct"
    PLANS = {
        "full": dict(n_phi=90, y=(-12.0, 12.0, 401), a=(-10.0, 10.0, 81),
                     w=(-4.0, 4.0, 129), q=(-5.0, 5.0, 41), mu_samples=201,
                     tol=1e-5, tol_radon=1e-4),
        "smoke": dict(n_phi=36, y=(-12.0, 12.0, 241), a=(-10.0, 10.0, 41),
                      w=(-4.0, 4.0, 33), q=(-5.0, 5.0, 21), mu_samples=101,
                      tol=1e-3, tol_radon=1e-2),
    }

    def __init__(self, draw: Draw, plan: str, root: str):
        self.draw = draw
        self.plan = self.PLANS[plan]
        self.cat = ref.OddCat(draw.q0, draw.p0)
        self.excited = ref.Excited1()

    def setup(self) -> None:
        from tomoflow import fields, states, tomography

        self.tomography = tomography
        pl = self.plan
        cat = states.StateSpec(states.StateKind.ODD_CAT,
                               q0=self.draw.q0, p0=self.draw.p0)
        self.wigner_cat = states.wigner_evaluator(cat)
        self.marginal_excited = states.marginal_evaluator(
            states.StateSpec(states.StateKind.EXCITED_FIRST))
        self.y = np.linspace(*pl["y"])
        self.a = np.linspace(*pl["a"])
        self.w = np.linspace(*pl["w"])
        self.q = np.linspace(*pl["q"])
        self.rho_config = fields.ReconstructionConfig(
            mu_samples=pl["mu_samples"])

    def run_pass(self, tracer=None) -> dict:
        tomo = self.tomography
        out: dict = {}
        attempt(out, "radon", lambda: tomo.RadonMarginalEvaluator(
            self.wigner_cat, n_phi=self.plan["n_phi"], y_grid=self.y))
        for label, source, needs in (
                ("radon", out["radon"], ("radon",)),
                ("closed", self.marginal_excited, ())):
            attempt(out, f"chi.{label}", lambda: tomo.characteristic_from_marginal(
                source, self.a, self.a), *needs)
            attempt(out, f"wigner.{label}", lambda: tomo.wigner_from_characteristic(
                out[f"chi.{label}"], self.w, self.w), f"chi.{label}")
            attempt(out, f"rho.{label}", lambda: tomo.density_matrix_from_marginal(
                source, self.q, self.rho_config), *needs)
        return out

    def check(self, outputs: dict) -> list[Verdict]:
        tol = self.plan["tol"]
        states = {"radon": self.cat, "closed": self.excited}

        def radon(v, source):
            # Off-node directions and two radii exercise both interpolations.
            x = np.linspace(-6.0, 6.0, 241)
            err = 0.0
            for phi in np.linspace(0.1, 2.0 * math.pi + 0.1, 7, endpoint=False):
                for r in (1.0, 0.7):
                    mu, nu = r * math.cos(phi), r * math.sin(phi)
                    err = max(err, float(np.max(np.abs(
                        source(x, mu, nu) - self.cat.marginal(x, mu, nu)))))
            v.limit("radon_err", err, self.plan["tol_radon"])

        def chi(label):
            return lambda v, c: v.limit("chi_err", np.max(np.abs(
                c.values - states[label].chi(self.a[:, None], self.a[None, :]))),
                tol)

        def wigner(label):
            return lambda v, w: check_wigner(
                v, w.values, w.q_grid, w.p_grid,
                states[label].wigner(w.q_grid[:, None], w.p_grid[None, :]), tol)

        def rho(label):
            return lambda v, r: check_rho(
                v, r.values, r.q_grid, states[label].psi(r.q_grid), tol, tol)

        checks = {"radon": radon}
        for label in states:
            checks[f"chi.{label}"] = chi(label)
            checks[f"wigner.{label}"] = wigner(label)
            checks[f"rho.{label}"] = rho(label)
        return _verdicts(outputs, checks)


# -- evolve --------------------------------------------------------------

class Evolve(Workload):
    """In-process evolve_pde runs with the default SolverConfig.

    The free shear to t = 2.2 forces two adaptive remaps besides its two
    snapshots (four resamples); the harmonic rotation to pi runs in one
    window (one resample); linear:0.5 to t = 1 remaps once (two
    resamples) and stops before the X-box outflow fault named in
    CHANGES.md shows.  For every seed's time factor these counts, and the
    number of distinct window lengths (cached plans, which set the peak
    memory), stay the same; with free snapshots at (1, 2) the plan count
    would depend on float rounding of the windows.
    """

    name = "evolve"
    PLANS = {
        "full": dict(grid=(65, 257), tol=1e-3, cases=(
            ("oddcat", "free", (1.0, 2.2)),
            ("oddcat", "harmonic", (math.pi,)),
            ("excited1", "linear:0.5", (1.0,)))),
        "smoke": dict(grid=(33, 129), tol=1e-3, cases=(
            ("oddcat", "free", (0.3,)),
            ("oddcat", "harmonic", (0.3,)),
            ("excited1", "linear:0.5", (0.3,)))),
    }

    def __init__(self, draw: Draw, plan: str, root: str):
        self.draw = draw
        self.plan = self.PLANS[plan]
        self.refs = {"excited1": ref.Excited1(),
                     "oddcat": ref.OddCat(draw.q0, draw.p0)}
        self.cases = [(s, dyn, tuple(t * draw.jitter for t in times))
                      for s, dyn, times in self.plan["cases"]]

    def setup(self) -> None:
        from tomoflow import evolution, states

        self.evolution = evolution
        n_dir, n_x = self.plan["grid"]
        self.d = np.linspace(-1.5, 1.5, n_dir)
        self.x = np.linspace(-8.0, 8.0, n_x)
        specs = {"excited1": states.StateSpec(states.StateKind.EXCITED_FIRST),
                 "oddcat": states.StateSpec(states.StateKind.ODD_CAT,
                                            q0=self.draw.q0, p0=self.draw.p0)}
        self.fields = {name: states.sample_marginal_field(
            spec, self.d, self.d, self.x) for name, spec in specs.items()}
        pot = evolution.PotentialSpec
        self.coeffs = {
            "free": evolution.reduce_equation(pot.free()),
            "harmonic": evolution.reduce_equation(pot.harmonic()),
            "linear:0.5": evolution.reduce_equation(pot.linear(0.5))}
        self.config = evolution.SolverConfig()

    def run_pass(self, tracer=None) -> dict:
        evo = self.evolution
        out: dict = {}
        for state, dyn, times in self.cases:
            attempt(out, f"{state}.{dyn}", lambda: evo.evolve_pde(
                self.fields[state], self.coeffs[dyn], self.config,
                times=list(times)))
        return out

    def check(self, outputs: dict) -> list[Verdict]:
        def case(state, dyn, times):
            def run(v, snaps):
                if len(snaps) != len(times):
                    raise ValueError(f"{len(snaps)} snapshots for "
                                     f"{len(times)} times")
                for t, snap in zip(times, snaps):
                    check_evolved(v, snap.values, self.refs[state], dyn, t,
                                  snap.mu_grid, snap.nu_grid, snap.x_grid,
                                  self.plan["tol"], f"evolve_err@t={t:.4f}")
            return run

        return _verdicts(outputs, {f"{s}.{dyn}": case(s, dyn, times)
                                   for s, dyn, times in self.cases})


# -- cli-pipeline --------------------------------------------------------

def read_csv_field(path: str):
    """Grids and values of a tomoflow field file (independent parser)."""
    with open(path) as fh:
        header = json.loads(fh.readline().split(" ", 1)[1])
        fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    grids = [np.asarray(header["grids"][a], dtype=float) for a in header["axes"]]
    shape = tuple(g.size for g in grids)
    values = (data[:, -2] + 1j * data[:, -1] if header["complex"]
              else data[:, -1])
    return grids, values.reshape(shape)


class CliPipeline(Workload):
    """sample-field -> evolve (free, char) -> invert -> density-matrix,
    each in its own interpreter, with files in a directory of the
    checkout that is removed at the end."""

    name = "cli-pipeline"
    PLANS = {
        "full": dict(direction=41, x=161, t=1.0, tol_w=1e-2, tol_rho=2e-4,
                     tol_trace=1e-2),
        "smoke": dict(direction=33, x=129, t=1.0, tol_w=0.2, tol_rho=2e-2,
                      tol_trace=0.1),
    }

    def __init__(self, draw: Draw, plan: str, root: str):
        self.draw = draw
        self.plan = self.PLANS[plan]
        self.src = os.path.join(root, "src")
        self.cat = ref.OddCat(draw.q0, draw.p0)
        self.t = self.plan["t"] * draw.jitter
        self.peak = 0.0

    def setup(self) -> None:
        import tomoflow.cli  # noqa: F401  (the import each command pays)

        self.dir = os.path.join(HERE, "out", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        pl = self.plan
        with open(os.path.join(self.dir, "config.json"), "w") as fh:
            json.dump({"direction_grid": [-1.5, 1.5, pl["direction"]],
                       "x_grid": [-8.0, 8.0, pl["x"]]}, fh)
        d = self.draw
        self.commands = {
            "sample-field": ["sample-field", "--state", "oddcat",
                             "--q0", repr(d.q0), "--p0", repr(d.p0),
                             "--config", "config.json", "--out", "f.csv"],
            "evolve": ["evolve", "--in", "f.csv", "--dyn", "free",
                       "--t", repr(self.t), "--solver", "char",
                       "--out", "e.csv"],
            "invert": ["invert", "--in", "e.csv", "--config", "config.json",
                       "--out", "w.csv"],
            "density-matrix": ["density-matrix", "--in", "e.csv",
                               "--config", "config.json", "--out", "r.csv"],
        }

    def _command(self, argv: list[str], tracer) -> str:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), self.src,
               "0" if tracer is None else "1"] + argv
        if tracer is None:
            proc = subprocess.run(cmd, cwd=self.dir, capture_output=True,
                                  text=True, timeout=170)
        else:
            with tracer.span("cli.process") as span:
                proc = subprocess.run(cmd, cwd=self.dir, capture_output=True,
                                      text=True, timeout=170)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(MARKER)]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{argv[0]}: interpreter exited "
                               f"{proc.returncode}: {proc.stderr[-500:]}")
        report = json.loads(lines[-1][len(MARKER):])
        self.peak = max(self.peak, report["peak_rss_mb"])
        if tracer is not None:
            tracer.adopt(report["spans"], report["counts"], span["id"])
        if report["code"] != 0:
            raise RuntimeError(f"{argv[0]}: exit code {report['code']}: "
                               f"{proc.stderr[-500:]}")
        return os.path.join(self.dir, argv[-1])

    def run_pass(self, tracer=None) -> dict:
        out: dict = {}
        needs = {"evolve": ("sample-field",), "invert": ("evolve",),
                 "density-matrix": ("evolve",)}
        for name, argv in self.commands.items():
            attempt(out, name, lambda: self._command(argv, tracer),
                    *needs.get(name, ()))
        return out

    def check(self, outputs: dict) -> list[Verdict]:
        pl = self.plan

        def sampled(v, path):
            (mu, nu, x), values = read_csv_field(path)
            exact = ref.evolved_marginal_field(self.cat, "free", 0.0, mu, nu, x)
            v.limit("sample_err", np.max(np.abs(values - exact)), 1e-9)

        def evolved(v, path):
            (mu, nu, x), values = read_csv_field(path)
            check_evolved(v, values, self.cat, "free", self.t, mu, nu, x, 1e-3)

        def inverted(v, path):
            (q, p), values = read_csv_field(path)
            check_wigner(v, values, q, p,
                         ref.wigner_free(self.cat, self.t, q[:, None],
                                         p[None, :]), pl["tol_w"])

        def density(v, path):
            (q, _), values = read_csv_field(path)
            check_rho(v, values, q, ref.psi_free(self.cat, self.t, q),
                      pl["tol_rho"], pl["tol_trace"])

        verdicts = _verdicts(outputs, {"sample-field": sampled,
                                       "evolve": evolved, "invert": inverted,
                                       "density-matrix": density})
        # The next pass must not find, and so check, this pass's files.
        for argv in self.commands.values():
            path = os.path.join(self.dir, argv[-1])
            if os.path.exists(path):
                os.remove(path)
        return verdicts

    def peak_rss_mb(self):
        return self.peak

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Reconstruct, Evolve, CliPipeline)}
