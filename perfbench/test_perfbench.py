"""Tests of the benchmark itself: its references, its checks, its runner.

    python3 -m pytest perfbench -q

The checks must fail when handed a wrong result (W of another state, rho
or a marginal field at another time), the references must agree with
each other by independent routes, and every workload must run in smoke
mode with all checks passing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference as ref
from workloads import Verdict, check_evolved, check_rho, check_wigner

HERE = os.path.dirname(os.path.abspath(__file__))
CAT = ref.OddCat(1.3, 0.2)
EXCITED = ref.Excited1()


def wigner_by_quadrature(state, q, p, half_width=12.0, n=2401):
    """W(q, p) = Int psi(q + y/2) conj psi(q - y/2) e^{-ipy} dy, which has
    the phase-space integral 2 pi of the package's convention."""
    y = np.linspace(-half_width, half_width, n)
    integrand = (state.psi(q + y / 2) * np.conj(state.psi(q - y / 2))
                 * np.exp(-1j * p * y))
    return float(np.real(np.trapezoid(integrand, y)))


@pytest.mark.parametrize("state", [CAT, EXCITED])
def test_wigner_closed_form_matches_wavefunction(state):
    for q, p in [(0.0, 0.0), (0.7, -0.4), (-1.2, 0.9)]:
        assert abs(state.wigner(q, p) - wigner_by_quadrature(state, q, p)) < 1e-10


@pytest.mark.parametrize("state", [CAT, EXCITED])
def test_marginal_and_chi_agree_with_wavefunction(state):
    x = np.linspace(-10.0, 10.0, 4001)
    # mu = 1, nu = 0 is the position density; chi(k, 0) its Fourier transform
    density = np.abs(state.psi(x)) ** 2
    assert np.max(np.abs(state.marginal(x, 1.0, 0.0) - density)) < 1e-12
    for k in (0.0, 0.8, 2.5):
        chi = np.trapezoid(density * np.exp(1j * k * x), x)
        assert abs(state.chi(k, 0.0) - chi) < 1e-10
    # any direction: normalized, and chi(k mu, k nu) is the slice transform
    mu, nu = 0.6, -0.9
    w = state.marginal(x, mu, nu)
    assert abs(np.trapezoid(w, x) - 1.0) < 1e-10
    assert abs(state.chi(1.7 * mu, 1.7 * nu)
               - np.trapezoid(w * np.exp(1.7j * x), x)) < 1e-10


def test_free_fft_propagation_matches_classical_flow():
    # position density at t equals the flowed marginal w_0(x; 1, t)
    x = np.linspace(-6.0, 6.0, 121)
    for t in (0.5, 1.3):
        density = np.abs(ref.psi_free(CAT, t, x)) ** 2
        _, nu0, _ = ref.flowed_direction("free", 1.0, 0.0, t)
        assert np.max(np.abs(density - CAT.marginal(x, 1.0, nu0))) < 1e-10


def test_harmonic_flow_is_a_quarter_turn_at_half_pi():
    mu0, nu0, shift = ref.flowed_direction("harmonic", 1.0, 0.0, math.pi / 2)
    assert abs(mu0) < 1e-15 and abs(nu0 - 1.0) < 1e-15 and shift == 0.0


def test_linear_flow_shift_matches_uniform_acceleration():
    # <q>_t of a packet in V = c1 q moves by p0 t - c1 t^2 / 2
    c1, t = 0.5, 0.8
    _, _, shift = ref.flowed_direction(f"linear:{c1}", 1.0, 0.0, t)
    assert abs(shift - c1 * t * t / 2) < 1e-15


def test_wigner_check_rejects_another_state():
    q = p = np.linspace(-4.0, 4.0, 33)
    good, bad = Verdict("w"), Verdict("w")
    want = CAT.wigner(q[:, None], p[None, :])
    check_wigner(good, want, q, p, want, 1e-5)
    check_wigner(bad, EXCITED.wigner(q[:, None], p[None, :]), q, p, want, 1e-5)
    assert not good.failed
    assert bad.failed


def test_rho_check_rejects_another_time():
    q = np.linspace(-5.0, 5.0, 41)
    psi = ref.psi_free(CAT, 1.0, q)
    good, bad = Verdict("r"), Verdict("r")
    check_rho(good, ref.rho_from_psi(psi), q, psi, 1e-5, 1e-3)
    check_rho(bad, ref.rho_from_psi(ref.psi_free(CAT, 1.1, q)), q, psi,
              1e-5, 1e-3)
    assert not good.failed
    assert bad.failed
    assert bad.measured["rho_err"][0] > 1e-3


def test_rho_check_rejects_a_mixed_state():
    q = np.linspace(-5.0, 5.0, 41)
    psi = CAT.psi(q)
    mixed = 0.5 * ref.rho_from_psi(psi) + 0.5 * ref.rho_from_psi(EXCITED.psi(q))
    verdict = Verdict("r")
    check_rho(verdict, mixed, q, psi, 1.0, 1e-3)  # only purity can catch it
    assert verdict.measured["purity_err"][0] > 1e-2
    assert verdict.failed


@pytest.mark.parametrize("dyn", ["free", "harmonic", "linear:0.5"])
def test_evolved_check_rejects_another_time(dyn):
    d = np.linspace(-1.5, 1.5, 17)
    x = np.linspace(-8.0, 8.0, 65)
    good, bad = Verdict("e"), Verdict("e")
    exact = ref.evolved_marginal_field(CAT, dyn, 1.0, d, d, x)
    check_evolved(good, exact, CAT, dyn, 1.0, d, d, x, 1e-3)
    check_evolved(bad, ref.evolved_marginal_field(CAT, dyn, 1.05, d, d, x),
                  CAT, dyn, 1.0, d, d, x, 1e-3)
    assert not good.failed
    assert bad.failed


def test_resolvable_cells_follow_the_backtraced_radius():
    d = np.linspace(-1.5, 1.5, 65)
    r = np.hypot(d[:, None], d[None, :])
    assert np.array_equal(ref.resolvable_cells("harmonic", d, d, math.pi),
                          r >= 0.5)
    # free flow carries (0.3, -0.6) through (0.3, 0) at s = 2
    assert not ref.resolvable_cells("free", [0.3], [-0.6], math.pi)[0, 0]
    assert ref.resolvable_cells("free", [0.3], [-0.6], 0.5)[0, 0]
    assert ref.resolvable_cells("harmonic", [0.3], [-0.6], math.pi)[0, 0]


def _run(args, cwd, timeout=170):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("workload", ["reconstruct", "evolve", "cli-pipeline"])
def test_smoke_run_passes_every_check(workload):
    root = os.path.dirname(HERE)
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke"], root)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == {"pass_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["reconstruct", "evolve", "cli-pipeline"])
def test_traced_smoke_run_accounts_for_the_pass(workload):
    root = os.path.dirname(HERE)
    proc = _run(["--workload", workload, "--seed", "4", "--seconds", "1",
                 "--trace", "1", "--smoke"], root)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    with open(os.path.join(HERE, "out", f"trace-{workload}-4.json")) as fh:
        trace = json.load(fh)
    from tracing import PER_LAYER, self_times

    assert set(metrics) >= {name for name, *_ in PER_LAYER}
    spans = trace["spans"]
    selfs = self_times(spans)
    (root_span,) = [s for s in spans if s["name"] == "pass"]
    in_pass = sum(selfs[s["id"]] for s in spans if s["pass"] == root_span["pass"])
    assert math.isclose(in_pass, root_span["end"] - root_span["start"],
                        rel_tol=1e-9)
    busy = {"reconstruct": "tomography.rho.s", "evolve": "evolution.resample.s",
            "cli-pipeline": "io.write.s"}[workload]
    assert metrics[busy]["value"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "reconstruct", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
