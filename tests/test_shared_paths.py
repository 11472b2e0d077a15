"""One implementation per step: the scalar twins run the production kernel,
scenes and spots fail through one error path, and start-up needs no scipy."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import irsplan
from irsplan.channel import LinkStats
from irsplan.cli import main
from irsplan.geometry import scatter_street_points
from irsplan.link import PowerBudget, _amp_chunk, snr_from_sums
from irsplan.seeds import LEG_AP_IRS, LEG_IRS_UE, substream

from oracles import sample_fading

BUDGET = PowerBudget(p_total=0.01, p_tx_max=0.005, bandwidth=200e3, noise_psd=1e-20)


@pytest.mark.parametrize("k_tilde", [2.5, math.inf])
@pytest.mark.parametrize("leg", [LEG_AP_IRS, LEG_IRS_UE])
def test_sample_fading_is_the_kernel_sampler(k_tilde, leg):
    # a leg with g * rho_leg == rho draws exactly what sample_fading draws
    # from the same substream, so criterion 02 tests the production sampler
    rho, n, path = 1.7, 300, (11, 3, 4, 5)
    stats = LinkStats(g=1.0, k_factor=k_tilde, g_k=1.0, rho=rho, los=True)
    twin = sample_fading(k_tilde, rho, n, substream(*path, leg, 0))
    kernel = _amp_chunk(stats, 1, n, path, leg, 0)[0]
    assert np.array_equal(twin, kernel)


def test_passive_closed_form_skips_power_sums():
    def forbidden():
        raise AssertionError("a passive surface needs no power sums")

    a, d = np.array([1e-4, 2e-4]), np.array([1e-5, 0.0])
    gamma = snr_from_sums("passive", 4, a, d, BUDGET, forbidden)
    assert np.array_equal(gamma, BUDGET.p_total * (a + d) * (a + d) / BUDGET.noise_power)
    direct = snr_from_sums("active", 0, None, d, BUDGET, forbidden)
    assert np.array_equal(direct, BUDGET.p_total * d * d / BUDGET.noise_power)


@pytest.mark.parametrize("command", ["deploy", "coverage", "stats", "spots"])
def test_sceneless_layout_is_a_config_error(command, capsys):
    assert main([command, "--preset", "link_sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: layout.kind") and "no spots" in err


def test_impossible_street_count_fails_before_drawing():
    # 100 points 2 m apart cannot fit in a 10 x 10 m area; the bound trips
    # before the generator is touched
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(RuntimeError, match="could not place 100 street points"):
        scatter_street_points((0.0, 10.0), (0.0, 10.0), (), 100, rng)
    assert rng.bit_generator.state == before


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency
    src = os.path.dirname(os.path.dirname(os.path.abspath(irsplan.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, irsplan.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
