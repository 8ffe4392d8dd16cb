"""The proof chain's table, evaluated at the strict parameters.

The strict regime has a constant ε, the enlargement E = ε⁻³ and stop
fractions 2^−(k+3).  Here n = 3, s = 1/4 and ε = 2⁻⁹ over two stages.
Every function of ``porous.bounds`` equals the strict column of its
``CHAIN`` entry there, or meets the relation its docstring derives.  A
value that no derivation supports is kept, and its test names the gap.
"""
import inspect
import json
import math
from pathlib import Path

import pytest

from porous import bounds, load_config
from porous.bounds import (BUDGET_GRAD_CAP, CHAIN, LEDGER_C,
                           RESIDUE_GRAD_CAP, WITNESS_TOL, K_constant,
                           alpha_relaxed, ball_floor, deficit_bound,
                           drift_bound, grad_cap, hole_mass_cap,
                           ledger_ceiling, mode_map, plane_mass_ceiling,
                           porosity_floor, primed_radius, stop_target,
                           strict_deficit_bound, strict_regime, u_mass_bound)
from porous.cli import _report_config
from porous.geometry import unit_ball_volume

N, S, EPS, DEPTH = 3, 0.25, 2.0**-9, 2
E = EPS**-3
EPSILONS = (EPS,) * DEPTH
STOPS = tuple(2.0 ** -(k + 3) for k in range(1, DEPTH + 1))
STAGES = range(1, DEPTH + 1)
WINDOW = unit_ball_volume(N) * S**N          # ω_n sⁿ

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config" \
    / "demo.json"
# the report's mode_map at the demo parameters, as the build report of the
# hand-written map read, byte for byte
DEMO_MODE_MAP = (
    '[{"quantity":"primed radius t\'","strict":"t / eps_k^3",'
    '"relaxed":"t * E with E=1.5"},'
    '{"quantity":"per-level covered share floor",'
    '"strict":"(eps_k^3 / 2)^n / 2","relaxed":"(1/(2E))^n / 2 with E=1.5"},'
    '{"quantity":"stage stop target","strict":"omega_n s^n / 2^(k+3)",'
    '"relaxed":"stop_fraction_k * omega_n s^n with '
    'stop_fractions=[0.25, 0.125]"},'
    '{"quantity":"plane-coverage deficit bound",'
    '"strict":"omega_n s^n / 2^(k+2)",'
    '"relaxed":"2 * stop_fraction_k * omega_n s^n * sup-jacobian"},'
    '{"quantity":"guaranteed covered mass alpha","strict":"omega_n s^n / 2",'
    '"relaxed":"(1 - 2 * stop_fraction_1) * omega_n s^n"},'
    '{"quantity":"epsilon string",'
    '"strict":"eps_k < 2^-(k+1), 3 * sum eps <= 1/64",'
    '"relaxed":"configured: [0.0025, 0.00125]"}]')


# ---------------------------------------------------------------------------
# the strict column of each CHAIN entry
# ---------------------------------------------------------------------------

def _primed_radius():
    # t / eps_k^3
    for t in (S, 2.0**-7, 0.0123):
        assert primed_radius(E, t) == t / EPS**3


def _floor():
    # (eps_k^3 / 2)^n / 2
    assert ball_floor(E, N) == (EPS**3 / 2.0) ** N / 2.0


def _stop_target():
    # omega_n s^n / 2^(k+3)
    for k in STAGES:
        assert stop_target(N, S, STOPS[k - 1]) == WINDOW / 2.0 ** (k + 3)


def _deficit():
    # omega_n s^n / 2^(k+2) at slope 0, and at least that with the area
    # factor of a tilted plane
    for k in STAGES:
        strict = strict_deficit_bound(N, S, k)
        assert strict == WINDOW / 2.0 ** (k + 2)
        assert deficit_bound(N, S, STOPS[k - 1], 0.0) == strict
        tilted = deficit_bound(N, S, STOPS[k - 1], 1.0 / 128.0)
        assert tilted > strict
        assert tilted == pytest.approx(strict * math.sqrt(1.0 + 2.0**-14))


def _alpha():
    # the relation the docstring derives: the window's mass less stage 1's
    # deficit bound (stage 1's plane is flat)
    alpha = alpha_relaxed(N, S, STOPS[0])
    assert alpha == pytest.approx(
        WINDOW - deficit_bound(N, S, STOPS[0], 0.0), rel=1e-15)
    # THE GAP: the strict column's alpha is omega_n s^n / 2, and the
    # relaxed formula at the strict stop fraction 1/16 gives 7/8 of the
    # window, 7/4 of it.  No derivation of either from the other is
    # recorded; the value is kept.  (At the demo's stop fraction 1/4 the
    # relaxed formula happens to give omega_n s^n / 2.)
    assert alpha == 0.875 * WINDOW
    assert alpha / (WINDOW / 2.0) == 1.75
    # the plane-mass-alpha ceiling is alpha / 4, a factor with no recorded
    # derivation either
    assert plane_mass_ceiling(N, S, STOPS[0]) == alpha / 4.0


def _epsilon_string():
    # eps_k < 2^-(k+1) and 3 * sum eps <= 1/64, with E = eps^-3 and stop
    # fractions 2^-(k+3)
    assert strict_regime(E, EPSILONS, STOPS)
    # 3 * sum eps <= 1/64 is RESIDUE_GRAD_CAP - BUDGET_GRAD_CAP: the
    # smoothing's gradient cap stays above the budget's C1 ceiling
    assert 3.0 * sum(EPSILONS) <= RESIDUE_GRAD_CAP - BUDGET_GRAD_CAP == 2**-6
    for k in STAGES:
        assert grad_cap(EPSILONS, k) == RESIDUE_GRAD_CAP - 3.0 * k * EPS
        assert grad_cap(EPSILONS, k) >= BUDGET_GRAD_CAP


STRICT_CHECKS = {
    "primed radius t'": _primed_radius,
    "per-level covered share floor": _floor,
    "stage stop target": _stop_target,
    "plane-coverage deficit bound": _deficit,
    "guaranteed covered mass alpha": _alpha,
    "epsilon string": _epsilon_string,
}


@pytest.mark.parametrize("quantity, functions",
                         [(entry[0], entry[3]) for entry in CHAIN],
                         ids=[entry[0] for entry in CHAIN])
def test_each_chain_entry_meets_its_strict_column(quantity, functions):
    assert all(f.__module__ == "porous.bounds" for f in functions)
    STRICT_CHECKS[quantity]()


def test_every_bounds_function_is_in_the_chain_or_bounds_a_row():
    chained = {f.__name__ for entry in CHAIN for f in entry[3]}
    rows = {"K_constant", "ledger_ceiling", "porosity_floor",
            "u_mass_bound", "drift_bound", "hole_mass_cap"}
    defined = {name for name, f in inspect.getmembers(
        bounds, inspect.isfunction) if f.__module__ == "porous.bounds"}
    assert defined == chained | rows | {"mode_map"}
    assert not chained & rows


# ---------------------------------------------------------------------------
# the row bounds outside the mode_map
# ---------------------------------------------------------------------------

def test_enlargement_slack_between_stages_halves():
    for k in range(1, 12):
        assert K_constant(k) - K_constant(k + 1) == 2.0 ** -(k + 1)
        assert K_constant(k) > K_constant(k + 1) > 1.0


def test_ledger_ceiling_scales_the_energy_and_epsilons():
    scale = 1e-3 + sum(EPSILONS)
    assert ledger_ceiling(scale) == LEDGER_C * scale


def test_porosity_floor_sits_just_below_one_over_L():
    for L in (math.sqrt(10.0), 3.0, 64.0):
        assert 0.0 < porosity_floor(L) < 1.0 / L
        assert 1.0 / L - porosity_floor(L) == pytest.approx(WITNESS_TOL)


def test_stage_allowances_read_the_epsilon_string():
    for k in STAGES:
        assert u_mass_bound(EPSILONS, k) == EPS
    assert drift_bound(EPSILONS, 1, 2.0**-10) == EPS * 2.0**-10


def test_hole_mass_cap_is_the_area_element_over_the_cross_sections():
    assert hole_mass_cap(0.0, 0.25) == 0.25
    assert hole_mass_cap(1.0 / 64.0, 0.25) == pytest.approx(
        0.25 * math.sqrt(1.0 + 2.0**-12))


# ---------------------------------------------------------------------------
# the strict-regime predicate and the mode_map
# ---------------------------------------------------------------------------

def test_strict_regime_is_the_strict_column():
    assert strict_regime(E, EPSILONS, STOPS)
    # E must be eps^-3 for every stage, so eps must be constant
    assert not strict_regime(E * (1.0 + 1e-6), EPSILONS, STOPS)
    assert not strict_regime(E, (EPS, EPS / 2.0), STOPS)
    assert not strict_regime(E, EPSILONS, (STOPS[0], 2.0 * STOPS[1]))
    # the sum: 3 * 2 * 2^-6 > 1/64
    assert not strict_regime(2.0**18, (2.0**-6,) * 2, STOPS)
    # eps_k < 2^-(k+1): 2^-11 holds through stage 9 and fails at stage 10,
    # while 3 * sum eps stays below 1/64
    eps, stops = (2.0**-11,) * 10, [2.0 ** -(k + 3) for k in range(1, 11)]
    assert strict_regime(2.0**33, eps[:9], stops[:9])
    assert not strict_regime(2.0**33, eps, stops)
    # the demo's relaxed parameters
    assert not strict_regime(1.5, (0.0025, 0.00125), (0.25, 0.125))


def test_mode_map_at_the_demo_parameters_is_pinned():
    # the report's config writes the mode_map that CHAIN generates, with
    # the report's separators, byte for byte as the hand-written map did
    config = _report_config(load_config(DEMO_CONFIG))
    assert json.dumps(config["mode_map"], separators=(",", ":")) \
        == DEMO_MODE_MAP
    assert [row["quantity"] for row in mode_map(E, EPSILONS, STOPS)] \
        == list(STRICT_CHECKS)
