"""The proof chain's derived constants, one pure function each.

The paper proves its theorem in a strict parameter regime: a string of
small ε_k, enlargement ε_k⁻³ and stop fractions 2^−(k+3).  A build in that
regime is computationally infeasible, so a run re-derives each constant in
a relaxed regime with one configured enlargement E and configured stop
fractions.  Each function below states its derivation in its docstring,
and every audit row that compares with one of these bounds calls it.

``CHAIN`` pairs each quantity with its strict and relaxed formulas and the
functions that evaluate it; ``mode_map`` formats it into the report.
``tests/test_bounds.py`` evaluates every function at the strict
parameters and checks it against the strict column.
"""
from __future__ import annotations

import json
import math

from .geometry import unit_ball_volume

# audited C1 ceilings for the two field classes the engine accepts
RESIDUE_GRAD_CAP = 1.0 / 32.0
BUDGET_GRAD_CAP = 1.0 / 64.0

# global constants the verdicts compare against, frozen; the largest
# empirical ledger constant on the shipped corpus is about 2.05, far below
# LEDGER_C
LEDGER_C = 2000.0
DBOUND_C = 4000.0

WITNESS_TOL = 1e-6
# slack of the budget's u-mass, hit-consistency scope and total comparisons
BUDGET_TOL = 1e-15


def K_constant(k: int) -> float:
    """Shrinking hit-enlargement constants 3/2, 5/4, 9/8, ... -> 1.

    Stage k scans for hits of K_k·B.  Between two stages the enlargement
    shrinks by (K_k − K_{k+1})·t = 2^−(k+1)·t, the slack that a smoothing's
    drift may spend while a tight hit of the old field stays a loose hit of
    the new one (the budget's hit-consistency row)."""
    if k < 1:
        raise ValueError("stage index is 1-based")
    return 1.0 + 0.5**k


def primed_radius(E: float, t):
    """E·t, the radius of a hole's primed ball, which the packing keeps
    disjoint and inside the window.  Strict: t/ε_k³, which is E·t at
    E = ε_k⁻³.  E is one number for every stage, so only a constant ε
    sequence is strict."""
    return E * t


def ball_floor(E: float, n: int) -> float:
    """(1/(2E))^n / 2: the share of the then-uncovered set that each
    level's balls must cover, certified by ``pack_level`` and replayed by
    the family audit.

    A level's centres lie at least 2E·r apart and each E-enlarged ball
    lies in uncovered territory, so its balls B(x, r) are disjoint and
    uncovered.  Each holds (1/(2E))^n of the volume of its doubled
    enlargement B(x, 2E·r), and ``pack_level`` certifies that those cover
    at least half of the uncovered set.  Strict: (ε_k³/2)^n / 2, which is
    this at E = ε_k⁻³."""
    return (1.0 / (2.0 * E)) ** n / 2.0


def stop_target(n: int, s: float, stop_fraction: float) -> float:
    """stop_fraction_k·ω_n sⁿ: the uncovered measure below which stage k
    stops, a share of the window's volume.  Strict: ω_n sⁿ/2^(k+3), which
    is this at stop fraction 2^−(k+3)."""
    return stop_fraction * (unit_ball_volume(n) * s**n)


def deficit_bound(n: int, s: float, stop_fraction: float,
                  slope: float) -> float:
    """2·stop_fraction_k·ω_n sⁿ·sqrt(1 + slope²): the surface mass of
    stage k's plane that its truncation union may miss.

    Twice the stop target, as the strict column has it, times the plane's
    area element sqrt(1 + slope²), which turns base measure into surface
    measure.  At stop fraction 2^−(k+3) and slope 0 this is
    ``strict_deficit_bound``, and above it at any other slope."""
    return 2.0 * stop_fraction * unit_ball_volume(n) * s**n \
        * math.sqrt(1.0 + slope**2)


def strict_deficit_bound(n: int, s: float, k: int) -> float:
    """ω_n sⁿ/2^(k+2): the stage-k plane-coverage deficit bound in the
    strict regime."""
    return unit_ball_volume(n) * s**n / 2.0 ** (k + 2)


def alpha_relaxed(n: int, s: float, stop_fraction_1: float) -> float:
    """(1 − 2·stop_fraction_1)·ω_n sⁿ: the guaranteed covered window mass
    once stage 1 met its stop target.

    Stage 1's plane is the flat plane 1, so this is the window's mass
    ω_n sⁿ less stage 1's deficit bound at slope 0.  At the strict
    parameters it is 7/8·ω_n sⁿ, while the strict column's α is
    ω_n sⁿ/2; no derivation of either from the other is recorded."""
    return unit_ball_volume(n) * s**n * (1.0 - 2.0 * stop_fraction_1)


def plane_mass_ceiling(n: int, s: float, stop_fraction_1: float) -> float:
    """α/4: the ceiling of the plane-mass-alpha row, which bounds the
    surface mass of a corpus plane inside the raw holes.  The factor 1/4
    is the row's as written; no derivation of it is recorded."""
    return alpha_relaxed(n, s, stop_fraction_1) / 4.0


def grad_cap(eps: tuple, k: int) -> float:
    """RESIDUE_GRAD_CAP − 3·Σ_{i≤k} ε_i: the gradient cap of the field
    that stage k's smoothing hands on.

    It is the residue ceiling, which the next stage's residue checks
    enforce on the smoothed patch, less 3ε per smoothing, the gradient
    that a blend's cutoff adds.  The strict ε string's 3·Σε ≤ 1/64 is
    RESIDUE_GRAD_CAP − BUDGET_GRAD_CAP, so there the cap stays at or
    above the budget's C1 ceiling at every stage."""
    return RESIDUE_GRAD_CAP - 3.0 * sum(eps[:k])


def ledger_ceiling(scale: float) -> float:
    """LEDGER_C·(energy + Σε), for ``scale`` = energy + Σε: the budget
    ledger's bound on a field's summed hit mass, the theorem's
    Σ hit mass ≤ C·(∫|∇g|² + Σε_i) with C frozen at LEDGER_C."""
    return LEDGER_C * scale


def porosity_floor(L: float) -> float:
    """1/L − WITNESS_TOL: the least witness ratio t/|c − p| at a point of
    the truncated set.  The point lies in a hole's L-enlargement B(c, L·t)
    and outside the hole, so its ratio is above 1/L; WITNESS_TOL absorbs
    rounding."""
    return 1.0 / L - WITNESS_TOL


def u_mass_bound(eps: tuple, k: int) -> float:
    """ε_k: the allowance of stage k's summed u-hole mass."""
    return eps[k - 1]


def drift_bound(eps: tuple, k: int, r_k: float) -> float:
    """ε_{k+1}·r_k: how far stage k's smoothed field may drift from the
    field it smooths, r_k being the stage's smallest radius."""
    return eps[k] * r_k


def hole_mass_cap(r: float, hit_mass: float) -> float:
    """sqrt(1 + r²)·Σ|B|: a graph's surface mass inside the raw holes.
    Over a hole it meets, a field in the C1 class of slope r has area
    element at most sqrt(1 + r²) over the hole's cross-section |B|."""
    return math.sqrt(1.0 + r**2) * hit_mass


def strict_regime(E: float, epsilons: tuple, stop_fractions: tuple) -> bool:
    """Whether a run's stages meet the strict regime: the ε string
    (ε_k < 2^−(k+1) and 3·Σε ≤ RESIDUE_GRAD_CAP − BUDGET_GRAD_CAP = 1/64),
    E = ε_k⁻³ for every k (so ε is constant) and stop fraction 2^−(k+3)."""
    return 3.0 * sum(epsilons) <= RESIDUE_GRAD_CAP - BUDGET_GRAD_CAP and all(
        e < 2.0 ** -(k + 1) and abs(E - 1.0 / e**3) <= 1e-9 / e**3
        and abs(f - 2.0 ** -(k + 3)) < 1e-12
        for k, (e, f) in enumerate(zip(epsilons, stop_fractions), 1))


# each strict-regime quantity the relaxed run re-derives: its name, its
# strict and relaxed formulas, the relaxed one formatted with the run's E,
# epsilons and stop_fractions, and the functions that evaluate it
CHAIN = (
    ("primed radius t'", "t / eps_k^3",
     "t * E with E={E}", (primed_radius,)),
    ("per-level covered share floor", "(eps_k^3 / 2)^n / 2",
     "(1/(2E))^n / 2 with E={E}", (ball_floor,)),
    ("stage stop target", "omega_n s^n / 2^(k+3)", "stop_fraction_k * "
     "omega_n s^n with stop_fractions={stop_fractions}", (stop_target,)),
    ("plane-coverage deficit bound", "omega_n s^n / 2^(k+2)",
     "2 * stop_fraction_k * omega_n s^n * sup-jacobian",
     (deficit_bound, strict_deficit_bound)),
    ("guaranteed covered mass alpha", "omega_n s^n / 2",
     "(1 - 2 * stop_fraction_1) * omega_n s^n",
     (alpha_relaxed, plane_mass_ceiling)),
    ("epsilon string", "eps_k < 2^-(k+1), 3 * sum eps <= 1/64",
     "configured: {epsilons}", (strict_regime, grad_cap)),
)


def mode_map(E: float, epsilons: tuple, stop_fractions: tuple) -> list:
    """How each strict-regime constant of ``CHAIN`` is re-derived for the
    relaxed run, at the run's parameters."""
    run = {"E": E, "epsilons": json.dumps(list(epsilons)),
           "stop_fractions": json.dumps(list(stop_fractions))}
    return [{"quantity": quantity, "strict": strict,
             "relaxed": relaxed.format(**run)}
            for quantity, strict, relaxed, _ in CHAIN]
