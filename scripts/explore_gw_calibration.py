#!/usr/bin/env python3
"""Calibration sweep for the harmonic-superfield action's coefficient map.

Question: is there any reading of the trace functional, coordinate
calibration, or odd-component rescaling under which the graded action

    S[Phi] = tr( 1/2 sum_d |d Phi|^2 + (M^2/2) Phi * Phi + L Phi*4 ),
    Phi = phi + (s * b * phi) xi

reproduces the target coefficient map

    harmonic^2 = b^4 theta^2 / 16,   quartic = L (1 + b^4 theta^2 / 16)

with one fixed set of constants across a (b, theta) grid?  The sweep answers
no, along every axis it varies:

* trace weights and involution twists: for each calibration the graded
  Lagrangian offers exactly four linear channels — the real and imaginary
  parts of the body Lebesgue integral and of the full Berezin integral.  A
  least-squares fit of all four against the target action over the whole grid
  dominates any discrete choice of channel weights, and any involution twist
  of the trace only reshuffles these channels.
* alpha: the coordinate scale inside the derivation generators
  (canonically 2/theta, the value that normalizes the kinetic term).  Each
  derivation is linear in its generator, so alpha enters the Lagrangian
  K + (M^2/2) P + L Q, with P = Phi * Phi and Q = Phi * (Phi * P), only as
  the factor (alpha theta/2)^2 on the kinetic channel K; the channels are
  computed once per (theta, s b, field).
* odd rescale: the factor s in the component identification phi_1 = s b phi_0.

A control fit against the derived coefficient map

    harmonic^2 = b^2 theta^2 / 4,    quartic = L (1 - b^4 theta^2 / 4)

shows the canonical reading (alpha = 2/theta, s = 1, pure real-body channel)
reproducing it at machine precision, so the sweep would detect a matching
reading for the target map if one existed.  The structural reason none
exists: the harmonic term of the graded action is quadratic in the odd
component, so its coefficient scales as (s b)^2 — quadratically in b for any
linear trace — while the target map demands b^4.
"""

import argparse
import math
import sys
import time
from functools import cache

import numpy as np

from superstar.gwaction import (
    GWParams,
    Superfield,
    action_gw,
    action_super_report,
    default_fields,
    gw_context,
    plane_integrals,
    super_lagrangian,
)

ALPHAS = [
    ("2/theta (canonical)", lambda th: 2.0 / th),
    ("1/theta", lambda th: 1.0 / th),
    ("4/theta", lambda th: 4.0 / th),
    ("2/theta^2", lambda th: 2.0 / th ** 2),
    ("1", lambda th: 1.0),
    ("2", lambda th: 2.0),
]

ODD_RESCALES = [
    ("1 (canonical)", lambda th: 1.0),
    ("1/2", lambda th: 0.5),
    ("2", lambda th: 2.0),
    ("1/sqrt(theta)", lambda th: 1.0 / math.sqrt(th)),
]


def sweep_grid() -> list[GWParams]:
    return [GWParams(theta, mass, coupling, ratio)
            for theta in (0.6, 1.7)
            for ratio in (0.7, 1.3)
            for (mass, coupling) in ((0.5, 0.3), (1.2, 1.1))]


def reference_actions(grid, fields):
    """The target- and derived-map plane actions of every sample."""
    plane_at = cache(lambda theta, i: plane_integrals(theta, fields[i][1]))
    target, derived = [], []
    for params in grid:
        for i in range(len(fields)):
            plane = plane_at(params.theta, i)
            target.append(action_gw(plane, params,
                                    harmonic_sq=params.target_harmonic_sq,
                                    quartic=params.target_quartic))
            derived.append(action_gw(plane, params,
                                     harmonic_sq=params.derived_harmonic_sq,
                                     quartic=params.derived_quartic))
    return np.array(target), np.array(derived)


def collect_channels(alpha_fn, s_fn, grid, fields, lagrangian_at):
    """Rows of the four trace channels of every sample at one reading."""
    rows = []
    for params in grid:
        theta = params.theta
        kinetic_factor = (alpha_fn(theta) * theta / 2.0) ** 2
        for i in range(len(fields)):
            _, kinetic, square, quartic = lagrangian_at(
                theta, s_fn(theta) * params.field_ratio, i)
            rep = action_super_report(
                (theta, kinetic.scale(kinetic_factor), square, quartic), params)
            rows.append([rep["value"], rep["imag_residue"],
                         rep["berezin_channel"][0], rep["berezin_channel"][1]])
    return np.array(rows)


def best_fit_residual(rows: np.ndarray, rhs: np.ndarray) -> float:
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return float(np.linalg.norm(rows @ sol - rhs) / np.linalg.norm(rhs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller sweep (3 alphas x 2 rescales)")
    args = ap.parse_args()

    alphas = ALPHAS[:3] if args.quick else ALPHAS
    rescales = ODD_RESCALES[:2] if args.quick else ODD_RESCALES
    grid = sweep_grid()
    fields = default_fields()
    n_rows = len(grid) * len(fields)

    print(f"sweep: {len(alphas)} alpha x {len(rescales)} odd-rescale "
          f"readings; each fits 4 trace channels over {n_rows} "
          f"(grid point x field) samples\n")
    print(f"{'alpha':<22s} {'odd rescale':<16s} "
          f"{'target residual':>16s} {'derived residual':>17s}")

    t0 = time.perf_counter()
    # the canonical channels depend on (theta, s b, field) only
    lagrangian_at = cache(lambda theta, sb, i: super_lagrangian(
        gw_context(theta),
        Superfield(fields[i][1], fields[i][1].scale(sb), require_real=False)))
    target, derived = reference_actions(grid, fields)
    best_target = (math.inf, None, None)
    best_derived = (math.inf, None, None)
    for a_label, alpha_fn in alphas:
        for s_label, s_fn in rescales:
            rows = collect_channels(alpha_fn, s_fn, grid, fields,
                                    lagrangian_at)
            rt = best_fit_residual(rows, target)
            rd = best_fit_residual(rows, derived)
            print(f"{a_label:<22s} {s_label:<16s} {rt:16.3e} {rd:17.3e}")
            if rt < best_target[0]:
                best_target = (rt, a_label, s_label)
            if rd < best_derived[0]:
                best_derived = (rd, a_label, s_label)
    secs = time.perf_counter() - t0

    print(f"\nbest target-map residual  : {best_target[0]:.3e} "
          f"(alpha = {best_target[1]}, s = {best_target[2]})")
    print(f"best derived-map residual : {best_derived[0]:.3e} "
          f"(alpha = {best_derived[1]}, s = {best_derived[2]})")
    print(f"sweep time: {secs:.1f}s")

    if best_derived[0] < 1e-10 < best_target[0]:
        print("\nconclusion: the derived coefficient map is reproduced at "
              "machine precision by the canonical reading, while no "
              "combination of trace weights, involution twist, alpha, or odd "
              "rescale in the sweep reproduces the target map — consistent "
              "with the structural argument (the harmonic term is quadratic, "
              "not quartic, in b).")
        return 0
    print("\nconclusion: UNEXPECTED — revisit the sweep.")
    return 1


if __name__ == "__main__":
    sys.exit(main())
