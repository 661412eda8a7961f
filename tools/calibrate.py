"""Calibration probe: sweep mechanism knobs, report fitted signatures.

Used during development to tune cluster profiles so that the fitted
(γ, δ) signatures land near the paper's reported values.  Not part of
the installed package.

Usage: python tools/calibrate.py [gige|myrinet|fe|stress] ...
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import clusters
from repro.core import alltoall_lower_bound, fit_signature
from repro.measure import (
    hockney_from_pingpong,
    measure_pingpong,
    run_stress,
    sweep_grid,
)
from repro.simnet.entities import LinkKind
from repro.simnet.loss import LossParams
from repro.simnet.penalty import HolPenalty


def signature_for(cluster, nprocs, reps=2, seed=7):
    pp = measure_pingpong(cluster, sizes=[1, 65536, 1048576], reps=2, seed=1)
    hockney = hockney_from_pingpong(pp).params
    sizes = [131072, 262144, 524288, 786432, 1048576]
    samples = sweep_grid(cluster, [nprocs], sizes, reps=reps, seed=seed)
    fit = fit_signature(samples, hockney)
    return hockney, fit.signature, samples


def probe_myrinet():
    base = clusters.myrinet()
    for eta in [0.0, 0.1, 0.2, 0.4]:
        for skew in [0.5e-3, 1.5e-3]:
            cluster = base.with_overrides(
                hol=HolPenalty(eta={LinkKind.HOST_RX: eta}),
                start_skew_scale=skew,
            )
            t0 = time.time()
            hockney, sig, _ = signature_for(cluster, 24)
            print(
                f"eta={eta:<4} skew={skew * 1e3:.1f}ms -> gamma={sig.gamma:.3f} "
                f"delta={sig.delta * 1e3:.2f}ms M={sig.threshold} "
                f"({time.time() - t0:.1f}s)"
            )


def probe_gige():
    base = clusters.gigabit_ethernet()
    for coeff in [2e-9, 4e-9, 7e-9]:
        for factor in [0.0, 2.0]:
            cluster = base.with_overrides(
                loss=LossParams(
                    coeff_per_byte=coeff,
                    sat_flows=base.loss.sat_flows,
                    rto_min=0.200,
                    rto_max=3.200,
                    backoff_hazard_factor=factor,
                )
            )
            t0 = time.time()
            hockney, sig, _ = signature_for(cluster, 40)
            print(
                f"coeff={coeff:.1e} bf={factor} -> gamma={sig.gamma:.3f} "
                f"delta={sig.delta * 1e3:.2f}ms M={sig.threshold} "
                f"({time.time() - t0:.1f}s)"
            )


def probe_fe():
    cluster = clusters.fast_ethernet()
    hockney, sig, _ = signature_for(cluster, 24)
    print(f"FE: {hockney} gamma={sig.gamma:.4f} delta={sig.delta * 1e3:.2f}ms M={sig.threshold}")


def probe_stress():
    base = clusters.gigabit_ethernet()
    for coeff in [4e-9, 1e-8]:
        for factor in [0.0, 2.0, 4.0]:
            cluster = base.with_overrides(
                loss=LossParams(
                    coeff_per_byte=coeff,
                    sat_flows=base.loss.sat_flows,
                    rto_min=0.200,
                    rto_max=3.200,
                    backoff_hazard_factor=factor,
                )
            )
            r = run_stress(cluster, 60, 32 * 1024 * 1024, seed=5)
            t = np.sort(r.times)
            print(
                f"coeff={coeff:.0e} bf={factor}: mean={t.mean():.2f} "
                f"p10={t[6]:.2f} max={t[-1]:.2f} ratio={t[-1] / t[6]:.1f} "
                f"losses={r.losses}"
            )


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "all"
    if which in ("myrinet", "all"):
        probe_myrinet()
    if which in ("gige", "all"):
        probe_gige()
    if which in ("fe", "all"):
        probe_fe()
    if which in ("stress", "all"):
        probe_stress()
