"""The two-pass integrator analysis: the oracle.

Before ``analyze_integrator`` took the input pair's ``Cgs`` from geometry,
it analysed the op-amp twice: a bootstrap pass under a rough load only
supplied ``cgs1`` for the feedback factor, and a second pass used the
true load, so every bias point was solved twice.  That function is kept
here verbatim (under its own name), so the one-pass library function can
be checked against it bit for bit, field by field.

:func:`performance_arrays` flattens an
:class:`~repro.circuits.integrator.IntegratorPerformance`, its ``amp``
and the amp's per-device dicts into ``name -> array`` for those
comparisons (:func:`opamp_arrays` flattens an ``amp`` alone).
"""

from dataclasses import fields
from typing import Dict

import numpy as np

from repro.circuits.devices import CapacitorModel
from repro.circuits.integrator import (
    FULL_SCALE_LIMIT,
    IntegratorDesign,
    IntegratorPerformance,
    amplifier_load,
    feedback_factor,
    noise_budget,
    settling_time,
)
from repro.circuits.opamp import OpAmpPerformance, analyze_opamp, phase_margin_deg
from repro.circuits.technology import Technology


def analyze_integrator_two_pass(
    tech: Technology,
    design: IntegratorDesign,
    settle_epsilon: np.ndarray = None,
) -> IntegratorPerformance:
    """Full vectorized analysis of the CDS SC integrator.

    Parameters
    ----------
    tech:
        Process card (nominal, corner or MC-perturbed).
    design:
        Batch of candidate designs.
    settle_epsilon:
        Relative precision the settling-time figure is measured at;
        defaults to 1e-4 (the sizing problem passes half the SE spec).
    """
    if settle_epsilon is None:
        settle_epsilon = 1e-4

    # First pass with a load estimate ignoring beta (cgs1 needed for beta).
    # cgs1 and the parasitics depend only on geometry, so a single
    # bootstrap analysis with a rough load is enough to fix beta exactly,
    # and a second analysis uses the true load.
    rough = analyze_opamp(tech, design.opamp, design.c_load + design.cf)
    beta = feedback_factor(tech, design, rough.cgs1)
    c_amp = amplifier_load(tech, design, rough.cgs1, beta)
    amp = analyze_opamp(tech, design.opamp, c_amp)

    st = settling_time(amp, beta, settle_epsilon)
    se = 1.0 / (1.0 + amp.a0 * beta)
    noise = noise_budget(tech, design, amp, beta)
    swing = np.minimum(amp.output_range, FULL_SCALE_LIMIT)
    signal_power = swing**2 / 8.0
    dr_db = 10.0 * np.log10(
        np.maximum(signal_power, 1e-30) / np.maximum(noise, 1e-30)
    )
    pm = phase_margin_deg(amp, beta)

    caps = CapacitorModel.from_technology(tech)
    cap_area = 2.0 * (
        caps.area(design.cs) + caps.area(design.cf) + caps.area(design.coc)
    )
    area = amp.area + cap_area

    return IntegratorPerformance(
        beta=beta,
        settling_time=st,
        settling_error=se,
        dynamic_range_db=dr_db,
        output_range=amp.output_range,
        phase_margin_deg=pm,
        power=amp.power,
        area=area,
        offset_systematic=amp.offset_systematic,
        min_saturation_margin=amp.min_saturation_margin(),
        min_overdrive=amp.min_overdrive(),
        slew_rate=amp.slew_rate,
        noise_total=noise,
        amp=amp,
    )


def performance_arrays(perf: IntegratorPerformance) -> Dict[str, np.ndarray]:
    """Every array of *perf* and of ``perf.amp``, keyed by a dotted name."""
    out: Dict[str, np.ndarray] = {}
    for f in fields(perf):
        if f.name != "amp":
            out[f.name] = np.asarray(getattr(perf, f.name))
    for name, arr in opamp_arrays(perf.amp).items():
        out[f"amp.{name}"] = arr
    return out


def opamp_arrays(amp: OpAmpPerformance) -> Dict[str, np.ndarray]:
    """Every array of *amp*, per-device dicts flattened, by a dotted name."""
    out: Dict[str, np.ndarray] = {}
    for f in fields(amp):
        value = getattr(amp, f.name)
        if isinstance(value, dict):
            for device, arr in value.items():
                out[f"{f.name}.{device}"] = np.asarray(arr)
        else:
            out[f.name] = np.asarray(value)
    return out
