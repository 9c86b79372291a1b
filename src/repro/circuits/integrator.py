"""CDS offset-compensated switched-capacitor integrator behaviour.

This models the paper's Fig. 1 circuit: a correlated-double-sampling
(CDS) offset-compensated SC integrator — the building block of the
fourth-order sigma-delta modulator that motivates the design-surface
exploration.  On top of the two-stage op-amp analysis it derives the
circuit-level performances that the sizing problem constrains:

* **Settling time (ST)** — slewing plus two-pole linear settling of the
  closed loop.  The non-dominant pole enters through the damping factor
  ``zeta = 0.5 * sqrt(p2 / wc)``; the RHP zero does not enter settling
  at all.  It enters only the phase margin
  (:func:`~repro.circuits.opamp.phase_margin_deg`).  Those non-dominant
  terms are the "more non-linear" equations the paper credits for
  making the whole search space visible to the optimizer.
* **Settling error (SE)** — static closed-loop gain error
  ``1 / (1 + A0 * beta)`` (CDS cancels offset and 1/f residue, so the
  finite-gain term dominates).
* **Dynamic range (DR)** — signal swing against sampled kT/C noise
  (doubled by CDS), op-amp thermal noise integrated over the closed-loop
  bandwidth, and the kT/C noise of the *output* sampling network, all
  divided by the modulator oversampling ratio.  The output term is the
  reason large load capacitances are "easy" for DR — the mechanism that
  concentrates randomly-found feasible designs at high C_load and sets up
  the diversity trap of the paper's Section 3.
* **Output range (OR)**, **power**, **area**, **phase margin**, and the
  per-device operating-region margins.

All functions are vectorized over candidate designs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.circuits.devices import CapacitorModel
from repro.circuits.mosfet import MosfetModel
from repro.circuits.opamp import OpAmpPerformance, OpAmpSizing, analyze_opamp, phase_margin_deg
from repro.circuits.technology import Technology
from repro.circuits.yield_est import STACKED_FIELDS, distinct_rows, stacked_rows

# Fixed system-level context of the integrator inside the sigma-delta
# modulator (these are specification-level givens, not design variables).
CLOCK_FREQUENCY = 2.0e6  # Hz; ST must fit in roughly half a period
OVERSAMPLING_RATIO = 96.0
INTEGRATOR_GAIN = 0.5  # a = Cs / Cf
REFERENCE_STEP = 2.0  # worst-case differential input step (V)
FULL_SCALE_LIMIT = 1.6  # differential signal swing cap used for DR (V)
CDS_NOISE_FACTOR = 2.0  # CDS doubles sampled thermal noise power
# The successor stage samples the integrator output during one clock phase
# only, and part of that noise charge is absorbed by the successor's own
# CDS network, so the output kT/C term enters with a reduced weight.
OUTPUT_NOISE_WEIGHT = 0.3
# Fixed parasitic of the successor stage's sampling network (switches,
# wiring, comparator input) — it bounds the output kT/C noise even when
# the explicit load capacitance approaches zero.
SUCCESSOR_INPUT_CAP = 0.8e-12

#: The stacked fields the op-amp analysis reads: all but ``temperature``,
#: which enters only the integrator's kT noise terms.  Rows of a stacked
#: card that agree on these share one op-amp analysis.
OPAMP_CARD_FIELDS = tuple(f for f in STACKED_FIELDS if f != "temperature")


@dataclass
class IntegratorDesign:
    """A candidate integrator sizing: op-amp + capacitor network.

    ``cs`` is the sampling capacitor; the feedback capacitor follows from
    the fixed integrator gain (``cf = cs / INTEGRATOR_GAIN``) and the
    offset-storage capacitor mirrors the sampling capacitor
    (``coc = cs``), as in the paper's Fig. 1 network.  ``c_load`` is the
    external load — the second objective's axis.
    """

    opamp: OpAmpSizing
    cs: np.ndarray
    c_load: np.ndarray

    def __post_init__(self) -> None:
        self.cs = np.asarray(self.cs, dtype=float)
        self.c_load = np.asarray(self.c_load, dtype=float)

    @property
    def cf(self) -> np.ndarray:
        return self.cs / INTEGRATOR_GAIN

    @property
    def coc(self) -> np.ndarray:
        return self.cs


@dataclass
class IntegratorPerformance:
    """Circuit-level performance figures (arrays over the design batch)."""

    beta: np.ndarray  # feedback factor during integration
    settling_time: np.ndarray  # s
    settling_error: np.ndarray  # static relative error
    dynamic_range_db: np.ndarray
    output_range: np.ndarray  # usable differential swing (V)
    phase_margin_deg: np.ndarray
    power: np.ndarray  # W
    area: np.ndarray  # m^2 (devices + all capacitors, differential)
    offset_systematic: np.ndarray  # V, input-referred
    min_saturation_margin: np.ndarray  # V, worst device
    min_overdrive: np.ndarray  # V, smallest VGS - VT across devices
    slew_rate: np.ndarray  # V/s
    noise_total: np.ndarray  # V^2, in-band at the output
    amp: OpAmpPerformance = None  # type: ignore[assignment]


def feedback_factor(
    tech: Technology, design: IntegratorDesign, cgs1: np.ndarray
) -> np.ndarray:
    """beta = Cf / (Cf + Cs + Coc + Cgs1 + bottom-plate parasitics)."""
    caps = CapacitorModel.from_technology(tech)
    c_sum_node = (
        design.cs
        + design.coc
        + cgs1
        + caps.bottom_plate(design.cs)
        + caps.bottom_plate(design.coc)
    )
    return design.cf / (design.cf + c_sum_node)


def amplifier_load(
    tech: Technology,
    design: IntegratorDesign,
    cgs1: np.ndarray,
    beta: np.ndarray,
) -> np.ndarray:
    """Small-signal load each op-amp output sees during integration.

    External load plus the feedback capacitor's bottom plate plus the
    feedback network reflected to the output, ``Cf * (1 - beta)``.
    """
    caps = CapacitorModel.from_technology(tech)
    return (
        design.c_load
        + caps.bottom_plate(design.cf)
        + design.cf * (1.0 - beta)
    )


def settling_time(
    amp: OpAmpPerformance,
    beta: np.ndarray,
    epsilon: np.ndarray,
    step: float = REFERENCE_STEP,
) -> np.ndarray:
    """Slew + two-pole linear settling time to relative error *epsilon*.

    The closed loop is approximated as a second-order system with natural
    frequency ``wn = sqrt(wc * p2)`` and damping
    ``zeta = 0.5 * sqrt(p2 / wc)`` where ``wc = beta * GBW`` is the loop
    crossover.  Overdamped loops settle on their slow real pole;
    underdamped loops on the envelope ``exp(-zeta * wn * t)`` (with the
    ringing-amplitude correction).  Slewing covers the portion of the
    output step where the required slope exceeds the slew rate.
    """
    epsilon = np.maximum(np.asarray(epsilon, dtype=float), 1e-9)
    wc = beta * amp.gbw
    p2 = amp.p2
    wn = np.sqrt(wc * p2)
    zeta = 0.5 * np.sqrt(p2 / np.maximum(wc, 1e-3))

    # Effective decay rate of the settling tail.
    over = zeta >= 1.0
    slow_pole = np.where(
        over,
        wn * (zeta - np.sqrt(np.maximum(zeta**2 - 1.0, 0.0))),
        zeta * wn,
    )
    # Underdamped envelope correction: amplitude 1/sqrt(1 - zeta^2).
    ring_penalty = np.where(
        over,
        0.0,
        -0.5 * np.log(np.maximum(1.0 - np.minimum(zeta, 0.999) ** 2, 1e-6)),
    )

    delta_v = INTEGRATOR_GAIN * step  # worst-case output step
    v_linear = amp.slew_rate / np.maximum(wc, 1e-3)  # linear-entry amplitude
    slewing = delta_v > v_linear
    t_slew = np.where(
        slewing, (delta_v - v_linear) / np.maximum(amp.slew_rate, 1e-3), 0.0
    )
    start = np.where(slewing, v_linear, delta_v)
    ln_arg = np.maximum(start / (epsilon * delta_v), 1.0)
    t_lin = (np.log(ln_arg) + ring_penalty) / np.maximum(slow_pole, 1e-3)
    return t_slew + t_lin


def noise_breakdown(
    tech: Technology,
    design: IntegratorDesign,
    amp: OpAmpPerformance,
    beta: np.ndarray,
) -> "dict[str, np.ndarray]":
    """The three in-band noise contributions separately (V^2).

    Keys: ``input`` (sampling network), ``amplifier`` (op-amp thermal
    over the closed-loop bandwidth), ``output`` (successor sampling
    network).  ``noise_budget`` is their sum.
    """
    kt = tech.kt
    caps = CapacitorModel.from_technology(tech)
    cc = design.opamp.cc
    c_out = (
        design.c_load
        + amp.c_out_self
        + caps.bottom_plate(design.cf)
        + SUCCESSOR_INPUT_CAP
    )
    term_input = (
        INTEGRATOR_GAIN**2 * CDS_NOISE_FACTOR * 2.0 * kt / design.cs
    ) / OVERSAMPLING_RATIO
    term_amp = (
        (4.0 / 3.0)
        * kt
        * amp.noise_factor
        / (np.maximum(beta, 1e-3) * cc)
    ) / OVERSAMPLING_RATIO
    term_output = (
        OUTPUT_NOISE_WEIGHT * 2.0 * kt / np.maximum(c_out, 1e-15)
    ) / OVERSAMPLING_RATIO
    return {"input": term_input, "amplifier": term_amp, "output": term_output}


def noise_budget(
    tech: Technology,
    design: IntegratorDesign,
    amp: OpAmpPerformance,
    beta: np.ndarray,
) -> np.ndarray:
    """In-band output-referred noise power (V^2).

    Three contributions, each divided by the oversampling ratio:

    * input sampling network:  ``a^2 * n_cds * 2kT / Cs``;
    * op-amp thermal noise over the closed-loop bandwidth, referred to
      the output (broadband, not doubled by CDS because the correlated
      samples are taken within the amplifier's own bandwidth):
      ``(4/3) * kT * nf / (beta * Cc)``;
    * output sampling network, with the reduced weight discussed at
      :data:`OUTPUT_NOISE_WEIGHT`: ``w_out * 2kT / C_out``.
    """
    terms = noise_breakdown(tech, design, amp, beta)
    return terms["input"] + terms["amplifier"] + terms["output"]


def analyze_integrator(
    tech: Technology,
    design: IntegratorDesign,
    settle_epsilon: np.ndarray = None,
) -> IntegratorPerformance:
    """Full vectorized analysis of the CDS SC integrator.

    The feedback factor needs the input pair's ``Cgs``, which depends on
    geometry alone (:meth:`~repro.circuits.mosfet.MosfetModel.gate_source_cap`
    of ``w1``, ``l1``), so beta and the amplifier load are fixed before
    the op-amp is analysed, and each bias point is solved once.

    Under a stacked card, rows that differ only in ``temperature`` (a
    campaign's temperature variants of one scenario card) share one
    op-amp analysis: it runs on the distinct rows of
    :data:`OPAMP_CARD_FIELDS` and is gathered back to every row before
    the integrator stage, so ``amp`` stays row-complete.

    Parameters
    ----------
    tech:
        Process card (nominal, corner, MC-perturbed, or a stack of such
        cards from :func:`~repro.circuits.yield_est.stacked_technology`,
        whose ``(k, 1)`` fields give ``(k, n_designs)`` outputs).
    design:
        Batch of candidate designs.
    settle_epsilon:
        Relative precision the settling-time figure is measured at;
        defaults to 1e-4 (the sizing problem passes half the SE spec).
    """
    if settle_epsilon is None:
        settle_epsilon = 1e-4

    cgs1 = MosfetModel(tech.nmos).gate_source_cap(design.opamp.w1, design.opamp.l1)
    beta = feedback_factor(tech, design, cgs1)
    c_amp = amplifier_load(tech, design, cgs1, beta)
    # Rows are gathered along the leading axis of 2-D outputs, which is
    # the stack's for a 1-D (or scalar) design batch.
    shared = None
    if design.opamp.w1.ndim <= 1:
        shared = distinct_rows(tech, OPAMP_CARD_FIELDS)
    if shared is None:
        amp = analyze_opamp(tech, design.opamp, c_amp)
    else:
        first, inverse = shared
        amp = _gather_rows(
            analyze_opamp(stacked_rows(tech, first), design.opamp, c_amp), inverse
        )

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


def _gather_rows(amp: OpAmpPerformance, inverse: np.ndarray) -> OpAmpPerformance:
    """*amp* of a card's distinct rows, gathered back to every row.

    Arrays with the stack's leading axis (2-D: rows x designs) are
    indexed by *inverse*; geometry-only arrays (1-D) are the same in
    every row and stay as they are, as in an analysis of the full card.
    """

    def take(value):
        if isinstance(value, dict):
            return {name: take(v) for name, v in value.items()}
        return value[inverse] if np.ndim(value) == 2 else value

    return replace(amp, **{f.name: take(getattr(amp, f.name)) for f in fields(amp)})
