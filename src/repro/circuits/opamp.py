"""Two-stage Miller op-amp: DC bias, small-signal and large-signal analytics.

Topology (fully differential, as used inside the paper's CDS integrator):

* M1/M2 — NMOS input differential pair, each carrying ``Itail / 2``.
* M3/M4 — PMOS current-mirror load of the first stage.
* M5    — NMOS tail current source (``Itail``).
* M6    — PMOS common-source second stage, one per side (``I2`` each).
* M7    — NMOS second-stage current sink (``I2``).
* Cc    — Miller compensation capacitor per side.

The analysis solves the DC operating point of every device from its branch
current via the eqn (1) model (fixed-point iteration over the coupled
node voltages), then derives:

* gains A1, A2, A0 and the unity-gain (GBW) frequency ``gm1 / Cc``;
* the non-dominant output pole and the right-half-plane Miller zero —
  the paper explicitly includes non-dominant poles/zeros "which makes
  [the equations] more non-linear than those obtained by standard
  dominant pole analysis";
* slew rate, output swing, input-referred noise factor, power, area;
* per-device saturation margins and the systematic offset, which feed the
  sizing problem's operating-region and matching constraints.

Everything is vectorized: each sizing field may be an arbitrary
broadcastable numpy array, so a whole GA population (optionally tiled
with Monte-Carlo/corner axes) is analyzed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

import numpy as np

from repro.circuits.mosfet import MosfetModel
from repro.circuits.technology import Technology
from repro.circuits.yield_est import STACKED_FIELDS, distinct_rows, stacked_rows

SWING_MARGIN = 0.05  # extra headroom (V) beyond Vdsat at each output rail
BIAS_OVERHEAD = 0.2  # bias-branch current as a fraction of Itail

#: The stacked fields M3's bias solve reads: the PMOS card alone (the
#: diode connection, VSD3 = VSG3, keeps the supply out of it).
M3_CARD_FIELDS = tuple(f for f in STACKED_FIELDS if f.startswith("pmos."))


@dataclass
class OpAmpSizing:
    """Geometry and bias of the two-stage op-amp (struct of arrays, SI units).

    ``w*``/``l*`` are device widths/lengths (m); ``itail``/``i2`` branch
    currents (A); ``cc`` the Miller capacitor (F).  All fields broadcast
    against each other.
    """

    w1: np.ndarray
    l1: np.ndarray
    w3: np.ndarray
    l3: np.ndarray
    w5: np.ndarray
    l5: np.ndarray
    w6: np.ndarray
    l6: np.ndarray
    w7: np.ndarray
    l7: np.ndarray
    itail: np.ndarray
    i2: np.ndarray
    cc: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.asarray(getattr(self, f.name), dtype=float) for f in fields(self)]
        broadcast = np.broadcast_arrays(*arrays)
        for f, arr in zip(fields(self), broadcast):
            object.__setattr__(self, f.name, arr)

    @property
    def shape(self):
        return self.w1.shape


@dataclass
class OpAmpPerformance:
    """Analysis outputs, all arrays of the sizing's broadcast shape."""

    # Small-signal
    gm1: np.ndarray
    gm3: np.ndarray
    gm6: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a0: np.ndarray
    gbw: np.ndarray  # rad/s unity-gain frequency gm1/Cc
    p2: np.ndarray  # rad/s non-dominant pole (magnitude)
    z1: np.ndarray  # rad/s RHP zero gm6/Cc
    # Large-signal
    slew_rate: np.ndarray  # V/s, the binding (smaller) of the two limits
    swing_low: np.ndarray
    swing_high: np.ndarray
    output_range: np.ndarray  # differential peak-to-peak usable swing
    # Noise / matching / budget
    noise_factor: np.ndarray  # 1 + gm3/gm1 thermal excess factor
    offset_systematic: np.ndarray  # input-referred (V)
    power: np.ndarray  # W
    area: np.ndarray  # m^2 (devices + 2x Cc)
    # Parasitics exposed to the integrator model
    cgs1: np.ndarray
    c_internal: np.ndarray  # first-stage output node capacitance
    c_out_self: np.ndarray  # op-amp's own output-node parasitics
    # DC diagnostics
    vgs: Dict[str, np.ndarray] = None  # type: ignore[assignment]
    saturation_margins: Dict[str, np.ndarray] = None  # type: ignore[assignment]
    overdrives: Dict[str, np.ndarray] = None  # type: ignore[assignment]

    def min_saturation_margin(self) -> np.ndarray:
        """Worst-case (smallest) saturation margin across all devices."""
        shape = np.broadcast_shapes(
            *[np.shape(v) for v in self.saturation_margins.values()]
        )
        stacked = np.stack(
            [np.broadcast_to(v, shape) for v in self.saturation_margins.values()],
            axis=0,
        )
        return stacked.min(axis=0)

    def min_overdrive(self) -> np.ndarray:
        """Smallest gate overdrive ``VGS - VT`` across all devices.

        The sizing problem requires this to stay above ~100 mV: the
        eqn (1) model has no subthreshold region, and a "proper DC
        operating region" in the paper's sense means strong inversion.
        """
        shape = np.broadcast_shapes(*[np.shape(v) for v in self.overdrives.values()])
        stacked = np.stack(
            [np.broadcast_to(v, shape) for v in self.overdrives.values()], axis=0
        )
        return stacked.min(axis=0)


def analyze_opamp(
    tech: Technology,
    sizing: OpAmpSizing,
    c_load: np.ndarray,
    v_cm_in: float = None,
    v_out_cm: float = None,
) -> OpAmpPerformance:
    """Full vectorized analysis of the op-amp under load *c_load* (per side).

    Parameters
    ----------
    tech:
        Process card (may be a corner or MC-perturbed variant).
    sizing:
        Device geometry and bias currents.
    c_load:
        Total external small-signal load at each output (F) — for the
        integrator this is the load cap plus the feedback-network
        equivalent, supplied by :mod:`repro.circuits.integrator`.
    v_cm_in, v_out_cm:
        Input and output common-mode voltages; default ``vdd / 2``.
    """
    nmos = MosfetModel(tech.nmos)
    pmos = MosfetModel(tech.pmos)
    vdd = tech.vdd
    v_cm = vdd / 2.0 if v_cm_in is None else v_cm_in
    v_out = vdd / 2.0 if v_out_cm is None else v_out_cm
    c_load = np.asarray(c_load, dtype=float)

    s = sizing
    i_half = s.itail / 2.0

    # --- DC operating point (fixed-point over coupled node voltages) ------
    # M3 (diode-connected PMOS): VSD3 = VSG3.  Rows of a stacked card
    # that share the PMOS card (a supply variant; SS/FS and FF/SF) share
    # the solve, gathered back along the stack axis.
    m3_rows = distinct_rows(tech, M3_CARD_FIELDS) if s.w3.ndim <= 1 else None
    m3 = pmos if m3_rows is None else MosfetModel(stacked_rows(tech, m3_rows[0]).pmos)
    vsg3 = np.full(s.shape, 1.0)
    for _ in range(3):
        vsg3 = m3.vgs_for_current(s.w3, s.l3, i_half, vsg3)
    if m3_rows is not None:
        vsg3 = vsg3[m3_rows[1]]
    v_first = vdd - vsg3  # first-stage output node (balanced)

    # M1: VDS1 = v_first - v_source, v_source = v_cm - VGS1.
    vgs1 = nmos.vgs_for_current(s.w1, s.l1, i_half, np.full(s.shape, 0.5))
    for _ in range(3):
        v_source = v_cm - vgs1
        vds1 = np.maximum(v_first - v_source, 0.05)
        vgs1 = nmos.vgs_for_current(s.w1, s.l1, i_half, vds1)
    v_source = v_cm - vgs1
    vds1 = np.maximum(v_first - v_source, 0.05)
    vds5 = np.maximum(v_source, 0.05)
    vgs5 = nmos.vgs_for_current(s.w5, s.l5, s.itail, vds5)

    # Second stage at the output common mode.
    vsd6 = np.maximum(vdd - v_out, 0.05)
    vsg6 = pmos.vgs_for_current(s.w6, s.l6, s.i2, vsd6)
    vds7 = np.maximum(np.asarray(v_out, float) * np.ones(s.shape), 0.05)
    vgs7 = nmos.vgs_for_current(s.w7, s.l7, s.i2, vds7)

    # --- Small-signal --------------------------------------------------
    gm1 = nmos.transconductance(s.w1, s.l1, vgs1, vds1)
    gds1 = nmos.output_conductance(s.w1, s.l1, vgs1, vds1)
    gm3 = pmos.transconductance(s.w3, s.l3, vsg3, vsg3)
    gds4 = pmos.output_conductance(s.w3, s.l3, vsg3, vsg3)
    gm6 = pmos.transconductance(s.w6, s.l6, vsg6, vsd6)
    gds6 = pmos.output_conductance(s.w6, s.l6, vsg6, vsd6)
    gds7 = nmos.output_conductance(s.w7, s.l7, vgs7, vds7)

    a1 = gm1 / np.maximum(gds1 + gds4, 1e-12)
    a2 = gm6 / np.maximum(gds6 + gds7, 1e-12)
    a0 = a1 * a2
    gbw = gm1 / s.cc

    # Node capacitances.
    cgs1 = nmos.gate_source_cap(s.w1, s.l1)
    c_internal = (
        nmos.gate_drain_cap(s.w1)
        + nmos.drain_bulk_cap(s.w1)
        + pmos.gate_drain_cap(s.w3)
        + pmos.drain_bulk_cap(s.w3)
        + pmos.gate_source_cap(s.w6, s.l6)
    )
    c_out_self = (
        pmos.drain_bulk_cap(s.w6)
        + nmos.drain_bulk_cap(s.w7)
        + nmos.gate_drain_cap(s.w7)
    )
    c_out_total = c_load + c_out_self

    # Non-dominant pole of the Miller-compensated two-stage amplifier.
    denom = (
        c_internal * s.cc + c_internal * c_out_total + s.cc * c_out_total
    )
    p2 = gm6 * s.cc / np.maximum(denom, 1e-30)
    z1 = gm6 / s.cc

    # --- Large-signal ----------------------------------------------------
    sr_internal = s.itail / s.cc
    sr_output = s.i2 / np.maximum(c_out_total + s.cc, 1e-18)
    slew_rate = np.minimum(sr_internal, sr_output)

    vdsat6 = pmos.vdsat(vsg6, s.l6)
    vdsat7 = nmos.vdsat(vgs7, s.l7)
    swing_low = vdsat7 + SWING_MARGIN
    swing_high = vdd - vdsat6 - SWING_MARGIN
    output_range = np.maximum(2.0 * (swing_high - swing_low), 0.0)

    noise_factor = 1.0 + gm3 / np.maximum(gm1, 1e-12)

    # Systematic offset: M6's gate sits at v_first; the current it would
    # actually conduct there, vs the I2 the sink enforces, appears as an
    # input-referred offset through gm6 and the first-stage gain.
    i6_actual = pmos.drain_current(s.w6, s.l6, vsg3, vsd6)
    offset_systematic = (i6_actual - s.i2) / np.maximum(gm6 * a1, 1e-18)

    power = vdd * ((1.0 + BIAS_OVERHEAD) * s.itail + 2.0 * s.i2)
    device_area = (
        2.0 * (s.w1 * s.l1 + s.w3 * s.l3)
        + s.w5 * s.l5
        + 2.0 * (s.w6 * s.l6 + s.w7 * s.l7)
    )
    area = device_area + 2.0 * s.cc / tech.cap_density

    # --- Operating-region margins ---------------------------------------
    margins = {
        "m1": nmos.saturation_margin(vds1, vgs1, s.l1),
        "m3": pmos.saturation_margin(vsg3, vsg3, s.l3),
        "m5": nmos.saturation_margin(vds5, vgs5, s.l5),
        "m6": pmos.saturation_margin(vsd6, vsg6, s.l6),
        "m7": nmos.saturation_margin(vds7, vgs7, s.l7),
    }
    vgs_map = {
        "m1": vgs1,
        "m3": vsg3,
        "m5": vgs5,
        "m6": vsg6,
        "m7": vgs7,
    }
    overdrives = {
        "m1": vgs1 - tech.nmos.vt0,
        "m3": vsg3 - tech.pmos.vt0,
        "m5": vgs5 - tech.nmos.vt0,
        "m6": vsg6 - tech.pmos.vt0,
        "m7": vgs7 - tech.nmos.vt0,
    }

    return OpAmpPerformance(
        gm1=gm1,
        gm3=gm3,
        gm6=gm6,
        a1=a1,
        a2=a2,
        a0=a0,
        gbw=gbw,
        p2=p2,
        z1=z1,
        slew_rate=slew_rate,
        swing_low=swing_low,
        swing_high=swing_high,
        output_range=output_range,
        noise_factor=noise_factor,
        offset_systematic=offset_systematic,
        power=power,
        area=area,
        cgs1=cgs1,
        c_internal=c_internal,
        c_out_self=c_out_self,
        vgs=vgs_map,
        saturation_margins=margins,
        overdrives=overdrives,
    )


def phase_margin_deg(perf: OpAmpPerformance, beta: np.ndarray) -> np.ndarray:
    """Loop phase margin (degrees) at crossover ``beta * GBW``.

    Includes the non-dominant pole and the RHP zero (both subtract
    phase), matching the paper's beyond-dominant-pole treatment.
    """
    wc = np.asarray(beta, float) * perf.gbw
    return (
        90.0
        - np.degrees(np.arctan(wc / perf.p2))
        - np.degrees(np.arctan(wc / perf.z1))
    )
