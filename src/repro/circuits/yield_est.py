"""Yield / robustness estimation (the paper's "Yield Calculation [6]").

Robustness of a candidate sizing is the fraction of process/mismatch
Monte-Carlo samples in which *all* circuit constraints still pass.  Two
ingredients:

* **Global process variation** — continuous perturbations of mobility
  and threshold for each device type, drawn once (common random numbers,
  so all candidates in all generations see the *same* disturbance set —
  essential for a smooth, optimizer-friendly robustness figure).
* **Local mismatch** — Pelgrom-scaled input-pair threshold mismatch,
  which adds to the systematic offset.

For vectorization the samples are packed into a single "stacked"
:class:`~repro.circuits.technology.Technology` whose per-card fields are
``(n_samples, 1)`` arrays; one analysis call then evaluates every sample
against every candidate at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter, eq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.technology import DeviceParams, Technology
from repro.utils.rng import as_rng


#: DeviceParams fields that must stay scalar for a card to be stackable
#: (everything the eqn (1) analyses read; an array here means the card
#: was already stacked, or hand-built with batched parameters).
_SCALAR_DEVICE_FIELDS = (
    "u0", "cox", "vt0", "esat", "lambda_l", "theta1", "theta2", "vk",
    "cj", "cjsw", "cov", "ldif", "a_vt", "a_beta",
)

#: The only fields stacking turns into ``(k, 1)`` columns.  The stacked
#: card keeps card 0's value of every other field, so all cards must
#: agree on those (the card ``name`` aside).
_STACKED_CARD_FIELDS = ("vdd", "temperature")
_STACKED_DEVICE_FIELDS = ("u0", "vt0")
_SHARED_CARD_FIELDS = tuple(
    f.name for f in fields(Technology)
    if f.name not in ("name", "nmos", "pmos") + _STACKED_CARD_FIELDS
)
_DEVICE_KINDS = ("nmos", "pmos")

#: Every stacked field as a dotted name (``vdd``, ``nmos.u0``, ...): the
#: fields in which the rows of a stacked card can differ.  Keys of
#: :func:`distinct_rows` are drawn from this list, so a field stacked
#: later cannot be left out of them unnoticed.
STACKED_FIELDS = _STACKED_CARD_FIELDS + tuple(
    f"{kind}.{field}" for kind in _DEVICE_KINDS for field in _STACKED_DEVICE_FIELDS
)

_SHARED_DEVICE_FIELDS = ("polarity", "mobility_exponent") + tuple(
    f for f in _SCALAR_DEVICE_FIELDS if f not in _STACKED_DEVICE_FIELDS
)
_card_values = attrgetter(*_STACKED_CARD_FIELDS, *_SHARED_CARD_FIELDS)
_device_values = attrgetter(*_STACKED_DEVICE_FIELDS, *_SHARED_DEVICE_FIELDS)


def _stack_values(tech: Technology) -> Tuple[tuple, tuple]:
    """``(stacked, shared)``: the values of *tech*'s stacked fields, and
    the values of every other field that must equal card 0's."""
    card = _card_values(tech)
    nmos = _device_values(tech.nmos)
    pmos = _device_values(tech.pmos)
    c, d = len(_STACKED_CARD_FIELDS), len(_STACKED_DEVICE_FIELDS)
    return card[:c] + nmos[:d] + pmos[:d], card[c:] + nmos[d:] + pmos[d:]


def _check_stackable(techs: Sequence[Technology]) -> None:
    """Validate that *techs* are variants of one device family.

    Stacking cards whose devices differ in type (polarity / mobility
    model) would silently average apples with oranges, cards whose
    "scalar" fields are already arrays (e.g. a previously stacked card)
    would fail much later as an opaque broadcasting error deep inside
    ``analyze_integrator``, and a card whose unstacked fields differ
    from card 0's would silently be analysed with card 0's values.
    Fail fast with a clear message instead.

    Cards whose values are all plain numbers pass on one comparison of
    their shared values with card 0's; anything else (an array field,
    a mismatch) is walked field by field, which names the offender.
    """
    ref_shared = _stack_values(techs[0])[1]
    for tech in techs:
        stacked, shared = _stack_values(tech)
        if not (
            all(isinstance(v, (int, float)) for v in stacked + shared)
            and all(map(eq, shared, ref_shared))
        ):
            _walk_stackable(techs)
            return


def _walk_stackable(techs: Sequence[Technology]) -> None:
    """The field-by-field check behind :func:`_check_stackable`."""
    ref = techs[0]

    def check_shared(i: int, tech: Technology, field: str, value, ref_value) -> None:
        if not np.array_equal(value, ref_value):
            raise ValueError(
                f"cannot stack technology cards: card {i} ({tech.name!r}) "
                f"has {field}={value!r} but card 0 ({ref.name!r}) has "
                f"{ref_value!r}; only vdd, temperature, u0 and vt0 are stacked"
            )

    def check_scalar(i: int, tech: Technology, field: str, value) -> None:
        shape = np.shape(value)
        if shape != ():
            raise ValueError(
                f"cannot stack technology cards: card {i} "
                f"({tech.name!r}) {field} has shape {shape}, "
                "expected a scalar — stacked cards cannot be re-stacked"
            )

    for i, tech in enumerate(techs):
        for field in _STACKED_CARD_FIELDS:
            check_scalar(i, tech, field, getattr(tech, field))
        for field in _SHARED_CARD_FIELDS:
            check_shared(i, tech, field, getattr(tech, field), getattr(ref, field))
        for kind in _DEVICE_KINDS:
            dev = tech.device(kind)
            ref_dev = ref.device(kind)
            if (
                dev.polarity != ref_dev.polarity
                or dev.mobility_exponent != ref_dev.mobility_exponent
            ):
                raise ValueError(
                    f"cannot stack technology cards: card {i} "
                    f"({tech.name!r}) has a different {kind} device type "
                    f"(polarity/mobility_exponent) than card 0 ({ref.name!r})"
                )
            for field in _SCALAR_DEVICE_FIELDS:
                check_scalar(i, tech, f"{kind}.{field}", getattr(dev, field))
                if field not in _STACKED_DEVICE_FIELDS:
                    check_shared(
                        i, tech, f"{kind}.{field}",
                        getattr(dev, field), getattr(ref_dev, field),
                    )


def stacked_technology(techs: Sequence[Technology]) -> Technology:
    """Pack several technology cards into one with (k, 1)-array parameters.

    Analyses run under the stacked card produce outputs of shape
    ``(k, n_designs)`` via numpy broadcasting, and row ``i`` equals the
    analysis under card ``i`` alone, bit for bit.

    The card fields ``vdd`` and ``temperature`` and the devices' ``u0``
    and ``vt0`` are stacked, so corners, Monte-Carlo samples and
    operating conditions (a campaign scenario's supply and temperature)
    share one stack.  The result keeps card 0's value of every other
    field.  So all cards must describe the same device family: per
    device kind the polarity and mobility exponent must match card 0,
    every stacked field and device-parameter field must be scalar (in
    particular, a card that is itself the output of
    ``stacked_technology`` is rejected), and every other field
    (``cap_density``, ``cox``, ...) must equal card 0's.  Violations
    raise :class:`ValueError` here rather than surfacing as
    broadcasting errors inside ``analyze_integrator`` or as silently
    wrong results.
    """
    if not techs:
        raise ValueError("need at least one technology to stack")
    _check_stackable(techs)
    base = techs[0]

    def stack_device(pick) -> DeviceParams:
        devs = [pick(t) for t in techs]
        ref = devs[0]
        return replace(
            ref,
            u0=_col([d.u0 for d in devs]),
            vt0=_col([d.vt0 for d in devs]),
        )

    return replace(
        base,
        name=f"stacked[{len(techs)}]",
        vdd=_col([t.vdd for t in techs]),
        temperature=_col([t.temperature for t in techs]),
        nmos=stack_device(lambda t: t.nmos),
        pmos=stack_device(lambda t: t.pmos),
    )


def _col(values: List[float]) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1, 1)


def _stacked_field(tech: Technology, name: str):
    kind, _, field = name.rpartition(".")
    return getattr(tech.device(kind) if kind else tech, field)


def distinct_rows(
    tech: Technology, keys: Sequence[str]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The rows of a stacked card that differ in the stacked fields *keys*.

    *keys* are names from :data:`STACKED_FIELDS`.  Returns
    ``(first, inverse)``: ``first`` holds one row per distinct key, the
    first row with that key, in order of first appearance, and
    ``inverse[i]`` is the position in ``first`` of row ``i``'s key, so
    an analysis that reads only *keys* can run on
    ``stacked_rows(tech, first)`` and be gathered back with
    ``result[inverse]``.  Keys compare bit for bit.  Returns ``None``
    when there is nothing to share: *tech* is not stacked, or every
    row is distinct.
    """
    columns = np.broadcast_arrays(
        *(np.asarray(_stacked_field(tech, key), dtype=float) for key in keys)
    )
    if columns[0].ndim != 2:
        return None
    table = np.concatenate(columns, axis=1)
    index: Dict[bytes, int] = {}
    inverse = np.array([index.setdefault(row.tobytes(), len(index)) for row in table])
    if len(index) == len(table):
        return None
    # Keys are numbered in order of first appearance, so np.unique's
    # sorted order is that order too.
    first = np.unique(inverse, return_index=True)[1]
    return first, inverse


def stacked_rows(tech: Technology, rows: np.ndarray) -> Technology:
    """The stacked card made of rows *rows* of the stacked card *tech*."""

    def pick(dev: DeviceParams) -> DeviceParams:
        return replace(dev, **{f: getattr(dev, f)[rows] for f in _STACKED_DEVICE_FIELDS})

    return replace(
        tech,
        name=f"stacked[{len(rows)}]",
        **{f: getattr(tech, f)[rows] for f in _STACKED_CARD_FIELDS},
        nmos=pick(tech.nmos),
        pmos=pick(tech.pmos),
    )


@dataclass(frozen=True)
class MonteCarloSample:
    """One joint process draw (global variation z-scores)."""

    n_mu_factor: float
    n_dvt: float
    p_mu_factor: float
    p_dvt: float
    mismatch_z: float  # standard-normal score for input-pair VT mismatch


class MonteCarloSampler:
    """Deterministic common-random-number process/mismatch sample set.

    Parameters
    ----------
    n_samples:
        Number of Monte-Carlo draws.
    sigma_mu:
        Relative 1-sigma of the mobility factor.
    sigma_vt:
        1-sigma threshold shift (V).
    seed:
        RNG seed; the draws are made once at construction and reused for
        every candidate evaluation (common random numbers).
    """

    def __init__(
        self,
        n_samples: int = 12,
        sigma_mu: float = 0.05,
        sigma_vt: float = 0.015,
        seed=2005,
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        rng = as_rng(seed)
        self.n_samples = int(n_samples)
        self.sigma_mu = float(sigma_mu)
        self.sigma_vt = float(sigma_vt)
        # Antithetic pairs halve the variance of the pass-fraction estimate.
        half = (n_samples + 1) // 2
        z = rng.standard_normal((half, 5))
        z = np.vstack([z, -z])[:n_samples]
        self._z = z

    @property
    def samples(self) -> List[MonteCarloSample]:
        out = []
        for row in self._z:
            out.append(
                MonteCarloSample(
                    n_mu_factor=float(1.0 + self.sigma_mu * row[0]),
                    n_dvt=float(self.sigma_vt * row[1]),
                    p_mu_factor=float(1.0 + self.sigma_mu * row[2]),
                    p_dvt=float(self.sigma_vt * row[3]),
                    mismatch_z=float(row[4]),
                )
            )
        return out

    def cards(self, base: Technology) -> List[Technology]:
        """One card per sample: *base* with that sample's process draw."""
        return [
            replace(
                base,
                nmos=replace(
                    base.nmos,
                    u0=base.nmos.u0 * s.n_mu_factor,
                    vt0=base.nmos.vt0 + s.n_dvt,
                ),
                pmos=replace(
                    base.pmos,
                    u0=base.pmos.u0 * s.p_mu_factor,
                    vt0=base.pmos.vt0 + s.p_dvt,
                ),
            )
            for s in self.samples
        ]

    def stacked(self, base: Technology) -> Technology:
        """All samples as one stacked technology card."""
        return stacked_technology(self.cards(base))

    def mismatch_offsets(
        self, a_vt: float, w1: np.ndarray, l1: np.ndarray
    ) -> np.ndarray:
        """Input-pair VT mismatch per (sample, candidate): ``z * A_VT/sqrt(WL)``.

        Returns shape ``(n_samples, n_designs)``.
        """
        w1 = np.asarray(w1, dtype=float)
        l1 = np.asarray(l1, dtype=float)
        sigma = a_vt / np.sqrt(np.maximum(w1 * l1, 1e-18))
        z = self._z[:, 4].reshape(-1, 1)
        return z * sigma[None, :]


def pass_fraction(pass_matrix: np.ndarray) -> np.ndarray:
    """Robustness per candidate from a ``(n_samples, n_designs)`` bool matrix."""
    mat = np.atleast_2d(np.asarray(pass_matrix, dtype=bool))
    return mat.mean(axis=0)
