"""Tests for the Monte-Carlo yield machinery."""

import hashlib
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from repro.circuits.technology import corner_technology, nominal_technology
from repro.circuits.yield_est import (
    MonteCarloSampler,
    pass_fraction,
    stacked_technology,
)


def _stacked_card_bytes(seed):
    """Canonical byte serialization of the CRN-stacked nominal card.

    Concatenates the stacked u0/vt0 arrays of both devices — everything
    the sampler perturbs — so equal bytes mean the common-random-number
    draws are identical down to the last bit.
    """
    stacked = MonteCarloSampler(n_samples=8, seed=seed).stacked(
        nominal_technology()
    )
    return b"".join(
        np.ascontiguousarray(arr).tobytes()
        for arr in (
            stacked.nmos.u0, stacked.nmos.vt0,
            stacked.pmos.u0, stacked.pmos.vt0,
        )
    )


class TestStackedTechnology:
    def test_shapes(self):
        stacked = stacked_technology(
            [corner_technology(c) for c in ("TT", "FF", "SS")]
        )
        assert stacked.nmos.u0.shape == (3, 1)
        assert stacked.pmos.vt0.shape == (3, 1)

    def test_values_preserved_per_row(self):
        base = nominal_technology()
        ff = corner_technology("FF", base)
        stacked = stacked_technology([base, ff])
        assert stacked.nmos.u0[0, 0] == pytest.approx(base.nmos.u0)
        assert stacked.nmos.u0[1, 0] == pytest.approx(ff.nmos.u0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            stacked_technology([])

    def test_name_reflects_count(self):
        stacked = stacked_technology([nominal_technology()] * 4)
        assert "4" in stacked.name

    def test_restacking_rejected(self):
        stacked = stacked_technology([nominal_technology()] * 2)
        with pytest.raises(ValueError, match="re-stacked"):
            stacked_technology([stacked, stacked])

    def test_mixed_plain_and_stacked_rejected(self):
        base = nominal_technology()
        stacked = stacked_technology([base, base])
        with pytest.raises(ValueError, match="re-stacked"):
            stacked_technology([base, stacked])

    def test_device_type_mismatch_rejected(self):
        from dataclasses import replace

        base = nominal_technology()
        swapped = replace(base, name="swapped", nmos=base.pmos)
        with pytest.raises(ValueError, match="different nmos device type"):
            stacked_technology([base, swapped])

    def test_supply_and_temperature_stack_as_columns(self):
        """Cards that differ in vdd or temperature stack row by row; any
        other shared card field must still agree."""
        from dataclasses import replace

        from repro.circuits.integrator import analyze_integrator
        from repro.circuits.sizing_problem import IntegratorSizingProblem

        from tests.circuits.conftest import KNOWN_FEASIBLE_DESIGN
        from tests.circuits.reference_integrator import performance_arrays

        base = nominal_technology()
        assert (base.vdd, base.temperature) == (1.8, 300.0)
        cards = [
            base,
            replace(corner_technology("SS", base), vdd=1.62, temperature=358.0),
            replace(base, temperature=250.0),
        ]
        stacked = stacked_technology(cards)
        np.testing.assert_array_equal(stacked.vdd, [[1.8], [1.62], [1.8]])
        np.testing.assert_array_equal(stacked.temperature, [[300.0], [358.0], [250.0]])

        x = np.stack([KNOWN_FEASIBLE_DESIGN * (1.0 + 0.1 * i) for i in range(5)])
        design = IntegratorSizingProblem.build_design(x)
        rows = performance_arrays(analyze_integrator(stacked, design))
        for i, card in enumerate(cards):
            alone = performance_arrays(analyze_integrator(card, design))
            for name, arr in alone.items():
                row = np.broadcast_to(rows[name], (len(cards), x.shape[0]))[i]
                assert row.tobytes() == np.broadcast_to(arr, row.shape).tobytes(), (
                    f"card {i} {name}"
                )

        # Device fields other than u0/vt0: test_unstacked_device_field_mismatch_rejected.
        for field, value in (
            ("cap_density", 2e-3), ("cap_bottom_ratio", 0.1), ("min_length", 0.35e-6),
        ):
            with pytest.raises(ValueError, match=f"card 1 .* has {field}="):
                stacked_technology([base, replace(base, **{field: value})])

    def test_unstacked_device_field_mismatch_rejected(self):
        from dataclasses import replace

        base = nominal_technology()
        thick = replace(base, pmos=replace(base.pmos, cox=base.pmos.cox / 2))
        with pytest.raises(ValueError, match="pmos.cox"):
            stacked_technology([base, thick])


class TestMonteCarloSampler:
    def test_deterministic_given_seed(self):
        a = MonteCarloSampler(n_samples=8, seed=5)
        b = MonteCarloSampler(n_samples=8, seed=5)
        np.testing.assert_array_equal(a._z, b._z)

    def test_different_seed_differs(self):
        a = MonteCarloSampler(n_samples=8, seed=5)
        b = MonteCarloSampler(n_samples=8, seed=6)
        assert not np.array_equal(a._z, b._z)

    def test_antithetic_pairs(self):
        sampler = MonteCarloSampler(n_samples=8, seed=0)
        z = sampler._z
        np.testing.assert_allclose(z[:4], -z[4:8])

    def test_odd_sample_count(self):
        sampler = MonteCarloSampler(n_samples=7, seed=0)
        assert sampler._z.shape == (7, 5)
        assert len(sampler.samples) == 7

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="n_samples"):
            MonteCarloSampler(n_samples=0)

    def test_sample_magnitudes(self):
        sampler = MonteCarloSampler(n_samples=64, sigma_mu=0.05, sigma_vt=0.015, seed=1)
        mus = np.array([s.n_mu_factor for s in sampler.samples])
        vts = np.array([s.n_dvt for s in sampler.samples])
        assert abs(mus.mean() - 1.0) < 0.03
        assert np.abs(vts).max() < 0.015 * 4.5

    def test_stacked_card(self):
        base = nominal_technology()
        stacked = MonteCarloSampler(n_samples=6, seed=2).stacked(base)
        assert stacked.nmos.u0.shape == (6, 1)
        # Perturbations centre on the base card.
        assert np.abs(stacked.nmos.u0 / base.nmos.u0 - 1.0).max() < 0.3

    def test_mismatch_offsets_scaling(self):
        sampler = MonteCarloSampler(n_samples=10, seed=3)
        w1 = np.array([10e-6, 40e-6])
        l1 = np.array([0.5e-6, 0.5e-6])
        offsets = sampler.mismatch_offsets(5e-9, w1, l1)
        assert offsets.shape == (10, 2)
        # Pelgrom: 4x area -> half the sigma.
        ratio = np.abs(offsets[:, 0]) / np.maximum(np.abs(offsets[:, 1]), 1e-18)
        np.testing.assert_allclose(ratio, 2.0, rtol=1e-6)

    def test_mismatch_offsets_deterministic(self):
        s = MonteCarloSampler(n_samples=4, seed=1)
        a = s.mismatch_offsets(5e-9, np.array([1e-5]), np.array([1e-6]))
        b = s.mismatch_offsets(5e-9, np.array([1e-5]), np.array([1e-6]))
        np.testing.assert_array_equal(a, b)


class TestCommonRandomNumbersAcrossProcesses:
    """CRN regression: the same seed must reproduce the stacked card
    byte-for-byte in *other* processes — this is the invariant campaign
    shards rely on when different workers evaluate different scenarios
    of the same Monte-Carlo sample set."""

    SEED = 2005

    def test_same_seed_same_bytes_in_process(self):
        assert _stacked_card_bytes(self.SEED) == _stacked_card_bytes(self.SEED)
        assert _stacked_card_bytes(self.SEED) != _stacked_card_bytes(7)

    def test_forked_process_matches(self):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(_stacked_card_bytes, (self.SEED,))
        assert child == _stacked_card_bytes(self.SEED)

    def test_fresh_interpreter_matches(self):
        # A brand-new interpreter (the spawn start method is exactly
        # this: fork+exec of a clean python) must draw identical CRNs.
        script = (
            "import hashlib, numpy as np\n"
            "from repro.circuits.technology import nominal_technology\n"
            "from repro.circuits.yield_est import MonteCarloSampler\n"
            f"s = MonteCarloSampler(n_samples=8, seed={self.SEED})"
            ".stacked(nominal_technology())\n"
            "blob = b''.join(np.ascontiguousarray(a).tobytes() for a in ("
            "s.nmos.u0, s.nmos.vt0, s.pmos.u0, s.pmos.vt0))\n"
            "print(hashlib.sha256(blob).hexdigest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        local = hashlib.sha256(_stacked_card_bytes(self.SEED)).hexdigest()
        assert out.stdout.strip() == local


class TestPassFraction:
    def test_basic(self):
        mat = np.array([[True, False], [True, True], [False, False], [True, True]])
        np.testing.assert_allclose(pass_fraction(mat), [0.75, 0.5])

    def test_single_row(self):
        np.testing.assert_allclose(pass_fraction(np.array([[True, False]])), [1.0, 0.0])
