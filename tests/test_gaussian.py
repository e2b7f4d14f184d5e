"""Analytic Gaussian-state formulas: values, identities, classicality boundary."""

import math

import numpy as np
import pytest

from otto_forge import (
    GaussianModeState,
    delta_n,
    ergotropy_analytic,
    is_nonclassical,
    nonclassicality_threshold,
    oscillator_energy,
    state_energy,
)

N2_REF = 0.15651764274966565  # occupation(20, 10)


class TestDeltaN:
    def test_squeezed_thermal_reference(self):
        state = GaussianModeState(n_th=N2_REF, r=0.5)
        expected = (2 * N2_REF + 1) * math.sinh(0.5) ** 2
        assert delta_n(state) == pytest.approx(expected, rel=1e-15)
        assert delta_n(state) == pytest.approx(0.35654201819189585, rel=1e-12)

    def test_thermal_state_is_passive(self):
        assert delta_n(GaussianModeState(n_th=3.7)) == 0.0

    def test_pure_displacement(self):
        assert delta_n(GaussianModeState(n_th=0.3, alpha=2.0)) == 4.0

    def test_composite_adds(self):
        state = GaussianModeState(n_th=0.4, r=0.7, alpha=1.0 + 1.0j)
        expected = (2 * 0.4 + 1) * math.sinh(0.7) ** 2 + 2.0
        assert delta_n(state) == pytest.approx(expected, rel=1e-15)

    def test_phases_are_energetically_irrelevant(self):
        plain = GaussianModeState(n_th=0.3, r=0.6, alpha=1.2)
        rotated = GaussianModeState(
            n_th=0.3, r=0.6, alpha=1.2 * np.exp(1.1j), squeeze_phase=0.9
        )
        assert delta_n(plain) == pytest.approx(delta_n(rotated), rel=1e-15)
        assert state_energy(plain, 5.0) == pytest.approx(state_energy(rotated, 5.0), rel=1e-15)


class TestStateEnergy:
    def test_vacuum_zero_point(self):
        assert state_energy(GaussianModeState(0.0), 20.0) == 10.0

    def test_squeezed_thermal_reference(self):
        state = GaussianModeState(n_th=N2_REF, r=0.5)
        expected = 20 * (N2_REF + 0.35654201819189585 + 0.5)
        assert state_energy(state, 20.0) == pytest.approx(expected, rel=1e-12)

    def test_squeezed_vacuum_is_half_cosh(self):
        # omega (sinh^2 r + 1/2) = omega cosh(2r) / 2
        state = GaussianModeState(n_th=0.0, r=0.8)
        assert state_energy(state, 1.0) == pytest.approx(math.cosh(1.6) / 2, rel=1e-14)
        assert state_energy(state, 1.0) == pytest.approx(1.2887322355974426, rel=1e-12)


class TestErgotropyAnalytic:
    def test_passive_states_have_none(self):
        for n_th in (0.0, 0.2, 4.0):
            assert ergotropy_analytic(GaussianModeState(n_th), 13.0) == 0.0

    def test_squeezed_thermal_reference(self):
        state = GaussianModeState(n_th=N2_REF, r=0.5)
        assert ergotropy_analytic(state, 20.0) == pytest.approx(7.1308403638379171, rel=1e-12)

    def test_high_squeezing_vacuum(self):
        # 12.7 dB of squeezing
        state = GaussianModeState(n_th=0.0, r=1.46)
        assert ergotropy_analytic(state, 1.0) == pytest.approx(
            math.sinh(1.46) ** 2, rel=1e-14
        )
        assert ergotropy_analytic(state, 1.0) == pytest.approx(4.1488052867618065, rel=1e-12)

    def test_passive_energy_identity(self):
        # energy - ergotropy = thermal energy of the underlying Gibbs state
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = GaussianModeState(
                n_th=rng.uniform(0, 5),
                r=rng.uniform(0, 1.5),
                alpha=rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            )
            omega = rng.uniform(0.5, 50)
            lhs = state_energy(state, omega) - ergotropy_analytic(state, omega)
            assert lhs == pytest.approx(oscillator_energy(omega, state.n_th), rel=1e-12)


class TestNonclassicality:
    def test_quoted_operating_points(self):
        assert is_nonclassical(GaussianModeState(n_th=0.5, r=0.4))
        assert not is_nonclassical(GaussianModeState(n_th=9.5, r=1.46))
        assert not is_nonclassical(GaussianModeState(n_th=0.0, alpha=5.0))

    def test_thresholds(self):
        assert nonclassicality_threshold(0.4) == pytest.approx(0.6127704642462338, rel=1e-12)
        assert nonclassicality_threshold(1.46) == pytest.approx(8.7706437298734349, rel=1e-12)

    @pytest.mark.parametrize("r", [0.4, 1.46])
    def test_verdict_flips_exactly_at_threshold(self, r):
        threshold = nonclassicality_threshold(r)
        assert is_nonclassical(GaussianModeState(n_th=threshold - 1e-9, r=r))
        assert not is_nonclassical(GaussianModeState(n_th=threshold + 1e-9, r=r))
        assert not is_nonclassical(GaussianModeState(n_th=threshold, r=r))

    def test_unsqueezed_never_nonclassical(self):
        assert not is_nonclassical(GaussianModeState(n_th=0.0))


class TestValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            GaussianModeState(n_th=-0.1)
        with pytest.raises(ValueError):
            GaussianModeState(n_th=0.1, r=-0.2)
        with pytest.raises(ValueError):
            GaussianModeState(0.1, squeeze_phase=math.inf)
        with pytest.raises(ValueError):
            nonclassicality_threshold(-1.0)

    def test_passivity_flag(self):
        assert GaussianModeState(1.0).is_passive
        assert not GaussianModeState(1.0, r=0.1).is_passive
        assert not GaussianModeState(1.0, alpha=1e-3).is_passive
