"""Scalar primitives against a high-precision mpmath oracle and their invariants."""

import math

import mpmath as mp
import numpy as np
import pytest

from otto_forge import (
    fictitious_temperature,
    invert_occupation,
    occupation,
    oscillator_energy,
    thermal_entropy,
)

mp.mp.dps = 40


def mp_occupation(omega, temperature):
    if temperature == 0:
        return mp.mpf(0)
    return 1 / mp.expm1(mp.mpf(omega) / mp.mpf(temperature))


def mp_entropy(n):
    n = mp.mpf(n)
    if n == 0:
        return mp.mpf(0)
    return (n + 1) * mp.log(n + 1) - n * mp.log(n)


class TestOccupation:
    @pytest.mark.parametrize(
        "omega,temperature",
        [(20.0, 10.0), (7.0, 2.0), (3.0, 2.0), (1.0, 50.0), (100.0, 0.3)],
    )
    def test_matches_high_precision(self, omega, temperature):
        expected = float(mp_occupation(omega, temperature))
        assert occupation(omega, temperature) == pytest.approx(expected, rel=1e-14)

    def test_reference_values(self):
        # frozen from the 40-digit evaluation above
        assert occupation(20, 10) == pytest.approx(0.15651764274966565, rel=1e-12)
        assert occupation(7, 2) == pytest.approx(0.031137659257799786, rel=1e-12)

    def test_zero_temperature_is_exact(self):
        assert occupation(7, 0) == 0.0

    def test_huge_exponent_does_not_overflow(self):
        assert occupation(100.0, 0.01) == 0.0
        assert 0.0 <= occupation(100.0, 0.14) < 1e-300

    def test_strictly_decreasing_in_omega(self):
        omegas = np.linspace(0.5, 50, 200)
        values = [occupation(w, 10.0) for w in omegas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_temperature(self):
        temps = np.linspace(0.1, 100, 200)
        values = [occupation(5.0, t) for t in temps]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            occupation(1.0, -0.5)


class TestInvertOccupation:
    def test_zero_occupation_maps_to_zero_temperature(self):
        assert invert_occupation(20, 0.0) == 0.0

    def test_reference_value(self):
        expected = float(20 / mp.log(1 + 1 / mp.mpf("0.51307")))
        assert invert_occupation(20, 0.51307) == pytest.approx(expected, rel=1e-14)
        assert invert_occupation(20, 0.51307) == pytest.approx(18.493112914385006, rel=1e-12)

    def test_round_trip_identity(self):
        # relative error < 1e-9 across twelve decades; omega chosen per
        # temperature so exp(omega/T) stays within double range
        temps = np.logspace(-3, 6, 120)
        for temperature in temps:
            for omega in (0.5, 1.0, 7.0, 20.0):
                if omega / temperature > 600:
                    continue
                n = occupation(omega, temperature)
                assert invert_occupation(omega, n) == pytest.approx(
                    temperature, rel=1e-9
                )

    def test_round_trip_other_direction(self):
        for n in np.logspace(-6, 4, 60):
            t = invert_occupation(5.0, n)
            assert occupation(5.0, t) == pytest.approx(n, rel=1e-12)


class TestOscillatorEnergy:
    def test_zero_point(self):
        assert oscillator_energy(20, 0.0) == 10.0

    def test_reference_values(self):
        assert oscillator_energy(7, 0.031137659257799786) == pytest.approx(
            3.7179636148045985, rel=1e-14
        )
        assert oscillator_energy(20, 0.15651764274966565) == pytest.approx(
            13.130352854993313, rel=1e-14
        )


class TestFictitiousTemperature:
    def test_zero_excess_recovers_bath_temperature(self):
        n2 = occupation(20, 10)
        assert fictitious_temperature(20, n2, 0.0) == pytest.approx(10.0, rel=1e-12)

    def test_squeezed_bath_reference_value(self):
        n2 = occupation(20, 10)
        dn = (2 * n2 + 1) * math.sinh(0.5) ** 2
        assert fictitious_temperature(20, n2, dn) == pytest.approx(
            18.492885176173072, rel=1e-12
        )

    def test_zero_excitation(self):
        assert fictitious_temperature(20, 0.0, 0.0) == 0.0

    def test_exceeds_bath_temperature_for_positive_excess(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            omega2 = rng.uniform(0.5, 80)
            t2 = rng.uniform(0.1, 50)
            dn = rng.uniform(1e-12, 3.0)
            n2 = occupation(omega2, t2)
            assert fictitious_temperature(omega2, n2, dn) > t2

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            fictitious_temperature(20, 0.1, -0.2)
        with pytest.raises(ValueError):
            fictitious_temperature(20, 0.1, math.nan)

    def test_engine_condition_equivalence(self):
        # occupation(w1, T1) <= n2 + dn  iff  w1/w2 >= T1/Theta
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            omega2 = rng.uniform(1.0, 100.0)
            omega1 = rng.uniform(1e-3, 1.0) * omega2
            t2 = rng.uniform(0.1, 50.0)
            t1 = rng.uniform(0.0, 1.0) * t2
            dn = rng.uniform(0.0, 2.0)
            n2 = occupation(omega2, t2)
            if n2 + dn == 0.0:
                continue
            theta = fictitious_temperature(omega2, n2, dn)
            lhs = occupation(omega1, t1) <= n2 + dn
            rhs = omega1 / omega2 >= t1 / theta
            assert lhs == rhs


class TestThermalEntropy:
    def test_pure_state(self):
        assert thermal_entropy(0.0) == 0.0

    def test_closed_form_at_one(self):
        assert thermal_entropy(1.0) == pytest.approx(2 * math.log(2), rel=1e-15)

    def test_matches_high_precision(self):
        n = 0.15651764274966565
        assert thermal_entropy(n) == pytest.approx(float(mp_entropy(n)), rel=1e-14)
        assert thermal_entropy(n) == pytest.approx(0.45844874336819036, rel=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 20.0, 400)
        values = [thermal_entropy(n) for n in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            thermal_entropy(-1e-9)
