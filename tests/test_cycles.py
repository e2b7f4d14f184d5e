"""Stroke ledgers: worked reference points, regime tags, law audits, invariants.

Reference energies are frozen from 40-digit evaluations of the endpoint
formulas (occupations from the Bose-Einstein law, energies omega (n + 1/2)),
computed independently of the ledger code. The stroke-2 split into work and
heat is additionally cross-checked against the Fock oracle.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_forge import (
    CycleConfig,
    CycleKind,
    DisplacedThermalBath,
    GaussianModeState,
    InvalidExcess,
    NotApplicable,
    RegimeTag,
    SecondKindBath,
    SqueezedDisplacedBath,
    SqueezedThermalBath,
    StrokeLedger,
    ThermalBath,
    audit_laws,
    build_fock_density,
    classify_regime,
    delta_n,
    ergotropy_analytic,
    fictitious_temperature,
    modified_cycle,
    occupation,
    second_kind_cycle,
    standard_cycle,
    thermal_entropy,
)
from otto_forge import cycles
from otto_forge.cycles import (
    APPLICABLE_BATHS,
    ROW_ERRORS,
    cycle_columns,
    excess_excitation_column,
    invert_occupation_column,
    ledger_columns,
    occupation_column,
    rowwise,
)
from otto_forge.gaussian import excess_excitation
from otto_forge.thermo import invert_occupation

# occupations at the worked parameter point omega1=7, omega2=20, T1=2, T2=10
N1 = 0.031137659257799786
N2 = 0.15651764274966565
DN_R05 = 0.35654201819189585  # (2 N2 + 1) sinh^2(0.5)

FIG5 = dict(omega1=7, omega2=20, t1=2, t2=10)


def fig5_config(bath):
    return CycleConfig(bath=bath, **FIG5)


FIRST_KIND_BATHS = [ThermalBath, SqueezedThermalBath, DisplacedThermalBath, SqueezedDisplacedBath]


def field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


def first_kind_bath(cls, r=0.5, alpha=1 + 1j):
    """A `cls` bath given those of r and alpha that are its fields."""
    values = {"r": r, "alpha": alpha}
    return cls(**{name: values[name] for name in field_names(cls)})


class TestFirstKindBaths:
    """Each first-kind bath checks the r and alpha it takes; the others are class constants."""

    @pytest.mark.parametrize("cls", FIRST_KIND_BATHS)
    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
    def test_squeezing_must_be_finite_and_non_negative(self, cls, r):
        if "r" not in field_names(cls):
            assert first_kind_bath(cls, r=r).r == 0.0
            return
        message = f"squeezing amplitude must be non-negative, got {r!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            first_kind_bath(cls, r=r)

    @pytest.mark.parametrize("cls", FIRST_KIND_BATHS)
    @pytest.mark.parametrize("alpha", [
        complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, 0.0),
        complex(0.0, -math.inf),
    ])
    def test_displacement_must_be_finite(self, cls, alpha):
        if "alpha" not in field_names(cls):
            assert first_kind_bath(cls, alpha=alpha).alpha == 0j
            return
        with pytest.raises(ValueError, match=re.escape(f"displacement must be finite, got {alpha!r}")):
            first_kind_bath(cls, alpha=alpha)

    def test_squeezing_is_checked_before_displacement(self):
        with pytest.raises(ValueError, match="squeezing amplitude"):
            SqueezedDisplacedBath(-1.0, complex(math.nan, 0.0))

    @pytest.mark.parametrize("cls", [DisplacedThermalBath, SqueezedDisplacedBath])
    def test_displacement_is_coerced_to_complex(self, cls):
        bath = first_kind_bath(cls, alpha=2)
        assert type(bath.alpha) is complex and bath.alpha == 2 + 0j
        assert bath == first_kind_bath(cls, alpha=2 + 0j)
        assert repr(bath).endswith("alpha=(2+0j))")

    def test_constants_stay_on_the_class(self):
        assert repr(ThermalBath()) == "ThermalBath()" and ThermalBath() == ThermalBath()
        assert repr(SqueezedThermalBath(0.5)) == "SqueezedThermalBath(r=0.5)"
        assert vars(ThermalBath()) == {} and vars(SqueezedThermalBath(0.5)) == {"r": 0.5}
        assert vars(DisplacedThermalBath(1j)) == {"alpha": 1j}


@pytest.mark.parametrize("omega1, omega2, t1, t2, message", [
    (0.0, 2.0, 1.0, 2.0, "omega1 must be positive, got 0.0"),
    (1.0, math.nan, 1.0, 2.0, "omega2 must be positive, got nan"),
    (1.0, -2.0, 1.0, 2.0, "omega2 must be positive, got -2.0"),
    (3.0, 2.0, 1.0, 2.0, "omega1 must not exceed omega2 (compression stroke)"),
    (1.0, 2.0, -1.0, 2.0, "t1 must be non-negative, got -1.0"),
    (1.0, 2.0, 1.0, math.inf, "t2 must be non-negative, got inf"),
    (1.0, 2.0, 3.0, 2.0, "t1 must not exceed t2 (cold bath is the colder one)"),
])
def test_cycle_config_rejects_invalid_parameters(omega1, omega2, t1, t2, message):
    with pytest.raises(ValueError) as info:
        CycleConfig(omega1, omega2, t1, t2, ThermalBath())
    assert str(info.value) == message


class TestStandardCycle:
    def test_thermal_reference_ledger(self):
        ledger = standard_cycle(fig5_config(ThermalBath()))
        assert ledger.w1 == pytest.approx(6.9047895703513972, rel=1e-12)
        assert ledger.e2 == pytest.approx(2.5075996698373173, rel=1e-12)
        assert ledger.w3 == pytest.approx(-8.5347293557456535, rel=1e-12)
        assert ledger.e4 == pytest.approx(-0.87765988444306106, rel=1e-12)
        assert ledger.eta == pytest.approx(0.65, abs=1e-12)
        assert ledger.regime is RegimeTag.SUB_CARNOT_HYBRID_ENGINE

    def test_thermal_bath_gives_no_work(self):
        ledger = standard_cycle(fig5_config(ThermalBath()))
        assert ledger.w2 == 0.0
        assert ledger.q2 == ledger.e2

    def test_split_identities_exact(self):
        ledger = standard_cycle(fig5_config(SqueezedThermalBath(0.5)))
        assert ledger.e2 == ledger.w2 + ledger.q2
        assert ledger.e4 == ledger.w4 + ledger.q4

    def test_efficiency_is_frequency_ratio_law(self):
        for r in (0.0, 0.3, 1.2):
            ledger = standard_cycle(fig5_config(SqueezedThermalBath(r)))
            assert ledger.eta == pytest.approx(1 - 7 / 20, abs=1e-12)

    def test_heat_is_bath_independent(self):
        # the non-thermal bath delivers the same heat as the thermal one
        thermal = standard_cycle(fig5_config(ThermalBath()))
        squeezed = standard_cycle(fig5_config(SqueezedThermalBath(0.5)))
        assert squeezed.q2 == pytest.approx(thermal.q2, rel=1e-12)
        assert squeezed.q4 == pytest.approx(thermal.q4, rel=1e-12)

    def test_stroke2_work_is_wf_ergotropy(self):
        # mapping onto "thermal bath + external work source": E2 - Q2 equals
        # the ergotropy of the stroke-2 working-fluid state
        bath = SqueezedDisplacedBath(r=0.4, alpha=0.8 + 0.5j)
        ledger = standard_cycle(fig5_config(bath))
        state = GaussianModeState(n_th=N2, r=0.4, alpha=0.8 + 0.5j)
        assert ledger.e2 - ledger.q2 == pytest.approx(
            ergotropy_analytic(state, 20), rel=1e-12
        )

    def test_stroke2_energies_match_fock_oracle(self):
        ledger = standard_cycle(fig5_config(SqueezedThermalBath(0.5)))
        density = build_fock_density(GaussianModeState(N2, r=0.5), cutoff=96)
        e_b = 20 * (N1 + 0.5)
        assert ledger.e2 == pytest.approx(density.mean_energy(20.0) - e_b, rel=1e-9)

    def test_zero_temperature_mechanical_engine(self):
        config = CycleConfig(1, 2, 0, 0, SqueezedThermalBath(0.5))
        ledger = standard_cycle(config)
        assert ledger.net_work == pytest.approx(-math.sinh(0.5) ** 2, abs=1e-12)
        assert ledger.q2 == 0.0
        assert ledger.q4 == 0.0
        assert ledger.eta == pytest.approx(0.5, abs=1e-12)

    def test_not_engine_below_carnot_ratio(self):
        config = CycleConfig(1, 20, 2, 10, ThermalBath())  # ratio 0.05 < 0.2
        ledger = standard_cycle(config)
        assert ledger.regime is RegimeTag.NOT_ENGINE
        assert ledger.eta is None
        assert "not an engine" in ledger.eta_reason

    def test_degenerate_cycle_keeps_ledger(self):
        config = CycleConfig(1, 2, 0, 0, ThermalBath())
        ledger = standard_cycle(config)
        assert ledger.eta is None
        assert "degenerate" in ledger.eta_reason
        assert ledger.regime is RegimeTag.SUB_CARNOT_HYBRID_ENGINE  # engine side of the tie

    def test_second_kind_bath_rejected(self):
        with pytest.raises(NotApplicable):
            standard_cycle(fig5_config(SecondKindBath(excess=0.1)))


class TestModifiedCycle:
    def test_efficiency_reference_point(self):
        # bath squeezing chosen so the stroke-2 excess is exactly 0.1
        r = math.asinh(math.sqrt(0.1 / (2 * N2 + 1)))
        ledger = modified_cycle(fig5_config(SqueezedThermalBath(r)))
        assert ledger.eta == pytest.approx(0.80529329383087463, abs=1e-9)
        assert ledger.eta > 0.65
        assert ledger.regime is RegimeTag.SUB_CARNOT_HYBRID_ENGINE
        assert ledger.cop is None

    def test_small_excess_limit_recovers_otto_efficiency(self):
        ledger = modified_cycle(fig5_config(SqueezedThermalBath(1e-8)))
        assert ledger.eta == pytest.approx(0.65, abs=1e-7)

    def test_stroke3_split(self):
        ledger = modified_cycle(fig5_config(SqueezedThermalBath(0.5)))
        assert ledger.w3 == ledger.w3_prime
        assert ledger.w3_prime == ledger.w3_th + ledger.w3_nonpas
        assert ledger.w3_nonpas == -ledger.w2
        assert ledger.w3_th == pytest.approx((7 - 20) * (N2 + 0.5), rel=1e-12)

    def test_dual_action_reference_point(self):
        config = CycleConfig(3, 20, 2, 10, SqueezedThermalBath(0.5))
        ledger = modified_cycle(config)
        assert ledger.regime is RegimeTag.DUAL_ENGINE_REFRIGERATOR
        assert ledger.eta == 1.0
        assert ledger.cop == pytest.approx(3 / 17, rel=1e-14)
        assert ledger.cop <= 2 / 8  # Carnot COP at T1=2, T2=10
        assert ledger.q4 > 0.0

    def test_dual_action_identities(self):
        config = CycleConfig(3, 20, 2, 10, DisplacedThermalBath(0.9))
        ledger = modified_cycle(config)
        scale = ledger.energy_scale
        # declared efficiency agrees with -(W1+W3')/(E2+Q4)
        assert -(ledger.w1 + ledger.w3_prime) == pytest.approx(
            ledger.e2 + ledger.q4, abs=1e-12 * scale
        )
        # work balance -W2 + W_inv = W1 + W3'
        assert -ledger.w2 + ledger.w_inv == pytest.approx(
            ledger.w1 + ledger.w3_prime, abs=1e-12 * scale
        )
        assert ledger.w_inv == pytest.approx((20 - 3) * (N1_3 - N2), rel=1e-12)

    def test_refrigeration_without_engine_action(self):
        # n2 < n1 but the excess is too small to pay for the expansion loss
        config = CycleConfig(1, 100, 50, 50, SqueezedThermalBath(0.3))
        ledger = modified_cycle(config)
        assert ledger.regime is RegimeTag.NOT_ENGINE
        assert ledger.eta is None
        assert "consumes piston work" in ledger.eta_reason
        assert ledger.q4 > 0.0
        assert ledger.cop == pytest.approx(1 / 99, rel=1e-14)

    def test_zero_excess_returns_flagged_standard_ledger(self):
        ledger = modified_cycle(fig5_config(SqueezedThermalBath(0.0)))
        assert ledger.kind is CycleKind.STANDARD
        assert "nothing to undo" in ledger.note
        assert ledger.eta == pytest.approx(0.65, abs=1e-12)

    def test_inapplicable_baths(self):
        with pytest.raises(NotApplicable):
            modified_cycle(fig5_config(ThermalBath()))
        with pytest.raises(NotApplicable):
            modified_cycle(fig5_config(SecondKindBath(excess=0.3)))


N1_3 = 0.28721691678886824  # occupation(3, 2)


class TestSecondKindCycle:
    def test_zero_excess_matches_thermal_standard(self):
        second = second_kind_cycle(fig5_config(SecondKindBath(excess=0.0)))
        thermal = standard_cycle(fig5_config(ThermalBath()))
        for field in ("w1", "w2", "w3", "w4", "q2", "q4", "e2", "e4"):
            assert getattr(second, field) == pytest.approx(
                getattr(thermal, field), abs=1e-12
            )
        assert second.eta == pytest.approx(thermal.eta, abs=1e-12)

    def test_real_temperature_and_carnot_bound(self):
        ledger = second_kind_cycle(fig5_config(SecondKindBath(excess=DN_R05)))
        law = audit_laws(ledger, fig5_config(SecondKindBath(excess=DN_R05)))
        assert law.hot_temperature == pytest.approx(18.492885176173072, rel=1e-12)
        assert ledger.eta == pytest.approx(0.65, abs=1e-12)
        assert ledger.eta <= 1 - 2 / 18.492885176173072 + 1e-12
        assert ledger.regime is RegimeTag.GENUINE_HEAT_ENGINE
        assert ledger.w2 == 0.0 and ledger.w4 == 0.0
        assert ledger.q2 == ledger.e2 and ledger.q4 == ledger.e4

    def test_t_real_parameterisation_is_equivalent(self):
        by_excess = second_kind_cycle(fig5_config(SecondKindBath(excess=DN_R05)))
        by_temp = second_kind_cycle(
            fig5_config(SecondKindBath(t_real=18.492885176173072))
        )
        assert by_temp.e2 == pytest.approx(by_excess.e2, rel=1e-9)
        assert by_temp.eta == pytest.approx(by_excess.eta, abs=1e-12)

    def test_negative_excess_cools_the_wf(self):
        config = fig5_config(SecondKindBath(excess=-0.05))
        ledger = second_kind_cycle(config)
        law = audit_laws(ledger, config)
        assert law.hot_temperature < 10.0

    def test_invalid_excess(self):
        with pytest.raises(InvalidExcess):
            second_kind_cycle(fig5_config(SecondKindBath(excess=-0.2)))

    def test_bath_validation(self):
        with pytest.raises(ValueError):
            SecondKindBath()
        with pytest.raises(ValueError):
            SecondKindBath(excess=0.1, t_real=5.0)
        with pytest.raises(ValueError):
            SecondKindBath(excess=math.nan)
        with pytest.raises(ValueError):
            SecondKindBath(t_real=-1.0)
        with pytest.raises(NotApplicable):
            second_kind_cycle(fig5_config(ThermalBath()))


class TestClassifyRegime:
    def test_sub_carnot_point(self):
        # ratio 0.35 above T1/T2 = 0.2
        config = CycleConfig(7, 20, 2, 10, SqueezedThermalBath(0.5))
        ledger = standard_cycle(config)
        assert classify_regime(config, ledger) is RegimeTag.SUB_CARNOT_HYBRID_ENGINE

    def test_super_carnot_point_is_heat_pump(self):
        # ratio 0.15 between T1/Theta and T1/T2 = 0.2; the engine dumps heat
        # into the hot bath while net energy still flows into the cold bath
        r = math.asinh(math.sqrt(0.2 / (2 * N2 + 1)))
        config = CycleConfig(3, 20, 2, 10, SqueezedThermalBath(r))
        ledger = standard_cycle(config)
        assert occupation(3, 2) <= N2 + 0.2 + 1e-12
        assert ledger.q2 < 0.0
        assert ledger.e4 < 0.0
        assert classify_regime(config, ledger) is RegimeTag.SUPER_CARNOT_ENGINE_HEAT_PUMP

    def test_below_carnot_ratio_thermal_is_not_engine(self):
        config = CycleConfig(2, 20, 2, 10, ThermalBath())  # ratio 0.1 < 0.2
        ledger = standard_cycle(config)
        assert classify_regime(config, ledger) is RegimeTag.NOT_ENGINE

    def test_matches_ledger_tags_across_kinds(self):
        configs = [
            fig5_config(SqueezedThermalBath(0.5)),
            CycleConfig(3, 20, 2, 10, SqueezedThermalBath(0.5)),
            fig5_config(SecondKindBath(excess=0.3)),
        ]
        cycles = [standard_cycle, modified_cycle, second_kind_cycle]
        for config, cycle in zip(configs, cycles):
            ledger = cycle(config)
            assert classify_regime(config, ledger) is ledger.regime


class TestAuditLaws:
    def test_first_law_reference(self):
        config = fig5_config(ThermalBath())
        law = audit_laws(standard_cycle(config), config)
        assert law.first_law_residual < 1e-9

    def test_clausius_reference_value(self):
        config = CycleConfig(3, 20, 2, 10, ThermalBath())
        law = audit_laws(standard_cycle(config), config)
        assert law.clausius_sum == pytest.approx(-0.065349637019601296, rel=1e-9)
        assert law.clausius_sum <= 0.0

    def test_zero_temperature_skips_clausius(self):
        config = CycleConfig(1, 2, 0, 0, SqueezedThermalBath(0.5))
        law = audit_laws(standard_cycle(config), config)
        assert law.clausius_sum is None
        assert "zero temperature" in law.clausius_skipped
        assert law.first_law_residual < 1e-9


def assert_entropy_inequality(n1, n_hot, q2, hot):
    """The fluid's stroke-2 entropy gain S(n_hot) - S(n1) >= Q2/T_hot, where T_hot > 0.

    S is concave with S'(n_hot) = omega2/T_hot, so this is its tangent-line
    inequality, and it holds on every ledger the kernel produces.
    """
    if hot > 0.0:
        assert thermal_entropy(n_hot) - thermal_entropy(n1) >= q2 / hot - 1e-12


class TestRandomizedInvariants:
    """Seeded random sampling over the documented parameter ranges."""

    def _random_config(self, rng, bath_kinds=("thermal", "squeezed", "displaced", "both")):
        omega2 = rng.uniform(1.0, 100.0)
        omega1 = rng.uniform(1e-6, 1.0) * omega2
        t2 = rng.uniform(0.0, 50.0)
        t1 = rng.uniform(0.0, 1.0) * t2
        kind = bath_kinds[rng.integers(len(bath_kinds))]
        r = rng.uniform(0.0, 1.5)
        alpha = rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        bath = {
            "thermal": ThermalBath(),
            "squeezed": SqueezedThermalBath(r),
            "displaced": DisplacedThermalBath(alpha),
            "both": SqueezedDisplacedBath(r, alpha),
        }[kind]
        return CycleConfig(omega1, omega2, t1, t2, bath)

    def test_first_law_closure_and_clausius(self):
        rng = np.random.default_rng(101)
        for _ in range(2000):
            config = self._random_config(rng)
            ledger = standard_cycle(config)
            law = audit_laws(ledger, config)
            assert law.first_law_residual < 1e-9
            if law.clausius_sum is not None:
                assert law.clausius_sum <= 1e-12
            n1, n2 = occupation(config.omega1, config.t1), occupation(config.omega2, config.t2)
            assert_entropy_inequality(n1, n2, ledger.q2, law.hot_temperature)

    def test_engine_efficiency_identity(self):
        rng = np.random.default_rng(202)
        engines = 0
        for _ in range(2000):
            config = self._random_config(rng)
            ledger = standard_cycle(config)
            if ledger.eta is not None:
                engines += 1
                assert abs(ledger.eta - (1 - config.omega1 / config.omega2)) <= 1e-12
        assert engines > 200

    def test_bound_ordering(self):
        # the fictitious-excitation bound exceeds Carnot whenever dn > 0
        rng = np.random.default_rng(303)
        for _ in range(500):
            omega2 = rng.uniform(1.0, 100.0)
            t2 = rng.uniform(0.5, 50.0)
            t1 = rng.uniform(0.1, 1.0) * t2
            dn = rng.uniform(1e-9, 3.0)
            n2 = occupation(omega2, t2)
            theta = fictitious_temperature(omega2, n2, dn)
            assert 1 - t1 / theta > 1 - t1 / t2

    def test_modified_cycle_dominates_standard(self):
        rng = np.random.default_rng(404)
        seen = 0
        while seen < 300:
            config = self._random_config(rng, bath_kinds=("squeezed", "displaced", "both"))
            n1 = occupation(config.omega1, config.t1)
            n2 = occupation(config.omega2, config.t2)
            if n2 < n1:
                continue
            ledger = modified_cycle(config)
            if ledger.note is not None:
                continue  # delta_n = 0 fallback
            assert ledger.eta >= 1 - config.omega1 / config.omega2 - 1e-12
            assert ledger.eta <= 1.0 + 1e-15
            seen += 1

    def test_dual_regime_identities_hold_everywhere(self):
        rng = np.random.default_rng(505)
        duals = 0
        for _ in range(4000):
            config = self._random_config(rng, bath_kinds=("squeezed", "displaced", "both"))
            if delta_n(
                GaussianModeState(
                    occupation(config.omega2, config.t2),
                    getattr(config.bath, "r", 0.0),
                    getattr(config.bath, "alpha", 0.0),
                )
            ) == 0.0:
                continue
            ledger = modified_cycle(config)
            if ledger.regime is not RegimeTag.DUAL_ENGINE_REFRIGERATOR:
                continue
            duals += 1
            scale = ledger.energy_scale
            assert ledger.eta == 1.0
            assert -(ledger.w1 + ledger.w3_prime) / (ledger.e2 + ledger.q4) == pytest.approx(
                1.0, abs=1e-12
            )
            assert ledger.cop == pytest.approx(
                config.omega1 / (config.omega2 - config.omega1), rel=1e-12
            )
            if config.t2 > config.t1:
                assert ledger.cop <= config.t1 / (config.t2 - config.t1) + 1e-12
            assert -ledger.w2 + ledger.w_inv == pytest.approx(
                ledger.w1 + ledger.w3_prime, abs=1e-12 * scale
            )
        assert duals > 100

    def test_second_kind_carnot_bound(self):
        rng = np.random.default_rng(606)
        engines = 0
        for _ in range(2000):
            omega2 = rng.uniform(1.0, 100.0)
            omega1 = rng.uniform(1e-6, 1.0) * omega2
            t2 = rng.uniform(0.0, 50.0)
            t1 = rng.uniform(0.0, 1.0) * t2
            n2 = occupation(omega2, t2)
            excess = rng.uniform(0.0, 1.0) * (n2 + 2.0) - n2
            config = CycleConfig(omega1, omega2, t1, t2, SecondKindBath(excess=excess))
            ledger = second_kind_cycle(config)
            law = audit_laws(ledger, config)
            assert law.first_law_residual < 1e-9
            if law.clausius_sum is not None:
                assert law.clausius_sum <= 1e-12
            n1 = occupation(omega1, t1)
            assert_entropy_inequality(n1, n2 + excess, ledger.q2, law.hot_temperature)
            if ledger.eta is not None and law.hot_temperature > 0.0:
                engines += 1
                assert ledger.eta <= 1 - t1 / law.hot_temperature + 1e-12
        assert engines > 200


class TestColumnKernel:
    """One n-row kernel call against n size-1 evaluations, row by row."""

    @staticmethod
    @st.composite
    def configs(draw, kind):
        omega2 = draw(st.sampled_from([1.0, 20.0]) | st.floats(0.1, 100.0))
        t2 = draw(st.just(0.0) | st.floats(0.0, 50.0))
        if draw(st.booleans()):  # a tie: n1 = n2
            omega1, t1 = omega2, t2
        else:
            omega1 = omega2 * draw(st.floats(1e-6, 1.0))
            t1 = t2 * draw(st.just(0.0) | st.floats(0.0, 1.0))
        if kind is CycleKind.SECOND_KIND:
            n2 = occupation(omega2, t2)
            if draw(st.booleans()):
                bath = SecondKindBath(t_real=draw(st.floats(0.0, 100.0)))
            else:
                # includes excesses below -n2, which InvalidExcess refuses
                excess = draw(st.sampled_from([0.0, -n2, -n2 - 0.1, 1e308]) | st.floats(-1.0, 3.0))
                bath = SecondKindBath(excess=excess)
        else:
            r = draw(st.sampled_from([0.0, 355.0]) | st.floats(0.0, 1.5))  # 355: W2 overflows
            alpha = complex(draw(st.just(0.0) | st.floats(-3.0, 3.0)),
                            draw(st.just(0.0) | st.floats(-3.0, 3.0)))
            bath_kind = draw(st.sampled_from(APPLICABLE_BATHS[kind]))
            bath = {
                ThermalBath: lambda: ThermalBath(),
                SqueezedThermalBath: lambda: SqueezedThermalBath(r),
                DisplacedThermalBath: lambda: DisplacedThermalBath(alpha),
                SqueezedDisplacedBath: lambda: SqueezedDisplacedBath(r, alpha),
            }[bath_kind]()
        return CycleConfig(omega1, omega2, t1, t2, bath)

    @staticmethod
    def outcome(evaluate):
        """repr of the result (bit-exact for floats, with its None pattern) or the error."""
        try:
            return repr(evaluate())
        except ROW_ERRORS as exc:
            return f"{type(exc).__name__}: {exc}"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_match_size_one_evaluations(self, data):
        kind = data.draw(st.sampled_from(list(CycleKind)))
        configs = data.draw(st.lists(self.configs(kind), min_size=1, max_size=12))
        dn = [c.bath.excess_for(c.omega2, c.t2) for c in configs]
        columns = ledger_columns(
            kind,
            *([getattr(c, name) for c in configs] for name in ("omega1", "omega2", "t1", "t2")),
            dn,
        )
        assert len(columns) == len(configs)
        for i, config in enumerate(configs):
            single = self.outcome(lambda: cycle_columns(kind, config).ledger(0))
            assert self.outcome(lambda: columns.ledger(i)) == single
            if not single.startswith(StrokeLedger.__name__):
                continue
            ledger = cycle_columns(kind, config).ledger(0)
            assert repr(columns.law(i)) == repr(audit_laws(ledger, config))


    # (omega1, omega2, T1, T2, delta_n): an ordinary row; T1 = 0 and T1 = T2 = 0;
    # omega1/T1, then both ratios, underflowing to 0, where expm1 is 0 and the
    # occupation raises; 1/expm1 of a subnormal, n1 = inf; an overflowing W2;
    # and excesses below -n2, which a second-kind ledger refuses
    EDGE_ROWS = [
        (7.0, 20.0, 2.0, 10.0, 0.3), (7.0, 20.0, 0.0, 10.0, 0.3), (7.0, 20.0, 0.0, 0.0, 0.3),
        (5e-324, 20.0, 10.0, 10.0, 0.3), (5e-324, 5e-324, 10.0, 10.0, 0.3),
        (5e-324, 20.0, 1.0, 10.0, 0.3), (7.0, 20.0, 2.0, 10.0, 1e308),
        (7.0, 20.0, 2.0, 10.0, -1.0), (7.0, 20.0, 0.0, 0.0, -1e-300),
    ]

    @pytest.mark.parametrize("kind", list(CycleKind))
    def test_precomputed_occupations_change_nothing(self, kind):
        omega1, omega2, t1, t2, dn = map(np.array, zip(*self.EDGE_ROWS))

        def evaluate(precomputed):
            errors = np.full(len(dn), None, dtype=object)
            occupations = {}
            if precomputed:  # in the kernel's order, failures recorded in `errors`
                occupations = dict(n1=occupation_column(omega1, t1, errors),
                                   n2=occupation_column(omega2, t2, errors))
            return ledger_columns(kind, omega1, omega2, t1, t2, dn, errors, **occupations)

        given, computed = evaluate(True), evaluate(False)
        for field in dataclasses.fields(cycles.LedgerColumns):
            if field.name not in ("kind", "errors"):
                assert (getattr(given, field.name).tobytes()
                        == getattr(computed, field.name).tobytes()), field.name
        outcomes = [[None if exc is None else (type(exc), str(exc)) for exc in columns.errors]
                    for columns in (given, computed)]
        assert outcomes[0] == outcomes[1]
        raised = {outcome[0] for outcome in outcomes[0] if outcome is not None}
        expected = {ZeroDivisionError, OverflowError}
        assert raised == (expected | {InvalidExcess} if kind is CycleKind.SECOND_KIND else expected)


class TestColumnForms:
    """The column forms of occupation, invert_occupation and excess_excitation, row by row."""

    # zeros, subnormals, the smallest normal, omega/T either side of 709, the
    # edges of sinh's and the square's range, the double range, and
    # non-finite and negative values
    SPECIAL = (0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.5, 1.0,
               708.9999999999999, 709.0, 709.0000000000001, 710.0, 710.4758600739439,
               711.0, 355.0, 356.0, 1e153, 1e154, 1.4e154, 1e308, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan, -1.0, -5e-324)
    numbers = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
    ENTRY = InvalidExcess("failed on entry")

    @staticmethod
    @st.composite
    def ratio_pairs(draw):
        """(omega, T): either drawn apart, or omega = T * a ratio near 709."""
        t = draw(TestColumnForms.numbers)
        if draw(st.booleans()):
            ratio = draw(st.sampled_from([708.9999999999999, 709.0, 709.0000000000001, 710.0]))
            return (t * ratio, t)
        return (draw(TestColumnForms.numbers), t)

    def check(self, column_form, scalar, rows, shared=(), entry=()):
        """column_form against `scalar` on `rows`: the columns in `shared` are passed as
        the first row's value alone, the rows in `entry` have failed on entry."""
        rows = [list(row) for row in rows]
        width = len(rows[0])
        for j in shared:
            for row in rows[1:]:
                row[j] = rows[0][j]
        columns = [rows[0][j] if j in shared else [row[j] for row in rows] for j in range(width)]
        errors = np.full(len(rows), None, dtype=object)
        errors[list(entry)] = self.ENTRY
        values = column_form(*columns, errors)
        assert values.shape == (len(rows),)
        for i, args in enumerate(rows):
            try:
                expected, raised = scalar(*args), None
            except ROW_ERRORS as exc:
                expected, raised = math.nan, exc
            assert repr(values[i].item()) == repr(expected), args
            if i in entry:
                assert errors[i] is self.ENTRY
            elif raised is None:
                assert errors[i] is None, args
            else:
                assert (type(errors[i]), str(errors[i])) == (type(raised), str(raised)), args

    def draw_check(self, data, column_form, scalar, rows):
        """`check` with drawn broadcast columns and rows failed on entry."""
        width, n = len(rows[0]), len(rows)
        shared = data.draw(st.sets(st.integers(0, width - 1), max_size=width))
        entry = data.draw(st.sets(st.integers(0, n - 1)))
        self.check(column_form, scalar, rows, shared, entry)

    def test_special_values(self):
        """Every pair of special values in one column, and each row failed on entry too."""
        pairs = [(a, b) for a in self.SPECIAL for b in self.SPECIAL]
        ratios = [(t * k, t) for t in self.SPECIAL for k in (708.9999999999999, 709.0, 710.0)]
        parts = (0.0, 1.0, -3.0, 1e153, 1e154, 1e308, math.inf, math.nan)
        excess = [(n, r, complex(a, b)) for n in (0.0, 1.0, 1e308, math.nan)
                  for r in self.SPECIAL for a in parts for b in parts]
        for column_form, scalar, rows in (
            (occupation_column, occupation, pairs + ratios),
            (invert_occupation_column, invert_occupation, pairs),
            (excess_excitation_column, excess_excitation, excess),
        ):
            self.check(column_form, scalar, rows)
            self.check(column_form, scalar, rows, entry=range(0, len(rows), 3))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_occupation(self, data):
        rows = data.draw(st.lists(self.ratio_pairs(), min_size=1, max_size=16))
        self.draw_check(data, occupation_column, occupation, rows)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_invert_occupation(self, data):
        rows = data.draw(st.lists(st.tuples(self.numbers, self.numbers), min_size=1, max_size=16))
        self.draw_check(data, invert_occupation_column, invert_occupation, rows)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_excess_excitation(self, data):
        alphas = st.builds(complex, self.numbers, self.numbers)
        rows = data.draw(st.lists(
            st.tuples(self.numbers, self.numbers, alphas), min_size=1, max_size=16))
        self.draw_check(data, excess_excitation_column, excess_excitation, rows)

    @pytest.fixture
    def counted_occupation(self, monkeypatch):
        calls = []

        def counted(omega, t):
            calls.append((omega, t))
            return occupation(omega, t)

        monkeypatch.setattr(cycles, "occupation", counted)
        return calls

    def test_valid_rows_make_no_scalar_call(self, counted_occupation):
        rng = np.random.default_rng(5)
        n = 10**4
        omega2 = rng.uniform(1.0, 100.0, n)
        omega1 = omega2 * rng.uniform(1e-3, 1.0, n)
        t2 = rng.uniform(0.0, 50.0, n)
        t1 = t2 * rng.uniform(0.0, 1.0, n)
        # omega1/T1 underflows to 0 on these rows: expm1 is 0, and the scalar
        # occupation raises ZeroDivisionError
        fallback = [3, 4000, 9999]
        omega1[fallback], t1[fallback] = 5e-324, 10.0
        columns = ledger_columns(CycleKind.STANDARD, omega1, omega2, t1, t2, 0.1)
        assert len(counted_occupation) == len(fallback)
        assert np.flatnonzero(columns.failed).tolist() == fallback
        assert all(isinstance(columns.errors[i], ZeroDivisionError) for i in fallback)

    @pytest.mark.parametrize("kind", list(CycleKind))
    def test_no_rows(self, kind):
        columns = ledger_columns(kind, [], [], [], [], [])
        assert columns.w1.shape == (0,) and not columns.failed.any()
        assert all(column.shape == (0,) for column in columns.laws)

    def test_one_row_makes_one_scalar_call_per_column(self, counted_occupation):
        ledger_columns(CycleKind.STANDARD, 7.0, 20.0, 2.0, 10.0, 0.3)
        assert counted_occupation == [(7.0, 2.0), (20.0, 10.0)]

    def test_without_a_fast_path_every_row_makes_a_scalar_call(self):
        rows = [(7.0, 2.0), (-1.0, 2.0), (20.0, 10.0), (5e-324, 10.0)]
        self.check(lambda omega, t, errors: rowwise(occupation, errors, omega, t),
                   occupation, rows, shared=[1], entry=[2])
