"""Single-mode Gaussian states of the working fluid and their work content.

The supported family is the squeezed displaced thermal state

    rho = D(alpha) S(r) rho_th(n_th) S(r)^dag D(alpha)^dag,

i.e. a Gibbs state dressed by a squeeze and then a displacement. Because the
dressing is unitary, the passive state of rho is rho_th itself, so energy
splits cleanly into a thermal part omega*(n_th + 1/2) and an ergotropy
omega*delta_n carried by the excess excitation

    delta_n = (2 n_th + 1) sinh^2(r) + |alpha|^2.

Squeeze and displacement phases are carried on the state but never enter any
energetic output; the Fock oracle in :mod:`otto_forge.fock` confirms that
invariance along with every formula here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .thermo import _check_frequency, oscillator_energy


@dataclass(frozen=True)
class GaussianModeState:
    """Squeezed displaced thermal state of a single bosonic mode.

    n_th is the occupation of the underlying Gibbs state, r the squeezing
    amplitude, alpha the coherent displacement and squeeze_phase the phase of
    the squeeze axis. The state is passive iff r = 0 and alpha = 0.
    """

    n_th: float
    r: float = 0.0
    alpha: complex = 0j
    squeeze_phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_th", float(self.n_th))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "squeeze_phase", float(self.squeeze_phase))
        if not math.isfinite(self.n_th) or self.n_th < 0.0:
            raise ValueError(f"n_th must be non-negative and finite, got {self.n_th!r}")
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeezing amplitude must be non-negative, got {self.r!r}")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError(f"displacement must be finite, got {self.alpha!r}")
        if not math.isfinite(self.squeeze_phase):
            raise ValueError("squeeze_phase must be finite")

    @property
    def is_passive(self) -> bool:
        return self.r == 0.0 and self.alpha == 0j


def delta_n(state: GaussianModeState) -> float:
    """Excess excitation of the state over its thermal occupation."""
    return excess_excitation(state.n_th, state.r, state.alpha)


def excess_excitation(n_th: float, r: float, alpha: complex) -> float:
    """delta_n of a Gibbs state at n_th dressed by squeezing r and displacement alpha.

    (2 n_th + 1) sinh^2(r) for the squeeze plus |alpha|^2 for the
    displacement; the two contributions add because the displacement acts
    after the squeeze on an already centred state. Takes unchecked numbers;
    `cycles.excess_excitation_column` is its column form, and falls back to
    it on the rows it cannot reproduce.
    """
    excess = (2.0 * n_th + 1.0) * math.sinh(r) ** 2
    return excess + abs(alpha) ** 2


def state_energy(state: GaussianModeState, omega: float) -> float:
    """Mean energy omega * (n_th + delta_n + 1/2) of the dressed state."""
    return oscillator_energy(omega, state.n_th) + ergotropy_analytic(state, omega)


def ergotropy_analytic(state: GaussianModeState, omega: float) -> float:
    """Maximal unitarily extractable work omega * delta_n.

    Equals state energy minus the passive (thermal) energy, since the passive
    state of a unitarily dressed Gibbs state is that Gibbs state.
    """
    omega = _check_frequency(omega)
    return omega * delta_n(state)


def nonclassicality_threshold(r: float) -> float:
    """Largest thermal occupation at which squeezing r still yields sub-vacuum noise."""
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeezing amplitude must be non-negative, got {r!r}")
    return math.expm1(2.0 * r) / 2.0


def is_nonclassical(state: GaussianModeState) -> bool:
    """Whether the state's P-function fails to be a proper probability density.

    True iff the squeezed quadrature drops below vacuum noise, i.e. r > 0 and
    n_th < (e^{2r} - 1)/2. Displacement never contributes: displaced thermal
    states are classical for any alpha.
    """
    return state.r > 0.0 and state.n_th < nonclassicality_threshold(state.r)
