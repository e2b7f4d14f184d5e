"""Truncated-Fock-space brute-force oracle for Gaussian-state energetics.

Everything here deliberately avoids the closed forms of
:mod:`otto_forge.gaussian`: states are built from exponentials of truncated
squeeze/displacement generators, and work content is extracted spectrally,
by pairing density-matrix eigenvalues (sorted descending) with oscillator
levels (sorted ascending). The analytic and spectral routes validate each
other; neither is allowed to call into the other's formulas.

A state is held once, as its low-rank factor. The truncated exponentials
are exactly unitary, so rho = W W^dag with W = D S [sqrt(p_0) e_0 ...
sqrt(p_{K-1}) e_{K-1}], where K counts the thermal levels whose population
is above double round-off relative to p_0 (the dropped columns carry less
than round-off; an undressed thermal state keeps all of them, exact level
by level). Each generator is tridiagonal (the squeeze one per parity block)
with a zero diagonal, so its eigenvalues come in +-lambda pairs: only the
lambda > 0 half of its eigenbasis is applied to the N x K block, split into
even and odd rows, at N^2 K multiply-adds against 2 N^2 K for the whole
basis. The populations are the squared row norms of W; the spectrum is an
independent eigvalsh of the K x K Gram matrix W^dag W, whose eigenvalues are
the nonzero ones of W W^dag. No N x N matrix is formed unless
`FockDensity.matrix` is read.

One numerical subtlety governs the guards: because the truncated dressing
is unitary at any cutoff, the trace of the built state stays near one even
when the cutoff is far too small - the mass that should leak past the cutoff
is reflected back instead. The raw trace deficit therefore only measures the
thermal diagonal's tail, and the guards additionally inspect the occupation
mass parked on the top Fock levels (the reflected mass lands there), which
does detect an unresolved state. Both are read from the row norms of W.

The cutoff search uses the tail-decay law: the tail bound falls roughly as
exp(-2N/V) with V = (2 n_th + 1) e^{2r} + 2|alpha|^2, so it starts at
(V/2) ln(1/tol) and steps on the log of the tail bound with the decay rate
measured between its probes, instead of doubling and bisecting. It returns
the density it built at the cutoff it settles on, so a caller builds each
probed cutoff once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CutoffSearchFailed, CutoffTooSmall, DensityNotPositive
from .gaussian import GaussianModeState

DEFAULT_TAIL_TOL = 1e-9
HARD_CUTOFF_CAP = 4096

# Round-off policy for spectra: eigenvalues in [-1e-10, 0) are clipped to 0,
# anything lower means the truncation itself is broken.
_EIGENVALUE_FLOOR = -1e-10
_ENTROPY_FLOOR = 1e-15


def thermal_probabilities(n_th: float, dim: int) -> np.ndarray:
    """Geometric Fock-level populations n^k / (n+1)^(k+1), truncated to dim."""
    q = n_th / (n_th + 1.0)
    return q ** np.arange(dim) / (n_th + 1.0)


@dataclass(frozen=True)
class FockDensity:
    """A state rho = W W^dag on a truncated Fock basis, held as its N x K factor W.

    trace_deficit is 1 - trace (the diagonal tail mass lost to truncation);
    edge_mass is the occupation found on the top levels of the truncated
    basis, which bounds the mass the truncated unitaries failed to resolve.
    """

    factor: np.ndarray
    trace_deficit: float
    edge_mass: float = 0.0

    def __post_init__(self) -> None:
        w = np.array(self.factor)
        if w.ndim != 2 or not 1 <= w.shape[1] <= w.shape[0]:
            raise ValueError(f"density factor must be N x K with 1 <= K <= N, got shape {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "factor", w)

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """rho as a read-only N x N array, formed on first read; the oracle never reads it."""
        m = self.factor @ self.factor.conj().T
        m.setflags(write=False)
        return m

    @property
    def tail_bound(self) -> float:
        """Estimate of the total unresolved mass beyond this cutoff."""
        return max(self.trace_deficit, self.edge_mass)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum in ascending order, clipped to [0, 1] after round-off checks."""
        w = self.factor
        ev = np.linalg.eigvalsh(w.conj().T @ w)
        if ev[0] < _EIGENVALUE_FLOOR:
            raise DensityNotPositive(
                f"eigenvalue {ev[0]:.3e} below the {_EIGENVALUE_FLOOR:.0e} round-off floor"
            )
        return np.clip(np.concatenate((np.zeros(self.dim - ev.size), ev)), 0.0, 1.0)

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities: the squared row norms of W."""
        return _squared_row_norms(self.factor)

    def mean_occupation(self) -> float:
        return float(self.populations() @ np.arange(self.dim))

    def mean_energy(self, omega: float) -> float:
        """Tr(rho H) for H = omega (a^dag a + 1/2) truncated to this basis."""
        return _ladder_energy(self.populations(), omega)


def _ladder_energy(weights: np.ndarray, omega: float) -> float:
    """sum_k weights_k omega (k + 1/2): the energy of weights on the oscillator levels.

    Level energies past the double range give inf or nan without a numpy
    warning: the caller's finiteness check reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(weights @ (omega * (np.arange(weights.size) + 0.5)))


def _squared_row_norms(w: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", w, w.conj()).real


def _real_times_complex(real: np.ndarray, z: np.ndarray) -> np.ndarray:
    """real @ z for a complex z, as one real product over z's interleaved parts."""
    z = np.ascontiguousarray(z, dtype=complex)
    return (real @ z.view(np.float64)).view(complex)


def _apply_skew_exponential(subdiag: np.ndarray, block: np.ndarray) -> np.ndarray:
    """expm(G) @ block for the skew-Hermitian tridiagonal generator G.

    G has zero diagonal, G[k+1, k] = g_k and G[k, k+1] = -conj(g_k), with
    every g_k nonzero or all of them zero. A unit-modulus diagonal
    conjugation d strips the phases of g, making iG similar to the real
    symmetric tridiagonal T with off-diagonal |g|, so
    expm(G) = d^dag exp(-iT) d; expm(G) itself is never formed.

    T's zero diagonal gives S T S = -T with S = diag((-1)^k), so its
    eigenpairs come as (lambda, v) and (-lambda, S v), plus one zero mode
    v_0 when N is odd. Write a and b for the even and odd rows of v, and
    x_e, x_o for those of x; v and S v are orthogonal, so a and b each carry
    half of v's norm. Each pair then contributes
    2 cos(lambda) [a a^T x_e; b b^T x_o] - 2i sin(lambda) [a b^T x_o; b a^T x_e],
    and v_0 contributes v_0 (v_0^T x). Only the lambda > 0 half of the
    full eigenbasis is applied: four (N/2) x (N/2) products with the block
    in place of two N x N ones.

    That half stands for the whole only while each pair's lambda and
    -lambda stay apart: the smallest |lambda| must be far above round-off
    of the largest. For the squeeze and displacement generators up to
    HARD_CUTOFF_CAP levels it is at least 6e-5 of the largest, and the
    result agrees with the full eigenbasis's to round-off.
    """
    from scipy.linalg import eigh_tridiagonal  # deferred: only the oracle needs scipy

    g = np.asarray(subdiag, dtype=complex)
    if not g.any():
        return np.asarray(block, dtype=complex)
    dim = g.size + 1
    lam, vecs = eigh_tridiagonal(np.zeros(dim), np.abs(g))
    # d_k = exp(i p_k) with p_0 = 0, p_{k+1} = p_k - (arg g_k + pi/2)
    d = np.exp(1j * np.concatenate(([0.0], -np.cumsum(np.angle(g) + 0.5 * np.pi))))
    x = d[:, None] * block
    # the eigenvalues ascend, so the lambda > 0 half is the last dim // 2
    positive = slice(dim - dim // 2, dim)
    even, odd = vecs[0::2, positive], vecs[1::2, positive]
    ye, yo = _real_times_complex(even.T, x[0::2]), _real_times_complex(odd.T, x[1::2])
    cos, sin = 2.0 * np.cos(lam[positive])[:, None], 2.0j * np.sin(lam[positive])[:, None]
    out = np.empty_like(x)
    out[0::2] = _real_times_complex(even, cos * ye - sin * yo)
    out[1::2] = _real_times_complex(odd, cos * yo - sin * ye)
    if dim % 2:
        zero_mode = vecs[:, dim // 2]
        out += np.outer(zero_mode, zero_mode @ x)
    out *= d.conj()[:, None]
    return out


def _dressed_thermal_columns(state: GaussianModeState, p: np.ndarray) -> np.ndarray:
    """W = D(alpha) S(xi) [sqrt(p_0) e_0 ... sqrt(p_{K-1}) e_{K-1}] on len(p) levels.

    The squeeze generator (conj(xi) a^2 - xi a^dag^2)/2 moves quanta in
    pairs, so it splits into even- and odd-parity blocks, tridiagonal in the
    packed level index; the displacement generator alpha a^dag - conj(alpha) a
    is tridiagonal in the level index itself.
    """
    dim = p.shape[0]
    # K: the levels whose population is above round-off relative to p_0; an
    # undressed state keeps its whole diagonal, exact level by level
    width = dim if state.is_passive else int(np.count_nonzero(p > np.finfo(float).eps * p[0]))
    w = np.zeros((dim, width), dtype=complex)
    w[np.arange(width), np.arange(width)] = np.sqrt(p[:width])
    if state.r > 0.0:
        xi = state.r * complex(math.cos(state.squeeze_phase), math.sin(state.squeeze_phase))
        for offset in (0, 1):
            block = w[offset::2, offset::2]  # a view of one parity block
            if block.shape[1] == 0:
                continue
            low = np.arange(offset, dim - 2, 2, dtype=float)  # each level but the block's top
            subdiag = -0.5 * xi * np.sqrt((low + 1.0) * (low + 2.0))
            block[...] = _apply_skew_exponential(subdiag, block)
    if state.alpha != 0j:
        k = np.arange(1, dim, dtype=float)
        w = _apply_skew_exponential(state.alpha * np.sqrt(k), w)
    return w


def _edge_window(dim: int) -> int:
    """How many top levels of a dim-level basis count as its edge."""
    return max(4, dim // 16)


def _edge_mass(populations: np.ndarray) -> float:
    """Occupation parked on the top levels (level 0 never counts as edge)."""
    dim = populations.shape[0]
    lo = max(1, dim - _edge_window(dim))
    return float(np.sum(populations[lo:]))


def build_fock_density(
    state: GaussianModeState, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockDensity:
    """Construct D(alpha) S(r) rho_th S^dag D^dag on the lowest `cutoff` levels.

    The squeeze and displacement are exponentials of truncated generators
    (computed numerically, not from closed-form matrix elements), applied to
    the populated columns of the truncated geometric thermal diagonal, so
    rho = W W^dag, held as W. Raises CutoffTooSmall when the tail bound
    (trace deficit or edge occupation, both read from the row norms of W)
    exceeds tail_tol.
    """
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must be in (0, 1), got {tail_tol!r}")

    w = _dressed_thermal_columns(state, thermal_probabilities(state.n_th, cutoff))
    populations = _squared_row_norms(w)

    deficit = 1.0 - float(np.sum(populations))
    edge = _edge_mass(populations)
    tail = max(deficit, edge)
    if tail > tail_tol:
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} "
            f"(trace deficit {deficit:.3e}, edge occupation {edge:.3e}) "
            f"above the tolerance {tail_tol:.3e}",
            tail_mass=tail,
        )
    return FockDensity(factor=w, trace_deficit=deficit, edge_mass=edge)


def ergotropy_of_density(density: FockDensity, omega: float) -> float:
    """Spectral ergotropy Tr(rho H) - sum_k p_(k) omega (k + 1/2).

    p_(k) are the eigenvalues of rho sorted descending; pairing them with
    ascending oscillator levels realises the minimum over unitaries.
    """
    return density.mean_energy(omega) - _ladder_energy(density.eigenvalues[::-1], omega)


def ergotropy_fock(
    state: GaussianModeState,
    omega: float,
    cutoff: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Brute-force ergotropy of the state on a truncated Fock basis."""
    return ergotropy_of_density(build_fock_density(state, cutoff, tail_tol), omega)


def entropy_fock(density: FockDensity) -> float:
    """Von Neumann entropy -sum p ln p over eigenvalues above 1e-15."""
    ev = density.eigenvalues
    ev = ev[ev >= _ENTROPY_FLOOR]
    return float(-(ev @ np.log(ev)))


def choose_cutoff(
    state: GaussianModeState,
    tail_tol: float,
    hard_cap: int = HARD_CUTOFF_CAP,
) -> int:
    """Smallest cutoff whose density passes the tail guard at tail_tol; see search_density."""
    return search_density(state, tail_tol, hard_cap).dim


def search_density(
    state: GaussianModeState,
    tail_tol: float,
    hard_cap: int = HARD_CUTOFF_CAP,
) -> FockDensity:
    """The density at the smallest cutoff that passes the tail guard at tail_tol.

    It is the search's own build at that cutoff, so the caller need not
    build the state again; choose_cutoff returns its dim.

    The occupation tail of a Gaussian state decays per level roughly as
    exp(-2/V), V = (2 n_th + 1) e^{2r} + 2|alpha|^2 being the antisqueezed
    variance plus the displacement's share, so log(tail bound) is close to
    linear in the cutoff. The search starts where that law puts the
    crossing, (V/2) ln(1/tail_tol), then steps to the crossing predicted by
    the decay rate measured between its last two probes; a step at most
    halves or doubles the cutoff and stays between the highest failing and
    the lowest passing cutoff. It stops once cutoff - 1 fails and cutoff
    passes, and raises CutoffSearchFailed when hard_cap itself fails.

    The edge window widens by one level at every multiple of 16 from 80 on,
    which can lift the tail bound above the tolerance for a level or so;
    when such a step lies just below the result, the cutoff below the step
    is probed too. Bumpy occupation distributions can still leave the result
    a few levels above the true minimum.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must be in (0, 1), got {tail_tol!r}")
    log_tol = math.log(tail_tol)

    def probe(cutoff: int) -> tuple[FockDensity | None, float]:
        """The cutoff's density, None if it fails, and the log of its tail bound.

        A passing cutoff reports its edge occupation: its trace deficit sits
        at round-off and says nothing about how far the crossing is.
        """
        try:
            density = build_fock_density(state, cutoff, tail_tol)
        except CutoffTooSmall as exc:
            return None, math.log(exc.tail_mass)
        tail = density.edge_mass
        return density, math.log(tail) if tail > 0.0 else -math.inf

    variance = (2.0 * state.n_th + 1.0) * math.exp(2.0 * state.r) + 2.0 * abs(state.alpha) ** 2
    rate = 2.0 / variance
    cutoff = min(hard_cap, max(1, math.ceil(-0.5 * variance * log_tol)))
    passes: dict[int, bool] = {}
    last = None  # the latest probe with a finite log tail bound
    while True:
        density, log_tail = probe(cutoff)
        passed = passes[cutoff] = density is not None
        if passed:
            # every probe after the first pass lies below the lowest passing
            # cutoff, so the latest pass is the lowest one
            lowest = density
        if not passed and cutoff >= hard_cap:
            raise CutoffSearchFailed(
                f"no cutoff up to {hard_cap} reaches tail tolerance {tail_tol:.3e} "
                f"for state {state}"
            )
        if math.isfinite(log_tail):
            # probes a level or two apart differ by window effects as much as by decay
            if last is not None and abs(cutoff - last[0]) >= 3:
                measured = (last[1] - log_tail) / (cutoff - last[0])
                if measured > 0.0:
                    rate = measured
            last = (cutoff, log_tail)
        hi = min((c for c, ok in passes.items() if ok), default=None)
        lo = max((c for c, ok in passes.items() if not ok and (hi is None or c < hi)), default=0)
        if hi is not None and hi - lo == 1:
            below_step = [j - 1 for j in (hi - 1, hi - 2) if _edge_window(j) > _edge_window(j - 1)]
            if not below_step or below_step[0] in passes:
                return lowest
            cutoff = below_step[0]
            continue
        upper = hard_cap if hi is None else hi - 1
        if last is not None:
            target = math.ceil(last[0] + (last[1] - log_tol) / rate)
        else:
            target = (lo + upper + 1) // 2
        target = min(max(target, (cutoff + 1) // 2), 2 * cutoff)
        cutoff = min(max(target, lo + 1), upper)
