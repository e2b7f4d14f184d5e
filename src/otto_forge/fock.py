"""Truncated-Fock-space brute-force oracle for Gaussian-state energetics.

Everything here deliberately avoids the closed forms of
:mod:`otto_forge.gaussian`: states are built from exponentials of truncated
squeeze/displacement generators, and work content is extracted spectrally,
by pairing density-matrix eigenvalues (sorted descending) with oscillator
levels (sorted ascending). The analytic and spectral routes validate each
other; neither is allowed to call into the other's formulas.

A FockDensity holds one thing: its state's low-rank factor W. The truncated
exponentials are exactly unitary, so rho = W W^dag with W = D S [sqrt(p_0)
e_0 ... sqrt(p_{K-1}) e_{K-1}], where K counts the thermal levels whose
population is above double round-off relative to p_0 (the dropped columns
carry less than round-off; an undressed thermal state keeps all of them,
exact level by level). Each generator is tridiagonal (the squeeze one per
parity block) with a zero diagonal, so it couples even levels only to odd
ones: it is the Golub-Kahan form of a bidiagonal matrix B of half its size,
and its exponential follows from the SVD of B (LAPACK's divide-and-conquer
dbdsdc), applied to the N x K block split into even and odd rows and written
back into W. The populations, the trace deficit and the edge mass are read
once from W's squared row norms, and the spectrum from its sorted squared
column norms, padded with zeros: the Gram matrix W^dag W's diagonal,
certified to its off-diagonal Frobenius norm by Weyl's inequality. No N x N
matrix is formed unless `FockDensity.matrix` is read. dbdsdc and BLAS zherk
(for W^dag W) are bound with ctypes from scipy's Cython tables, loaded from
their files: the oracle never imports the scipy.linalg package.

One numerical subtlety governs the guards: because the truncated dressing
is unitary at any cutoff, the trace of the built state stays near one even
when the cutoff is far too small - the mass that should leak past the cutoff
is reflected back instead. The raw trace deficit therefore only measures the
thermal diagonal's tail, and the guards additionally inspect the occupation
mass parked on the top Fock levels (the reflected mass lands there), which
does detect an unresolved state.

The cutoff search uses the tail-decay law: the tail bound falls roughly as
exp(-2N/V) with V = (2 n_th + 1) e^{2r} + 2|alpha|^2, so it starts at
(V/2) ln(1/tol), or lower for a displaced state, whose crossing the law
puts too high. Each passing build predicts the crossing from its own
populations, and the search probes the failing side of that prediction
first; it steps on the log of the tail bound, with the decay rate measured
between its probes, only where it has no pass or the prediction misses.
Its state is one bracket: the failed cutoffs, and the lowest passing cutoff
with its density, which every later probe lies below. It keeps that
density alone and returns it, so a caller builds each probed cutoff once.

A dressing needs levels for its generator to act on: the squeeze generator
is empty below 3 levels and the displacement one below 2. A build there
would be the undressed state with nothing in its tail, so the guard
refuses it outright, as if all of the mass were unresolved.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import machinery, util

import numpy as np

from .errors import CutoffSearchFailed, CutoffTooSmall, DensityNotPositive, LapackFailure
from .gaussian import GaussianModeState
from .thermo import _check_frequency

DEFAULT_TAIL_TOL = 1e-9
HARD_CUTOFF_CAP = 4096

# a displaced state's first probe: this share of the displacement's variance,
# and this scale, fitted on seeded corpora so that it lands near the crossing
_DISPLACEMENT_SHARE = 0.35
_DISPLACED_START = 0.95
_EIGENVALUE_FLOOR = 1e-10  # a spectrum not certified to this means a broken truncation
_ENTROPY_FLOOR = 1e-15


def thermal_probabilities(n_th: float, dim: int) -> np.ndarray:
    """Geometric Fock-level populations n^k / (n+1)^(k+1), truncated to dim."""
    q = n_th / (n_th + 1.0)
    return q ** np.arange(dim) / (n_th + 1.0)


@dataclass(frozen=True)
class FockDensity:
    """A state rho = W W^dag on a truncated Fock basis, held as its N x K factor W.

    W is the only state held. The populations (W's squared row norms) are
    read from it once, and the trace deficit and edge mass from them.
    """

    factor: np.ndarray

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

    @cached_property
    def _squared_row_norms(self) -> np.ndarray:
        norms = np.einsum("ij,ij->i", self.factor, self.factor.conj()).real
        norms.setflags(write=False)
        return norms

    @property
    def trace_deficit(self) -> float:
        """1 - trace: the diagonal tail mass lost to truncation."""
        return 1.0 - float(np.sum(self._squared_row_norms))

    @property
    def edge_mass(self) -> float:
        """Occupation on the top levels (level 0 excluded): it bounds the unresolved mass."""
        lo = max(1, self.dim - _edge_window(self.dim))
        return float(np.sum(self._squared_row_norms[lo:]))

    @property
    def tail_bound(self) -> float:
        """Estimate of the total unresolved mass beyond this cutoff."""
        return max(self.trace_deficit, self.edge_mass)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum in ascending order: W's sorted squared column norms, clipped to [0, 1]."""
        w = self.factor
        diag = np.diagonal(w)
        # a diagonal factor (a passive state's) has nothing off its diagonal to bound
        if w.shape[0] == w.shape[1] and np.count_nonzero(w) == np.count_nonzero(diag):
            ev = np.sort(np.abs(diag) ** 2)
        else:
            # Weyl: G = W^dag W has its eigenvalues within ||G - diag G||_F of its diagonal
            gram = _zherk(w)  # conj(G)'s upper triangle
            ev = np.sort(gram.diagonal().real)
            np.fill_diagonal(gram, 0.0)
            bound = math.sqrt(2.0) * np.linalg.norm(gram)
            if not bound <= _EIGENVALUE_FLOOR:
                raise DensityNotPositive(f"spectrum error bound {bound:.1e} > {_EIGENVALUE_FLOOR}")
        return np.clip(np.concatenate((np.zeros(self.dim - ev.size), ev)), 0.0, 1.0)

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities: the squared row norms of W, read-only."""
        return self._squared_row_norms

    def mean_occupation(self) -> float:
        return float(self.populations() @ np.arange(self.dim))

    def mean_energy(self, omega: float) -> float:
        """Tr(rho H) for H = omega (a^dag a + 1/2) truncated to this basis."""
        return _ladder_energy(self.populations(), _check_frequency(omega))


def _ladder_energy(weights: np.ndarray, omega: float) -> float:
    """sum_k weights_k omega (k + 1/2): the energy of weights on the oscillator levels.

    Level energies past the double range give inf or nan without a numpy
    warning: the caller's finiteness check reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(weights @ (omega * (np.arange(weights.size) + 0.5)))


def _real_times_complex(real: np.ndarray, z: np.ndarray) -> np.ndarray:
    """real @ z for a complex z, as one real product over z's interleaved parts."""
    z = np.ascontiguousarray(z, dtype=complex)
    return (real @ z.view(np.float64)).view(complex)


_CYTHON_LOAD = threading.Lock()  # @cache lets two first calls in; a Cython module initialises once


@cache
def _cython_capi(table: str) -> dict:
    """The __pyx_capi__ of scipy.linalg.`table`, loaded from its file, not via the scipy.linalg package."""
    module = sys.modules.get(f"scipy.linalg.{table}")
    if module is None:
        spec = util.find_spec("scipy")  # finds the package, imports nothing
        if spec is not None:
            linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
            loader = machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES
            spec = machinery.FileFinder(linalg, loader).find_spec(f"scipy.linalg.{table}")
        if spec is None:
            raise ModuleNotFoundError(f"No module named 'scipy.linalg.{table}'", name="scipy")
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(spec.name, None)  # Cython listed it; importing scipy.linalg re-adds it
    return module.__pyx_capi__


@cache
def _cython_routine(table: str, name: str, *argtypes) -> ctypes._CFuncPtr:
    """BLAS or LAPACK `name`, bound from the __pyx_capi__ of scipy.linalg.`table`."""
    with _CYTHON_LOAD:
        capsule = _cython_capi(table)[name]
    obj, api = ctypes.py_object, ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))(capsule)
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)
    address = pointer(("PyCapsule_GetPointer", api))(capsule, name)
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


@cache
def _dbdsdc() -> ctypes._CFuncPtr:
    """LAPACK's dbdsdc (bidiagonal SVD)."""
    p, i, c = np.ctypeslib.ndpointer, ctypes.POINTER(ctypes.c_int), ctypes.c_char_p
    v, m, q = p(float, 1, flags="C"), p(float, 2, flags="F"), ctypes.c_void_p
    # uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq (both unread for compq "I"), work, iwork, info
    args = c, c, i, v, v, m, i, m, i, q, q, v, p(np.intc, 1, flags="C"), i
    return _cython_routine("cython_lapack", "dbdsdc", *args)


def _zherk(w: np.ndarray) -> np.ndarray:
    """zherk(1.0, w.T) of scipy.linalg.blas: conj(W^dag W)'s upper triangle, the lower one 0."""
    p, i, x = np.ctypeslib.ndpointer, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    # uplo, trans, n, k, alpha, a, lda, beta, c, ldc; a = W^T, the K x N Fortran array on W's bytes
    zherk = _cython_routine("cython_blas", "zherk", ctypes.c_char_p, ctypes.c_char_p, i, i, x,
                            p(complex, 2, flags="C"), i, x, p(complex, 2, flags="F"), i)
    gram, (k, n) = np.zeros((w.shape[1],) * 2, complex, order="F"), map(ctypes.c_int, w.shape)
    a = np.ascontiguousarray(w, dtype=complex)
    zherk(b"U", b"N", n, k, ctypes.c_double(1.0), a, n, ctypes.c_double(0.0), gram, n)
    return gram


def _bidiagonal_svd(diag: np.ndarray, subdiag: np.ndarray) -> tuple[np.ndarray, ...]:
    """U, s, V^T with U diag(s) V^T = B, B[i, i] = diag[i] and B[i + 1, i] = subdiag[i]."""
    n = diag.size
    # dbdsdc overwrites both; e gets one spare entry, so that it is never empty
    s, e = np.array(diag, dtype=float), np.append(subdiag, 0.0)
    u, vt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    size, info = ctypes.c_int(n), ctypes.c_int()
    work, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.intc)
    _dbdsdc()(b"L", b"I", size, s, e, u, size, vt, size, None, None, work, iwork, info)
    if info.value:
        raise LapackFailure(f"LAPACK dbdsdc failed with info {info.value}")
    return u, s, vt


def _apply_skew_exponential(subdiag: np.ndarray, block: np.ndarray) -> None:
    """Overwrite the complex block with expm(G) @ block, for the skew-Hermitian tridiagonal G.

    G has zero diagonal, G[k+1, k] = g_k and G[k, k+1] = -conj(g_k), with
    every g_k nonzero or all of them zero. A unit-modulus diagonal
    conjugation d strips the phases of g, making iG similar to the real
    symmetric tridiagonal T with off-diagonal |g|, so
    expm(G) = d^dag exp(-iT) d; expm(G) itself is never formed.

    T's zero diagonal couples even levels only to odd ones. In even-odd
    order T = [[0, B], [B^T, 0]], the Golub-Kahan form of the lower
    bidiagonal B with diagonal |g|[0::2] and subdiagonal |g|[1::2]; for odd
    N the diagonal is padded with one 0, which adds a fake odd level that
    nothing couples to and that is dropped. With B = U diag(s) V^T and
    x_e, x_o the even and odd rows of x,
    exp(-iT) x = [U cos(s) U^T x_e - i U sin(s) V^T x_o;
                  V cos(s) V^T x_o - i V sin(s) U^T x_e]:
    four (N/2) x (N/2) products with the block, exact at every s, 0 included.
    Both halves are read before either is written back.
    """
    g = np.asarray(subdiag, dtype=complex)
    if not g.any():
        return
    dim, t = g.size + 1, np.abs(g)
    u, s, vt = _bidiagonal_svd(np.append(t[0::2], np.zeros(dim % 2)), t[1::2])
    vt = vt[:, : dim // 2]  # V^T on the real odd levels
    # d_k = exp(i p_k) with p_0 = 0, p_{k+1} = p_k - (arg g_k + pi/2)
    d = np.exp(1j * np.concatenate(([0.0], -np.cumsum(np.angle(g) + 0.5 * np.pi))))
    np.multiply(d[:, None], block, out=block)  # d first: a complex product rounds by operand order
    ye, yo = _real_times_complex(u.T, block[0::2]), _real_times_complex(vt, block[1::2])
    cos, sin = np.cos(s)[:, None], 1j * np.sin(s)[:, None]
    block[0::2] = _real_times_complex(u, cos * ye - sin * yo)
    block[1::2] = _real_times_complex(vt.T, cos * yo - sin * ye)
    block *= d.conj()[:, None]


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
            _apply_skew_exponential(subdiag, block)
    if state.alpha != 0j:
        _apply_skew_exponential(state.alpha * np.sqrt(np.arange(1, dim, dtype=float)), w)
    return w


def _edge_window(dim: int | np.ndarray) -> int | np.ndarray:
    """How many top levels of a dim-level basis count as its edge (elementwise for an array)."""
    return np.maximum(4, dim // 16)


def _predicted_cutoff(populations: np.ndarray, tail_tol: float) -> int:
    """Smallest c whose edge window, read from a passing build's populations, holds <= tail_tol.

    The mass at levels >= c - _edge_window(c) (level 0 excluded) is what a
    build at cutoff c would find in its window or reflect back into it.
    """
    cutoffs = np.arange(1, populations.size + 1)
    lows = np.maximum(1, cutoffs - _edge_window(cutoffs))
    tails = np.append(np.cumsum(populations[::-1])[::-1], 0.0)  # tails[j]: mass at levels >= j
    resolved = tails[lows] <= tail_tol  # monotone: lows never falls as c grows
    return int(cutoffs[np.argmax(resolved)]) if resolved.any() else populations.size


def build_fock_density(
    state: GaussianModeState, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockDensity:
    """Construct D(alpha) S(r) rho_th S^dag D^dag on the lowest `cutoff` levels.

    The squeeze and displacement are exponentials of truncated generators
    (computed numerically, not from closed-form matrix elements), applied to
    the populated columns of the truncated geometric thermal diagonal, so
    rho = W W^dag, held as W. Raises CutoffTooSmall when the density's
    tail_bound, the larger of its trace deficit and edge mass, exceeds
    tail_tol, and, with tail mass 1, when the cutoff leaves the squeeze
    generator (below 3 levels) or the displacement one (below 2) empty.
    """
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must be in (0, 1), got {tail_tol!r}")
    # the build would be the undressed state, whose tail shows nothing, so
    # all of the mass counts as unresolved
    if (state.r > 0.0 and cutoff < 3) or (state.alpha != 0j and cutoff < 2):
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves the state's dressing generator empty", tail_mass=1.0
        )

    p = thermal_probabilities(state.n_th, cutoff)
    density = FockDensity(_dressed_thermal_columns(state, p))
    tail = density.tail_bound
    if tail > tail_tol:
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} (trace deficit "
            f"{density.trace_deficit:.3e}, edge occupation {density.edge_mass:.3e}) "
            f"above the tolerance {tail_tol:.3e}",
            tail_mass=tail,
        )
    return density


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
    omega = _check_frequency(omega)  # before the build, which a bad omega would waste
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
    crossing, (V/2) ln(1/tail_tol). For a displaced state the law lands too
    high (7-64 % above on perfbench's oracle states), as the displacement
    shifts the tail more than it widens it; there the start counts 0.35 of
    the 2|alpha|^2 term and is scaled by 0.95.

    The search keeps a bracket: the cutoffs that failed, and the lowest
    passing cutoff with its density, the only density kept. Every probe
    after the first pass lies below that cutoff, so the latest pass is the
    lowest one and a build never runs beside more than one earlier factor.
    The search stops once the largest failed cutoff below it is cutoff - 1,
    and raises CutoffSearchFailed when hard_cap itself fails.

    A passing build predicts the crossing e: the smallest cutoff whose edge
    window would hold at most tail_tol of that build's populations, the mass
    beyond the cutoff counted as if reflected into the window. From a build
    at or near the crossing e is almost always exact; from further above it
    lies a few levels high. The search then probes e - 1, the side expected
    to fail, before e, so that a failing probe is discarded at once and the
    last build is often the passing one; e - 2 goes first instead when
    e - 1 is a level where the edge window widens, as a failure there would
    need the level below the step probed anyway. Where no build has passed
    yet, or the prediction misses, the search steps to the crossing
    predicted by the decay rate measured between its last two probes with
    a positive tail bound, minus one level, again the side expected to
    fail; a step at most halves or doubles the cutoff and stays inside the
    bracket. Before any such probe there is no rate to extrapolate, and the
    step halves the cutoff. A squeezed vacuum fills even levels only, so its
    populations cannot tell a cutoff from the next one: its search takes
    the rate steps alone, each to the predicted crossing itself.

    The edge window widens by one level at every multiple of 16 from 80 on,
    which can lift the tail bound above the tolerance for a level or so;
    when such a step lies just below the result, the cutoff below the step
    is probed too. Bumpy occupation distributions can still leave the result
    a few levels above the true minimum.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must be in (0, 1), got {tail_tol!r}")
    log_tol = math.log(tail_tol)
    spread = (2.0 * state.n_th + 1.0) * math.exp(2.0 * state.r)
    shift = 2.0 * abs(state.alpha) ** 2
    rate = 2.0 / (spread + shift)
    start = spread if shift == 0.0 else _DISPLACED_START * (spread + _DISPLACEMENT_SHARE * shift)
    cutoff = min(hard_cap, max(1, math.ceil(-0.5 * start * log_tol)))
    predicts = not (state.n_th == 0.0 and shift == 0.0 and state.r > 0.0)
    # the bracket: hi is the lowest passing cutoff, and the latest, as every
    # probe after the first pass lies below it; lo, the largest failed
    # cutoff below hi, is read from the failed set after each build
    failed: set[int] = set()
    hi, lowest = hard_cap + 1, None
    predicted = 0  # the crossing predicted by the lowest pass; 0 predicts nothing
    last = (0, -math.inf)  # the latest probe with a positive tail bound, and its log
    while True:
        try:
            lowest = build_fock_density(state, cutoff, tail_tol)
        except CutoffTooSmall as exc:
            if cutoff >= hard_cap:
                raise CutoffSearchFailed(
                    f"no cutoff up to {hard_cap} reaches tail tolerance {tail_tol:.3e} "
                    f"for state {state}"
                ) from exc
            failed.add(cutoff)
            tail = exc.tail_mass
        else:
            hi = cutoff
            # a pass reports its edge occupation: its trace deficit sits at
            # round-off and says nothing about how far the crossing is
            tail = lowest.edge_mass
            if predicts:
                predicted = _predicted_cutoff(lowest.populations(), tail_tol)
        if tail > 0.0:
            previous, last = last, (cutoff, math.log(tail))
            measured = (previous[1] - last[1]) / (cutoff - previous[0])
            if measured > 0.0:
                rate = measured
        lo = max((c for c in failed if c < hi), default=0)
        # the failing side of the prediction first; a window step there
        # would need the level below it probed anyway, so that goes first
        below = predicted - 1
        if below - 1 > lo and _edge_window(below) > _edge_window(below - 1):
            below -= 1
        if hi - lo == 1:
            below_step = [j - 1 for j in (hi - 1, hi - 2) if _edge_window(j) > _edge_window(j - 1)]
            if not below_step or below_step[0] in failed:
                return lowest
            cutoff = below_step[0]
        elif below > lo:
            cutoff = below
        elif lo < predicted < hi:
            cutoff = predicted
        else:
            # before any positive tail bound the target is -inf, and the clamp halves the cutoff
            target = last[0] + (last[1] - log_tol) / rate
            target = math.ceil(min(max(target, (cutoff + 1) // 2), 2 * cutoff))
            if predicts:
                target -= 1  # the failing side of the target first
            cutoff = min(max(target, lo + 1), hi - 1)
