"""The truncated-Fock oracle: construction facts, guards, and oracle equivalence.

The oracle's own outputs are validated here against closed-form facts that do
not involve the analytic ergotropy route (geometric thermal populations,
squeezed-vacuum occupation, spectrum invariance) and then the two routes are
compared on random states.
"""

import cmath
import hashlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

import otto_forge.fock as fock
import otto_forge
from otto_forge import gaussian, thermo
from otto_forge import (
    CutoffSearchFailed,
    CutoffTooSmall,
    DensityNotPositive,
    FockDensity,
    GaussianModeState,
    LapackFailure,
    build_fock_density,
    choose_cutoff,
    delta_n,
    entropy_fock,
    ergotropy_analytic,
    ergotropy_fock,
    ergotropy_of_density,
    state_energy,
    thermal_entropy,
)
from otto_forge.cli import main
from otto_forge.fock import search_density

N2_REF = 0.15651764274966565


def resolving_cutoff(state: GaussianModeState) -> int:
    """Cutoff that resolves the state's occupation tail comfortably.

    The tail decays roughly per-level by exp(-2/V) with V the antisqueezed
    variance (2 n_th + 1) e^{2r} plus the displacement's 2|alpha|^2, so the
    needed depth scales linearly in V (calibrated: ~6.5 V reaches a 1e-6
    edge, the extra headroom here pushes it well past 1e-8).
    """
    variance = (2 * state.n_th + 1) * math.exp(2 * state.r) + 2 * abs(state.alpha) ** 2
    return 128 + math.ceil(8.0 * variance)


def dense_reference_density(state: GaussianModeState, cutoff: int) -> np.ndarray:
    """rho from dense expm of the truncated generators, on every thermal level."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    xi = state.r * np.exp(1j * state.squeeze_phase)
    squeeze = expm(0.5 * (np.conj(xi) * a @ a - xi * a.T @ a.T))
    displacement = expm(state.alpha * a.T - np.conj(state.alpha) * a)
    q = state.n_th / (state.n_th + 1.0)
    p = q ** np.arange(cutoff) / (state.n_th + 1.0)
    dressing = displacement @ squeeze
    return (dressing * p) @ dressing.conj().T


# dressed states small enough for dense expm references, with their cutoffs
DRESSED_STATES = [
    (GaussianModeState(0.3, r=0.4, alpha=1.1), 64),
    (GaussianModeState(1.0, alpha=-1.0), 48),
    (GaussianModeState(0.0, r=0.6), 40),
    (GaussianModeState(0.5, r=0.3, alpha=0.8 + 0.6j), 64),
    (GaussianModeState(0.2, r=0.5, squeeze_phase=0.7), 48),
    (GaussianModeState(0.4, r=0.2, alpha=-0.3 - 0.9j, squeeze_phase=2.1), 33),
]

# (state, tolerance, cutoff): perfbench's nine oracle states, then
# TestChooseCutoff.test_result_is_minimal's six, each cutoff pinned from the
# rate-step search that came before crossings were predicted
FROZEN_CUTOFFS = [
    *((GaussianModeState(n_th, r=r, alpha=alpha), 1e-12, cutoff) for n_th, r, alpha, cutoff in (
        (0.2, 0.5, 1.0, 52), (0.1, 0.7, 1.2, 66), (0.4, 0.6, 1.0, 79), (0.6, 0.7, 1.0, 120),
        (0.3, 1.0, 1.5, 161), (0.5, 1.1, cmath.rect(1.0, 0.25 * math.pi), 261),
        (0.5, 1.3, 1.0, 363), (1.2, 1.0, cmath.rect(1.5, 0.75 * math.pi), 373),
        (2.0, 1.2, 2.0, 747),
    )),
    (GaussianModeState(0.8, r=0.3), 1e-10, 53),
    (GaussianModeState(0.2, r=0.5, alpha=1.0), 1e-10, 44),
    (GaussianModeState(0.4, r=0.6, alpha=-1.0), 1e-10, 66),
    (GaussianModeState(0.5, alpha=1.0 + 1.0j), 1e-10, 39),
    (GaussianModeState(1.2, r=1.0, alpha=1.5 * np.exp(0.25j * np.pi)), 1e-10, 309),
    (GaussianModeState(3.0), 1e-10, 85),
]


def random_search_states() -> list[tuple[GaussianModeState, float]]:
    """90 seeded states, each part (thermal, squeeze, displacement, phase) present or not."""
    rng = np.random.default_rng(2026)
    states = []
    for _ in range(90):
        n_th = rng.choice([0.0, rng.uniform(0.0, 3.0)])
        r = rng.choice([0.0, rng.uniform(0.0, 1.3)])
        alpha = rng.choice([0j, cmath.rect(rng.uniform(0.0, 2.5), rng.uniform(-np.pi, np.pi))])
        phase = rng.choice([0.0, rng.uniform(0.0, 2.0 * np.pi)])
        tol = rng.choice([1e-9, 1e-10, 1e-12])
        states.append((GaussianModeState(n_th, r=r, alpha=alpha, squeeze_phase=phase), tol))
    return states


# sha256 of repr() of the list of their cutoffs, pinned from the same
# rate-step search
RANDOM_CUTOFFS_SHA256 = "2e1a80e6f7e86699ded75b56297329de3223e1638adea4338e0931a7ecfd8f78"

# the most builds a search may take: each FROZEN_CUTOFFS state, and all of
# random_search_states() together, as the predicted search takes them
FROZEN_BUILD_BUDGETS = [3, 3, 4, 4, 5, 3, 2, 3, 3, 3, 3, 4, 2, 3, 3]
RANDOM_BUILD_BUDGET = 258


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter on this tree's otto_forge, warnings made errors."""
    src = pathlib.Path(otto_forge.__file__).parents[1]
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=120)


class TestConstruction:
    def test_vacuum_is_exact(self):
        density = build_fock_density(GaussianModeState(0.0), cutoff=4)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(density.matrix, expected)
        assert density.trace_deficit == 0.0

    def test_thermal_is_geometric(self):
        density = build_fock_density(GaussianModeState(1.0), cutoff=64)
        populations = density.populations()
        expected = 0.5 ** (np.arange(64) + 1)
        np.testing.assert_allclose(populations, expected, rtol=1e-14)
        assert density.trace_deficit == pytest.approx(0.5**64, rel=1e-10)

    def test_squeezed_vacuum_occupation(self):
        density = build_fock_density(GaussianModeState(0.0, r=0.5), cutoff=60)
        assert density.mean_occupation() == pytest.approx(math.sinh(0.5) ** 2, rel=1e-12)

    def test_mean_energy_matches_analytic_state_energy(self):
        state = GaussianModeState(N2_REF, r=0.5)
        density = build_fock_density(state, cutoff=96)
        assert density.mean_energy(20.0) == pytest.approx(
            state_energy(state, 20.0), rel=1e-12
        )

    def test_matrices_are_hermitian_and_immutable(self):
        state = GaussianModeState(0.4, r=0.6, alpha=0.8 + 0.3j)
        density = build_fock_density(state, cutoff=96)
        m = density.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        with pytest.raises(ValueError):
            m[0, 0] = 2.0

    @pytest.mark.parametrize("state, cutoff", DRESSED_STATES)
    def test_factor_build_matches_dense_exponentials(self, state, cutoff):
        density = build_fock_density(state, cutoff, tail_tol=1e-6)
        reference = dense_reference_density(state, cutoff)
        assert np.max(np.abs(density.matrix - reference)) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3, 10, 11, 64, 65])
    def test_half_eigenbasis_exponential_matches_dense_expm(self, dim):
        # odd dims carry a zero mode; random phases leave the +-lambda pairing intact
        rng = np.random.default_rng(dim)
        g = 0.7 * np.sqrt(np.arange(1.0, dim)) * np.exp(2j * np.pi * rng.random(dim - 1))
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        generator = np.diag(g, -1) - np.diag(g.conj(), 1)
        result = block.copy()
        assert fock._apply_skew_exponential(fock._skew_factors(g), result) is None
        assert np.max(np.abs(result - expm(generator) @ block)) <= 1e-12

    def test_zero_generator_leaves_the_block(self):
        # a squeeze amplitude of 5e-324 halves to an all-zero generator
        block = np.arange(12.0).reshape(4, 3) + 1j
        result = block.copy()
        fock._apply_skew_exponential(fock._skew_factors(np.zeros(3)), result)
        assert np.array_equal(result, block)
        ran = []  # work handed in beside an empty generator still runs, here
        assert fock._skew_factors(np.zeros(3), lambda: ran.append(1)) is None and ran == [1]

    def test_exponential_overwrites_one_parity_block_only(self):
        # the squeeze applies it to the strided view of one parity block
        rng = np.random.default_rng(3)
        w = rng.normal(size=(21, 9)) + 1j * rng.normal(size=(21, 9))
        before = w.copy()
        block = w[1::2, 1::2]
        g = 0.4 * np.exp(0.3j) * np.sqrt(np.arange(1.0, block.shape[0]))
        expected = expm(np.diag(g, -1) - np.diag(g.conj(), 1)) @ block
        fock._apply_skew_exponential(fock._skew_factors(g), block)
        assert np.max(np.abs(w[1::2, 1::2] - expected)) <= 1e-12
        untouched = np.ones(w.shape, dtype=bool)
        untouched[1::2, 1::2] = False
        assert np.array_equal(w[untouched], before[untouched])

    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    @pytest.mark.parametrize("zero_last", [False, True])
    def test_bidiagonal_svd_reconstructs_the_matrix(self, n, zero_last):
        # an odd generator size pads the bidiagonal's diagonal with one 0
        rng = np.random.default_rng(n)
        diag, subdiag = rng.random(n) + 0.1, rng.random(n - 1) + 0.1
        if zero_last:
            diag[-1] = 0.0
        b = np.diag(diag) + np.diag(subdiag, -1)
        u, s, vt = fock._bidiagonal_svd(diag, subdiag)
        assert np.array_equal(np.diag(diag) + np.diag(subdiag, -1), b)  # inputs kept
        assert np.max(np.abs((u * s) @ vt - b)) <= 1e-14 * s.max()
        for q in (u, vt):
            assert np.max(np.abs(q @ q.T - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("dim", [2049, 2050])
    @pytest.mark.parametrize("generator", ["displacement", "squeeze"])
    def test_exponential_keeps_column_norms(self, dim, generator):
        if generator == "displacement":
            g = (1.3 - 0.8j) * np.sqrt(np.arange(1.0, dim))
        else:  # the odd-parity block of a squeeze by 1.2 e^{0.7i}
            low = np.arange(1.0, 2 * dim - 2, 2)
            g = -0.6 * np.exp(0.7j) * np.sqrt((low + 1.0) * (low + 2.0))
        rng = np.random.default_rng(dim)
        block = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
        norms = np.linalg.norm(block, axis=0)
        result = block.copy()
        fock._apply_skew_exponential(fock._skew_factors(g), result)
        assert np.max(np.abs(np.linalg.norm(result, axis=0) / norms - 1.0)) <= 1e-12

    def test_passive_spectrum_is_the_squared_diagonal(self, monkeypatch):
        density = build_fock_density(GaussianModeState(2.0), cutoff=64)
        reference = np.clip(np.linalg.eigvalsh(density.matrix), 0, 1)

        def no_gram(*args, **kwargs):
            raise AssertionError("a diagonal factor's spectrum formed the Gram matrix")

        monkeypatch.setattr(fock, "_zherk", no_gram)
        assert np.max(np.abs(density.eigenvalues - reference)) <= 1e-15

    @pytest.mark.parametrize("layout", ["complex", "real", "strided", "one column"])
    def test_zherk_binding_matches_scipy_blas(self, layout):
        # the table-bound zherk gives scipy.linalg.blas.zherk(1.0, w.T)'s bytes
        from scipy.linalg.blas import zherk

        rng = np.random.default_rng(3)
        w = rng.normal(size=(40, 12)) + 1j * rng.normal(size=(40, 12))
        w = {"complex": w, "real": w.real.copy(), "strided": w[::2, 1::3],
             "one column": w[:, :1].copy()}[layout]
        gram = fock._zherk(w)
        assert gram.flags.f_contiguous and gram.shape == (w.shape[1],) * 2
        assert gram.tobytes() == zherk(1.0, w.T).tobytes()

    def test_missing_scipy_is_module_not_found(self, monkeypatch):
        # the Cython table is loaded from scipy's files; without scipy that
        # fails as `import scipy` would
        monkeypatch.delitem(sys.modules, "scipy.linalg.cython_blas", raising=False)
        monkeypatch.setattr(fock.util, "find_spec", lambda name: None)
        with pytest.raises(ModuleNotFoundError):
            fock._cython_capi.__wrapped__("cython_blas")

    def test_first_builds_in_two_threads(self):
        # two threads that start a fresh interpreter's first builds at once
        # both load the Cython tables, and build the same factor
        result = run_fresh("""
            import threading
            from otto_forge import GaussianModeState, build_fock_density
            state = GaussianModeState(0.3, r=0.4, alpha=1.1)
            barrier, factors = threading.Barrier(2), [None, None]
            def build(i):
                barrier.wait()
                factors[i] = build_fock_density(state, 64, 0.5).factor.tobytes()
            threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert factors[0] is not None and factors[0] == factors[1]
        """)
        assert result.returncode == 0, result.stderr
        assert not result.stderr

    @pytest.mark.parametrize(
        "state, cutoff", [*DRESSED_STATES, (GaussianModeState(1.0), 64)]
    )
    def test_gram_spectrum_matches_dense_eigvalsh(self, state, cutoff):
        # the K x K Gram spectrum, padded with zeros, is the N x N one
        density = build_fock_density(state, cutoff, tail_tol=1e-6)
        reference = np.clip(np.linalg.eigvalsh(dense_reference_density(state, cutoff)), 0, 1)
        assert density.eigenvalues.shape == (cutoff,)
        assert np.max(np.abs(density.eigenvalues - reference)) <= 1e-13

    def test_oracle_path_never_forms_the_matrix(self):
        state = GaussianModeState(0.5, r=0.3, alpha=0.8 + 0.6j)
        cutoff = choose_cutoff(state, 1e-10)
        density = build_fock_density(state, cutoff, tail_tol=1e-10)
        ergotropy_of_density(density, 3.0)
        entropy_fock(density)
        assert "matrix" not in vars(density)
        assert density.factor.shape[1] < cutoff

    def test_cutoff_too_small_carries_its_tail_mass(self):
        with pytest.raises(CutoffTooSmall) as info:
            build_fock_density(GaussianModeState(0.0, r=1.0), cutoff=8, tail_tol=1e-9)
        assert 1e-9 < info.value.tail_mass < 1.0

    @pytest.mark.parametrize("state, cutoff", [
        (GaussianModeState(0.0, r=1.0), 2),
        (GaussianModeState(0.0, alpha=3.0), 1),
        (GaussianModeState(1e-300, alpha=3.0), 1),
    ])
    def test_empty_generator_is_too_small(self, state, cutoff):
        # the build would be the undressed state, tail 0: ergotropy 0 where
        # the analytic value is 1.381 (the squeeze) or 9.0 (the displacement)
        with pytest.raises(CutoffTooSmall) as info:
            ergotropy_fock(state, 1.0, cutoff)
        assert info.value.tail_mass == 1.0

    def test_cutoff_too_small_raises(self):
        with pytest.raises(CutoffTooSmall):
            build_fock_density(GaussianModeState(0.0, r=1.0), cutoff=8)
        with pytest.raises(CutoffTooSmall):
            build_fock_density(GaussianModeState(5.0), cutoff=16)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_fock_density(GaussianModeState(0.0), cutoff=0)
        with pytest.raises(ValueError):
            build_fock_density(GaussianModeState(0.0), cutoff=8, tail_tol=0.0)
        with pytest.raises(ValueError):
            choose_cutoff(GaussianModeState(0.0), 0.0)

    @pytest.mark.parametrize("state, cutoff", DRESSED_STATES)
    def test_tail_values_are_read_from_the_factor(self, state, cutoff):
        built = build_fock_density(state, cutoff, tail_tol=1e-6)
        density = FockDensity(built.factor)
        for name in ("trace_deficit", "edge_mass", "tail_bound"):
            assert getattr(density, name) == getattr(built, name)
        norms = np.sum(np.abs(built.factor) ** 2, axis=1)
        window = max(4, cutoff // 16)
        assert density.trace_deficit == pytest.approx(1.0 - norms.sum(), abs=1e-14)
        assert density.edge_mass == pytest.approx(norms[cutoff - window :].sum(), rel=1e-12)
        assert density.tail_bound == max(density.trace_deficit, density.edge_mass)
        populations = density.populations()
        assert populations is density.populations()
        assert not populations.flags.writeable

    def test_build_peaks_below_four_factors(self):
        state = GaussianModeState(20, alpha=1.0)
        build_fock_density(state, 600, 0.5)  # warm-up: first-call caches and imports
        tracemalloc.start()
        try:
            density = build_fock_density(state, 600, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert density.factor.shape == (600, 600)
        assert peak <= 4 * density.factor.nbytes

    @pytest.mark.parametrize("factor", [np.ones(3), np.ones((2, 3))])
    def test_malformed_factor_rejected(self, factor):
        with pytest.raises(ValueError):
            FockDensity(factor=factor)

    def test_non_positive_rejected(self):
        # two equal columns: their squared norms are not the spectrum
        with pytest.raises(DensityNotPositive):
            FockDensity(factor=np.full((3, 2), 0.5)).eigenvalues

    @pytest.mark.parametrize("perturbation, certified", [(1e-6, False), (1e-13, True)])
    def test_certificate_floor(self, perturbation, certified):
        # a unitary times diag(sqrt(p)) has orthogonal columns, and one
        # perturbed entry moves the Gram off-diagonal by about as much
        rng = np.random.default_rng(7)
        unitary, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        p = np.array([0.5, 0.3, 0.15, 0.05])
        factor = unitary[:, :4] * np.sqrt(p)
        factor[0, 0] += perturbation
        density = FockDensity(factor=factor)
        if not certified:
            with pytest.raises(DensityNotPositive):
                density.eigenvalues
            return
        assert np.max(np.abs(density.eigenvalues - np.sort(np.append(p, [0.0, 0.0])))) <= 1e-12


def serial_dressed_columns(state: GaussianModeState, cutoff: int) -> np.ndarray:
    """The dressed factor on one thread: both squeeze blocks, then the displacement."""
    p = fock.thermal_probabilities(state.n_th, cutoff)
    width = int(np.count_nonzero(p > np.finfo(float).eps * p[0]))
    w = np.zeros((cutoff, width), dtype=complex)
    w[np.arange(width), np.arange(width)] = np.sqrt(p[:width])
    xi = state.r * complex(math.cos(state.squeeze_phase), math.sin(state.squeeze_phase))
    for offset in (0, 1):
        low = np.arange(offset, cutoff - 2, 2, dtype=float)
        g = -0.5 * xi * np.sqrt((low + 1.0) * (low + 2.0))
        fock._apply_skew_exponential(fock._skew_factors(g), w[offset::2, offset::2])
    g = state.alpha * np.sqrt(np.arange(1, cutoff, dtype=float))
    fock._apply_skew_exponential(fock._skew_factors(g), w)
    return w


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def fail_on_the_helper(monkeypatch):
    """Make _bidiagonal_svd raise LapackFailure on the helper thread; returns the real one."""
    caller, svd = threading.current_thread(), fock._bidiagonal_svd

    def failing_on_the_helper(diag, subdiag):
        if threading.current_thread() is not caller:
            raise LapackFailure("LAPACK dbdsdc failed with info 1")
        return svd(diag, subdiag)

    monkeypatch.setattr(fock, "_bidiagonal_svd", failing_on_the_helper)
    return svd


class TestHelperThread:
    """A displaced squeezed state's build takes the displacement's SVD on a helper thread."""

    # real and complex alpha, a squeeze phase, odd and even cutoffs, K < N and K = N
    STATES = [
        (GaussianModeState(0.3, r=0.4, alpha=1.1), 64, False),
        (GaussianModeState(0.3, r=0.4, alpha=1.1), 65, False),
        (GaussianModeState(0.5, r=0.3, alpha=0.8 + 0.6j), 64, False),
        (GaussianModeState(0.4, r=0.2, alpha=-0.3 - 0.9j, squeeze_phase=2.1), 33, False),
        (GaussianModeState(20.0, r=0.2, alpha=1.0 - 1.0j, squeeze_phase=0.5), 64, True),
        (GaussianModeState(20.0, r=0.2, alpha=-1.5), 63, True),
    ]

    @pytest.mark.parametrize("state, cutoff, full_width", STATES)
    def test_overlapped_build_has_the_serial_bytes(self, state, cutoff, full_width, monkeypatch):
        caller, sizes = threading.current_thread(), []
        svd = fock._bidiagonal_svd

        def recorded(diag, subdiag):
            sizes.append((diag.size, threading.current_thread() is caller))
            return svd(diag, subdiag)

        monkeypatch.setattr(fock, "_bidiagonal_svd", recorded)
        w = fock._dressed_thermal_columns(state, fock.thermal_probabilities(state.n_th, cutoff))
        # the two squeeze blocks' SVDs here, the larger displacement one on the helper
        assert sorted(sizes)[-1] == ((cutoff + 1) // 2, False)
        assert [here for _, here in sizes].count(True) == 2
        assert (w.shape[1] == cutoff) is full_width
        assert w.tobytes() == serial_dressed_columns(state, cutoff).tobytes()

    def test_helper_failure_reaches_the_caller(self, monkeypatch, capsys):
        svd = fail_on_the_helper(monkeypatch)
        with pytest.raises(LapackFailure, match="info 1"):
            build_fock_density(GaussianModeState(0.3, r=0.4, alpha=1.1), 64, 0.5)
        argv = ["ergotropy", "--nth", "0.2", "--r", "0.5", "--alpha-re", "1", "--omega", "3",
                "--oracle"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "physics error: LAPACK dbdsdc failed with info 1\n"
        monkeypatch.setattr(fock, "_bidiagonal_svd", svd)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["oracle_cutoff"] == 52

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_helper(self):
        # the child has no copy of its parent's helper thread; a build there
        # that waited on it would hang until the alarm ends the child
        result = run_fresh("""
            import os, signal, warnings
            from otto_forge import GaussianModeState, build_fock_density
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            state = GaussianModeState(0.3, r=0.4, alpha=1.1)
            factor = build_fock_density(state, 64, 0.5).factor.tobytes()
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                os._exit(0 if build_fock_density(state, 64, 0.5).factor.tobytes() == factor else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0, status
            assert build_fock_density(state, 64, 0.5).factor.tobytes() == factor
        """)
        assert result.returncode == 0, result.stderr
        assert not result.stderr

    def test_first_build_binds_the_svd_on_both_threads(self):
        # both threads' first SVD binds dbdsdc at once, in a fresh interpreter
        state, cutoff = self.STATES[2][:2]
        expected = digest(serial_dressed_columns(state, cutoff))
        result = run_fresh(f"""
            from otto_forge import GaussianModeState, fock
            state = GaussianModeState(0.5, r=0.3, alpha=0.8 + 0.6j)
            w = fock._dressed_thermal_columns(state, fock.thermal_probabilities(0.5, {cutoff}))
            print(__import__("hashlib").sha256(w.tobytes()).hexdigest())
        """)
        assert result.returncode == 0, result.stderr
        assert not result.stderr
        assert result.stdout.strip() == expected


class TestBlasThreads:
    """The oracle runs each bundled OpenBLAS on one thread and puts its count back after."""

    @pytest.fixture
    def counts(self):
        """Both libraries set to 2 threads; reads their thread counts."""
        found = fock._blas_thread_counts()
        if not found:
            pytest.skip("no bundled OpenBLAS in this installation")
        before = [get() for get, _ in found]
        for _, put in found:
            put(2)
        yield lambda: [get() for get, _ in found]
        for (_, put), count in zip(found, before):
            put(count)

    @pytest.fixture
    def calls(self, monkeypatch, counts):
        """(routine, on the calling thread, thread counts) of each _bidiagonal_svd and _zherk call."""
        seen, caller = [], threading.current_thread()
        for name in ("_bidiagonal_svd", "_zherk"):
            def recorded(*args, name=name, routine=getattr(fock, name)):
                seen.append((name, threading.current_thread() is caller, counts()))
                return routine(*args)

            monkeypatch.setattr(fock, name, recorded)
        return seen

    def test_the_oracle_runs_on_one_thread(self, counts, calls):
        density = search_density(GaussianModeState(0.3, r=0.4, alpha=1.1), 1e-9)
        entropy_fock(density)
        routines = {(name, here) for name, here, _ in calls}
        assert routines == {("_bidiagonal_svd", True), ("_bidiagonal_svd", False), ("_zherk", True)}
        assert {tuple(seen) for *_, seen in calls} == {(1,) * len(counts())}
        assert counts() == [2] * len(counts())

    def test_counts_return_after_a_refused_build(self, counts, calls):
        with pytest.raises(CutoffTooSmall):
            build_fock_density(GaussianModeState(0.3, r=0.4, alpha=1.1), 12, 1e-9)
        assert calls and {tuple(seen) for *_, seen in calls} == {(1,) * len(counts())}
        assert counts() == [2] * len(counts())

    def test_counts_return_after_a_helper_failure(self, counts, monkeypatch):
        fail_on_the_helper(monkeypatch)
        with pytest.raises(LapackFailure, match="info 1"):
            build_fock_density(GaussianModeState(0.3, r=0.4, alpha=1.1), 64, 0.5)
        assert counts() == [2] * len(counts())

    def test_overlapping_scopes_keep_one_thread_until_the_last_exits(self, counts):
        inside, leave = threading.Event(), threading.Event()

        def other_scope():
            with fock._ONE_BLAS_THREAD:
                inside.set()
                leave.wait(60)

        other = threading.Thread(target=other_scope)
        with fock._ONE_BLAS_THREAD:
            other.start()
            assert inside.wait(60)
        assert counts() == [1] * len(counts())  # the other scope is still open
        leave.set()
        other.join(60)
        assert counts() == [2] * len(counts())

    @pytest.mark.parametrize("missing", ["package", "directory", "symbol"])
    def test_missing_libraries_are_skipped(self, monkeypatch, missing):
        if missing == "symbol":
            absent = tuple((package, prefix, "no_such_get_num_threads")
                           for package, prefix, _ in fock._BUNDLED_BLAS)
            monkeypatch.setattr(fock, "_BUNDLED_BLAS", absent)
        else:  # no package, or a package without a bundled-library directory
            found = None if missing == "package" else importlib.util.find_spec("json")
            monkeypatch.setattr(fock.util, "find_spec", lambda name: found)
        fock._blas_thread_counts.cache_clear()
        try:
            assert fock._blas_thread_counts() == ()
            with fock._ONE_BLAS_THREAD:
                pass
        finally:
            fock._blas_thread_counts.cache_clear()  # looked up again, unpatched, when next needed

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_while_another_thread_holds_the_lock(self):
        # the child has its parent's lock as it was at the fork, held by a
        # thread that the child does not have; a build that waited on it
        # would hang until the alarm ends the child
        result = run_fresh("""
            import os, signal, threading, warnings
            from otto_forge import GaussianModeState, build_fock_density, fock
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            state = GaussianModeState(0.3, r=0.4, alpha=1.1)
            factor = build_fock_density(state, 64, 0.5).factor.tobytes()
            held, release = threading.Event(), threading.Event()

            def hold():
                with fock._ONE_BLAS_THREAD.lock:
                    held.set()
                    release.wait(60)

            holder = threading.Thread(target=hold)
            holder.start()
            held.wait(60)
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                os._exit(0 if build_fock_density(state, 64, 0.5).factor.tobytes() == factor else 1)
            release.set()
            holder.join()
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0, status
        """)
        assert result.returncode == 0, result.stderr
        assert not result.stderr


class TestErgotropyOracle:
    def test_thermal_state_has_zero_ergotropy(self):
        assert abs(ergotropy_fock(GaussianModeState(1.3), 7.0, 64)) <= 1e-9

    def test_squeezed_thermal_reference(self):
        state = GaussianModeState(N2_REF, r=0.5)
        assert ergotropy_fock(state, 20.0, 64) == pytest.approx(
            7.1308403638379171, rel=1e-5
        )

    def test_displaced_thermal_reference(self):
        state = GaussianModeState(0.3, alpha=1.5)
        assert ergotropy_fock(state, 7.0, 80) == pytest.approx(15.75, abs=1e-4)

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = GaussianModeState(
                rng.uniform(0, 2), rng.uniform(0, 0.8), rng.uniform(0, 1.5)
            )
            density = build_fock_density(state, resolving_cutoff(state), tail_tol=1e-8)
            assert ergotropy_of_density(density, 3.0) >= -1e-9

    def test_oracle_equivalence_random_family(self):
        # moderate states; the full-range campaign lives in the acceptance suite
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 25:
            n_th = rng.uniform(0, 3)
            r = rng.uniform(0, 1.0)
            mag = rng.uniform(0, 2)
            phase = rng.uniform(0, 2 * np.pi)
            state = GaussianModeState(n_th, r, mag * np.exp(1j * phase))
            omega = rng.uniform(0.5, 50)
            density = build_fock_density(state, resolving_cutoff(state), tail_tol=1e-8)
            analytic = ergotropy_analytic(state, omega)
            spectral = ergotropy_of_density(density, omega)
            assert abs(spectral - analytic) / max(analytic, 1e-9) < 1e-5
            assert abs(entropy_fock(density) - thermal_entropy(n_th)) < 1e-6
            checked += 1

    def test_heavy_tail_corner_state(self):
        # the antisqueezed variance (2n+1)e^{2r} sets the occupation tail's
        # decay length; this corner needs over a thousand levels
        state = GaussianModeState(3.0, r=1.5, alpha=1.0)
        cutoff = resolving_cutoff(state)
        assert cutoff > 1000
        density = build_fock_density(state, cutoff, tail_tol=1e-7)
        analytic = ergotropy_analytic(state, 1.0)
        assert abs(ergotropy_of_density(density, 1.0) - analytic) / analytic < 1e-5
        assert abs(entropy_fock(density) - thermal_entropy(3.0)) < 1e-6

    @pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
    def test_invalid_frequency_is_refused(self, omega):
        state = GaussianModeState(0.2, r=0.5, alpha=1.0)
        message = "frequency must be a positive finite number"
        with pytest.raises(ValueError, match=message):
            ergotropy_analytic(state, omega)
        with pytest.raises(ValueError, match=message):
            ergotropy_fock(state, omega, 64)

    @pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
    def test_invalid_frequency_is_refused_before_the_build(self, omega, monkeypatch):
        # the 747-level state, whose build alone takes tens of milliseconds
        def refused(*args, **kwargs):
            raise AssertionError("a density was built for an invalid frequency")

        monkeypatch.setattr(fock, "build_fock_density", refused)
        with pytest.raises(ValueError, match="frequency must be a positive finite number"):
            ergotropy_fock(GaussianModeState(2, r=1.2, alpha=2), omega, 747)

    def test_under_resolved_state_is_refused_not_wrong(self):
        # at 192 levels this state's spectral ergotropy would be off by
        # percent-scale; the edge guard must catch it instead
        state = GaussianModeState(5.0, r=1.5, alpha=3.0)
        with pytest.raises(CutoffTooSmall):
            build_fock_density(state, cutoff=192, tail_tol=1e-9)


class TestEntropy:
    def test_vacuum(self):
        assert entropy_fock(build_fock_density(GaussianModeState(0.0), 8)) == 0.0

    def test_thermal_matches_closed_form(self):
        density = build_fock_density(GaussianModeState(N2_REF), cutoff=64)
        assert entropy_fock(density) == pytest.approx(0.45844874336819036, abs=1e-9)

    def test_spectrum_invariance_under_dressing(self):
        thermal = thermal_entropy(N2_REF)
        for state in (
            GaussianModeState(N2_REF, r=0.5),
            GaussianModeState(N2_REF, alpha=1.2),
            GaussianModeState(N2_REF, r=0.5, alpha=0.7 + 0.2j),
        ):
            density = build_fock_density(state, cutoff=128)
            assert abs(entropy_fock(density) - thermal) < 1e-6


class TestIndependence:
    """The oracle reaches none of the closed forms it is checked against."""

    CLOSED_FORMS = [
        (gaussian, name) for name, fn in vars(gaussian).items()
        if inspect.isfunction(fn) and fn.__module__ == gaussian.__name__
    ] + [
        (thermo, name) for name in (
            "occupation", "invert_occupation", "oscillator_energy", "thermal_entropy",
            "fictitious_temperature",
        )
    ]

    @pytest.mark.parametrize("state", [
        GaussianModeState(0.4, r=0.6, alpha=1.1 + 0.3j), GaussianModeState(1.5),
    ])
    def test_oracle_runs_with_every_closed_form_refused(self, state, monkeypatch):
        def oracle():
            density = search_density(state, 1e-9)
            values = ergotropy_of_density(density, 3.0), entropy_fock(density)
            return density.dim, density.eigenvalues.tobytes(), *map(float.hex, values)

        def refused(*args, **kwargs):
            raise AssertionError("the oracle called a closed form")

        expected = oracle()
        for module, name in self.CLOSED_FORMS:
            monkeypatch.setattr(module, name, refused)
            if hasattr(fock, name):
                monkeypatch.setattr(fock, name, refused)
        assert oracle() == expected


class TestPhaseInvariance:
    def test_oracle_outputs_ignore_phases(self):
        plain = GaussianModeState(0.3, r=0.6, alpha=1.2)
        rotated = GaussianModeState(0.3, r=0.6, alpha=1.2 * np.exp(1.1j), squeeze_phase=0.9)
        d_plain = build_fock_density(plain, 96)
        d_rot = build_fock_density(rotated, 96)
        w_plain = ergotropy_of_density(d_plain, 5.0)
        w_rot = ergotropy_of_density(d_rot, 5.0)
        assert w_rot == pytest.approx(w_plain, rel=1e-8)
        assert entropy_fock(d_rot) == pytest.approx(entropy_fock(d_plain), abs=1e-8)
        assert d_rot.mean_energy(5.0) == pytest.approx(d_plain.mean_energy(5.0), rel=1e-8)


class TestChooseCutoff:
    @pytest.mark.parametrize("state, cutoff", [
        (GaussianModeState(0.0), 1),
        (GaussianModeState(0.0, r=1e-8), 3),
        (GaussianModeState(0.0, alpha=1e-8), 2),
    ])
    def test_a_dressing_needs_its_generator(self, state, cutoff):
        # the vacuum needs one level, a squeeze three and a displacement two,
        # however weak: below that the dressing's generator is empty
        assert choose_cutoff(state, 1e-12) == cutoff

    def test_squeezed_thermal_cutoff_verified_by_trace(self):
        state = GaussianModeState(N2_REF, r=0.5)
        cutoff = choose_cutoff(state, 1e-12)
        density = build_fock_density(state, cutoff, tail_tol=1e-12)
        assert density.tail_bound < 1e-12
        # explicit trace recomputation
        assert 1.0 - float(np.trace(density.matrix).real) < 1e-12

    def test_high_squeezing_cutoff(self):
        state = GaussianModeState(0.0, r=1.46)
        cutoff = choose_cutoff(state, 1e-12)
        assert build_fock_density(state, cutoff, tail_tol=1e-12).tail_bound < 1e-12

    def test_result_is_minimal(self):
        for state in (
            GaussianModeState(0.8, r=0.3),
            GaussianModeState(0.2, r=0.5, alpha=1.0),
            GaussianModeState(0.4, r=0.6, alpha=-1.0),
            GaussianModeState(0.5, alpha=1.0 + 1.0j),
            GaussianModeState(1.2, r=1.0, alpha=1.5 * np.exp(0.25j * np.pi)),
            GaussianModeState(3.0),
        ):
            cutoff = choose_cutoff(state, 1e-10)
            build_fock_density(state, cutoff, tail_tol=1e-10)
            with pytest.raises(CutoffTooSmall):
                build_fock_density(state, cutoff - 1, tail_tol=1e-10)

    def test_search_lands_on_the_known_cutoff_in_few_builds(self, monkeypatch):
        # each frozen state within its own budget, the random corpus within one in all
        calls = []
        build = fock.build_fock_density

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(fock, "build_fock_density", counted)
        for (state, tol, cutoff), budget in zip(FROZEN_CUTOFFS, FROZEN_BUILD_BUDGETS, strict=True):
            calls.clear()
            assert choose_cutoff(state, tol) == cutoff, state
            assert len(calls) <= budget, state
        calls.clear()
        for state, tol in random_search_states():
            choose_cutoff(state, tol)
        assert len(calls) <= RANDOM_BUILD_BUDGET

    def test_cutoffs_match_the_frozen_table(self):
        for state, tol, cutoff in FROZEN_CUTOFFS:
            assert choose_cutoff(state, tol) == cutoff, state

    def test_random_corpus_cutoffs_match_their_frozen_hash(self):
        cutoffs = [choose_cutoff(state, tol) for state, tol in random_search_states()]
        assert hashlib.sha256(repr(cutoffs).encode()).hexdigest() == RANDOM_CUTOFFS_SHA256

    def test_search_holds_one_density_at_a_time(self, monkeypatch):
        # only the lowest passing density is kept: a new build starts with at
        # most one density that an earlier build returned still alive
        returned = []
        build = fock.build_fock_density

        def tracked(*args, **kwargs):
            assert sum(ref() is not None for ref in returned) <= 1
            density = build(*args, **kwargs)
            returned.append(weakref.ref(density))
            return density

        monkeypatch.setattr(fock, "build_fock_density", tracked)
        for state, tol, cutoff in FROZEN_CUTOFFS:
            returned.clear()
            assert search_density(state, tol).dim == cutoff

    @pytest.mark.parametrize(
        "state",
        [
            GaussianModeState(0.0),
            GaussianModeState(0.8, r=0.3),
            GaussianModeState(0.4, r=0.6, alpha=1.0),
            GaussianModeState(1.2, r=1.0, alpha=1.5 * np.exp(0.25j * np.pi)),
        ],
    )
    def test_search_returns_the_density_at_its_cutoff(self, state):
        density = search_density(state, 1e-12)
        assert density.dim == choose_cutoff(state, 1e-12)
        rebuilt = build_fock_density(state, density.dim, tail_tol=1e-12)
        assert np.array_equal(density.factor, rebuilt.factor)

    def test_oracle_command_builds_no_cutoff_twice(self, capsys, monkeypatch):
        # every build assembles its factor once, whichever namespace calls it
        built = []
        columns = fock._dressed_thermal_columns

        def counted(state, p):
            built.append(p.size)
            return columns(state, p)

        monkeypatch.setattr(fock, "_dressed_thermal_columns", counted)
        assert choose_cutoff(GaussianModeState(2.0, r=1.2, alpha=2.0), 1e-12) == 747
        searched = built.copy()
        built.clear()
        argv = ["ergotropy", "--nth", "2", "--r", "1.2", "--alpha-re", "2", "--omega", "20", "--oracle"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["oracle_cutoff"] == 747
        assert built == searched

    def test_window_step_below_the_result_is_probed(self):
        # the tail bound fails at 80, where the edge window widens, and
        # passes at both 79 and 81: the search must not stop at 81
        state = GaussianModeState(0.4, r=0.6, alpha=1.0)
        assert choose_cutoff(state, 1e-12) == 79
        with pytest.raises(CutoffTooSmall):
            build_fock_density(state, 80, tail_tol=1e-12)

    def test_failing_probe_below_a_window_step(self, monkeypatch):
        # 97 fails and 98 passes; the window widens between 95 and 96, so the
        # search must probe 95 too, and its failure settles the result at 98
        probes = []
        build = fock.build_fock_density

        def recorded(state, cutoff, tail_tol):
            probes.append(cutoff)
            return build(state, cutoff, tail_tol)

        monkeypatch.setattr(fock, "build_fock_density", recorded)
        state = GaussianModeState(1.5, r=0.42, alpha=2.18)
        assert search_density(state, 1e-9).dim == 98
        assert {97, 95} <= set(probes)
        assert fock._edge_window(96) > fock._edge_window(95)
        for cutoff in (97, 95):
            with pytest.raises(CutoffTooSmall):
                build(state, cutoff, 1e-9)
        for cutoff in probes:  # no probe sits within round-off of the tolerance
            try:
                tail = build(state, cutoff, 1e-9).tail_bound
            except CutoffTooSmall as exc:
                tail = exc.tail_mass
            assert abs(tail - 1e-9) >= 0.1e-9

    def test_search_failure_below_hard_cap(self):
        with pytest.raises(CutoffSearchFailed):
            choose_cutoff(GaussianModeState(5.0, r=1.5, alpha=3.0), 1e-12, hard_cap=64)
