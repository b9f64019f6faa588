import math
from dataclasses import FrozenInstanceError
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effham import forward, spectral
from effham.errors import NearSingularBlock, PoleProximity
from effham.forward import (_cut, _slope_recurrence, continued_fraction,
                            effective_hamiltonian, g_function,
                            g_function_dense_oracle, ufl_factorize)
from effham.instances import random_chain, random_hamiltonian
from effham.model import (PartitionedHamiltonian, TridiagonalChain,
                          refactorize)


def _tail(a, rho):
    """Factored QHQ block (unit-subdiagonal gauge) from raw tail entries."""
    return refactorize(TridiagonalChain(a, rho), "unit_subdiagonal")


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _g_continued_fraction(chain, E):
    """G(E) through the full continued-fraction pivots of the tail, or
    None where a deeper pivot fails their per-level rule; a breakdown at
    level 1, a pole of G, raises."""
    if chain.K == 0:
        return chain.a[0] - E
    try:
        return chain.a[0] - E - chain.rho[0] * continued_fraction(
            chain.tail(), E)[0]
    except PoleProximity as exc:
        if exc.level == 1:
            raise
    return None


def _g_moved(chain, E):
    """G(E) by the recurrence over the stored arrays, from the first
    rho_k = 0, with the move of g_function: a deeper pivot p with |p| <=
    1e-32 min(|a_k|, sqrt|rho_{k-1}|) is moved up by 2e-32
    sqrt|rho_{k-1}|; level 1 is not tested."""
    a, rho = chain.a.tolist(), chain.rho.tolist() + [0.0]
    f = 0.0
    for k in range(rho.index(0.0), 0, -1):
        pivot = a[k] - E - rho[k] * f
        edge = 1e-32 * math.sqrt(abs(rho[k - 1]))
        if k > 1 and abs(pivot) <= min(1e-32 * abs(a[k]), edge):
            pivot += 2.0 * edge
        f = 1.0 / pivot
    return a[0] - E - rho[0] * f


def _g_reference(chain, E):
    """G(E) by :func:`_g_continued_fraction`, else, where only a deeper
    pivot breaks down, by :func:`_g_moved`."""
    g = _g_continued_fraction(chain, E)
    return _g_moved(chain, E) if g is None else g


def _outcome(fn, *args):
    """The bits of ``fn(*args)``, or the level of the PoleProximity it
    raises."""
    try:
        return _bits(fn(*args))
    except PoleProximity as exc:
        return ("pole", exc.level)


class TestContinuedFraction:
    def test_single_level(self):
        f = continued_fraction(_tail([2.0], []), 0.0)
        assert f[-1] == 0.0
        assert f[0] == 0.5
        assert not f.flags.writeable

    def test_exact_pivot_breakdown(self):
        # a = (1, 1), rho = 1 at E = 0: f_2 = 1, pivot a_1 - 1 = 0
        with pytest.raises(PoleProximity) as exc:
            continued_fraction(_tail([1.0, 1.0], [1.0]), 0.0)
        assert exc.value.level == 1

    def test_two_levels_vs_dense(self):
        # f_1 must equal the (1,1) entry of the dense inverse of QHQ - E
        f = continued_fraction(_tail([2.0, 3.0], [1.0]), 0.0)
        assert f[1] == pytest.approx(1.0 / 3.0, rel=1e-15)
        block = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(f[0],
                                   np.linalg.inv(block)[0, 0], rtol=1e-14)

    def test_rejects_non_chain(self):
        with pytest.raises(TypeError, match="expected a chain, got list"):
            continued_fraction([2.0], 0.0)

    def test_pivot_identity(self):
        rng = np.random.default_rng(0)
        tail = refactorize(random_chain(5, rng), "unit_subdiagonal")
        f = continued_fraction(tail, 17.3)  # well outside the spectrum
        for k in range(tail.K + 1):
            coupling = tail.b[k] * f[k + 1] * tail.c[k] if k < tail.K else 0.0
            assert f[k] * (tail.a[k] - 17.3 - coupling) == pytest.approx(1.0)


class TestUFL:
    def test_k1(self):
        fac = ufl_factorize(_tail([2.0], []), 0.5)
        np.testing.assert_allclose(fac.product(), [[1.5]])

    def test_k2_hand_values(self):
        fac = ufl_factorize(_tail([2.0, 3.0], [1.0]), 0.0)
        np.testing.assert_allclose(fac.f_diag, [5.0 / 3.0, 3.0], rtol=1e-15)
        np.testing.assert_allclose(fac.u_super, [1.0 / 3.0], rtol=1e-15)
        np.testing.assert_allclose(fac.l_sub, [1.0 / 3.0], rtol=1e-15)
        np.testing.assert_allclose(fac.product(), [[2.0, 1.0], [1.0, 3.0]],
                                   atol=1e-15)

    def test_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            K = int(rng.integers(1, 21))
            tail = refactorize(random_chain(K - 1, rng, "mixed"),
                               "unit_subdiagonal")
            dense = tail.to_dense()
            E = float(np.abs(dense).sum() + rng.uniform(1, 3))
            fac = ufl_factorize(tail, E)
            err = np.max(np.abs(fac.product() - (dense - E * np.eye(K))))
            assert err <= 1e-12 * max(1.0, np.max(np.abs(dense)))

    def test_symmetric_gauge_agrees(self):
        # the pivots 1/f_k depend only on the products b_k c_{k+1} and so
        # are identical across factorization gauges
        rng = np.random.default_rng(2)
        chain = random_chain(5, rng, "positive")
        E = 40.0
        sym = ufl_factorize(refactorize(chain, "symmetric"), E)
        uni = ufl_factorize(refactorize(chain, "unit_subdiagonal"), E)
        np.testing.assert_allclose(sym.f_diag, uni.f_diag, rtol=1e-12)


class TestGFunction:
    def test_paper_values(self, paper_chain):
        assert g_function(paper_chain, 0.0) == pytest.approx(-1.5, rel=1e-15)
        assert g_function(paper_chain, 3.0) == pytest.approx(-6.0, rel=1e-15)
        assert g_function(paper_chain, 1.0) == pytest.approx(-2.0, rel=1e-15)

    def test_decoupled_chain(self):
        # rho_0 = 0: G sees none of the tail, so the tail's eigenvalues 2
        # and 3 are no poles of G
        chain = TridiagonalChain([1.5, 2.0, 3.0], [0.0, 0.0])
        for E in (-1.0, 0.0, 2.0, 2.5, 3.0):
            assert g_function(chain, E) == 1.5 - E
            assert _slope_recurrence(*_cut(chain), E) == (1.5 - E, -1.0)
        np.testing.assert_array_equal(
            g_function(chain, np.array([2.0, 3.0])), [-0.5, -1.5])

    def test_cut_at_the_first_zero_rho(self):
        # rho_1 = 0: G is that of the chain cut there, bit for bit, and the
        # eigenvalues 3 and 4 of the decoupled part are no poles of G;
        # its pole at 2 is at level 1
        chain = TridiagonalChain([1.0, 2.0, 3.0, 4.0], [0.5, 0.0, -5.0])
        cut = TridiagonalChain([1.0, 2.0], [0.5])
        for E in (-1.0, 0.5, 3.0, 4.0):
            assert _bits(g_function(chain, E)) == _bits(g_function(cut, E))
            assert (_slope_recurrence(*_cut(chain), E)
                    == _slope_recurrence(*_cut(cut), E))
        for fn, args in ((g_function, (chain,)),
                         (_slope_recurrence, _cut(chain))):
            with pytest.raises(PoleProximity) as exc:
                fn(*args, 2.0)
            assert exc.value.level == 1

    def test_k0(self):
        assert g_function(TridiagonalChain([4.0], []), 1.0) == 3.0

    @pytest.mark.parametrize("s", [1e-11, 1e-13, 1e-50, 1e-150])
    def test_pivot_rule_is_relative(self, s):
        # the paper chain at energy scale s, a = (-2s, 2s), rho = -s^2: G
        # scales with s at any s, and E = a_1 is still a pole
        chain = TridiagonalChain([-2.0 * s, 2.0 * s], [-s * s])
        assert g_function(chain, 0.0) / s == pytest.approx(-1.5, rel=1e-15)
        np.testing.assert_allclose(g_function(chain, np.array([0.0, s])) / s,
                                   [-1.5, -2.0], rtol=1e-15)
        assert continued_fraction(chain.tail(), 0.0)[0] * s == pytest.approx(
            0.5, rel=1e-15)
        for fn in (g_function, _g_reference):
            with pytest.raises(PoleProximity) as exc:
                fn(chain, 2.0 * s)
            assert exc.value.level == 1

    def test_zero_pivot_at_zero_scale(self):
        # a_1 = E = 0 and no coupling below: the scale of the pivot is 0,
        # and the pivot, exactly 0, still fails the rule
        chain = TridiagonalChain([1.0, 0.0], [1.0])
        for E in (0.0, np.array([1.0, 0.0])):
            with pytest.raises(PoleProximity) as exc:
                g_function(chain, E)
            assert exc.value.level == 1
        with pytest.raises(PoleProximity):
            continued_fraction(chain.tail(), 0.0)

    def test_oracle_agreement(self, paper_chain):
        for E in (0.0, 0.5, 1.0, 3.0, -2.7):
            got = g_function(paper_chain, E)
            ref = g_function_dense_oracle(paper_chain, E)
            assert got == pytest.approx(ref, rel=1e-14)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            K = int(rng.integers(1, 9))
            chain = random_chain(K, rng, "mixed")
            E = float(rng.uniform(-12, 12))
            try:
                got = g_function(chain, E)
                ref = g_function_dense_oracle(chain, E)
            except (PoleProximity, NearSingularBlock):
                continue
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_trailing_determinant_identity(self):
        # f_k = d_{k+1}(E) / d_k(E) with d_k the trailing-block determinant
        rng = np.random.default_rng(5)
        chain = random_chain(7, rng, "mixed")
        E = float(np.abs(chain.to_dense()).sum())
        tail = refactorize(chain.tail(), "unit_subdiagonal")
        f = continued_fraction(tail, E)
        dense = chain.tail().to_dense() - E * np.eye(chain.K)
        for k in range(1, chain.K + 1):
            d_k = np.linalg.det(dense[k - 1:, k - 1:])
            d_k1 = np.linalg.det(dense[k:, k:]) if k < chain.K else 1.0
            assert f[k - 1] == pytest.approx(d_k1 / d_k, rel=1e-9)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(6)
        chain = random_chain(4, rng)
        for s in (-2.5, 1.0, 7.75):
            shifted = TridiagonalChain(chain.a + s, chain.rho)
            assert g_function(shifted, 1.25 + s) == pytest.approx(
                g_function(chain, 1.25), rel=1e-12)

    def test_array_shapes_and_k0(self, paper_chain):
        E = np.array([0.0, 0.25, 1.0, 3.0, -2.7])
        got = g_function(paper_chain, E)
        assert isinstance(got, np.ndarray) and got.shape == E.shape
        assert g_function(paper_chain, np.zeros(0)).shape == (0,)
        k0 = TridiagonalChain([4.0], [])
        assert _bits(g_function(k0, E)) == _bits(4.0 - E)

    def test_array_pole_reports_first_energy(self):
        # a = (0, 1, 1), rho = (1, 1): E = 0 is a pole of G (a_1 - E -
        # rho_1 / (a_2 - E) = 0) and raises at level 1, before or after
        # E = 1, where only the deeper pivot a_2 - E vanishes and G = -1
        chain = TridiagonalChain([0.0, 1.0, 1.0], [1.0, 1.0])
        for energies in ([5.0, 0.0, 1.0], [5.0, 1.0, 0.0]):
            with pytest.raises(PoleProximity) as scalar:
                for e in energies:
                    g_function(chain, e)
            with pytest.raises(PoleProximity) as array:
                g_function(chain, np.array(energies))
            assert scalar.value.level == array.value.level == 1
        got = g_function(chain, np.array([5.0, 1.0]))
        assert _bits(got) == _bits([g_function(chain, 5.0),
                                    g_function(chain, 1.0)])
        assert got[1] == pytest.approx(-1.0, rel=1e-15)

    def test_non_finite_energy_propagates(self, paper_chain):
        got = g_function(paper_chain, np.array([np.nan, 0.0, np.inf]))
        assert np.isnan(got[0]) and got[1] == -1.5 and got[2] == -np.inf
        assert np.isnan(g_function(paper_chain, float("nan")))

    @settings(max_examples=150, deadline=None)
    @given(K=st.integers(0, 20), sign=st.sampled_from(["positive", "mixed"]),
           seed=st.integers(0, 2 ** 32 - 1),
           u=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=12),
           on_pole=st.booleans())
    def test_forms_bitwise_equal(self, K, sign, seed, u, on_pole):
        # energies across and beyond the spectrum, optionally including
        # E = a_K, where the last pivot a_K - E vanishes: a pole of G at
        # K = 1, else a deeper pivot that the recurrence runs through
        chain = random_chain(K, np.random.default_rng(seed), sign)
        lo, hi = -3.0 - 4.0 * np.sqrt(K), 3.0 + 4.0 * np.sqrt(K)
        E = [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for x in u]
        if on_pole and K:
            E.insert(len(E) // 2, float(chain.a[-1]))
        ref = [_outcome(_g_reference, chain, e) for e in E]
        assert [_outcome(g_function, chain, e) for e in E] == ref
        poles = [r for r in ref if isinstance(r, tuple)]
        got = _outcome(g_function, chain, np.array(E))
        assert got == (poles[0] if poles else b"".join(ref))

    def test_oracle_k0(self):
        assert g_function_dense_oracle(TridiagonalChain([4.0], []), 1.0) == 3.0

    def test_oracle_near_singular_guard(self):
        # tail [[2, 1], [1, 3]] has an eigenvalue at (5 + sqrt(5))/2
        chain = TridiagonalChain([-2.0, 2.0, 3.0], [1.0, 1.0])
        with pytest.raises((NearSingularBlock, PoleProximity)):
            g_function_dense_oracle(chain, (5.0 + np.sqrt(5.0)) / 2.0)


class TestCut:
    """Each chain object is scanned once, for the entries G sees, and
    keeps them for every later evaluation on it."""

    def test_one_scan_per_chain(self, monkeypatch):
        scans = []
        seen = forward._seen

        def spy(rho):
            scans.append(rho)
            return seen(rho)
        monkeypatch.setattr(forward, "_seen", spy)
        h = random_hamiltonian(3, 6, np.random.default_rng(7))
        chain = h.chain
        g_function(chain, 0.25)
        g_function(chain, np.array([-1.0, 0.25, 3.0]))
        # a deeper pivot that vanishes in an array is run through
        assert _bits(g_function(chain, np.array([0.25, chain.a[-1]]))) == (
            _bits([g_function(chain, 0.25), g_function(chain, chain.a[-1])]))
        _slope_recurrence(*_cut(chain), 0.5)
        effective_hamiltonian(h, 0.75)
        spectral._setup(h)
        assert scans == [chain.rho.tolist()]
        # equal in value is not the same chain
        g_function(TridiagonalChain(chain.a, chain.rho), 0.25)
        assert len(scans) == 2

    def test_chain_cannot_change(self):
        # what keeps the entries of a scan valid for the chain's life
        chain = random_chain(4, np.random.default_rng(8))
        g_function(chain, 0.25)
        for name in ("a", "rho"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(chain, name)[0] = 1.0
            with pytest.raises(FrozenInstanceError):
                setattr(chain, name, np.ones(len(getattr(chain, name))))


def _g_complex(chain, E):
    """G at a complex energy: the recurrence of g_function in complex
    arithmetic, without its pivot test."""
    a, rho = chain.a.tolist(), chain.rho.tolist()
    f = 0.0
    for k in range(len(a) - 1, 0, -1):
        coupling = rho[k] * f if k < len(rho) else 0.0
        f = 1.0 / (a[k] - E - coupling)
    return a[0] - E - rho[0] * f if rho else a[0] - E


class TestGSlope:
    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_complex_step(self, sign):
        # Im G(E + ih) / h at h = 1e-30 is dG/dE exact to rounding
        rng = np.random.default_rng(31)
        worst = 0.0
        for K in range(21):
            chain = random_chain(K, rng, sign)
            for E in rng.uniform(-8.0, 8.0, 10).tolist():
                g, slope = _slope_recurrence(*_cut(chain), E)
                assert _bits(g) == _bits(g_function(chain, E))
                ref = _g_complex(chain, complex(E, 1e-30)).imag / 1e-30
                worst = max(worst, abs(slope - ref) / abs(ref))
        assert worst <= 1e-13  # 2.7e-15 measured

    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_pole_proximity_as_g_function(self, sign):
        # on and next to the eigenvalues of every trailing block, where a
        # pivot vanishes or nearly does, both raise at level 1, a pole of
        # G, or both return the same G: at a deeper block's eigenvalue
        # they run through its pivot
        rng = np.random.default_rng(32)
        raised = deeper = 0
        for K in range(1, 9):
            chain = random_chain(K, rng, sign)
            for k in range(1, K + 1):
                block = TridiagonalChain(chain.a[k:], chain.rho[k:])
                for p in np.linalg.eigvals(block.to_dense()).real.tolist():
                    for E in (p, p * (1 + 1e-13), p * (1 + 1e-11)):
                        got = _outcome(lambda: _slope_recurrence(
                            *_cut(chain), E)[0])
                        assert got == _outcome(g_function, chain, E)
                        if isinstance(got, tuple):
                            assert got == ("pole", 1)
                            raised += 1
                        else:
                            deeper += k > 1
        # 53 and 36 raised, 252 returned next to deeper blocks, measured
        assert raised >= 30 and deeper >= 200


def _g_determinants(chain, E, num):
    """G(E) = a_0 - E - rho_0 d_2 / d_1 from the trailing determinants
    d_k = det(T_k - E), T_k the block of the tail from level k, by their
    three-term recurrence in the number type ``num`` (an mpmath mpf or a
    Decimal, which convert floats exactly); E is of that type."""
    a, rho = chain.a.tolist(), chain.rho.tolist() + [0.0]
    d, below = num(1), num(0)  # d_{k+1} and d_{k+2}, from k = K
    for k in range(len(a) - 1, 0, -1):
        d, below = (num(a[k]) - E) * d - num(rho[k]) * below, d
    return num(a[0]) - E - num(rho[0]) * below / d


class TestDeeperPivots:
    """G runs through a deeper pivot that vanishes, at an eigenvalue of a
    trailing block from level 2 on, where G is analytic."""

    @pytest.mark.slow
    def test_accuracy_against_determinants(self):
        # 40 chains, on and one ulp above every real eigenvalue of every
        # trailing block from level 2 on (9068 energies).  Where the
        # continued fraction passes its per-level rule, G is bitwise its
        # G.  Where it fails a deeper level (5229 energies), G is within
        # 1e-9 scale of a 60-digit ratio of determinants, scale = |G| +
        # |E| + max|a_k| + max|rho_k|: 5.1e-10 measured, at K = 32 with
        # G = 626 next to a pole, where energies 1e-13..1e-10 off that the
        # rule passes have errors of 1e-11..4.4e-10 too: G's conditioning
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        energies = worst = 0.0
        moved = []
        for K in (4, 8, 16, 32):
            for sign in ("positive", "mixed"):
                for s in range(5):
                    chain = random_chain(K, np.random.default_rng(
                        7000 + 100 * K + s), sign)
                    top = max(np.abs(chain.a)) + max(np.abs(chain.rho))
                    for k in range(2, K + 1):
                        w = np.linalg.eigvals(TridiagonalChain(
                            chain.a[k:], chain.rho[k:]).to_dense())
                        for p in w[w.imag == 0].real.tolist():
                            for E in (p, math.nextafter(p, math.inf)):
                                energies += 1
                                g = g_function(chain, E)
                                cf = _g_continued_fraction(chain, E)
                                if cf is not None:
                                    assert _bits(g) == _bits(cf)
                                    continue
                                ref = _g_determinants(chain, mp.mpf(E),
                                                      mp.mpf)
                                err = float(abs(g - ref)) / (
                                    abs(g) + abs(E) + top)
                                worst = max(worst, err)
                                moved.append(err)
        assert energies == 9068 and len(moved) == 5229
        assert worst <= 1e-9
        assert np.median(moved) <= 1e-16  # 2.5e-17 measured

    def test_graded_chain(self):
        # a = (0, 0, 0, 1e30), rho = (1, 1, 1): the chain's scale is 1e30,
        # level 2's is about |E|.  At E = 1e-3 the level-2 pivot is -1e-3,
        # which the per-level rule passes: nothing moves, and G is the
        # continued fraction's, -0.002.  At E = -1e-30 that pivot is
        # exactly 0 and moves by 2e-32 sqrt(rho_1): G is 2e-32 off the
        # determinant ratio, 1e-30
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        chain = TridiagonalChain([0.0, 0.0, 0.0, 1e30], [1.0, 1.0, 1.0])
        energies = [1e-3, -1e-3, 1e-20, 3e-25, -1e-28]
        for E in energies:
            g = g_function(chain, E)
            assert _bits(g) == _bits(_g_continued_fraction(chain, E))
            assert _bits(_slope_recurrence(*_cut(chain), E)[0]) == _bits(g)
        assert _bits(g_function(chain, np.array(energies))) == _bits(
            [_g_continued_fraction(chain, E) for E in energies])
        assert g_function(chain, 1e-3) == pytest.approx(-0.002, rel=1e-6)
        assert _g_continued_fraction(chain, -1e-30) is None
        g = g_function(chain, -1e-30)
        ref = _g_determinants(chain, mp.mpf(-1e-30), mp.mpf)
        assert abs(g - ref) <= 3e-32

    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_graded_chains_move_nothing_the_rule_passes(self, sign):
        # chains whose levels have scales 10^-40..10^40 apart, on and next
        # to every real eigenvalue of every trailing block: wherever the
        # per-level rule of the continued fraction passes, G, its array
        # form and the slope recurrence's G are bitwise its value
        rng = np.random.default_rng(33)
        passed = 0
        for K in (3, 5, 8):
            for _ in range(4):
                base = random_chain(K, rng, sign)
                s = 10.0 ** rng.integers(-20, 21, K + 1)
                a = (s * base.a).tolist()
                rho = (s[:-1] * s[1:] * base.rho).tolist()
                chain = TridiagonalChain(a, rho)
                energies = []
                for k in range(1, K + 1):
                    w = np.linalg.eigvals(TridiagonalChain(
                        a[k:], rho[k:]).to_dense())
                    for p in w[w.imag == 0].real.tolist():
                        energies += [p, math.nextafter(p, math.inf),
                                     p * (1 + 1e-13), p * (1 + 1e-9)]
                for E in energies:
                    try:
                        ref = _g_continued_fraction(chain, E)
                    except PoleProximity:
                        continue
                    if ref is None:
                        continue
                    passed += 1
                    assert _bits(g_function(chain, E)) == _bits(ref)
                    assert _bits(_slope_recurrence(*_cut(chain), E)[0]) == (
                        _bits(ref))
                    assert _bits(g_function(chain, np.array([E]))) == (
                        _bits([ref]))
        assert passed >= 500  # 507 and 524 measured

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_slope_at_moved_pivots(self, scale):
        # chains at energy scale s (a by s, rho by s^2) whose pivot at
        # level k >= 2 is exactly 0 at E = 0: a_k is set to the coupling
        # below it, as the recurrence rounds it.  G and dG/dE at 0 match
        # an 80-digit ratio of determinants and its central difference at
        # h = 1e-30 s (worst 5e-14 measured at 1e-100)
        rng = np.random.default_rng(61)
        for K in (2, 3, 5, 8):
            for k in range(2, K + 1):
                base = random_chain(K, rng, "mixed")
                a = (scale * base.a).tolist()
                rho = (scale * scale * base.rho).tolist() + [0.0]
                f = 0.0
                for j in range(K, k, -1):
                    f = 1.0 / (a[j] - 0.0 - rho[j] * f)
                a[k] = rho[k] * f
                chain = TridiagonalChain(a, rho[:K])
                g, slope = _slope_recurrence(*_cut(chain), 0.0)
                assert _bits(g) == _bits(g_function(chain, 0.0))
                with localcontext() as ctx:
                    ctx.prec = 80
                    h = Decimal(scale) * Decimal("1e-30")
                    ref = _g_determinants(chain, Decimal(0), Decimal)
                    diff = (_g_determinants(chain, h, Decimal)
                            - _g_determinants(chain, -h, Decimal)) / (2 * h)
                assert abs(g - float(ref)) <= 1e-12 * scale
                assert abs(slope - float(diff)) <= 1e-12 * max(
                    1.0, abs(float(diff)))


class TestEffectiveHamiltonian:
    def test_m1(self, paper_hamiltonian, paper_chain):
        heff = effective_hamiltonian(paper_hamiltonian, 0.7)
        assert heff.shape == (1, 1)
        assert heff[0, 0] == pytest.approx(g_function(paper_chain, 0.7) + 0.7)

    def test_k0_energy_independent(self):
        h = PartitionedHamiltonian(np.array([[1.0, 2.0], [3.0, 7.0]]),
                                   TridiagonalChain([7.0], []))
        for E in (-4.0, 0.0, 9.0):
            np.testing.assert_array_equal(effective_hamiltonian(h, E),
                                          h.p_block)

    def test_only_corner_changes(self, m2_hamiltonian):
        heff = effective_hamiltonian(m2_hamiltonian, 0.3)
        block = m2_hamiltonian.p_block
        assert heff[0, 0] == block[0, 0]
        assert heff[0, 1] == block[0, 1]
        assert heff[1, 0] == block[1, 0]
        assert heff[1, 1] != block[1, 1]

    def test_corner_against_dense_oracle(self, m2_hamiltonian):
        for E in (-0.8, 0.3, 2.0):
            heff = effective_hamiltonian(m2_hamiltonian, E)
            ref = g_function_dense_oracle(m2_hamiltonian, E) + E
            assert heff[-1, -1] == pytest.approx(ref, rel=1e-10)
