import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from decimal import (ROUND_DOWN, Context, Decimal, DefaultContext, Inexact,
                     getcontext, localcontext)
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import effham
from effham import inverse
from effham.errors import (ChainBreakdown, InfeasibleSampling, MalformedPair,
                           SampleDegeneracy)
from effham.forward import g_function
from effham.instances import probe_window, random_chain, real_poles
from effham.inverse import (K1Variables, choose_probe_energies, k1_closed_form,
                            k1_invert, k1_variables_from_chain, reconstruct,
                            samples_from_chain)
from effham.model import GSample, TridiagonalChain

PAPER_SAMPLES = [GSample(0.0, -1.5), GSample(1.0, -2.0), GSample(3.0, -6.0)]


def _mp_polydiv(num, den):
    num = list(num)
    q = [mp.mpf(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q[i] = num[i + len(den) - 1] / den[-1]
        for j in range(len(den)):
            num[i + j] -= q[i] * den[j]
    return q, num[:len(den) - 1]


def _mp_cascade(d0, d1, center, h, K, drop_tol):
    """The division cascade of ``reconstruct``, on mpf at the caller's
    mpmath precision."""
    cur, nxt = d0, d1
    a_list, rho_list = [], []
    coef_scale = max(max(abs(x) for x in cur), max(abs(x) for x in nxt))
    for k in range(K + 1):
        q, r = _mp_polydiv(cur, nxt)
        a_list.append(float(q[0] + center))
        if k == K:
            break
        ed = len(nxt) - 2
        coef_scale = max([coef_scale] + [abs(x) for x in r])
        r_lead = r[ed]
        if abs(r_lead) < drop_tol * coef_scale:
            prefix = TridiagonalChain(np.array(a_list), np.array(rho_list))
            raise ChainBreakdown(prefix, level=k)
        rho_k = -r_lead / ((-1) ** ed * h ** ed)
        rho_list.append(float(rho_k))
        cur, nxt = nxt, [ri / (-rho_k) for ri in r]
    return TridiagonalChain(np.array(a_list), np.array(rho_list))


def _monomial_reconstruct(samples, K):
    """Reference for the extended-precision coefficient step, all in
    mpmath at 40 + 10K digits: the full (2K+1)-unknown monomial system in
    t for (d0, d1), solved by ``mp.lu_solve``, then the division cascade
    of ``reconstruct``."""
    with mp.workdps(40 + 10 * K):
        E = [mp.mpf(s.energy) for s in samples]
        G = [mp.mpf(s.g_value) for s in samples]
        center = (max(E) + min(E)) / 2
        h = max((max(E) - min(E)) / 2, mp.mpf(1))
        t = [(e - center) / h for e in E]
        lead0 = (-1) ** (K + 1) * h ** (K + 1)
        lead1 = (-1) ** K * h ** K
        n = 2 * K + 1
        A = mp.zeros(n, n)
        rhs = mp.zeros(n, 1)
        for a in range(n):
            for j in range(K + 1):
                A[a, j] = t[a] ** j
            for j in range(K):
                A[a, K + 1 + j] = -G[a] * t[a] ** j
            rhs[a] = -lead0 * t[a] ** (K + 1) + G[a] * lead1 * t[a] ** K
        u = mp.lu_solve(A, rhs)
        d0 = [u[j] for j in range(K + 1)] + [lead0]
        d1 = [u[K + 1 + j] for j in range(K)] + [lead1]
        return _mp_cascade(d0, d1, center, h, K, inverse.DROP_TOL)


def _outcome(fn, samples, K):
    """The chain's (a, rho) as exact float tuples, or the breakdown level."""
    try:
        chain = fn(samples, K)
    except ChainBreakdown as exc:
        return ("breakdown", exc.level)
    return (tuple(chain.a.tolist()), tuple(chain.rho.tolist()))


def _max_rel_err(got, ref):
    g = np.concatenate([got.a, got.rho])
    r = np.concatenate([ref.a, ref.rho])
    return float(np.max(np.abs(g - r) / np.maximum(np.abs(r), 1.0)))


class TestProbeSelection:
    def test_basic_contract(self):
        probes = choose_probe_energies(7, (-2.0, 2.0))
        assert len(probes) == 7
        assert len(np.unique(probes)) == 7
        assert np.all(probes > -2.0) and np.all(probes < 2.0)

    def test_margin_respected(self):
        forbidden = [-1.0, 0.3]
        probes = choose_probe_energies(9, (-3.0, 3.0), forbidden, margin=0.2)
        dist = np.min(np.abs(probes[:, None] - np.array(forbidden)), axis=1)
        assert np.all(dist >= 0.2)

    def test_deterministic(self):
        a = choose_probe_energies(11, (-4.0, 4.0), [0.5], 0.1)
        b = choose_probe_energies(11, (-4.0, 4.0), [0.5], 0.1)
        np.testing.assert_array_equal(a, b)

    def test_brackets_interior_poles(self):
        forbidden = [-1.2, 0.8]
        probes = choose_probe_energies(7, (-3.0, 3.0), forbidden, margin=0.05)
        for f in forbidden:
            assert np.any((probes > f) & (probes < f + 0.5))
            assert np.any((probes < f) & (probes > f - 0.5))

    def test_infeasible(self):
        with pytest.raises(InfeasibleSampling):
            choose_probe_energies(5, (0.0, 1.0), [0.5], margin=0.6)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            choose_probe_energies(3, (1.0, 1.0))


class TestLinearize:
    """The sample contract of the rational fit inside ``reconstruct``."""

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            reconstruct(PAPER_SAMPLES, 2)

    def test_duplicate_energy(self):
        bad = [GSample(0.0, -1.5), GSample(0.0, -1.5), GSample(3.0, -6.0)]
        with pytest.raises(SampleDegeneracy):
            reconstruct(bad, 1)

    def test_nonfinite(self):
        bad = [GSample(0.0, np.inf), GSample(1.0, -2.0), GSample(3.0, -6.0)]
        with pytest.raises(SampleDegeneracy):
            reconstruct(bad, 1)


class TestK1:
    def test_paper_inversion_bitwise(self):
        chain = k1_invert(K1Variables(x1=0.0, x2=-3.0, y1=2.0))
        assert chain.a[0] == -2.0 and chain.a[1] == 2.0
        assert chain.rho[0] == -1.0

    def test_variable_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            chain = random_chain(1, rng, "mixed")
            back = k1_invert(k1_variables_from_chain(chain))
            np.testing.assert_allclose(back.a, chain.a, rtol=1e-13)
            np.testing.assert_allclose(back.rho, chain.rho, rtol=1e-12)

    def test_closed_form_paper(self):
        chain = k1_closed_form(PAPER_SAMPLES)
        np.testing.assert_allclose(chain.a, [-2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(chain.rho, [-1.0], atol=1e-12)

    def test_closed_form_needs_three(self):
        with pytest.raises(ValueError):
            k1_closed_form(PAPER_SAMPLES[:2])

    def test_closed_form_duplicates(self):
        bad = [PAPER_SAMPLES[0], PAPER_SAMPLES[0], PAPER_SAMPLES[2]]
        with pytest.raises(SampleDegeneracy):
            k1_closed_form(bad)

    def test_general_path_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            chain = random_chain(1, rng, "mixed")
            probes = choose_probe_energies(3, probe_window(chain),
                                           real_poles(chain), 0.1)
            samples = samples_from_chain(chain, probes)
            cf = k1_closed_form(samples)
            rep = reconstruct(samples, 1)
            np.testing.assert_allclose(rep.chain.a, cf.a, rtol=1e-8)
            np.testing.assert_allclose(rep.chain.rho, cf.rho, rtol=1e-8)
            assert _max_rel_err(rep.chain, chain) < 1e-9


def _cascade(d0, d1):
    """The division cascade on float coefficients in E itself."""
    with localcontext(Context(prec=60)):
        return inverse._cascade([Decimal(x) for x in d0],
                                [Decimal(x) for x in d1], Decimal(0),
                                Decimal(1), len(d1) - 1,
                                Decimal(inverse.DROP_TOL))


class TestExpansion:
    def test_paper_pair(self):
        # G = (E^2 - 3)/(2 - E): d0 lead +1 = (-1)^2, d1 lead -1
        chain = _cascade([-3.0, 0.0, 1.0], [2.0, -1.0])
        np.testing.assert_allclose(chain.a, [-2.0, 2.0], atol=1e-13)
        np.testing.assert_allclose(chain.rho, [-1.0], atol=1e-13)

    def test_determinant_built_pairs(self):
        # build (d0, d1) as trailing-block determinants of S - E and make
        # sure the cascade returns the generating chain
        rng = np.random.default_rng(10)
        for _ in range(20):
            K = int(rng.integers(1, 9))
            chain = random_chain(K, rng, "mixed")
            dense = chain.to_dense()
            # det(S - E) = prod_i (lambda_i - E) = (-1)^deg prod_i (E - lambda_i)
            d0 = ((-1.0) ** (K + 1) * np.polynomial.polynomial.polyfromroots(
                np.linalg.eigvals(dense))).real
            d1 = ((-1.0) ** K * np.polynomial.polynomial.polyfromroots(
                np.linalg.eigvals(dense[1:, 1:]))).real
            got = _cascade(d0, d1)
            # eigenvalue rounding is amplified by the division cascade at
            # deep K (hence the extended-precision path inside reconstruct)
            assert _max_rel_err(got, chain) < 1e-5

    def test_breakdown_reports_prefix(self):
        # rho_1 = 0 decouples the last level: G is reducible and the cascade
        # must stop after recovering (a_0, a_1, rho_0)
        chain = TridiagonalChain([1.0, -0.5, 2.0], [1.5, 0.0])
        probes = choose_probe_energies(5, probe_window(chain),
                                       real_poles(chain), 0.1)
        with pytest.raises(ChainBreakdown) as exc:
            reconstruct(samples_from_chain(chain, probes), 2)
        assert exc.value.level == 1
        prefix = exc.value.recovered_prefix
        np.testing.assert_allclose(prefix.a, [1.0, -0.5], atol=1e-6)
        np.testing.assert_allclose(prefix.rho, [1.5], atol=1e-6)


class TestLoewnerStep:
    @pytest.mark.parametrize("rho_sign", ["positive", "mixed"])
    @pytest.mark.parametrize("K", [2, 5, 8, 11, 13])
    def test_bitwise_against_monomial_solve(self, K, rho_sign):
        # probes as in ``effham roundtrip``
        for seed in (100 * K + 1, 100 * K + 2):
            chain = random_chain(K, np.random.default_rng(seed), rho_sign)
            probes = choose_probe_energies(
                2 * K + 1, probe_window(chain, pad=0.5),
                real_poles(chain), 0.05)
            samples = samples_from_chain(chain, probes)
            got = _outcome(lambda s, k: reconstruct(s, k).chain, samples, K)
            assert got == _outcome(_monomial_reconstruct, samples, K)

    def test_breakdown_level_against_monomial_solve(self):
        # rho_1 = 0 in float64 samples: both solves reach the cascade,
        # which must stop at the same level
        chain = TridiagonalChain([1.0, -0.5, 2.0], [1.5, 0.0])
        probes = choose_probe_energies(5, probe_window(chain),
                                       real_poles(chain), 0.1)
        samples = samples_from_chain(chain, probes)
        got = _outcome(lambda s, k: reconstruct(s, k).chain, samples, 2)
        assert got == _outcome(_monomial_reconstruct, samples, 2)
        assert got == ("breakdown", 1)

    @pytest.mark.parametrize("a, rho, probes", [
        ([1.0, 2.0], [0.0], (-1.0, 0.5, 3.0)),
        ([1.0, 2.0, -1.0], [0.0, 1.0], (-2.0, -0.5, 0.25, 1.5, 4.0)),
    ])
    def test_singular_system_deflates_to_exact_prefix(self, a, rho, probes):
        # rho_0 = 0 makes G = a_0 - E exactly, so the type-(K, K) system is
        # singular and the fit deflates to type (0, 0)
        chain = TridiagonalChain(a, rho)
        samples = samples_from_chain(chain, probes)
        K = len(rho)
        with pytest.raises(ZeroDivisionError):
            _monomial_reconstruct(samples, K)
        with pytest.raises(ChainBreakdown) as exc:
            reconstruct(samples, K)
        assert exc.value.level == 0
        assert exc.value.recovered_prefix.a.tolist() == [1.0]
        assert exc.value.recovered_prefix.rho.tolist() == []

    def test_deflation_to_inner_level(self):
        # rho_1 = 0 with G + E = 1/E exactly: type (1, 1), not (2, 2)
        chain = TridiagonalChain([0.0, 0.0, 5.0], [1.0, 0.0])
        samples = samples_from_chain(chain, (-4.0, -2.0, -1.0, -0.5, 0.5))
        with pytest.raises(ChainBreakdown) as exc:
            reconstruct(samples, 2)
        assert exc.value.level == 1
        assert exc.value.recovered_prefix.a.tolist() == [0.0, 0.0]
        assert exc.value.recovered_prefix.rho.tolist() == [1.0]

    @pytest.mark.parametrize("g, energies", [
        (lambda e: 1.0 - 2.0 * e, (0.0, 1.0, 3.0)),
        (lambda e: 5.0, (-2.0, -0.5, 0.25, 1.5, 4.0)),
    ], ids=["1-2E", "constant"])
    def test_samples_no_chain_fits(self, g, energies):
        # G + E is of lower type, but no chain has this G: the deflated fit
        # misses samples
        samples = [GSample(e, g(e)) for e in energies]
        with pytest.raises(SampleDegeneracy):
            reconstruct(samples, len(energies) // 2)


class TestReconstruct:
    def test_k0(self):
        rep = reconstruct([GSample(1.0, 3.0)], 0)
        np.testing.assert_allclose(rep.chain.a, [4.0], atol=1e-14)
        assert rep.chain.K == 0
        assert rep.hermitizable == ()

    def test_paper_chain_report(self):
        rep = reconstruct(PAPER_SAMPLES, 1,
                          holdout=[GSample(-2.0, g_function(
                              TridiagonalChain([-2.0, 2.0], [-1.0]), -2.0))])
        assert rep.hermitizable == (False,)
        assert rep.residual_max < 1e-10

    @pytest.mark.parametrize("bad", [GSample(0.3, float("nan")),
                                     GSample(float("nan"), 1.0),
                                     GSample(float("inf"), 1.0)])
    def test_non_finite_holdout_rejected(self, bad):
        good = GSample(0.5, -1.5)
        with pytest.raises(SampleDegeneracy):
            reconstruct(PAPER_SAMPLES, 1, holdout=[good, bad])

    def test_k0_overflow_is_malformed(self):
        # a_0 = G + E = 3e308 is exact in extended precision, inf in float64
        with pytest.raises(MalformedPair):
            reconstruct([GSample(1.5e308, 1.5e308)], 0)

    def test_overflowing_breakdown_prefix_is_malformed(self):
        # G + E = 3e308 at every probe: the fit deflates to K = 0, whose
        # only entry a_0 overflows, so there is no float64 prefix to report
        E = [1.5e308 - 1e300, 1.5e308, 1.5e308 + 1e300]
        G = [1.5e308 + 1e300, 1.5e308, 1.5e308 - 1e300]
        with pytest.raises(MalformedPair):
            reconstruct([GSample(e, g) for e, g in zip(E, G)], 1)

    def test_holdout_residual_is_largest_deviation(self):
        holdout = [GSample(-1.0, -0.6667), GSample(0.25, -1.68),
                   GSample(2.5, -6.5)]
        rep = reconstruct(PAPER_SAMPLES, 1, holdout=holdout)
        chain = TridiagonalChain([-2.0, 2.0], [-1.0])
        ref = max(abs(s.g_value - g_function(chain, s.energy))
                  for s in holdout)
        assert rep.residual_max == pytest.approx(ref, rel=1e-9)
        assert rep.residual_max == pytest.approx(0.00142857142857, rel=1e-9)

    def test_roundtrip_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            K = int(rng.integers(2, 11))
            chain = random_chain(K, rng, "positive")
            probes = choose_probe_energies(
                2 * K + 1, probe_window(chain, pad=0.5),
                real_poles(chain), 0.05)
            rep = reconstruct(samples_from_chain(chain, probes), K)
            assert _max_rel_err(rep.chain, chain) <= 1e-7

    def test_roundtrip_mixed_sign(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            K = int(rng.integers(2, 7))
            chain = random_chain(K, rng, "mixed")
            probes = choose_probe_energies(
                2 * K + 1, probe_window(chain, pad=0.5),
                real_poles(chain), 0.05)
            rep = reconstruct(samples_from_chain(chain, probes), K)
            assert _max_rel_err(rep.chain, chain) <= 1e-7
            assert rep.hermitizable == tuple(r >= 0 for r in chain.rho)

    def test_probe_set_independence(self):
        rng = np.random.default_rng(13)
        chain = random_chain(6, rng, "positive")
        lo, hi = probe_window(chain, pad=0.5)
        poles = real_poles(chain)
        p1 = choose_probe_energies(13, (lo, hi), poles, 0.05)
        p2 = choose_probe_energies(15, (lo - 0.3, hi + 0.4), poles, 0.07)[:13]
        c1 = reconstruct(samples_from_chain(chain, p1), 6).chain
        c2 = reconstruct(samples_from_chain(chain, p2), 6).chain
        assert _max_rel_err(c1, c2) <= 1e-7

    def test_shift_equivariance(self):
        rng = np.random.default_rng(14)
        chain = random_chain(4, rng, "positive")
        shifted = chain.shifted(5.0)
        probes = choose_probe_energies(9, probe_window(chain, pad=0.5),
                                       real_poles(chain), 0.05)
        rep0 = reconstruct(samples_from_chain(chain, probes), 4)
        rep5 = reconstruct(samples_from_chain(shifted, probes + 5.0), 4)
        np.testing.assert_allclose(rep5.chain.a, rep0.chain.a + 5.0,
                                   rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(rep5.chain.rho, rep0.chain.rho, rtol=1e-6)


def _roundtrip_samples(K, seed, rho_sign="positive"):
    """Probes as in ``effham roundtrip`` on a random chain."""
    chain = random_chain(K, np.random.default_rng(seed), rho_sign)
    probes = choose_probe_energies(2 * K + 1, probe_window(chain, pad=0.5),
                                   real_poles(chain), 0.05)
    return samples_from_chain(chain, probes)


def _bits(chain):
    return (tuple(chain.a.tolist()), tuple(chain.rho.tolist()))


class TestExtendedPrecision:
    """The decimal arithmetic of ``reconstruct`` runs in its own context and
    needs nothing beyond the standard library and numpy."""

    def test_no_mpmath_import(self):
        code = textwrap.dedent("""
            import sys
            import numpy as np
            import effham
            from effham.instances import probe_window, random_chain, real_poles
            chain = random_chain(5, np.random.default_rng(3), "mixed")
            probes = effham.choose_probe_energies(
                11, probe_window(chain, pad=0.5), real_poles(chain), 0.05)
            effham.reconstruct(effham.samples_from_chain(chain, probes), 5)
            assert "mpmath" not in sys.modules, "mpmath was imported"
            """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(effham.__file__).parents[1]),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()

    @pytest.mark.parametrize("samples, K, error", [
        (_roundtrip_samples(5, 501), 5, None),
        (samples_from_chain(TridiagonalChain([0.0, 0.0, 5.0], [1.0, 0.0]),
                            (-4.0, -2.0, -1.0, -0.5, 0.5)), 2, ChainBreakdown),
        ([GSample(e, 1.0 - 2.0 * e) for e in (0.0, 1.0, 3.0)], 1,
         SampleDegeneracy),
    ], ids=["returns", "breakdown", "degeneracy"])
    def test_caller_context_untouched(self, samples, K, error):
        caller = Context(prec=7, rounding=ROUND_DOWN, traps=[Inexact])
        caller.flags[Inexact] = True
        with localcontext(caller) as ctx:
            before = (ctx.prec, ctx.rounding, dict(ctx.traps), dict(ctx.flags))
            if error is None:
                reconstruct(samples, K)
            else:
                with pytest.raises(error):
                    reconstruct(samples, K)
            ctx = getcontext()
            assert (ctx.prec, ctx.rounding, dict(ctx.traps),
                    dict(ctx.flags)) == before

    @pytest.mark.parametrize("K", [5, 12])
    def test_hostile_caller_context(self, K):
        samples = _roundtrip_samples(K, 100 * K + 7, "mixed")
        ref = _bits(reconstruct(samples, K).chain)
        with localcontext(Context(prec=5, rounding=ROUND_DOWN, Emax=2,
                                  Emin=-2, traps=[Inexact])):
            assert _bits(reconstruct(samples, K).chain) == ref
        saved = (DefaultContext.prec, DefaultContext.rounding,
                 DefaultContext.Emax, DefaultContext.Emin)
        try:
            DefaultContext.prec, DefaultContext.rounding = 5, ROUND_DOWN
            DefaultContext.Emax, DefaultContext.Emin = 2, -2
            assert _bits(reconstruct(samples, K).chain) == ref
        finally:
            (DefaultContext.prec, DefaultContext.rounding,
             DefaultContext.Emax, DefaultContext.Emin) = saved

    def test_threads_match_serial(self):
        jobs = [(K, _roundtrip_samples(K, 100 * K + s, sign))
                for K in (5, 12) for s in (1, 2)
                for sign in ("positive", "mixed")] * 4
        serial = [_bits(reconstruct(samples, K).chain) for K, samples in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(reconstruct, samples, K)
                           for K, samples in jobs]
                threaded = [_bits(f.result(timeout=60).chain)
                            for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
