import contextlib
import logging
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
from hypothesis import given, settings
from hypothesis import strategies as st

import effham
from effham import inverse
from effham.errors import (ChainBreakdown, DomainError, InfeasibleSampling,
                           MalformedPair, PoleProximity, SampleDegeneracy)
from effham.forward import g_function
from effham.instances import probe_window, random_chain, real_poles
from effham.inverse import (K1Variables, choose_probe_energies, k1_closed_form,
                            k1_invert, reconstruct, samples_from_chain)
from effham.model import GSample, TridiagonalChain

PAPER_SAMPLES = [GSample(0.0, -1.5), GSample(1.0, -2.0), GSample(3.0, -6.0)]


def _scaled_paper_samples(s):
    """The paper samples of the chain a = (-2, 2), rho = -1 at energy scale
    s, i.e. of the chain a = (-2s, 2s), rho = -s^2."""
    return [GSample(x.energy * s, x.g_value * s) for x in PAPER_SAMPLES]


def _assert_scaled_paper_chain(chain, s):
    np.testing.assert_allclose(chain.a, [-2.0 * s, 2.0 * s], rtol=1e-12,
                               atol=0)
    np.testing.assert_allclose(chain.rho, [-s * s], rtol=1e-12, atol=0)


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


def _numpy_probes(count, window, forbidden, margin):
    """``choose_probe_energies`` with the array form of ``_select_probes``
    that it had before the selection moved to Python lists (one
    ``np.searchsorted`` per forbidden value, a boolean ``taken`` mask,
    numpy scalars): the reference of the list form, bit for bit."""
    lo, hi = float(window[0]), float(window[1])
    forbidden = np.sort(np.asarray(list(forbidden), dtype=float))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    m = max(count, int(np.ceil(4.0 * half / max(margin, half / 64.0))))
    for _ in range(8):
        i = np.arange(m)
        nodes = np.sort(mid + half * np.cos((2 * i + 1) * np.pi / (2 * m)))
        if len(forbidden):
            dist = np.min(np.abs(nodes[:, None] - forbidden[None, :]), axis=1)
            nodes = nodes[dist >= margin]
        if len(nodes) >= count:
            break
        m *= 2
    else:
        raise InfeasibleSampling("no room")
    chosen = []
    taken = np.zeros(len(nodes), dtype=bool)
    for f in forbidden:
        if len(chosen) >= count:
            break
        pos = np.searchsorted(nodes, f)
        for idx in (pos - 1, pos):
            if 0 <= idx < len(nodes) and not taken[idx] and len(chosen) < count:
                taken[idx] = True
                chosen.append(nodes[idx])
    free = nodes[~taken]
    need = count - len(chosen)
    if need > 0:
        picks = np.round(np.linspace(0, len(free) - 1, need)).astype(int)
        chosen.extend(free[picks])
    return np.sort(np.array(chosen))


def _probe_outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except InfeasibleSampling:
        return "InfeasibleSampling"


class TestProbeSelection:
    @pytest.mark.parametrize("margin", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_matches_array_form(self, sign, margin):
        for K in range(1, 21):
            chain = random_chain(K, np.random.default_rng(200 + K), sign)
            args = (2 * K + 1, probe_window(chain, pad=0.5),
                    real_poles(chain), margin)
            assert (_probe_outcome(choose_probe_energies, *args)
                    == _probe_outcome(_numpy_probes, *args))

    @pytest.mark.parametrize("count", [3, 5, 40])
    def test_forbidden_on_a_node(self, count):
        # at margin 0 a node equal to a forbidden value stays admissible:
        # the insertion point is that node, and brackets of neighbouring
        # forbidden values meet on a taken node; at count 3 the second
        # forbidden value of [nodes[50], nodes[100]] gets only the node
        # below it
        m = 256  # the grid of (-2, 2) at margin 0
        i = np.arange(m)
        nodes = np.sort(2.0 * np.cos((2 * i + 1) * np.pi / (2 * m)))
        for forbidden in ([nodes[100], nodes[101]], [nodes[50], nodes[100]],
                          [nodes[0]], [nodes[-1], -5.0, 5.0],
                          [nodes[7], nodes[7]], [np.inf, nodes[3], -np.inf]):
            args = (count, (-2.0, 2.0), forbidden, 0.0)
            got = choose_probe_energies(*args)
            assert got.tobytes() == _numpy_probes(*args).tobytes()

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

    def test_no_probes(self):
        with pytest.raises(ValueError, match="count"):
            choose_probe_energies(0, (-1.0, 1.0))

    @pytest.mark.parametrize("count", [3.0, 2.5, np.float64(3.0), "3"])
    def test_non_integer_count(self, count):
        with pytest.raises(TypeError):
            choose_probe_energies(count, (-1.0, 1.0))

    def test_numpy_integer_count(self):
        want = choose_probe_energies(5, (-1.0, 1.0), [0.3], 0.05)
        for count in (np.int64(5), np.uint8(5)):
            got = choose_probe_energies(count, (-1.0, 1.0), [0.3], 0.05)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("margin", [np.nan, -1.0, np.inf])
    def test_bad_margin(self, margin):
        with pytest.raises(ValueError, match="margin must be finite"):
            choose_probe_energies(3, (-1.0, 1.0), [0.0], margin)

    def test_nan_forbidden(self):
        # a NaN is no pole: an input error, not infeasible sampling
        with pytest.raises(ValueError, match="must not be NaN"):
            choose_probe_energies(3, (-1.0, 1.0), [0.5, np.nan], 0.1)

    def test_more_poles_than_brackets(self):
        # two probes bracket the first pole; the others get none
        probes = choose_probe_energies(2, (-3.0, 3.0), [-1.0, 0.0, 1.0], 0.1)
        assert len(probes) == 2
        assert probes[0] < -1.0 < probes[1] < 0.0


def _spy(monkeypatch, name):
    """Wrap ``inverse.<name>`` so that each call appends its arguments to
    the list returned."""
    calls, fn = [], getattr(inverse, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(inverse, name, spy)
    return calls


class TestProbePlacement:
    """The cached unit grid and the list selection give, bit for bit, the
    probes and errors of the array form, on the edges of the selection."""

    def test_unit_grid(self):
        # every size the loop can ask for from m = 1..300: read-only, kept,
        # and bitwise the expression it replaces
        for m0 in range(1, 301):
            for m in (m0 << d for d in range(8)):
                grid = inverse._unit_grid(m)
                i = np.arange(m)
                want = np.sort(np.cos((2 * i + 1) * np.pi / (2 * m)))
                assert grid.tobytes() == want.tobytes()
                assert not grid.flags.writeable
                assert inverse._unit_grid(m) is grid
        assert inverse._unit_grid.cache_info().maxsize == 64

    def test_doubling_loop(self, monkeypatch):
        # dense forbidden values at wide margins: the first grid keeps too
        # few nodes, and the grid doubles until enough do or it gives up
        sizes = _spy(monkeypatch, "_unit_grid")
        rng = np.random.default_rng(7)
        doubled = infeasible = 0
        for _ in range(300):
            forbidden = rng.uniform(-1.0, 1.0, int(rng.integers(1, 12)))
            args = (int(rng.integers(1, 30)), (-1.0, 1.0), forbidden,
                    float(rng.uniform(0.02, 0.3)))
            del sizes[:]
            got = _probe_outcome(choose_probe_energies, *args)
            assert got == _probe_outcome(_numpy_probes, *args)
            doubled += len(sizes) > 1
            infeasible += got == "InfeasibleSampling"
        assert doubled >= 30 and infeasible >= 5  # 146 and 11 measured

    @pytest.mark.parametrize("count, forbidden", [
        (2, [0.3]), (4, [-0.5, 0.5]), (3, [-0.5, 0.5]), (3, [0.3]),
        (1, []), (5, [-0.5, 0.5]), (9, [0.3, -0.2]),
        (41, [-0.7, 0.1, 0.6]), (300, [])])
    def test_need(self, monkeypatch, count, forbidden):
        # each interior forbidden value takes two nodes while picks remain,
        # so the even spread has need = 0, 0, 0, 1, 1, 1, 5, 35 and 300
        # picks; at margin 0 and count 300 the grid has just 300 nodes
        calls = _spy(monkeypatch, "_select_probes")
        args = (count, (-1.0, 1.0), forbidden, 0.0)
        got = choose_probe_energies(*args)
        assert got.tobytes() == _numpy_probes(*args).tobytes()
        if count == 300:
            assert len(calls[0][0]) == count

    @pytest.mark.parametrize("count", [3, 5, 9, 16])
    def test_exactly_count_nodes(self, monkeypatch, count):
        # margins at which the admissible nodes are exactly ``count``, so
        # the even spread takes every free node
        calls = _spy(monkeypatch, "_select_probes")
        exact = 0
        for margin in np.linspace(0.05, 1.4, 300).tolist():
            args = (count, (-1.0, 1.0), [0.3], margin)
            del calls[:]
            got = _probe_outcome(choose_probe_energies, *args)
            assert got == _probe_outcome(_numpy_probes, *args)
            exact += bool(calls) and len(calls[0][0]) == count
        assert exact >= 10  # 77, 42, 37 and 15 measured

    @pytest.mark.parametrize("count, window, feasible", [
        (7, (0.0, 1e-323), False), (1, (0.0, 5e-324), False),
        (7, (1.0, 1.0 + 1e-15), False), (7, (0.0, 1e308), True),
        (7, (-1e308, 1e308), True), (7, (1e308, 1.7e308), True),
        (7, (-2.0 ** 1023, 2.0 ** 1023), True),
        (7, (1.0, 1.0 + 1e-13), True), (1, (0.0, 1e-323), True)],
        ids=["1e-323", "one-float", "1e-15", "0-1e308", "pm1e308",
             "1e308-1.7e308", "pm2^1023", "1e-13", "1e-323-one-probe"])
    def test_edges_of_float64(self, count, window, feasible):
        # windows at the ends of float64's range, and windows holding
        # fewer floats than probes, or not many more: count distinct
        # probes strictly inside the window, or InfeasibleSampling, never
        # an error of the arithmetic (a ZeroDivisionError, an OverflowError
        # or a NaN conversion, and at 1 + 1e-15 a repeated probe below lo)
        if not feasible:
            with pytest.raises(InfeasibleSampling, match="distinct"):
                choose_probe_energies(count, window)
            return
        probes = choose_probe_energies(count, window).tolist()
        assert len(probes) == count
        assert window[0] < probes[0] and probes[-1] < window[1]
        assert all(x < y for x, y in zip(probes, probes[1:]))
        if window[1] == 2.0 ** 1023:  # halving is exact: scaled bitwise
            unit = choose_probe_energies(count, (-1.0, 1.0)).tolist()
            assert probes == [2.0 ** 1023 * x for x in unit]


class TestLinearize:
    """The sample contract of the rational fit inside ``reconstruct``."""

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            reconstruct(PAPER_SAMPLES, 2)

    @pytest.mark.parametrize("K", [1.0, 1.5, np.float64(1.0), "1"])
    def test_non_integer_K(self, K):
        with pytest.raises(TypeError):
            reconstruct(PAPER_SAMPLES, K)

    def test_numpy_integer_K(self):
        want = reconstruct(PAPER_SAMPLES, 1).chain
        for K in (np.int64(1), np.uint8(1)):
            got = reconstruct(PAPER_SAMPLES, K).chain
            assert got.a.tobytes() == want.a.tobytes()
            assert got.rho.tobytes() == want.rho.tobytes()

    def test_duplicate_energy(self):
        bad = [GSample(0.0, -1.5), GSample(0.0, -1.5), GSample(3.0, -6.0)]
        with pytest.raises(SampleDegeneracy):
            reconstruct(bad, 1)

    def test_nonfinite(self):
        bad = [GSample(0.0, np.inf), GSample(1.0, -2.0), GSample(3.0, -6.0)]
        with pytest.raises(SampleDegeneracy):
            reconstruct(bad, 1)

    def test_two_nan_energies_are_non_finite(self):
        # one NaN object twice, two distinct NaNs and two infinities: a
        # non-finite energy is not a repeated node
        nan = float("nan")
        for bad in ([GSample(nan, 0.5), GSample(nan, 0.5), GSample(1.0, 0.5)],
                    [GSample(float("nan"), 0.5), GSample(1.0, 0.5),
                     GSample(float("nan"), 0.5)],
                    [GSample(np.inf, 0.5), GSample(np.inf, 0.5),
                     GSample(1.0, 0.5)]):
            for call in (reconstruct, lambda x, _: k1_closed_form(x)):
                with pytest.raises(SampleDegeneracy,
                                   match="^non-finite sample values$"):
                    call(bad, 1)

    def test_duplicate_reported_before_non_finite(self):
        nan = float("nan")
        bad = [GSample(1.0, nan), GSample(nan, 0.5), GSample(1.0, 0.5)]
        for call in (reconstruct, lambda x, _: k1_closed_form(x)):
            with pytest.raises(SampleDegeneracy,
                               match="^duplicate probe energies$"):
                call(bad, 1)

    def test_signed_zero_energies_repeat(self):
        bad = [GSample(0.0, -1.5), GSample(-0.0, -1.5), GSample(3.0, -6.0)]
        with pytest.raises(SampleDegeneracy, match="^duplicate"):
            reconstruct(bad, 1)


def _g_outcome(pairs):
    """(E, G) pairs as float hex, or the level of the PoleProximity that
    evaluating them raises."""
    try:
        return [(e.hex(), g.hex()) for e, g in pairs()]
    except PoleProximity as exc:
        return ("PoleProximity", exc.level)


class TestSamplesFromChain:
    """Each sample is a float call of ``g_function``; the values and the
    first pole met are those of one call on the array of energies."""

    @staticmethod
    def _both(chain, energies):
        E = np.asarray(energies, dtype=float)
        got = _g_outcome(lambda: [(s.energy, s.g_value) for s in
                                  samples_from_chain(chain, energies)])
        ref = _g_outcome(lambda: zip(E.tolist(),
                                     g_function(chain, E).tolist()))
        return got, ref

    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_bitwise_array_form(self, sign):
        for K in range(21):
            rng = np.random.default_rng(300 + K)
            chain = random_chain(K, rng, sign)
            lo, hi = probe_window(chain, pad=0.5)
            energies = np.concatenate([
                choose_probe_energies(2 * K + 1, (lo, hi), real_poles(chain),
                                      0.05),
                rng.uniform(lo, hi, 8), [-0.0, 0.0, 1e300, -1e-300]])
            got, ref = self._both(chain, energies)
            assert got == ref and len(got) == 2 * K + 13

    def test_types_and_list_input(self):
        chain = TridiagonalChain([0.5, -1.0], [2.0])
        samples = samples_from_chain(chain, [1, 2.5, np.float64(-3.0)])
        assert [s.energy for s in samples] == [1.0, 2.5, -3.0]
        assert all(type(s.energy) is float and type(s.g_value) is float
                   for s in samples)

    @pytest.mark.parametrize("energies, level", [
        ((-1.0, 0.5, 2.0, 3.0), 2),   # E = a_2: the last level's pivot
        ((0.0, (3 - 5 ** 0.5) / 2, 2.0), 1),   # a pole of G first
        ((0.0, 2.0, (3 - 5 ** 0.5) / 2), 2)])  # the same two, swapped
    def test_first_pole_in_energy_order(self, energies, level):
        # ``level`` is where the first pivot to vanish does: only level 1,
        # a pole of G, raises.  At E = a_2 = 2 G is -2, and a pole after it
        # still raises
        chain = TridiagonalChain([0.0, 1.0, 2.0], [1.0, 1.0])
        got, ref = self._both(chain, energies)
        assert got == ref
        if (3 - 5 ** 0.5) / 2 in energies:
            assert got == ("PoleProximity", 1)
        else:
            assert level == 2 and float.fromhex(got[2][1]) == -2.0


class TestK1:
    def test_paper_inversion_bitwise(self):
        chain = k1_invert(K1Variables(x1=0.0, x2=-3.0, y1=2.0))
        assert chain.a[0] == -2.0 and chain.a[1] == 2.0
        assert chain.rho[0] == -1.0

    def test_variable_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            chain = random_chain(1, rng, "mixed")
            (a0, a1), (rho0,) = chain.a, chain.rho
            back = k1_invert(K1Variables(x1=-a0 - a1, x2=a0 * a1 - rho0,
                                         y1=a1))
            np.testing.assert_allclose(back.a, chain.a, rtol=1e-13)
            np.testing.assert_allclose(back.rho, chain.rho, rtol=1e-12)

    def test_closed_form_paper(self):
        chain = k1_closed_form(PAPER_SAMPLES)
        np.testing.assert_allclose(chain.a, [-2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(chain.rho, [-1.0], atol=1e-12)

    @pytest.mark.parametrize("s", [1e-100, 1e-20, 1e10, 1e154])
    def test_closed_form_scale(self, s):
        # the system is solved in units of a power of two near the sample
        # scale, so neither E^2 nor the condition test sees s
        _assert_scaled_paper_chain(k1_closed_form(_scaled_paper_samples(s)),
                                   s)

    def test_closed_form_overflow_is_malformed(self):
        # rho_0 = -1e310 is finite before scaling back, inf in float64
        with pytest.raises(MalformedPair):
            k1_closed_form(_scaled_paper_samples(1e155))

    @pytest.mark.parametrize("s", [1e-170, 1e-300])
    def test_closed_form_underflow_is_malformed(self, s):
        # rho_0 = -s^2 is below the smallest subnormal: a -0.0 would flag
        # the chain as Hermitian
        with pytest.raises(MalformedPair):
            k1_closed_form(_scaled_paper_samples(s))

    def test_closed_form_needs_three(self):
        with pytest.raises(ValueError):
            k1_closed_form(PAPER_SAMPLES[:2])

    def test_closed_form_duplicates(self):
        bad = [PAPER_SAMPLES[0], PAPER_SAMPLES[0], PAPER_SAMPLES[2]]
        with pytest.raises(SampleDegeneracy):
            k1_closed_form(bad)

    def test_invert_square_correctly_rounded(self):
        # y1 ** 2 goes through libm pow, which is 1 ulp off at this y1;
        # the correctly rounded square ends in ...845
        y1 = -float.fromhex("0x1.a478a91156e4fp-1")
        chain = k1_invert(K1Variables(x1=0.0, x2=0.0, y1=y1))
        assert chain.rho[0] == -float.fromhex("0x1.594e11cfea845p-1")

    def test_closed_form_nan_value(self):
        bad = [GSample(0.0, np.nan), PAPER_SAMPLES[1], PAPER_SAMPLES[2]]
        with pytest.raises(SampleDegeneracy, match="non-finite"):
            k1_closed_form(bad)

    def test_closed_form_infinite_energy(self):
        bad = [GSample(np.inf, -1.5), PAPER_SAMPLES[1], PAPER_SAMPLES[2]]
        with pytest.raises(SampleDegeneracy,
                           match="^non-finite sample values$"):
            k1_closed_form(bad)

    def test_closed_form_collinear_samples(self):
        # G = E on all three probes: the G and E columns of the system
        # are proportional
        line = [GSample(e, e) for e in (0.0, 1.0, 2.0)]
        with pytest.raises(SampleDegeneracy, match="degenerate K = 1"):
            k1_closed_form(line)

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
                                len(d1) - 1, Decimal(inverse.DROP_TOL))[0]


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

    @staticmethod
    def _assert_breakdown_at_level_1(rho_1):
        chain = TridiagonalChain([1.0, -0.5, 2.0], [1.5, rho_1])
        probes = choose_probe_energies(5, probe_window(chain),
                                       real_poles(chain), 0.1)
        with pytest.raises(ChainBreakdown) as exc:
            reconstruct(samples_from_chain(chain, probes), 2)
        assert exc.value.level == 1
        prefix = exc.value.recovered_prefix
        np.testing.assert_allclose(prefix.a, [1.0, -0.5], atol=1e-6)
        np.testing.assert_allclose(prefix.rho, [1.5], atol=1e-6)

    def test_breakdown_reports_prefix(self):
        # rho_1 = 0 decouples the last level: G is reducible and the cascade
        # must stop after recovering (a_0, a_1, rho_0)
        self._assert_breakdown_at_level_1(0.0)

    @pytest.mark.parametrize("rho_1", [1e-13, 1e-11])
    def test_breakdown_below_drop_tol_reports_prefix(self, rho_1):
        # so must a rho_1 below DROP_TOL times the squared half-span of the
        # probes
        self._assert_breakdown_at_level_1(rho_1)


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
        # G + E = -E + 1/(E - 1) grows like E; the fitted d1 has a leading
        # coefficient of relative size 3e-44
        (lambda e: -2.0 * e + 1.0 / (e - 1.0), (0.0, 2.0, 3.0, 5.0, -1.0)),
        # G + E = 0 at all probes but -4: the fraction of type (0, 0) puts
        # a common zero of n0 and d1 on -4
        (lambda e: (2.5 if e == -4.0 else 0.0) - e,
         (0.5, -4.0, -1.5, 2.0, -2.5)),
        # the cascade meets rho_0 = 0 exactly, and its prefix a = (4) has
        # G(1) = 3, not 0
        (lambda e: {1.0: 0.0, -1.5: 5.5, 1.5: 2.5}[e], (1.0, -1.5, 1.5)),
    ], ids=["1-2E", "constant", "-2E+1/(E-1)", "one-probe-off",
            "prefix-misses-sample"])
    def test_samples_no_chain_fits(self, g, energies):
        # no chain has this G: the prefix before the breakdown misses
        # samples
        samples = [GSample(e, g(e)) for e in energies]
        with pytest.raises(SampleDegeneracy):
            reconstruct(samples, len(energies) // 2)

    def test_deflation_uses_every_sample(self):
        # G = -0.5 - E - 1.5/(E + 3), a_0 = -0.5, a_1 = -3, rho_0 = -1.5 and
        # rho_1 = 0, at 9 probes: the fraction through all of them ends at
        # type (1, 1) whatever their order
        energies = [0.5, 0.0, -3.5, 2.5, -1.0, -2.0, -4.0, 3.0, -1.5]
        samples = [GSample(e, -0.5 - e - 1.5 / (e + 3.0)) for e in energies]
        for order in (samples, samples[::-1]):
            with pytest.raises(ChainBreakdown) as exc:
                reconstruct(order, 4)
            assert exc.value.level == 1
            assert exc.value.recovered_prefix.a.tolist() == [-0.5, -3.0]
            assert exc.value.recovered_prefix.rho.tolist() == [-1.5]


class TestThieleFit:
    @pytest.mark.parametrize("probes", [(-0.5, 0.25, 0.5, 2.0, 3.0),
                                        (-0.5, 2.0, 2.5, 3.0, 4.0)],
                             ids=["apart", "adjacent"])
    def test_equal_values_of_g_plus_e(self, probes):
        # G + E = 1.5 E/(E^2 - 1) is 1 at both -0.5 and 2.0: an inverse
        # difference there is infinite, and, when the two probes are
        # adjacent, the next node in sorted order has a zero denominator
        chain = TridiagonalChain([0.0, 0.0, 0.0], [1.5, 1.0])
        samples = samples_from_chain(chain, probes)
        assert samples[0].g_value + samples[0].energy == 1.0
        assert samples[probes.index(2.0)].g_value + 2.0 == 1.0
        rep = reconstruct(samples, 2)
        assert _max_rel_err(rep.chain, chain) <= 1e-12
        np.testing.assert_allclose(rep.chain.rho, [1.5, 1.0], rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 8), sign=st.sampled_from(["positive", "mixed"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_against_monomial_solve(self, K, sign, seed):
        samples = _roundtrip_samples(K, seed, sign)
        got = _outcome(lambda s, k: reconstruct(s, k).chain, samples, K)
        assert got == _outcome(_monomial_reconstruct, samples, K)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), K=st.integers(0, 4), linear=st.booleans())
    def test_small_dyadic_samples(self, data, K, linear):
        # exact data hit every exit of the fit: lower type, growth like E,
        # vanishing and infinite inverse differences; each one must end in
        # a report or a domain error, the same for either sample order
        half = st.integers(-8, 8).map(lambda i: i / 2)
        energies = data.draw(st.lists(half, min_size=2 * K + 1,
                                      max_size=2 * K + 1, unique=True))
        if linear:
            c, m = data.draw(half), data.draw(half)
            values = [c - m * e for e in energies]
        else:
            values = data.draw(st.lists(half, min_size=2 * K + 1,
                                        max_size=2 * K + 1))
        samples = [GSample(e, g) for e, g in zip(energies, values)]
        got = _outcome_bytes(samples, K)
        assert isinstance(got[0], bytes) or got[0] in (
            "ChainBreakdown", "SampleDegeneracy", "MalformedPair")
        assert _outcome_bytes(samples[::-1], K) == got


class TestReconstruct:
    def test_k0(self):
        rep = reconstruct([GSample(1.0, 3.0)], 0)
        np.testing.assert_allclose(rep.chain.a, [4.0], atol=1e-14)
        assert rep.chain.K == 0
        assert rep.hermitizable == ()

    @pytest.mark.parametrize("K", [0, 1, 3, 8])
    def test_chain_checked_once(self, monkeypatch, K):
        # the cascade checks its entries and hands the chain its arrays,
        # read-only: the public constructor's copy and check do not run,
        # and the chain is bitwise the one that constructor builds
        samples = ([GSample(1.0, 3.0)] if K == 0
                   else _roundtrip_samples(K, 5, "mixed"))

        def no_vector(name, x):
            raise AssertionError(f"{name} checked again")

        monkeypatch.setattr(effham.model, "_vector", no_vector)
        chain = reconstruct(samples, K).chain
        monkeypatch.undo()
        ref = TridiagonalChain(chain.a, chain.rho)
        for got, want in ((chain.a, ref.a), (chain.rho, ref.rho)):
            assert not got.flags.writeable
            assert (got.dtype, got.shape, got.tobytes()) == (
                want.dtype, want.shape, want.tobytes())

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

    def test_sample_count_checked_before_holdout(self):
        # a usage error comes before any domain error of the values
        bad = [GSample(float("nan"), 1.0)]
        with pytest.raises(ValueError, match="^need exactly 7 samples, got 1$"):
            reconstruct([GSample(0.0, 1.0)], 3, bad)
        with pytest.raises(SampleDegeneracy,
                           match="^non-finite holdout values$"):
            reconstruct(PAPER_SAMPLES, 1, bad)

    @pytest.mark.parametrize("samples", [[], [GSample(0.0, 1.0)]])
    def test_negative_K_is_its_own_usage_error(self, samples):
        # no sample count fits K < 0: the error names K, not a count
        with pytest.raises(ValueError, match="^K must be at least 0, got -1$"):
            reconstruct(samples, -1, [GSample(float("nan"), 1.0)])

    def test_non_integer_K_checked_first(self):
        # a usage error comes before any domain error of the values
        with pytest.raises(TypeError):
            reconstruct([GSample(0.0, 1.0)], 1.0, [GSample(float("nan"), 1.0)])

    def test_hermitizable_is_plain_bools(self):
        rep = reconstruct(PAPER_SAMPLES, 1)
        assert rep.hermitizable == (False,)
        assert type(rep.hermitizable[0]) is bool

    @pytest.mark.parametrize("s", [1e-150, 1e-50, 1e-6, 1e10, 1e50, 1e100,
                                   1e150])
    def test_paper_chain_at_scale(self, s):
        # the vanishing test of the inverse differences is relative to
        # their size, so it does not mistake them for rounding noise when
        # G is large; the breakdown threshold scales with the probes, so
        # rho_0 = -s^2 is not mistaken for zero when s is small
        _assert_scaled_paper_chain(
            reconstruct(_scaled_paper_samples(s), 1).chain, s)

    @pytest.mark.parametrize("s", [1e-11, 1e-50, 1e-150])
    @pytest.mark.parametrize("K", [1, 5, 10])
    def test_roundtrip_at_small_scale(self, K, s):
        # the roundtrip cycle of the CLI with the chain, window pad and
        # margin scaled by s: G stays relative at every scale
        base = random_chain(K, np.random.default_rng(1000 * K))
        chain = TridiagonalChain(base.a * s, base.rho * (s * s))
        probes = choose_probe_energies(2 * K + 1,
                                       probe_window(chain, pad=0.5 * s),
                                       real_poles(chain), 0.05 * s)
        got = reconstruct(samples_from_chain(chain, probes), K).chain
        scaled = TridiagonalChain(got.a / s, got.rho / (s * s))
        assert _max_rel_err(scaled, base) <= (1e-13 if s >= 1e-50 else 1e-8)

    @pytest.mark.parametrize("s", [1e-170, 1e-300])
    def test_underflowing_rho_is_malformed(self, s):
        # rho_0 = -s^2 is below the smallest subnormal: a -0.0 would flag
        # the chain as Hermitian (s = 1e-160 gives a subnormal and returns)
        with pytest.raises(MalformedPair):
            reconstruct(_scaled_paper_samples(s), 1)

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

    @pytest.mark.parametrize("rho_sign", ["positive", "mixed"])
    def test_deep_sweep(self, rho_sign):
        # K = 11..16 on roundtrip probes: no chain breaks down, each chain
        # returned reproduces its own samples, and positive chains up to
        # K = 14 stay accurate (worst measured error 3.6e-6)
        for K in range(11, 17):
            for s in range(10):
                seed = 1000 * K + s
                samples = _roundtrip_samples(K, seed, rho_sign)
                try:
                    got = reconstruct(samples, K).chain
                except ChainBreakdown as exc:
                    pytest.fail(f"K={K}, seed {seed}: {exc}")
                E = np.array([x.energy for x in samples])
                G = np.array([x.g_value for x in samples])
                assert np.all(np.abs(g_function(got, E) - G)
                              <= 1e-12 * np.maximum(np.abs(G), 1.0))
                if rho_sign == "positive" and K <= 14:
                    chain = random_chain(K, np.random.default_rng(seed),
                                         rho_sign)
                    assert _max_rel_err(got, chain) <= 1e-5

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
        shifted = TridiagonalChain(chain.a + 5.0, chain.rho)
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


def _outcome_bytes(samples, K):
    """``reconstruct``'s outcome: the chain's bytes, or the error type with
    its level and the bytes of its recovered prefix."""
    try:
        chain = reconstruct(samples, K).chain
    except DomainError as exc:
        prefix = getattr(exc, "recovered_prefix", None)
        return (type(exc).__name__, getattr(exc, "level", None),
                None if prefix is None else
                (prefix.a.tobytes(), prefix.rho.tobytes()))
    return (chain.a.tobytes(), chain.rho.tobytes())


# rho_1 = 0 with G + E = 1/E exactly: the K = 2 fit deflates to level 1
DEFLATING_SAMPLES = samples_from_chain(
    TridiagonalChain([0.0, 0.0, 5.0], [1.0, 0.0]),
    (-4.0, -2.0, -1.0, -0.5, 0.5))


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

    @pytest.mark.parametrize("rho_sign", ["positive", "mixed"])
    def test_guard_digits(self, monkeypatch, rho_sign):
        # The smallest precision that reproduces the outcome grows by about
        # one digit per level (at most 21 digits at K = 1 and 38 up to
        # K = 20 on roundtrip probes), so the rule keeps >= 20 guard
        # digits: 20 fewer, and the former 42 + 10K, change nothing.
        cases = [(K, _roundtrip_samples(K, 1000 * K + s, rho_sign))
                 for K in (1, 2, 3, 5, 8, 10, 12, 13, 14, 15, 16)
                 for s in (0, 1)]
        cases.append((2, DEFLATING_SAMPLES))
        ref = [_outcome_bytes(samples, K) for K, samples in cases]
        assert ref[-1][:2] == ("ChainBreakdown", 1)
        # every roundtrip case runs its full cascade
        assert all(r[0] != "ChainBreakdown" for r in ref[:-1])
        rule = inverse._working_context
        for prec in (lambda K: rule(K).prec - 20, lambda K: 42 + 10 * K):
            def at(K, prec=prec):
                ctx = rule(K)
                ctx.prec = prec(K)
                return ctx
            monkeypatch.setattr(inverse, "_working_context", at)
            assert [_outcome_bytes(samples, K)
                    for K, samples in cases] == ref

    @pytest.mark.parametrize("samples, K, line", [
        (_roundtrip_samples(5, 501), 5,
         "reconstruct: K=5 at 50 digits, margin 3.9e+08 at level 0"),
        (DEFLATING_SAMPLES, 2, "reconstruct: K=2 at 44 digits, "
         "fit deflated to level 1, margin 2.0e+09 at level 0"),
    ], ids=["returns", "deflated"])
    def test_debug_line(self, caplog, samples, K, line):
        with caplog.at_level(logging.DEBUG, logger="effham"), \
                contextlib.suppress(ChainBreakdown):
            reconstruct(samples, K)
        assert [r.getMessage() for r in caplog.records
                if r.name == "effham"] == [line]
