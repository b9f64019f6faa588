import math

import numpy as np
import pytest

from effham.errors import PoleProximity
from effham.forward import g_function
from effham.model import TridiagonalChain
from effham.toys import (M2ToyInput, TwoLevelInput, m2_g_closed_form,
                         m2_paradox, two_level_reconstruct)


def _raises(fn, *args):
    """Whether ``fn(*args)`` raises :class:`PoleProximity` (level 1)."""
    try:
        fn(*args)
    except PoleProximity as exc:
        assert exc.level == 1
        return True
    return False


class TestTwoLevel:
    def test_symmetric_pair(self):
        res = two_level_reconstruct(TwoLevelInput(X=2.0, Y=-2.0, a=1.0))
        assert res.shift == 0.0
        assert res.rho == 3.0  # X^2 - a^2 exactly
        w = np.sort(np.linalg.eigvals(res.matrix).real)
        np.testing.assert_allclose(w, [-2.0, 2.0], atol=1e-14)

    def test_trace_and_det(self):
        res = two_level_reconstruct(TwoLevelInput(X=1.5, Y=-1.5, a=0.7))
        assert np.trace(res.matrix) == 0.0
        assert np.linalg.det(res.matrix) == pytest.approx(-1.5 ** 2)

    def test_offcenter_levels(self):
        res = two_level_reconstruct(TwoLevelInput(X=5.0, Y=1.0, a=0.5))
        assert res.shift == 3.0
        w = np.sort(np.linalg.eigvals(res.matrix).real) + res.shift
        np.testing.assert_allclose(w, [1.0, 5.0], atol=1e-13)

    def test_quasi_hermitian_regime(self):
        # a^2 > X^2 forces rho < 0; the spectrum stays {X, -X} regardless
        res = two_level_reconstruct(TwoLevelInput(X=1.0, Y=-1.0, a=3.0))
        assert res.rho == -8.0
        w = np.sort(np.linalg.eigvals(res.matrix).real)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-13)

    def test_coincident_levels_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelInput(X=1.0, Y=1.0)

    def test_random_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            X = float(rng.uniform(0.2, 5.0))
            a = float(rng.uniform(-3.0, 3.0))
            res = two_level_reconstruct(TwoLevelInput(X=X, Y=-X, a=a))
            assert res.rho == X * X - a * a
            w = np.sort(np.linalg.eigvals(res.matrix).real)
            np.testing.assert_allclose(w, [-X, X], atol=1e-12)


class TestM2ClosedForm:
    def test_values(self):
        inp = M2ToyInput(A=1.0, B=2.0, C=3.0)
        assert m2_g_closed_form(inp, 0.0) == 6.0
        assert m2_g_closed_form(inp, 3.0) == -3.0
        assert m2_g_closed_form(inp, -2.0) == 2.0

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            m2_g_closed_form(M2ToyInput(A=1.0, B=2.0, C=3.0), 1.0)

    @pytest.mark.parametrize("s", [1e-13, 1e-150])
    def test_pole_guard_is_relative(self, s):
        inp = M2ToyInput(A=s, B=s, C=s)
        assert m2_g_closed_form(inp, 0.0) == s
        with pytest.raises(PoleProximity):
            m2_g_closed_form(inp, s)

    def test_pole_of_g_is_level_1(self, paper_chain):
        # the same convention as the continued fraction: level 1 is a pole
        # of G itself (the paper chain's G has its pole at a_1 = 2)
        with pytest.raises(PoleProximity) as closed:
            m2_g_closed_form(M2ToyInput(A=1.0, B=2.0, C=3.0), 1.0)
        with pytest.raises(PoleProximity) as chain:
            g_function(paper_chain, 2.0)
        assert closed.value.level == chain.value.level == 1

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_pole_rule_is_that_of_g(self, scale):
        # B C / (A - E) has the pole of G of the K = 1 chain (0, A),
        # rho_0 = B C, whose level-1 pivot is A - E: the closed form raises
        # exactly where g_function raises, on A, one ulp either side of it
        # and at A (1 +- 1e-13, 1e-11, 1e-9)
        outcomes = []
        for A, B, C in ((1.7, 0.6, -1.3), (-0.4, 2.0, 0.5), (0.0, 1.0, 1.0)):
            inp = M2ToyInput(A * scale, B * scale, C * scale)
            chain = TridiagonalChain([0.0, inp.A], [inp.B * inp.C])
            energies = [inp.A, math.nextafter(inp.A, math.inf),
                        math.nextafter(inp.A, -math.inf)] + [
                inp.A * (1.0 + d) for d in (1e-13, -1e-13, 1e-11, -1e-11,
                                            1e-9, -1e-9)]
            for E in energies:
                raised = [_raises(m2_g_closed_form, inp, E),
                          _raises(g_function, chain, E)]
                assert raised[0] == raised[1]
                outcomes.append(raised[0])
        # on A, one ulp off and 1e-13 off raise; 1e-11 and 1e-9 off
        # return, except around A = 0, where every energy is on A or 1 ulp
        assert outcomes.count(True) == 5 + 5 + 9

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            M2ToyInput(A=1.0, B=0.0, C=3.0)


class TestParadox:
    @pytest.fixture
    def setup(self):
        return M2ToyInput(A=1.0, B=2.0, C=3.0), TridiagonalChain(
            [0.5, -1.5], [0.8])

    def test_lucky_guess_isospectral(self, setup):
        inp, chain = setup
        out = m2_paradox(inp, chain)
        np.testing.assert_allclose(out["lucky_levels"],
                                   out["original_levels"], atol=1e-9)
        np.testing.assert_allclose(out["lucky_chain"].a, chain.a, atol=1e-9)
        np.testing.assert_allclose(out["lucky_chain"].rho, chain.rho,
                                   atol=1e-9)

    def test_wrong_guess_pins_measured_levels_only(self, setup):
        inp, chain = setup
        for wrong_factor in (1.25, 2.0):
            out = m2_paradox(inp, chain, wrong_factor=wrong_factor)
            levels = out["original_levels"]
            assert out["wrong_probe"] == 0.5 * (levels[0] + levels[1])
            # the two sampled eigenvalues survive in the wrong
            # reconstruction
            for target in levels[:2]:
                assert np.min(np.abs(out["wrong_levels"] - target)) < 1e-8
            # ...but the third one moves
            assert np.min(np.abs(out["wrong_levels"] - levels[2])) > 1e-3
