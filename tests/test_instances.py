import numpy as np
import pytest

from effham.errors import PoleProximity
from effham.forward import g_function
from effham.instances import probe_window, random_chain, real_poles
from effham.inverse import choose_probe_energies
from effham.model import TridiagonalChain
from effham.spectral import IMAG_COLLAPSE


def _numpy_real_poles(chain):
    """The reference of ``real_poles``: the tail of the chain cut at its
    first rho_k = 0, in the balanced gauge (sign(rho_k) sqrt|rho_k| above
    the diagonal, sqrt|rho_k| below), as a sum of ``np.diag`` matrices;
    ``eigvalsh`` when it is symmetric, else the eigenvalues by ``eigvals``
    whose imaginary part is at most ``IMAG_COLLAPSE`` times its largest
    |entry|."""
    rho = chain.rho.tolist()
    seen = rho.index(0.0) if 0.0 in rho else len(rho)
    if seen == 0:
        return np.zeros(0)
    a, rho = chain.a[:seen + 1], chain.rho[:seen]
    root = np.sqrt(np.abs(rho))
    form = (np.diag(a) + np.diag(np.copysign(root, rho), 1)
            + np.diag(root, -1))
    tail = form[1:, 1:]
    if (tail == tail.T).all():
        return np.linalg.eigvalsh(tail)
    w = np.linalg.eigvals(tail)
    return np.sort(w.real[np.abs(w.imag) <= IMAG_COLLAPSE
                          * np.max(np.abs(tail))])


def _numpy_probe_window(chain, pad):
    """The reference of ``probe_window``, its bounds taken on arrays."""
    w = np.linalg.eigvals(chain.to_dense())
    return (float(np.min(w.real - np.abs(w.imag))) - pad,
            float(np.max(w.real + np.abs(w.imag))) + pad)


def _chains():
    yield TridiagonalChain([-0.0], [])
    yield TridiagonalChain([1.0, -0.0], [2.0])
    yield TridiagonalChain([-0.0, 1.5], [-0.0])
    yield TridiagonalChain([-0.0, -0.0, 2.0], [-1.0, -0.0])
    for K in range(21):
        for sign in ("positive", "mixed"):
            yield random_chain(K, np.random.default_rng(100 + K), sign)


def test_unknown_rho_sign():
    with pytest.raises(ValueError, match="unknown rho_sign"):
        random_chain(2, np.random.default_rng(0), "negative")


def test_real_poles_bitwise():
    for chain in _chains():
        got, ref = real_poles(chain), _numpy_real_poles(chain)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("pad", [0.0, 0.5, 2.0])
def test_probe_window_bitwise(pad):
    for chain in _chains():
        got, ref = probe_window(chain, pad), _numpy_probe_window(chain, pad)
        assert [x.hex() for x in got] == [x.hex() for x in ref]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_poles_scale_free(seed):
    # the count of real poles of a mixed chain does not depend on its
    # scale, and each pole scales with the chain
    chain = random_chain(8, np.random.default_rng(seed), "mixed")
    ref = real_poles(chain)
    for s in (1e-100, 1e-20, 1e-6, 1e6, 1e100):
        got = real_poles(TridiagonalChain(s * chain.a, s * s * chain.rho))
        assert len(got) == len(ref)
        np.testing.assert_allclose(got, s * ref, rtol=1e-12, atol=0)


def _g_or_pole(chain, energies):
    """G at each energy by the float form, None where it raises."""
    out = []
    for E in energies:
        try:
            out.append(g_function(chain, E))
        except PoleProximity:
            out.append(None)
    return out


@pytest.mark.parametrize("K", [3, 8, 20])
@pytest.mark.parametrize("sign", ["positive", "mixed"])
def test_scale_covariant(K, sign):
    # the chain scaled by s = 2^e (a by s, rho by s^2): every float64 step
    # of G and of probe placement is then exact scaling, so G (both
    # forms) and the probes of the scaled window, poles and margin are
    # bitwise s times their values at s = 1.  The poles of G come from an
    # eigensolve, which is not bitwise: they keep their count and move by
    # at most 1e-14 of the largest (4.2e-15 measured, on mixed chains)
    for i in range(3):
        chain = random_chain(K, np.random.default_rng(100 + 10 * K + i), sign)
        lo, hi = probe_window(chain, 0.5)
        energies = np.linspace(lo, hi, 301)
        g = _g_or_pole(chain, energies.tolist())
        g_array = g_function(chain, energies)
        poles = real_poles(chain)
        probes = choose_probe_energies(2 * K + 1, (lo, hi), poles, 0.05)
        for e in range(-500, 501, 50):
            s = 2.0 ** e
            scaled = TridiagonalChain(s * chain.a, s * s * chain.rho)
            assert _g_or_pole(scaled, (s * energies).tolist()) == [
                None if x is None else s * x for x in g]
            assert (g_function(scaled, s * energies).tobytes()
                    == (s * g_array).tobytes())
            got = choose_probe_energies(2 * K + 1, (s * lo, s * hi),
                                        s * poles, s * 0.05)
            assert got.tobytes() == (s * probes).tobytes()
            got = real_poles(scaled)
            assert len(got) == len(poles)
            assert np.all(np.abs(got / s - poles)
                          <= 1e-14 * np.max(np.abs(poles)))


def test_real_poles_cut_at_zero_rho():
    # rho_1 = 0 decouples a_2: G = a_0 - E - 1 / (1 - E) has the one pole 1
    got = real_poles(TridiagonalChain([0.0, 1.0, 5.0], [1.0, 0.0]))
    assert got.tolist() == [1.0]
