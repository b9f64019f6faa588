import numpy as np
import pytest

from effham.instances import IMAG_TOL, probe_window, random_chain, real_poles
from effham.model import TridiagonalChain


def _numpy_real_poles(chain):
    """The reference of ``real_poles``: the eigenvalues of the validated
    ``chain.tail()`` (``to_dense`` is pinned to the ``np.diag`` sum in
    ``test_model.py``)."""
    if chain.K == 0:
        return np.zeros(0)
    w = np.linalg.eigvals(chain.tail().to_dense())
    return np.sort(w.real[np.abs(w.imag) <= IMAG_TOL * (1 + np.abs(w))])


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
