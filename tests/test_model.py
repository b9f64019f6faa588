import json

import numpy as np
import pytest

from effham.errors import NotSymmetrizable
from effham.instances import random_hamiltonian
from effham.model import (FactoredChain, GSample, PartitionedHamiltonian,
                          TridiagonalChain, assemble_dense, chain_from_dict,
                          chain_to_dict, hamiltonian_from_dict,
                          hamiltonian_to_dict, refactorize, samples_from_dict,
                          samples_to_dict)


class TestValidation:
    """The types reject malformed objects on construction."""

    def test_paper_chain_ok(self):
        chain = TridiagonalChain([-2.0, 2.0], [-1.0])
        assert chain.K == 1

    def test_k0_chain_ok(self):
        chain = TridiagonalChain([0.0], [])
        assert chain.K == 0
        assert PartitionedHamiltonian.from_chain(chain).N == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            TridiagonalChain([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="length mismatch"):
            TridiagonalChain([1.0, 2.0, 3.0], [0.5])

    def test_empty_a(self):
        with pytest.raises(ValueError, match="at least one"):
            TridiagonalChain([], [])

    def test_2d_a(self):
        with pytest.raises(ValueError, match="1-D"):
            TridiagonalChain([[1.0, 2.0]], [0.5])

    def test_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite entries in a"):
            TridiagonalChain([np.nan, 2.0], [1.0])
        with pytest.raises(ValueError, match="non-finite entries in rho"):
            TridiagonalChain([1.0, 2.0], [np.nan])

    def test_nan_model_block(self):
        chain = TridiagonalChain([1.0, 2.0], [0.5])
        with pytest.raises(ValueError, match="non-finite entries in p_block"):
            PartitionedHamiltonian(np.array([[np.nan, 1.0], [1.0, 0.0]]),
                                   chain)

    def test_factored_chain_inf(self):
        with pytest.raises(ValueError, match="non-finite entries in b"):
            FactoredChain([1.0, 2.0], [np.inf], [1.0])

    def test_factored_chain_2d_a(self):
        with pytest.raises(ValueError, match="1-D"):
            FactoredChain([[1.0, 2.0]], [], [])

    def test_non_square_model_block(self):
        with pytest.raises(ValueError, match="non-empty square"):
            PartitionedHamiltonian(np.zeros((2, 3)),
                                   TridiagonalChain([1.0], []))

    def test_k0_chain_has_no_tail(self):
        with pytest.raises(ValueError, match="no tail"):
            TridiagonalChain([1.0], []).tail()


class TestAssemble:
    def test_paper_2x2(self, paper_hamiltonian):
        np.testing.assert_array_equal(assemble_dense(paper_hamiltonian),
                                      [[-2.0, -1.0], [1.0, 2.0]])

    def test_m2_3x3(self):
        chain = TridiagonalChain([4.0, 5.0], [6.0])
        h = PartitionedHamiltonian(np.array([[1.0, 2.0], [3.0, 0.0]]), chain)
        np.testing.assert_array_equal(
            assemble_dense(h),
            [[1.0, 2.0, 0.0], [3.0, 4.0, 6.0], [0.0, 1.0, 5.0]])

    def test_k0_scalar(self):
        h = PartitionedHamiltonian.from_chain(TridiagonalChain([5.0], []))
        np.testing.assert_array_equal(assemble_dense(h), [[5.0]])

    def test_chain_is_source_of_truth(self):
        # block corner disagrees; the chain's a_0 wins
        chain = TridiagonalChain([7.0, 1.0], [1.0])
        h = PartitionedHamiltonian(np.array([[0.0, 1.0], [1.0, 99.0]]), chain)
        assert h.p_block[-1, -1] == 7.0
        assert assemble_dense(h)[1, 1] == 7.0

    def test_readback_identity(self):
        rng = np.random.default_rng(0)
        chain = TridiagonalChain(rng.normal(size=5), rng.normal(size=4))
        h = PartitionedHamiltonian(rng.normal(size=(3, 3)), chain)
        dense = assemble_dense(h)
        M = h.M
        np.testing.assert_array_equal(np.diag(dense)[M - 1:], chain.a)
        np.testing.assert_array_equal(np.diag(dense, 1)[M - 1:], chain.rho)
        np.testing.assert_array_equal(np.diag(dense, -1)[M - 1:],
                                      np.ones(chain.K))

    def test_sparsity_pattern(self):
        rng = np.random.default_rng(1)
        chain = TridiagonalChain(rng.normal(size=6), rng.normal(size=5))
        h = PartitionedHamiltonian(rng.normal(size=(4, 4)), chain)
        dense = assemble_dense(h)
        M, K = h.M, h.K
        outside = dense.copy()
        outside[:M, :M] = 0.0
        # exactly 2K nonzeros beyond the block: the (a, rho, 1) tail bands
        # minus the doorway pair at (M, M+1)/(M+1, M)
        assert np.count_nonzero(outside) == 3 * K
        assert np.count_nonzero(outside[:M - 1, M:]) == 0
        assert np.count_nonzero(outside[M:, :M - 1]) == 0


def _loop_fill(h):
    """The full matrix filled by a loop over k, the reference for the
    shared doorway fill of ``assemble_dense``; the corner a_0 is the
    block's."""
    M, K, N = h.M, h.K, h.N
    out = np.zeros((N, N))
    out[:M, :M] = h.p_block
    chain = h.chain
    for k in range(K):
        out[M - 1 + k, M + k] = chain.rho[k]
        out[M + k, M - 1 + k] = 1.0
        out[M + k, M + k] = chain.a[k + 1]
    return out


class TestAssembleFill:
    @pytest.mark.parametrize("sign", ["positive", "mixed"])
    def test_bitwise_loop_fill(self, sign):
        # sweep H and the mixed sweep
        for K in (4, 8, 16):
            for s in range(20):
                h = random_hamiltonian(4, K, np.random.default_rng(
                    1000 * K + s), sign)
                got, ref = assemble_dense(h), _loop_fill(h)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    def test_signed_zeros(self):
        # a -0.0 in the chain reads +0.0 from the corner on, as in the
        # chain's to_dense; the block keeps its own
        chain = TridiagonalChain([-0.0, -0.0, 2.0], [-0.0, 3.0])
        h = PartitionedHamiltonian(np.array([[-0.0, 1.0], [1.0, 5.0]]), chain)
        dense = assemble_dense(h)
        np.testing.assert_array_equal(dense, _loop_fill(h))
        assert np.signbit(dense[0, 0])
        assert dense[1:, 1:].tobytes() == chain.to_dense().tobytes()
        assert not np.signbit(dense[1:, 1:]).any()
        # a K = 0 chain is its 1 x 1 matrix, sign kept
        k0 = TridiagonalChain([-0.0], [])
        assert np.signbit(assemble_dense(
            PartitionedHamiltonian.from_chain(k0))).all()


def _diag_sum(a, rho):
    """The dense chain as the sum of ``np.diag`` matrices, the reference
    for the in-place fill of ``to_dense``."""
    m = np.diag(np.asarray(a, dtype=float))
    if len(a) > 1:
        m += np.diag(rho, 1) + np.diag(np.ones(len(a) - 1), -1)
    return m


class TestToDense:
    @pytest.mark.parametrize("a, rho", [
        ([-0.0], []), ([0.0], []), ([2.5], []),
        ([-0.0, 1.0], [-0.0]), ([1.0, -0.0], [0.0]), ([-0.0, -0.0], [3.0]),
        ([-0.0, 2.0, -0.0], [-0.0, -1.5]),
        ([1.0, -2.0, 3.0, -0.0], [4.0, -0.0, 6.0])])
    def test_bitwise_diag_sum(self, a, rho):
        got = TridiagonalChain(a, rho).to_dense()
        ref = _diag_sum(a, rho)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_bitwise_random(self):
        rng = np.random.default_rng(11)
        for K in range(8):
            a = rng.choice([-0.0, 0.0, 1.0, -2.5], K + 1)
            rho = rng.choice([-0.0, 0.0, 0.5, -3.0], K)
            assert (TridiagonalChain(a, rho).to_dense().tobytes()
                    == _diag_sum(a, rho).tobytes())


def _factored_diag_sum(a, b, c):
    """The dense factored chain as the sum of ``np.diag`` matrices, the
    reference for the shared fill of ``FactoredChain.to_dense``."""
    m = np.diag(np.asarray(a, dtype=float))
    if len(a) > 1:
        m += np.diag(b, 1) + np.diag(c, -1)
    return m


class TestFactoredToDense:
    @pytest.mark.parametrize("a, b, c", [
        ([-0.0], [], []), ([2.5], [], []),
        ([-0.0, 1.0], [-0.0], [-0.0]), ([1.0, -0.0], [0.0], [2.0]),
        ([-0.0, 2.0, -0.0], [-0.0, -1.5], [0.5, -0.0])])
    def test_bitwise_diag_sum(self, a, b, c):
        got = FactoredChain(a, b, c).to_dense()
        ref = _factored_diag_sum(a, b, c)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_bitwise_random(self):
        rng = np.random.default_rng(12)
        for K in range(8):
            a = rng.choice([-0.0, 0.0, 1.0, -2.5], K + 1)
            b, c = rng.choice([-0.0, 0.0, 0.5, -3.0], (2, K))
            assert (FactoredChain(a, b, c).to_dense().tobytes()
                    == _factored_diag_sum(a, b, c).tobytes())


class TestRefactorize:
    def test_symmetric(self):
        fc = refactorize(TridiagonalChain([0.0, 0.0], [4.0]), "symmetric")
        np.testing.assert_array_equal(fc.b, [2.0])
        np.testing.assert_array_equal(fc.c, [2.0])

    def test_symmetric_rejects_negative(self):
        with pytest.raises(NotSymmetrizable) as exc:
            refactorize(TridiagonalChain([-2.0, 2.0], [-1.0]), "symmetric")
        assert exc.value.indices == [0]

    def test_unit_subdiagonal(self):
        fc = refactorize(TridiagonalChain([0.0, 0.0], [-1.0]),
                         "unit_subdiagonal")
        np.testing.assert_array_equal(fc.b, [-1.0])
        np.testing.assert_array_equal(fc.c, [1.0])

    def test_product_contract(self):
        rng = np.random.default_rng(2)
        chain = TridiagonalChain(rng.normal(size=7),
                                 np.abs(rng.normal(size=6)))
        for style in ("symmetric", "unit_subdiagonal"):
            fc = refactorize(chain, style)
            np.testing.assert_allclose(fc.b * fc.c, chain.rho, rtol=1e-15)

    def test_unknown_style(self):
        with pytest.raises(ValueError, match="unknown refactorization"):
            refactorize(TridiagonalChain([0.0, 0.0], [1.0]), "lower")

    def test_factored_chain_shape_check(self):
        with pytest.raises(ValueError):
            FactoredChain([1.0, 2.0], [1.0, 2.0], [1.0])


class TestSerialization:
    def test_hamiltonian_roundtrip_bit_exact(self):
        rng = np.random.default_rng(3)
        chain = TridiagonalChain(rng.normal(size=4), rng.normal(size=3))
        h = PartitionedHamiltonian(rng.normal(size=(2, 2)), chain)
        text = json.dumps(hamiltonian_to_dict(h))
        back = hamiltonian_from_dict(json.loads(text))
        np.testing.assert_array_equal(back.p_block, h.p_block)
        np.testing.assert_array_equal(back.chain.a, h.chain.a)
        np.testing.assert_array_equal(back.chain.rho, h.chain.rho)

    def test_samples_roundtrip(self):
        samples = [GSample(0.1 + 0.2, -1.5), GSample(1e-17, 3.0)]
        back = samples_from_dict(json.loads(json.dumps(samples_to_dict(samples))))
        assert back == samples

    def test_chain_roundtrip(self):
        chain = TridiagonalChain([1 / 3, np.pi], [np.e])
        back = chain_from_dict(json.loads(json.dumps(chain_to_dict(chain))))
        np.testing.assert_array_equal(back.a, chain.a)
        np.testing.assert_array_equal(back.rho, chain.rho)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_from_dict({"M": 2, "p_block": [[1.0]],
                                   "chain": {"a": [1.0], "rho": []}})
