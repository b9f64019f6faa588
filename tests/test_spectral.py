import numpy as np
import pytest

from effham.forward import g_function
from effham.instances import random_hamiltonian
from effham.model import (PartitionedHamiltonian, TridiagonalChain,
                          assemble_dense)
from effham.spectral import (eigenvalues_dense, embed_full_space,
                             full_space_residual, secular_function,
                             self_consistent_solve)

ROOT3 = np.sqrt(3.0)


class TestEigenvaluesDense:
    def test_paper_levels(self, paper_hamiltonian):
        w = eigenvalues_dense(assemble_dense(paper_hamiltonian))
        np.testing.assert_allclose(w, [-ROOT3, ROOT3], rtol=1e-14)

    def test_sorted_real_then_imag(self):
        w = eigenvalues_dense([[0.0, -1.0], [1.0, 0.0]])
        assert w[0] == pytest.approx(-1j)
        assert w[1] == pytest.approx(1j)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenvalues_dense(np.zeros((2, 3)))

    def test_large_matrix_sorted(self):
        # no size cap: N = 80 comes back complete and in sorted order
        rng = np.random.default_rng(15)
        m = rng.standard_normal((80, 80))
        w = eigenvalues_dense(m)
        ref = np.linalg.eigvals(m)
        assert len(w) == 80
        assert np.all(np.diff(w.real) >= 0)
        np.testing.assert_allclose(np.sort_complex(w), np.sort_complex(ref),
                                   rtol=1e-12, atol=1e-12)


class TestSecularFunction:
    def test_m1_is_g(self, paper_hamiltonian, paper_chain):
        # det is a scalar here: H_eff(E) - E = G(E)
        for E in (0.0, 1.0, 3.0):
            assert secular_function(paper_hamiltonian, E) == pytest.approx(
                g_function(paper_chain, E), rel=1e-14)

    def test_zero_at_true_eigenvalues(self, paper_hamiltonian):
        for E in (-ROOT3, ROOT3):
            assert abs(secular_function(paper_hamiltonian, E)) < 1e-12

    def test_m2_expansion(self, m2_hamiltonian):
        # det(H_eff(E) - E) = (1 - E)(G(E) + E - E) - 6 with this block
        chain = m2_hamiltonian.chain
        for E in (-0.4, 0.25, 2.0):
            expected = (1.0 - E) * g_function(chain, E) - 6.0
            assert secular_function(m2_hamiltonian, E) == pytest.approx(
                expected, rel=1e-12)


class TestSelfConsistent:
    def test_paper_ground_level(self, paper_hamiltonian):
        res = self_consistent_solve(paper_hamiltonian, eta0=-1.0, n=1)
        assert res.energy == pytest.approx(-ROOT3, abs=1e-10)
        assert res.trace[0] == -1.0
        assert res.iterations >= 1

    def test_k0_one_step(self):
        h = PartitionedHamiltonian.from_chain(TridiagonalChain([4.0], []))
        res = self_consistent_solve(h, eta0=0.0, n=1)
        assert res.energy == pytest.approx(4.0, abs=1e-12)

    def test_bad_level_index(self, m2_hamiltonian):
        with pytest.raises(ValueError):
            self_consistent_solve(m2_hamiltonian, 0.0, n=3)

    def test_isospectral_random(self):
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(40):
            M = int(rng.integers(1, 5))
            K = int(rng.integers(1, 5))
            h = random_hamiltonian(M, K, rng)
            dense_w = eigenvalues_dense(assemble_dense(h))
            real_w = np.sort(dense_w[dense_w.imag == 0].real)
            if len(real_w) == 0:
                continue
            scale = max(1.0, float(np.max(np.abs(assemble_dense(h)))))
            eta0 = float(real_w[0] - 0.3)
            try:
                res = self_consistent_solve(h, eta0, n=1)
            except Exception:
                continue
            assert np.min(np.abs(real_w - res.energy)) <= 1e-8 * scale
            hits += 1
        assert hits >= 20  # the fixture family must mostly converge

    def test_full_space_residual(self, m2_hamiltonian):
        res = self_consistent_solve(m2_hamiltonian, eta0=-3.0, n=1)
        assert full_space_residual(m2_hamiltonian, res) < 1e-7


class TestEmbedding:
    def test_k0_passthrough(self):
        h = PartitionedHamiltonian.from_chain(TridiagonalChain([4.0], []))
        np.testing.assert_array_equal(embed_full_space(h, 4.0, [1.0]), [1.0])

    def test_embedded_vector_is_eigenvector(self, paper_hamiltonian):
        res = self_consistent_solve(paper_hamiltonian, eta0=-1.0, n=1)
        psi = embed_full_space(paper_hamiltonian, res.energy,
                               res.eigvec_model)
        dense = assemble_dense(paper_hamiltonian)
        np.testing.assert_allclose(dense @ psi, res.energy * psi, atol=1e-9)
