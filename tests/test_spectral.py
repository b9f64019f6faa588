import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effham.errors import NonConvergence
from effham.forward import effective_hamiltonian, g_function
from effham.instances import random_hamiltonian, real_poles
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

    @pytest.mark.parametrize("eta0, level", [(-1.0, -ROOT3), (1.9, ROOT3),
                                             (3.0, ROOT3)])
    def test_root_selection_paper(self, paper_hamiltonian, eta0, level):
        # rho_0 < 0: r is not monotone.  From 1.9 r > 0 but no root lies
        # above; the scan back down meets sqrt(3) before -sqrt(3).  From
        # 3.0 the scan goes down, past the pole at 2, to sqrt(3).
        res = self_consistent_solve(paper_hamiltonian, eta0, n=1)
        assert res.energy == pytest.approx(level, abs=1e-12)
        assert res.trace[0] == eta0
        assert res.iterations == len(res.trace)
        assert res.bracket[0] <= res.energy <= res.bracket[1]

    def test_no_real_level(self):
        # levels +-i: r = -1/eta - eta never changes sign
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([0.0, 0.0], [-1.0]))
        with pytest.raises(NonConvergence, match="no sign change") as exc:
            self_consistent_solve(h, eta0=-1.0, n=1)
        assert exc.value.trace[0] == -1.0

    def test_budget_exhausted(self, paper_hamiltonian):
        with pytest.raises(NonConvergence, match="budget of 3") as exc:
            self_consistent_solve(paper_hamiltonian, -1.0, n=1, max_iter=3)
        assert len(exc.value.trace) == 3

    def test_residual_check_failure(self):
        # a level 2e-10 below the pole at 1, where r' ~ 5e9: one float step
        # moves r by far more than RES_TOL, so no float passes the check
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([2.0, 1.0], [2e-10]))
        with pytest.raises(NonConvergence, match="residual check failed"):
            self_consistent_solve(h, eta0=0.0, n=1)

    @pytest.mark.parametrize("seed, n", [(3, 4), (8, 2), (15, 2), (24, 4),
                                         (42, 1), (42, 3)])
    def test_steep_levels_converge(self, seed, n):
        # levels where |dE^(n)/deta| is too large for the damped step
        # eta <- (eta + E^(n)(eta)) / 2 to contract onto them
        h = random_hamiltonian(4, 8, np.random.default_rng(seed))
        dense = assemble_dense(h)
        levels = np.sort(eigenvalues_dense(dense).real)
        scale = max(1.0, float(np.max(np.abs(dense))))
        res = self_consistent_solve(h, float(levels[0]) - 0.37, n)
        assert np.min(np.abs(levels - res.energy)) <= 1e-8 * scale

    @pytest.mark.parametrize("seed", [170, 216])
    def test_level_next_to_pole_few_evaluations(self, seed):
        # the lowest level sits just below a pole, where r is flat on one
        # side and ~ -1/(p - eta) on the other: plain regula falsi creeps
        # off the pole end for over a hundred steps
        h = random_hamiltonian(4, 8, np.random.default_rng(seed))
        dense = assemble_dense(h)
        levels = np.sort(eigenvalues_dense(dense).real)
        res = self_consistent_solve(h, float(levels[0]) - 0.37, n=1)
        assert abs(res.energy - levels[0]) <= 1e-13
        assert res.iterations <= 60

    def test_level_at_zero(self):
        # shifted so that level 2 sits at 0 to rounding: r changes sign at
        # random within ~1e-16 of it, and the bracket must still close
        h0 = random_hamiltonian(3, 4, np.random.default_rng(6))
        lam = np.sort(eigenvalues_dense(assemble_dense(h0)).real)[1]
        h = PartitionedHamiltonian(h0.p_block - lam * np.eye(3),
                                   TridiagonalChain(h0.chain.a - lam,
                                                    h0.chain.rho))
        res = self_consistent_solve(h, eta0=-0.5, n=2)
        assert abs(res.energy) < 1e-14
        assert res.iterations <= 40

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(1, 4), K=st.integers(1, 10),
           seed=st.integers(0, 2 ** 32 - 1), eta0=st.floats(-8.0, 8.0),
           data=st.data())
    def test_hermitian_bracket_property(self, M, K, seed, eta0, data):
        h = random_hamiltonian(M, K, np.random.default_rng(seed))
        n = data.draw(st.integers(1, M))
        try:
            res = self_consistent_solve(h, eta0, n)
        except NonConvergence as exc:
            # a bracket always exists here; only a level too close to a
            # pole for float64 may fail, and only the residual check
            assert "residual check failed" in str(exc)
            return
        dense = assemble_dense(h)
        levels = eigenvalues_dense(dense).real
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.min(np.abs(levels - res.energy)) <= 1e-8 * scale
        lo, hi = res.bracket
        assert lo <= res.energy <= hi
        poles = real_poles(h.chain)
        assert not np.any((lo <= poles) & (poles <= hi))

        def r(x):
            return np.sort(np.linalg.eigvals(
                effective_hamiltonian(h, x)).real)[n - 1] - x
        assert r(lo) * r(hi) <= 0

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
