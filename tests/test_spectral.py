import ast
import bisect
import gc
import importlib.util
import logging
import math
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effham import spectral
from effham.cli import main
from effham.errors import (DomainError, EigSolverFailure, NonConvergence,
                           PoleProximity)
from effham.forward import (_cut, _slope_recurrence, effective_hamiltonian,
                            g_function)
from effham.instances import probe_window, random_hamiltonian, real_poles
from effham.model import (PartitionedHamiltonian, TridiagonalChain,
                          assemble_dense)
from effham.spectral import eigenvalues_dense, self_consistent_solve

ROOT3 = np.sqrt(3.0)


class TestEigenvaluesDense:
    def test_paper_levels(self, paper_hamiltonian):
        w = eigenvalues_dense(assemble_dense(paper_hamiltonian))
        np.testing.assert_allclose(w, [-ROOT3, ROOT3], rtol=1e-14)

    def test_sorted_real_then_imag(self):
        w = eigenvalues_dense([[0.0, -1.0], [1.0, 0.0]])
        assert w[0] == pytest.approx(-1j)
        assert w[1] == pytest.approx(1j)

    @pytest.mark.parametrize("s", [1.0, 1e-11, 1e-100])
    def test_collapse_relative_to_scale(self, s):
        # +-s i stays a pair at any scale; an imaginary part 1e-12 of the
        # matrix's own scale collapses at any scale
        w = eigenvalues_dense(s * np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(w, [-s * 1j, s * 1j])
        w = eigenvalues_dense([[0.0, -1e-24 * s], [s, 0.0]])
        np.testing.assert_array_equal(w, [0.0, 0.0])

    def test_zero_matrix_collapses_exact_zeros(self):
        w = eigenvalues_dense(np.zeros((2, 2)))
        np.testing.assert_array_equal(w, [0.0, 0.0])
        assert not np.iscomplexobj(w)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenvalues_dense(np.zeros((2, 3)))

    def test_solver_failure(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", _no_eig)
        with pytest.raises(EigSolverFailure, match="no convergence"):
            eigenvalues_dense(np.eye(2))

    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["symmetric", "general"])
    def test_eig_and_eigvals_agree_bitwise(self, symmetric):
        # r_n and the branch test read eigenvalues from np.linalg.eig,
        # whose eigenvectors the final check reuses, while
        # eigenvalues_dense, which defines their order, calls
        # np.linalg.eigvals: both must give the same bits
        rng = np.random.default_rng(18)
        pairs = 0
        for order in range(1, 7):
            for _ in range(300):
                m = rng.standard_normal((order, order))
                if symmetric:
                    m = m + m.T
                w = np.linalg.eigvals(m)
                got = np.linalg.eig(m)[0]
                assert (got.dtype, got.tobytes()) == (w.dtype, w.tobytes())
                pairs += np.iscomplexobj(w)
        assert (pairs == 0) == symmetric

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


class TestEigensolverBoundary:
    """Every ``numpy.linalg`` eigensolver call goes through
    ``spectral._solve``, so an eigensolver's ``LinAlgError`` is an
    :class:`EigSolverFailure` everywhere."""

    def test_eigensolvers_named_only_for_solve(self):
        # an AST scan of the package: each eigensolver it names is the
        # argument of a _solve call, which only spectral defines
        names = {"eig", "eigvals", "eigh", "eigvalsh"}
        stray, defined = [], set()
        for path in Path(spectral.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            passed = {id(node.args[0]) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and node.args
                      and getattr(node.func, "id", None) == "_solve"}
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_solve":
                    defined.add(path.name)
                if (isinstance(node, ast.Attribute) and node.attr in names
                        and id(node) not in passed
                        or isinstance(node, ast.alias)
                        and node.name in names):
                    stray.append((path.name, node.lineno))
        assert stray == [] and defined == {"spectral.py"}

    def test_one_fill_for_spectra(self):
        # every package spectrum of a Hamiltonian eigensolves the solver's
        # _balanced_form; the unit-subdiagonal assemble_dense is defined
        # in model and exported, for tests to use as a reference
        named = set()
        for path in Path(spectral.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if "assemble_dense" in (getattr(node, "id", None),
                                        getattr(node, "attr", None),
                                        getattr(node, "name", None)):
                    named.add(path.name)
        assert named == {"model.py", "__init__.py"}

    def test_failure_outside_spectral(self, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "eigvals", _no_eig)
        with pytest.raises(EigSolverFailure, match="no convergence"):
            probe_window(TridiagonalChain([0.0, 1.0], [1.0]))
        assert main(["demo", "two-level"]) == 2
        assert "EigSolverFailure" in capsys.readouterr().err


def test_debug_lines_only_when_enabled():
    # an AST scan of the package: every log.debug call sits in the body
    # of an `if log.isEnabledFor(logging.DEBUG):`, so no hot path builds
    # the arguments of a line that is not emitted
    guard = "log.isEnabledFor(logging.DEBUG)"
    calls, bare = 0, []
    for path in Path(spectral.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        guarded = {id(node) for top in ast.walk(tree)
                   if isinstance(top, ast.If)
                   and ast.unparse(top.test) == guard
                   for stmt in top.body for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "log.debug"):
                calls += 1
                if id(node) not in guarded:
                    bare.append((path.name, node.lineno))
    assert bare == [] and calls >= 2


def test_only_setup_and_cut_kept_on_objects():
    # an AST scan of the package: the only values it writes into an
    # object's __dict__ are a chain's _cut (forward) and a Hamiltonian's
    # _setup (spectral); any other use of a __dict__ than get() counts
    # as a write too
    writes = set()
    for path in Path(spectral.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Subscript)
                    and getattr(node.value, "attr", None) == "__dict__"
                    and not isinstance(node.ctx, ast.Load)):
                writes.add((path.name, ast.literal_eval(node.slice)))
            elif (isinstance(node, ast.Attribute) and node.attr != "get"
                  and getattr(node.value, "attr", None) == "__dict__"):
                writes.add((path.name, f"{node.attr}()"))
    assert writes == {("forward.py", "_cut"), ("spectral.py", "_setup")}


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

    @pytest.mark.parametrize("n, error", [
        (3, ValueError), (0, ValueError), (1.5, TypeError), (2.0, TypeError),
        (np.float64(1.0), TypeError), ("1", TypeError)])
    def test_bad_level_index(self, m2_hamiltonian, n, error):
        with pytest.raises(error):
            self_consistent_solve(m2_hamiltonian, 0.0, n=n)

    @pytest.mark.parametrize("n", [1.0, 1.5])
    def test_level_index_checked_before_setup(self, m2_hamiltonian, n):
        # a usage error, raised before the setup of the Hamiltonian
        with pytest.raises(TypeError):
            self_consistent_solve(m2_hamiltonian, 0.0, n)
        assert "_setup" not in m2_hamiltonian.__dict__

    @pytest.mark.parametrize("n", [np.int64(2), np.uint8(1), True])
    def test_integer_level_index(self, m2_hamiltonian, n):
        # any integer type is a level index, returned as a plain int
        res = self_consistent_solve(m2_hamiltonian, 0.0, n)
        assert type(res.level_index) is int and res.level_index == n
        assert _outcome(m2_hamiltonian, 0.0, n) == _outcome(
            m2_hamiltonian, 0.0, int(n))

    @pytest.mark.parametrize("eta0", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected(self, m2_hamiltonian, monkeypatch,
                                       eta0):
        # a usage error, raised before H_eff is evaluated at all
        monkeypatch.setattr(spectral, "effective_hamiltonian", None)
        with pytest.raises(ValueError, match="not finite"):
            self_consistent_solve(m2_hamiltonian, eta0, n=1)

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

    def test_start_on_a_level(self):
        # a triangular block: r_2(2) = 0 exactly, and the scan never starts
        h = PartitionedHamiltonian(np.array([[1.0, 1.0], [0.0, 2.0]]),
                                   TridiagonalChain([2.0], []))
        res = self_consistent_solve(h, 2.0, 2)
        assert (res.energy, res.bracket, res.trace) == (2.0, (2.0, 2.0),
                                                        (2.0,))

    def test_no_real_level(self):
        # levels +-i: r = -1/eta - eta never changes sign
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([0.0, 0.0], [-1.0]))
        with pytest.raises(NonConvergence, match="no sign change") as exc:
            self_consistent_solve(h, eta0=-1.0, n=1)
        assert exc.value.trace[0] == -1.0

    def test_solver_failure(self, paper_hamiltonian, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", _no_eig)
        with pytest.raises(EigSolverFailure, match="no convergence"):
            self_consistent_solve(paper_hamiltonian, eta0=-1.0, n=1)

    def test_budget_exhausted(self, paper_hamiltonian, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_EVALS", 1)
        with pytest.raises(NonConvergence, match="budget of 1") as exc:
            self_consistent_solve(paper_hamiltonian, -1.0, n=1)
        assert len(exc.value.trace) == 1

    def test_residual_check_failure(self):
        # a level 2e-10 below the pole at 1, where r' ~ 5e9: one float step
        # moves r by far more than RES_TOL, so no float passes the check
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([2.0, 1.0], [2e-10]))
        with pytest.raises(NonConvergence, match="residual check failed"):
            self_consistent_solve(h, eta0=0.0, n=1)

    @pytest.mark.parametrize("a, rho, eta0, max_evals, reason", [
        ([0.0, 0.0], [-1.0], -1.0, 200, "no_sign_change"),
        ([-2.0, 2.0], [-1.0], -1.0, 1, "budget"),
        ([2.0, 1.0], [2e-10], 0.0, 200, "residual"),
    ], ids=["no_sign_change", "budget", "residual"])
    def test_failure_reason(self, a, rho, eta0, max_evals, reason,
                            monkeypatch):
        # the cause of a failure is readable without parsing the message
        monkeypatch.setattr(spectral, "MAX_EVALS", max_evals)
        h = PartitionedHamiltonian.from_chain(TridiagonalChain(a, rho))
        with pytest.raises(NonConvergence) as exc:
            self_consistent_solve(h, eta0, n=1)
        assert exc.value.reason == reason

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

    def test_one_eigensolve_per_energy(self, monkeypatch, caplog):
        # every r_n evaluation is one H_eff and one eig, at an energy of
        # its own, and the final check reuses the one at the level
        h = random_hamiltonian(4, 8, np.random.default_rng(3))
        energies, eig = _spy_heff_and_eig(monkeypatch)
        for n in range(1, 5):
            energies.clear()
            eig.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="effham"):
                res = self_consistent_solve(h, -5.0, n)
            (line,) = [r.getMessage() for r in caplog.records
                       if r.name == "effham"]
            n_r = int(line.split(" and ")[-1].split(" r_n")[0])
            assert len(energies) == len(set(energies)) == len(eig) == n_r
            assert res.energy in energies


def _no_eig(m):
    raise np.linalg.LinAlgError("no convergence")


def _assert_dense_level(h, res):
    w = eigenvalues_dense(assemble_dense(h))
    assert np.min(np.abs(w[w.imag == 0].real - res.energy)) <= 1e-12


def _pole_once(monkeypatch, where):
    """Make the first H_eff evaluation at an energy x with ``where(x)``
    raise PoleProximity(1), as if x sat within rounding of a pole of G;
    return the list that receives that x."""
    heff = spectral.effective_hamiltonian
    hits = []

    def fake(h, x):
        if not hits and where(x):
            hits.append(x)
            raise PoleProximity(1)
        return heff(h, x)
    monkeypatch.setattr(spectral, "effective_hamiltonian", fake)
    return hits


def _balanced_form(h):
    """The whole matrix with sign(rho_k) sqrt|rho_k| above the diagonal and
    sqrt|rho_k| below, similar to the assembled one; symmetric when every
    rho_k >= 0 and the block is symmetric."""
    dense = assemble_dense(h)
    for k, rho in enumerate(h.chain.rho):
        i = h.M - 1 + k
        dense[i + 1, i] = np.sqrt(abs(rho))
        dense[i, i + 1] = np.sign(rho) * dense[i + 1, i]
    return dense


def _scaled(h, s):
    """h with every energy scaled by s: block and a by s, rho by s^2."""
    return PartitionedHamiltonian(s * h.p_block, TridiagonalChain(
        s * h.chain.a, s * s * h.chain.rho))


def _rule_level(h, eta0, n):
    """The level that (eta0, n) selects, by brute force: a dense level lam
    belongs to branch n when the n-th eigenvalue of H_eff(lam) is lam, and
    the rule takes the nearest level of branch n from eta0 in the direction
    of sign r_n(eta0), else the nearest in the other direction; None when
    branch n has no level.  PoleProximity propagates from eta0."""
    form = _balanced_form(h)
    tol = 1e-9 * np.max(np.abs(form))

    def e_n(x):
        return np.sort(np.linalg.eigvals(effective_hamiltonian(h, x)).real)

    r0 = e_n(eta0)[n - 1] - eta0
    mine = []
    for lam in np.linalg.eigvalsh(form):
        try:
            if abs(e_n(lam)[n - 1] - lam) <= tol:
                mine.append(lam)
        except PoleProximity:  # a level on a pole of G is no root of r_n
            continue
    if abs(r0) <= tol and any(abs(lam - eta0) <= tol for lam in mine):
        return eta0
    for side in ((1, -1) if r0 > 0 else (-1, 1)):
        ahead = [lam for lam in mine if side * (lam - eta0) > 0]
        if ahead:
            return min(ahead, key=lambda lam: abs(lam - eta0))
    return None


def _check_rule(h, eta0s, tol=1e-13):
    """Every (eta0, n) returns the level of the rule, within tol times the
    largest entry of the symmetric form, or raises as the rule does."""
    scale = np.max(np.abs(_balanced_form(h)))
    for eta0 in eta0s:
        for n in range(1, h.M + 1):
            try:
                want = _rule_level(h, eta0, n)
            except PoleProximity:
                with pytest.raises(PoleProximity):
                    self_consistent_solve(h, eta0, n)
                continue
            if want is None:
                with pytest.raises(NonConvergence) as exc:
                    self_consistent_solve(h, eta0, n)
                assert exc.value.reason == "no_sign_change"
                continue
            res = self_consistent_solve(h, eta0, n)
            assert abs(res.energy - want) <= tol * scale, (eta0, n)
            lo, hi = res.bracket
            assert lo <= res.energy <= hi


class TestSecular:
    """Hermitian inputs, checked against the dense spectrum: a generic
    doorway's levels are the roots of its secular function D, and a
    degenerate doorway (a y_i = 0, a repeated d_i or a d_i on a pole of
    G) takes the dense path."""

    @pytest.mark.parametrize("s", [1e-100, 1e-13, 1e-6, 1e10, 1e100])
    def test_scale(self, s):
        # every bound and width scales with the matrix: block and a by s,
        # rho by s^2, and every level comes back within 1e-14 s
        h = _scaled(random_hamiltonian(3, 4, np.random.default_rng(6)), s)
        levels = np.linalg.eigvalsh(_balanced_form(h))
        found = set()
        for eta0 in (-8.0, -1.0, 0.0, 1.0, 8.0):
            for n in (1, 2, 3):
                res = self_consistent_solve(h, s * eta0, n)
                err = np.abs(levels - res.energy)
                assert err.min() <= 1e-14 * s
                found.add(int(np.argmin(err)))
        assert len(found) >= 5

    def test_random_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            h = random_hamiltonian(int(rng.integers(1, 5)),
                                   int(rng.integers(0, 7)), rng)
            _check_rule(h, rng.uniform(-9.0, 9.0, 4))

    @pytest.mark.parametrize("variant, K, floor, on_rule", [
        ("decoupled", 8, 80, 80), ("decoupled", 16, 79, 78),
        ("rho_zero", 8, 80, 80), ("rho_zero", 16, 80, 80)])
    def test_degenerate_sweep(self, variant, K, floor, on_rule):
        # levels 1..4 from eta0 = 0 of 20 Hamiltonians, with model state
        # 0 decoupled (a y_i = 0: the dense path) or rho_{K/2} = 0 (G sees
        # half the chain): at least a measured number return, and of
        # those at least a measured number are the rule's level
        returned = hits = 0
        for seed in range(20):
            h = random_hamiltonian(4, K, np.random.default_rng(1000 * K
                                                               + seed))
            block, rho = np.array(h.p_block), np.array(h.chain.rho)
            if variant == "decoupled":
                block[0, 1:] = block[1:, 0] = 0.0
            else:
                rho[K // 2] = 0.0
            h = PartitionedHamiltonian(block, TridiagonalChain(h.chain.a,
                                                               rho))
            scale = np.max(np.abs(_balanced_form(h)))
            for n in range(1, 5):
                try:
                    res = self_consistent_solve(h, 0.0, n)
                except NonConvergence:
                    continue
                returned += 1
                want = _rule_level(h, 0.0, n)
                hits += want is not None and abs(res.energy - want) <= (
                    1e-12 * scale)
        assert returned >= floor and hits >= on_rule

    def test_zero_coupling_is_a_level(self):
        # y = (0, 1): the eigenvalue 1 of the other model states is a level
        # of branch 1 or 2, inside the interval below the pole at 2
        block = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0],
                          [0.0, 1.0, 0.5]])
        h = PartitionedHamiltonian(block, TridiagonalChain([0.5, -1.0],
                                                           [0.6]))
        assert 1.0 in np.round(np.linalg.eigvalsh(_balanced_form(h)), 12)
        _check_rule(h, np.linspace(-4.0, 4.0, 17) + 0.01)
        res = self_consistent_solve(h, 1.0, 2)
        assert res.energy == 1.0 and res.bracket == (1.0, 1.0)

    def test_tail_level_g_does_not_see(self):
        # rho_1 = 0: the tail eigenvalue 3 is a level of H but no pole of
        # G and no root of any r_n; G is defined at eta0 = 3, so the start
        # there finds the rule's level
        h = PartitionedHamiltonian(np.array([[1.0, 0.5], [0.5, 0.0]]),
                                   TridiagonalChain([0.0, 1.0, 3.0],
                                                    [1.0, 0.0]))
        assert 3.0 in np.linalg.eigvalsh(_balanced_form(h))
        _check_rule(h, [-4.0, -0.5, 0.9, 1.1, 2.0, 2.9, 3.5, 6.0])
        assert self_consistent_solve(h, 3.0, 1).energy == pytest.approx(
            _rule_level(h, 3.0, 1), abs=1e-15)

    def test_coincident_model_and_tail_pole(self):
        # the other model state and the tail both sit at 0.7: one merged
        # pole, and the level on it is no root of r_n
        h = PartitionedHamiltonian(np.array([[0.7, 0.4], [0.4, -0.3]]),
                                   TridiagonalChain([-0.3, 0.7], [0.25]))
        assert np.min(np.abs(np.linalg.eigvalsh(_balanced_form(h))
                             - 0.7)) < 1e-15
        _check_rule(h, [-3.0, -0.3, 0.5, 0.69, 0.71, 1.0, 3.0])

    def test_repeated_model_eigenvalue(self):
        # the other model states have the double eigenvalue 1: one pole
        # and, on it, a level of branch 2
        block = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                          [1.0, 1.0, 0.2]])
        h = PartitionedHamiltonian(block, TridiagonalChain([0.2, 2.5],
                                                           [0.8]))
        _check_rule(h, [-3.0, 0.5, 0.99, 1.01, 2.0, 2.6, 5.0])
        res = self_consistent_solve(h, 0.5, 2)
        assert res.energy == pytest.approx(1.0, abs=1e-15)

    def test_repeated_model_eigenvalue_on_a_tail_pole(self):
        # the double eigenvalue 1 is also a pole of G: branch 2 has no level
        block = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                          [1.0, 1.0, 0.2]])
        h = PartitionedHamiltonian(block, TridiagonalChain([0.2, 1.0],
                                                           [0.8]))
        _check_rule(h, [-3.0, 0.0, 3.0])
        with pytest.raises(NonConvergence, match="no level of branch 2"):
            self_consistent_solve(h, 0.0, 2)

    def test_two_uncoupled_states_at_one_energy(self):
        # H_eff(1) has the eigenvalues -1/3, 1, 1: the double level 1 is
        # the level of branch 2 and of branch 3
        h = PartitionedHamiltonian(np.diag([1.0, 1.0, 0.2]),
                                   TridiagonalChain([0.2, 2.5], [0.8]))
        _check_rule(h, [-3.0, 0.0, 0.5, 1.5, 3.0])
        for n in (2, 3):
            assert self_consistent_solve(h, 0.0, n).energy == 1.0

    def test_level_on_a_pole_behind_a_deeper_pivot(self):
        # the uncoupled model state and a pole of G are both at -1, where
        # G's pivot vanishes at level 3 (a_3 = -1) too: G runs through it
        # and breaks down at level 1, its pole, so the level -1 is in no
        # branch
        h = PartitionedHamiltonian(np.diag([-1.0, 0.5]), TridiagonalChain(
            [0.5, -1.0, 0.3, -1.0], [0.7, 1.0, 1.0]))
        with pytest.raises(PoleProximity) as exc:
            g_function(h.chain, -1.0)
        assert exc.value.level == 1
        _check_rule(h, [-3.0, -1.5, -0.5, 0.0, 2.0])

    @pytest.mark.parametrize("y", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                   (0.3, -0.7, 1.1)])
    def test_triple_model_eigenvalue(self, y):
        # the other model states have the triple eigenvalue 1, coupled to
        # the doorway by y: 1 is a level of multiplicity 3 when y = 0, else
        # 2, and each copy is the level of its own branch
        block = np.eye(4)
        block[3, :3] = block[:3, 3] = y
        block[3, 3] = 0.2
        h = PartitionedHamiltonian(block, TridiagonalChain([0.2, 2.5, -1.0],
                                                           [0.8, 0.5]))
        _check_rule(h, [-3.0, 0.0, 0.5, 1.5, 3.0])

    def test_hermitian_judged_before_the_cut(self):
        # rho_1 = 0 cuts the chain, so the sign of rho_2 is past what G
        # sees: both Hamiltonians are Hermitian where G looks, take the
        # secular path and return the same levels, bit for bit
        block = np.array([[1.0, 0.7], [0.7, 0.0]])
        a = [0.0, 0.5, -1.0, 2.0]
        hs = [PartitionedHamiltonian(block, TridiagonalChain(a, rho))
              for rho in ([1.0, 0.0, 1.0], [1.0, 0.0, -1.0])]
        assert all(spectral._setup(h).door is not None for h in hs)
        for n in (1, 2):
            energies = [self_consistent_solve(h, 0.0, n).energy for h in hs]
            assert energies[0].hex() == energies[1].hex()

    def test_start_on_the_level(self):
        # D(eta0) = 0: the bracket closes on eta0, and r_1(eta0) = 0 too
        h = PartitionedHamiltonian.from_chain(TridiagonalChain([4.0], []))
        res = self_consistent_solve(h, 4.0, 1)
        assert (res.energy, res.bracket, res.trace) == (4.0, (4.0, 4.0),
                                                        (4.0, 4.0))

    def test_level_within_pivot_tolerance(self):
        # the level sits 1.6e-12 below the pole at 1, inside the pivot
        # tolerance of G: neither D nor r_1 can be evaluated next to it
        h = PartitionedHamiltonian.from_chain(TridiagonalChain([2.0, 1.0],
                                                               [1e-13]))
        with pytest.raises(NonConvergence, match="within rounding of a "
                           "pole of G") as exc:
            self_consistent_solve(h, 0.0, 1)
        assert exc.value.reason == "residual"

    @pytest.mark.parametrize("block, a, rho, eta0, n, j", [
        ([[2.0, 0.0], [0.0, 0.0]], [0.0, -2.0, 1.0, 0.0, 1.0],
         [1.0, 0.0, 1.0, 2.0], -3.0, 2, 4),
        ([[-2.0, -3.0], [-3.0, -1.0]], [-1.0, -1.0, -1.0], [2.0, 1.0],
         -4.5, 2, 2),
        ([[-2.0]], [0.0, -1.0, 0.0], [1.0, 1.0], -0.75, 1, 1),
        ([[0.0]], [0.0, 0.0], [0.0], 4.5, 1, 1),
        ([[4.0, 0.0], [0.0, 0.0]], [0.0, -1.0], [0.0], -6.0, 1, 1),
        ([[0.0]], [0.0, -2.0, -1.0, -2.0], [0.0, 1.0, 2.0], 1.0, 1, 2),
    ], ids=["free-level", "midpoint", "level", "zero-matrix", "rho0-zero",
            "rho0-zero-tail"])
    def test_pivot_breakdown_off_the_poles(self, block, a, rho, eta0, n,
                                           j):
        # points where a trailing block of the tail has an eigenvalue that
        # is no pole of D: a level of a model state the doorway does not
        # see (a degenerate doorway, on the dense path), a Newton midpoint,
        # the level itself.  G is analytic at each: it runs through the
        # deeper pivot that vanishes there, and its pivot test fires only
        # at its own poles, so the solve evaluates such points as any
        # other and returns the rule's level, the j-th dense one.  With
        # rho_0 = 0, G sees no tail at all
        h = PartitionedHamiltonian(np.array(block), TridiagonalChain(a, rho))
        res = self_consistent_solve(h, eta0, n)
        level = np.linalg.eigvalsh(_balanced_form(h))[j]
        assert abs(res.energy - level) <= 2e-12

    def test_newton_steps_off_a_deeper_pivot(self, monkeypatch):
        # the level 2.0 of branch 2 is the eigenvalue of the trailing
        # block [a_2], where G's pivot vanishes at level 2 and D has no
        # pole: G runs through that pivot, so Newton steps on D land on
        # the level like on any other (8 evaluations of D and r_2
        # measured), and nothing steps off a breakdown
        h = PartitionedHamiltonian(np.array([[1.0, 2.0], [2.0, 2.0]]),
                                   TridiagonalChain([-2.0, -2.0, 2.0],
                                                    [1.0, 2.0]))
        stepped = []
        off_pivot = spectral._off_pivot

        def spy(f, x, side, step):
            stepped.append((f.__name__, x))
            return off_pivot(f, x, side, step)
        monkeypatch.setattr(spectral, "_off_pivot", spy)
        res = self_consistent_solve(h, -2.0, 2)
        assert spectral._setup(h).door is not None
        assert [x for _, x in stepped] == [2.0]  # the finish's first end
        level = np.linalg.eigvalsh(_balanced_form(h))[2]
        assert level == pytest.approx(2.0, abs=1e-15)
        assert abs(res.energy - 2.0) <= math.ulp(2.0)
        assert res.iterations <= 10

    @pytest.mark.parametrize("M, K", [(1, 3), (3, 0)])
    def test_single_model_state_or_no_tail(self, M, K):
        h = random_hamiltonian(M, K, np.random.default_rng(11))
        _check_rule(h, [-9.0, -2.0, 0.0, 2.0, 9.0])

    def test_start_on_a_pole(self):
        # on a pole of G the start raises; on a pole of D that is no pole
        # of G, r_n itself gives the direction
        h = PartitionedHamiltonian(np.array([[1.0, 0.5], [0.5, 0.0]]),
                                   TridiagonalChain([0.0, 2.0], [1.0]))
        with pytest.raises(PoleProximity):
            self_consistent_solve(h, 2.0, 1)
        _check_rule(h, [1.0])
        assert self_consistent_solve(h, 1.0, 1).trace[0] == 1.0

    def test_polish_stays_between_poles_of_g(self):
        # the far end steps w, 2w, 4w, ... from x while r keeps its sign
        # and gives up at the limits; the bracket is then bisected to w
        def r(x):
            return 0.3 - x
        (lo, r_lo), (hi, r_hi) = spectral._polish(r, 0.0, 1.0, (-1.0, 1.0))
        assert r_lo >= 0 >= r_hi and 0 < hi - lo <= np.spacing(1.0)
        assert spectral._polish(r, 0.0, 1.0, (-1.0, 0.25)) is None

    def test_polish_midpoint_on_a_pole(self):
        # the first midpoint of the bisection is made to raise as within
        # rounding of a pole of G: the bisection ends, and the bracket it
        # had comes back, its ends of opposite sign
        seen = []

        def r(x):
            if seen and seen[-1][1] < 0:  # the sign change is found
                seen.append((x, None))
                raise PoleProximity(1, "midpoint on a pole")
            seen.append((x, 0.3 - x))
            return seen[-1][1]
        (lo, r_lo), (hi, r_hi) = spectral._polish(r, 0.0, 1.0, (-1.0, 1.0))
        assert [(lo, r_lo), (hi, r_hi)] == seen[-3:-1]
        assert r_lo > 0 > r_hi and seen[-1] == (0.5 * (lo + hi), None)

    @pytest.mark.parametrize("name", ["eigh", "eigvalsh", "eig"])
    def test_eigh_failure(self, monkeypatch, name):
        # eigvalsh (the poles of G) and eigh (the doorway) fail in the
        # setup, which keeps nothing on h; eig fails at the first H_eff,
        # after the setup is kept, and what is kept changes no bit of the
        # next solve
        h = random_hamiltonian(2, 2, np.random.default_rng(1))
        monkeypatch.setattr(np.linalg, name, _no_eig)
        with pytest.raises(EigSolverFailure, match="no convergence"):
            self_consistent_solve(h, 0.0, 1)
        kept = set(h.__dict__) - {"p_block", "chain"}
        assert kept == ({"_setup"} if name == "eig" else set())
        monkeypatch.undo()
        assert _outcome(h, 0.0, 1) == _outcome(_copy(h), 0.0, 1)

    def test_branch_brackets_match_per_level_build(self):
        # the setup's table of each branch's brackets is, bit for bit,
        # what the solve of each level built for itself before
        doors = 0
        for h in _bracket_sweep():
            setup = spectral._setup(h)
            if setup.door is None:
                continue
            doors += 1
            assert len(setup.door.branches) == h.M
            for n in range(1, h.M + 1):
                got = setup.door.branches[n - 1]
                assert isinstance(got, tuple)
                assert all(isinstance(level, tuple) for level in got)
                assert _bracket_hexes(got) == _bracket_hexes(
                    _per_level_brackets(setup.door, setup.outer, n))
        assert doors >= 100  # 110 of 110 measured

    def test_narrowed_bracket_stays_with_its_solve(self):
        # a start inside a bracket narrows the solve's copy of it, and a
        # later start on a d_i, which takes the first bracket ahead as the
        # table holds it, finds the table as the setup built it
        h = random_hamiltonian(4, 8, np.random.default_rng(8008))
        door = spectral._setup(h).door
        assert door is not None
        jobs = []
        for n in range(1, h.M + 1):
            for lo, hi, _ in door.branches[n - 1]:
                jobs.append((0.5 * (lo + hi), n))
                jobs.extend((di, n) for di in door.d)
        got = [_outcome(h, eta0, n) for eta0, n in jobs]
        assert got == [_outcome(_copy(h), eta0, n) for eta0, n in jobs]
        assert sum(isinstance(out[0], int) for out in got) >= 40  # 48 of 48

    def test_debug_line(self, caplog):
        h = PartitionedHamiltonian.from_chain(TridiagonalChain([0.0, 2.0],
                                                               [1.0]))
        with caplog.at_level(logging.DEBUG, logger="effham"):
            res = self_consistent_solve(h, -3.0, 1)
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "effham"]
        n_d = line.split("), ")[1].split(" D")[0]
        assert line.startswith("self_consistent_solve: level 1 at "
                               f"{res.energy:.17g} in branch interval "
                               "(-inf, 2), ")
        assert line.endswith(f" D and {res.iterations - int(n_d)} r_n "
                             "evaluations")


def _bracket_sweep():
    """random_hamiltonian(4, K, default_rng(1000 K + s)) for K = 8, 16, 32
    and s = 0..19, then the Hamiltonians of the first 50 self_consistent
    benchmark inputs of seed 1."""
    for K in (8, 16, 32):
        for s in range(20):
            yield random_hamiltonian(4, K, np.random.default_rng(1000 * K + s))
    for h, _ in _benchmark_solves():
        yield h


def _benchmark_solves():
    """(Hamiltonian, eta0) of the first 50 self_consistent benchmark
    inputs of seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for inst in workloads.make_inputs("self_consistent", 1, count=50):
        yield PartitionedHamiltonian(inst.block, TridiagonalChain(
            inst.a, inst.rho)), inst.eta0


def _per_level_brackets(door, outer, n):
    """The brackets of branch n as each solve built them for itself: one
    pass over the pole-free intervals of D, one bisect each, kept when
    n - 1 d_i lie below."""
    ends = [-math.inf, *door.poles, math.inf]
    return [[max(p_lo, -outer), min(p_hi, outer), (p_lo, p_hi)]
            for p_lo, p_hi in zip(ends, ends[1:])
            if bisect.bisect_right(door.d, p_lo) == n - 1]


def _bracket_hexes(levels):
    """Every float of a list of brackets as hex, signs of zero included."""
    return [(lo.hex(), hi.hex(), p_lo.hex(), p_hi.hex())
            for lo, hi, (p_lo, p_hi) in levels]


def _branches(h):
    """{n: the real levels lam of h of branch n}, by brute force: the n-th
    eigenvalue of H_eff(lam) in the order of eigenvalues_dense is the one
    nearest lam; a level on a pole of G is in no branch."""
    w = np.linalg.eigvals(_balanced_form(h))
    out = {}
    for lam in np.sort(w[w.imag == 0].real):
        try:
            e = eigenvalues_dense(effective_hamiltonian(h, lam))
        except PoleProximity:
            continue
        out.setdefault(int(np.argmin(np.abs(e - lam))) + 1, []).append(lam)
    return out


class TestDense:
    """The quasi-Hermitian path (some rho_k < 0 or a non-symmetric block):
    levels looked up on the dense spectrum, checked against it."""

    @pytest.mark.parametrize("s", [1e-100, 1e-13, 1e-6, 1e10, 1e100])
    def test_scale(self, s):
        # as TestSecular.test_scale, with rho of mixed signs: every level
        # comes back within 1e-14 s, and each of the three real ones is met
        h = _scaled(random_hamiltonian(3, 4, np.random.default_rng(6),
                                       "mixed"), s)
        w = np.linalg.eigvals(_balanced_form(h))
        levels = w[w.imag == 0].real
        assert len(levels) == 3
        found = set()
        for eta0 in (-8.0, -1.0, 0.0, 1.0, 8.0):
            for n in (1, 2, 3):
                res = self_consistent_solve(h, s * eta0, n)
                err = np.abs(levels - res.energy)
                assert err.min() <= 1e-14 * s
                found.add(int(np.argmin(err)))
        assert found == {0, 1, 2}

    @pytest.mark.parametrize("K, floor", [(4, 76), (8, 78), (16, 80)])
    def test_mixed_sweep(self, K, floor):
        # levels 1..4 from eta0 = 0 of 20 mixed-sign Hamiltonians: each
        # level returned is the dense level of the rule, and a branch
        # without a dense level is the only cause of no_sign_change
        returned = 0
        for seed in range(20):
            h = random_hamiltonian(4, K, np.random.default_rng(1000 * K
                                                               + seed),
                                   "mixed")
            scale = np.max(np.abs(_balanced_form(h)))
            branches = _branches(h)
            for n in range(1, 5):
                mine = branches.get(n, [])
                try:
                    res = self_consistent_solve(h, 0.0, n)
                except NonConvergence as exc:
                    assert exc.reason != "no_sign_change" or not mine
                    continue
                r0 = eigenvalues_dense(effective_hamiltonian(h, 0.0))[n - 1]
                ahead = [lam for lam in mine if np.sign(r0.real) * lam >= 0]
                want = min(ahead or mine, key=abs)
                assert abs(res.energy - want) <= 1e-12 * scale, (seed, n)
                returned += 1
        assert returned >= floor

    @pytest.mark.parametrize("K", [4, 8])
    def test_trace_lists_each_energy_once(self, K, monkeypatch):
        # each energy in the trace is one H_eff evaluation and one eig,
        # the level's included, and none is evaluated twice
        energies, eig = _spy_heff_and_eig(monkeypatch)
        for seed in range(20):
            h = random_hamiltonian(4, K, np.random.default_rng(1000 * K
                                                               + seed),
                                   "mixed")
            for n in range(1, 5):
                energies.clear()
                eig.clear()
                try:
                    trace = self_consistent_solve(h, 0.0, n).trace
                except NonConvergence as exc:
                    trace = tuple(exc.trace)
                assert len(set(trace)) == len(trace), (seed, n)
                assert energies == list(trace)
                assert len(eig) == len(trace)

    def test_level_on_a_pole_is_passed_over(self):
        # rho_0 < 0 puts a level 1e-13 above the pole at 1, inside the
        # pivot tolerance of G, where H_eff is not defined: it is no root
        # of r_1, and the next level up, 2 - 1e-13, is the one returned
        h = PartitionedHamiltonian.from_chain(TridiagonalChain([2.0, 1.0],
                                                               [-1e-13]))
        res = self_consistent_solve(h, 0.0, 1)
        _assert_dense_level(h, res)
        assert res.energy == pytest.approx(2.0 - 1e-13, abs=1e-15)

    @pytest.mark.parametrize("eta0", [4.5, -3.0])
    def test_level_with_rho0_zero(self, eta0):
        # rho_0 = 0: G = -E sees none of the tail, so 0 is a level of
        # branch 1, although the tail from a_1 on has the eigenvalue 0 too
        h = PartitionedHamiltonian([[0.0]], TridiagonalChain(
            [0.0, -0.2, 5.0], [0.0, -1.0]))
        assert self_consistent_solve(h, eta0, 1).energy == 0.0

    @pytest.mark.parametrize("seed, n", [(3, 2), (16, 1)])
    def test_finish_stays_at_the_level_selected(self, seed, n):
        # the rule's level lies within rounding of a pole of G, so r_n does
        # not confirm it; stepping out from it, the finish stops halfway to
        # the next level instead of returning that one
        h = random_hamiltonian(4, 64, np.random.default_rng(64000 + seed),
                               "mixed")
        with pytest.raises(NonConvergence) as exc:
            self_consistent_solve(h, 0.0, n)
        assert exc.value.reason == "residual"
        lam = float(str(exc.value).split(" at ")[1].split(",")[0])
        assert np.min(np.abs(np.array(_branches(h)[n]) - lam)) <= 1e-12

    def test_debug_line(self, caplog, paper_hamiltonian):
        with caplog.at_level(logging.DEBUG, logger="effham"):
            res = self_consistent_solve(paper_hamiltonian, -1.0, 1)
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "effham"]
        n_find = line.split("), ")[1].split(" H_eff")[0]
        assert line.startswith("self_consistent_solve: level 1 at "
                               f"{res.energy:.17g} in branch interval "
                               "(-inf, 2), ")
        assert line.endswith(f" H_eff and {res.iterations - int(n_find)} "
                             "r_n evaluations")

    def test_finish_steps_to_either_side(self):
        # r increases through the root 0.3: the far end finds the sign
        # change on the side away from sign r(x)
        def r(x):
            return x - 0.3
        (lo, r_lo), (hi, r_hi) = spectral._polish(r, 0.0, 1.0, (-1.0, 1.0),
                                                  decreasing=False)
        assert r_lo <= 0 <= r_hi and 0 < hi - lo <= np.spacing(1.0)
        assert spectral._polish(r, 0.0, 1.0, (-1.0, 0.25),
                                decreasing=False) is None


def _outcome(h, eta0, n):
    """Every bit of a solve's result, or of the DomainError it raised."""
    try:
        res = self_consistent_solve(h, eta0, n)
    except DomainError as exc:
        return (type(exc).__name__, str(exc),
                tuple(float(x).hex() for x in getattr(exc, "trace", ())))
    return (res.level_index, res.energy.hex(),
            tuple(x.hex() for x in res.bracket), res.iterations,
            tuple(x.hex() for x in res.trace), res.residual.hex(),
            res.eigvec_model.tobytes())


def _assert_dense_outcome(h, out):
    """A returned level of :func:`_outcome` that lies on the dense
    spectrum of h."""
    assert isinstance(out[0], int), out[:2]
    w = eigenvalues_dense(assemble_dense(h)).real
    assert np.min(np.abs(w - float.fromhex(out[1]))) <= 1e-12


def _copy(h):
    """A Hamiltonian equal to h in value but not in identity."""
    return PartitionedHamiltonian(h.p_block, TridiagonalChain(h.chain.a,
                                                              h.chain.rho))


def _spy_heff_and_eig(monkeypatch):
    """Record the energies of spectral.effective_hamiltonian's calls and
    the matrices of np.linalg.eig's, in two lists, which are returned."""
    energies, matrices = [], []
    heff, eig = spectral.effective_hamiltonian, np.linalg.eig

    def spy_heff(h, x):
        energies.append(x)
        return heff(h, x)

    def spy_eig(m):
        matrices.append(m)
        return eig(m)
    monkeypatch.setattr(spectral, "effective_hamiltonian", spy_heff)
    monkeypatch.setattr(np.linalg, "eig", spy_eig)
    return energies, matrices


def _spy_eigensolvers(monkeypatch, names=("eigh", "eigvalsh")):
    """Count the calls of the np.linalg functions ``names`` by name."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def spy(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _spy_slope(monkeypatch):
    """Record the energies of spectral._slope_recurrence's calls, one per
    evaluation of D, in a list, which is returned."""
    energies = []
    slope = spectral._slope_recurrence

    def spy(a0, rho0, steps, x):
        energies.append(x)
        return slope(a0, rho0, steps, x)
    monkeypatch.setattr(spectral, "_slope_recurrence", spy)
    return energies


def _level_orders(h, eta0s, other):
    """Sequences of (Hamiltonian, eta0, n) solves: levels 1..M of h from
    eta0s[0] in order and in reverse, interleaved with a second start
    eta0s[1], and interleaved with the same levels of ``other``."""
    levels = range(1, h.M + 1)
    e, f = eta0s
    return {"in order": [(h, e, n) for n in levels],
            "reverse": [(h, e, n) for n in reversed(levels)],
            "two starts": [(h, x, n) for n in levels for x in (e, f)],
            "other between": [(g, e, n) for n in levels for g in (h, other)]}


class TestDoorwayReuse:
    """The level-independent setup of the Hermitian path runs once per
    Hamiltonian object, and reusing it changes no bit of any result."""

    def test_setup_once_per_hamiltonian(self, monkeypatch):
        h = random_hamiltonian(4, 8, np.random.default_rng(3))
        cold = [_outcome(_copy(h), -5.0, n) for n in range(1, 5)]
        calls = _spy_eigensolvers(monkeypatch)
        warm = [_outcome(h, -5.0, n) for n in range(1, 5)]
        assert calls == {"eigh": 1, "eigvalsh": 1}
        assert warm == cold
        assert all(isinstance(out[0], int) for out in warm)
        # equal in value is not the same Hamiltonian
        assert _outcome(_copy(h), -5.0, 2) == cold[1]
        assert calls == {"eigh": 2, "eigvalsh": 2}

    @pytest.mark.parametrize("order, starts", [
        ("in order", {-5.0: 4}), ("reverse", {-5.0: 4}),
        ("two starts", {-5.0: 4, 0.0: 4}), ("other between", {-5.0: 4})])
    def test_start_once_per_eta0(self, monkeypatch, order, starts):
        # the secular twin of TestDenseReuse's
        # test_start_evaluated_by_each_solve: no start is kept, so each
        # solve of h evaluates D once at its own eta0, first, in any order
        # of the levels, starts and Hamiltonians, and every result is the
        # cold one; ``starts`` counts those evaluations per eta0
        h = random_hamiltonian(4, 8, np.random.default_rng(3))
        other = random_hamiltonian(4, 8, np.random.default_rng(5), "mixed")
        jobs = _level_orders(h, (-5.0, 0.0), other)[order]
        cold = [_outcome(_copy(g), e, n) for g, e, n in jobs]
        energies = _spy_slope(monkeypatch)
        seen = Counter()
        for (g, e, n), out in zip(jobs, cold):
            energies.clear()
            assert _outcome(g, e, n) == out
            if g is h:
                assert energies[0] == e and energies.count(e) == 1
                assert out[4][0] == e.hex()  # the trace starts at eta0
                _assert_dense_outcome(h, out)
                seen[e] += 1
        assert seen == starts

    def test_signed_zero_starts(self, monkeypatch):
        # 0.0 and -0.0 are two starts: each solve evaluates D at its own,
        # sign included, and each trace begins with it
        h = random_hamiltonian(4, 8, np.random.default_rng(3))
        jobs = [(0.0, 1), (-0.0, 2), (-0.0, 3), (0.0, 4)]
        cold = [_outcome(_copy(h), e, n) for e, n in jobs]
        energies = _spy_slope(monkeypatch)
        assert [_outcome(h, e, n) for e, n in jobs] == cold
        assert [out[4][0] for out in cold] == [e.hex() for e, _ in jobs]
        assert [x.hex() for x in energies if x == 0.0] == [
            e.hex() for e, _ in jobs]

    def test_start_that_raises_is_not_kept(self, monkeypatch):
        # one float above a pole of G, off the poles of D as computed, the
        # pivot of G vanishes at level 1: D(eta0) raises there, so each
        # solve evaluates it and raises
        h = random_hamiltonian(4, 8, np.random.default_rng(3))
        setup = spectral._setup(h)
        eta0 = math.nextafter(setup.cuts[3], math.inf)
        assert eta0 not in setup.door.poles
        energies = _spy_slope(monkeypatch)
        for n in (1, 2, 1):
            with pytest.raises(PoleProximity) as exc:
                self_consistent_solve(h, eta0, n)
            assert exc.value.level == 1
        assert energies == [eta0] * 3

    def test_setup_and_start_kept_per_hamiltonian(self, monkeypatch):
        # levels 1..4 of two Hamiltonians, interleaved: each runs its
        # setup once, each of the eight solves evaluates D(eta0) once, h
        # keeps its setup and nothing else, and every result is the cold
        # one
        hs = [random_hamiltonian(4, 8, np.random.default_rng(s))
              for s in (3, 6)]
        jobs = [(h, n) for n in range(1, 5) for h in hs]
        cold = [_outcome(_copy(h), -5.0, n) for h, n in jobs]
        calls = _spy_eigensolvers(monkeypatch)
        energies = _spy_slope(monkeypatch)
        assert [_outcome(h, -5.0, n) for h, n in jobs] == cold
        assert calls == {"eigh": 2, "eigvalsh": 2}
        assert energies.count(-5.0) == 8
        for (h, _), out in zip(jobs, cold):
            _assert_dense_outcome(h, out)
            assert set(h.__dict__) - {"p_block", "chain"} == {"_setup"}

    def test_d_energies_of_a_solve_are_distinct(self, monkeypatch):
        # no solve evaluates D twice at one energy, so it needs no memo of
        # D: the Newton and bisection steps land strictly inside the open
        # bracket, and only its start at eta0 is passed on; sweep H at
        # K = 8 and 16 from eta0 = 0 and the first 50 self_consistent
        # benchmark inputs of seed 1, levels 1..4 each
        solves = [(random_hamiltonian(4, K, np.random.default_rng(
            1000 * K + s)), 0.0) for K in (8, 16) for s in range(20)]
        solves += _benchmark_solves()
        energies = _spy_slope(monkeypatch)
        evaluated = 0
        for h, eta0 in solves:
            assert spectral._setup(h).door is not None
            for n in range(1, h.M + 1):
                energies.clear()
                try:
                    self_consistent_solve(h, eta0, n)
                except DomainError:
                    pass
                assert energies[0] == eta0
                assert len(set(energies)) == len(energies), (eta0, n)
                evaluated += len(energies)
        assert len(solves) == 90 and evaluated > 5 * 4 * 90

    def test_non_hermitian_in_between(self):
        h = random_hamiltonian(4, 8, np.random.default_rng(4))
        mixed = random_hamiltonian(4, 8, np.random.default_rng(5), "mixed")
        assert np.any(mixed.chain.rho < 0)
        cold = [_outcome(_copy(h), 0.0, n) for n in (1, 2)]
        got = [_outcome(h, 0.0, 1)]
        _outcome(mixed, 0.0, 1)
        got.append(_outcome(h, 0.0, 2))
        assert got == cold
        for out in got:
            _assert_dense_outcome(h, out)

    def test_threads_match_serial(self):
        hs = [random_hamiltonian(4, 8, np.random.default_rng(s))
              for s in (6, 7)]
        jobs = [(h, n) for n in range(1, 5) for h in hs] * 4
        serial = [_outcome(_copy(h), -5.0, n) for h, n in jobs]
        for (h, _), out in zip(jobs, serial):
            _assert_dense_outcome(h, out)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(_outcome, h, -5.0, n) for h, n in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_setup_does_not_keep_the_hamiltonian_alive(self):
        h = random_hamiltonian(3, 4, np.random.default_rng(8))
        self_consistent_solve(h, 0.0, 1)
        ref = weakref.ref(h)
        del h
        gc.collect()
        assert ref() is None

    def test_failed_setup_caches_nothing(self, monkeypatch):
        h = random_hamiltonian(3, 4, np.random.default_rng(9))
        cold = _outcome(_copy(h), 0.0, 1)
        monkeypatch.setattr(np.linalg, "eigh", _no_eig)
        with pytest.raises(EigSolverFailure, match="no convergence"):
            self_consistent_solve(h, 0.0, 1)
        monkeypatch.undo()
        calls = _spy_eigensolvers(monkeypatch)
        assert _outcome(h, 0.0, 1) == cold
        assert calls == {"eigh": 1, "eigvalsh": 1}


class TestDenseReuse:
    """The level-independent setup of the quasi-Hermitian path, the real
    spectra of the balanced form and of its tail, runs once per
    Hamiltonian object, and reusing it changes no bit of any result."""

    def test_setup_once_per_hamiltonian(self, monkeypatch):
        h = random_hamiltonian(4, 8, np.random.default_rng(5), "mixed")
        cold = [_outcome(_copy(h), 0.0, n) for n in range(1, 5)]
        for out in cold:
            _assert_dense_outcome(h, out)
        calls = _spy_eigensolvers(monkeypatch, ("eigvals",))
        warm = [_outcome(h, 0.0, n) for n in range(1, 5)]
        assert calls == {"eigvals": 2}
        assert warm == cold
        # equal in value is not the same Hamiltonian
        assert _outcome(_copy(h), 0.0, 2) == cold[1]
        assert calls == {"eigvals": 4}

    def test_setup_once_per_hamiltonian_interleaved(self, monkeypatch):
        # levels 1..4 of two Hamiltonians, interleaved: each runs its
        # setup once
        hs = [random_hamiltonian(4, 8, np.random.default_rng(s), "mixed")
              for s in (5, 6)]
        jobs = [(h, n) for n in range(1, 5) for h in hs]
        cold = [_outcome(_copy(h), 0.0, n) for h, n in jobs]
        calls = _spy_eigensolvers(monkeypatch, ("eigvals",))
        assert [_outcome(h, 0.0, n) for h, n in jobs] == cold
        assert calls == {"eigvals": 4}

    @pytest.mark.parametrize("order", ["in order", "reverse", "two starts",
                                       "other between"])
    def test_start_evaluated_by_each_solve(self, monkeypatch, order):
        # the dense path keeps no start: each solve lists eta0 first as
        # one evaluation of H_eff of its own, and every order of the
        # levels, starts and Hamiltonians gives the cold results
        h = random_hamiltonian(4, 8, np.random.default_rng(5), "mixed")
        other = random_hamiltonian(4, 8, np.random.default_rng(3))
        jobs = _level_orders(h, (0.0, -5.0), other)[order]
        cold = [_outcome(_copy(g), e, n) for g, e, n in jobs]
        energies, _ = _spy_heff_and_eig(monkeypatch)
        got = []
        for g, e, n in jobs:
            energies.clear()
            got.append(_outcome(g, e, n))
            if g is h:
                assert energies[0] == e and energies.count(e) == 1
        assert got == cold

    def test_threads_match_serial(self):
        hs = [random_hamiltonian(4, 8, np.random.default_rng(s), "mixed")
              for s in (6, 7)]
        jobs = [(h, n) for n in range(1, 5) for h in hs] * 4
        serial = [_outcome(_copy(h), 0.0, n) for h, n in jobs]
        for (h, _), out in zip(jobs, serial):
            _assert_dense_outcome(h, out)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(_outcome, h, 0.0, n) for h, n in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_setup_does_not_keep_the_hamiltonian_alive(self):
        h = random_hamiltonian(3, 4, np.random.default_rng(8), "mixed")
        self_consistent_solve(h, 0.0, 1)
        ref = weakref.ref(h)
        del h
        gc.collect()
        assert ref() is None

    def test_failed_setup_caches_nothing(self, monkeypatch):
        h = random_hamiltonian(4, 8, np.random.default_rng(9), "mixed")
        cold = _outcome(_copy(h), 0.0, 1)
        monkeypatch.setattr(np.linalg, "eigvals", _no_eig)
        with pytest.raises(EigSolverFailure, match="no convergence"):
            self_consistent_solve(h, 0.0, 1)
        monkeypatch.undo()
        calls = _spy_eigensolvers(monkeypatch, ("eigvals",))
        assert _outcome(h, 0.0, 1) == cold
        assert calls == {"eigvals": 2}


def _old_level_check(heff, w, v, eta, n):
    """(eigvec_model, residual, vec) of a level by the formula that
    sorted all of v: collapse and lexsort as in eigenvalues_dense, column
    n - 1, np.real_if_close and np.linalg.norm."""
    scale = float(np.max(np.abs(heff)))
    w = np.where(np.abs(w.imag) <= spectral.IMAG_COLLAPSE * scale, w.real, w)
    v = v[:, np.lexsort((w.imag, w.real))]
    vec = np.real_if_close(v[:, n - 1], tol=1e6)
    residual = float(np.linalg.norm((heff - eta * np.eye(len(heff))) @ vec))
    return np.real(vec), residual, vec


def _sweep(sign):
    """random_hamiltonian(4, K, default_rng(1000 K + s), sign) for K = 4,
    8, 16 and s = 0..19; for "nonsymmetric", those of positive rho with
    the block, its corner aside, moved off symmetry, so that H_eff can
    have complex pairs; for "degenerate", two variants of each of positive
    rho, model state 0 decoupled and then rho_{K//2} = 0."""
    for K in (4, 8, 16):
        for s in range(20):
            rng = np.random.default_rng(1000 * K + s)
            h = random_hamiltonian(4, K, rng, "mixed" if sign == "mixed"
                                   else "positive")
            if sign == "nonsymmetric":
                block = h.p_block + 0.8 * rng.uniform(-1.0, 1.0, (4, 4))
                block[-1, -1] = h.p_block[-1, -1]
                h = PartitionedHamiltonian(block, h.chain)
            if sign == "degenerate":
                block, rho = np.array(h.p_block), np.array(h.chain.rho)
                block[0, 1:] = block[1:, 0] = 0.0
                yield PartitionedHamiltonian(block, h.chain)
                rho[K // 2] = 0.0
                h = PartitionedHamiltonian(
                    h.p_block, TridiagonalChain(h.chain.a, rho))
            yield h


class TestLevelCheck:
    """The final check reads one column of the eigensolve at the level and
    gives bitwise what sorting every column and np.linalg.norm gave."""

    @pytest.mark.parametrize("sign", ["positive", "mixed", "nonsymmetric"])
    def test_sweep_matches_old_formula(self, sign):
        levels = complex_pairs = 0
        for h in _sweep(sign):
            for n in range(1, 5):
                try:
                    res = self_consistent_solve(h, 0.0, n)
                except NonConvergence:
                    continue
                heff = effective_hamiltonian(h, res.energy)
                w, v = np.linalg.eig(heff)
                model, residual, _ = _old_level_check(heff, w, v,
                                                      res.energy, n)
                assert res.residual.hex() == residual.hex()
                assert res.eigvec_model.dtype == model.dtype
                assert res.eigvec_model.tobytes() == model.tobytes()
                levels += 1
                complex_pairs += np.iscomplexobj(w)
        assert levels >= 230  # 237, 234 and 232 measured
        if sign == "nonsymmetric":
            # dense-path levels whose H_eff has a complex pair, so v is
            # complex and the column is made real; 18 measured
            assert complex_pairs >= 15

    def test_real_ties(self):
        # symmetric H_eff with repeated eigenvalues and signed zeros: the
        # real path's order by value keeps ties, -0.0 and 0.0 among them,
        # in the order of eig, as the stable lexsort did
        rng = np.random.default_rng(43)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        pair = np.array([[0.0, 1.0], [1.0, 0.0]])
        matrices = [
            np.eye(3),
            np.diag([2.0, -1.0, 2.0, -1.0]),
            np.kron(np.eye(2), pair),
            np.diag([0.0, -0.0, 1.0, -0.0]),
            np.array([[1.0, -0.0, 0.0], [-0.0, 1.0, -0.0],
                      [0.0, -0.0, -3.0]]),
            np.array([[-0.0, 0.0], [0.0, -0.0]]),
            np.diag([-0.0]),
        ]
        # a double eigenvalue that rounding may or may not split
        m = q @ np.diag([1.0, 1.0, -2.0, 3.0]) @ q.T
        matrices.append(0.5 * (m + m.T))
        ties = 0
        for m in matrices:
            w, v = np.linalg.eig(m)
            assert not np.iscomplexobj(w)
            ties += len(set(w.tolist())) < len(w)
            for n in range(1, len(m) + 1):
                for eta in (float(np.sort(w)[n - 1]), -0.0, 0.25):
                    vec, residual, scale = spectral._level_check(m, w, v,
                                                                 eta, n)
                    _, old_residual, old_vec = _old_level_check(m, w, v,
                                                                eta, n)
                    assert residual.hex() == old_residual.hex()
                    assert vec.dtype == old_vec.dtype
                    assert vec.tobytes() == old_vec.tobytes()
                    assert scale.hex() == max(
                        1.0, float(np.max(np.abs(m)))).hex()
        assert ties >= 6  # 6 of 8

    def test_complex_columns(self):
        # columns left complex by np.real_if_close: a pair whose imaginary
        # part collapses, tied on the real part (the stable order keeps
        # the order of eig), and an uncollapsed pair of a random matrix
        rng = np.random.default_rng(41)
        tiny = np.array([[1.0, -1e-12, 0.0], [1e-12, 1.0, 0.0],
                         [0.0, 0.0, -2.0]])
        matrices = [tiny]
        while len(matrices) < 6:
            m = rng.uniform(-3.0, 3.0, (4, 4))
            if np.iscomplexobj(np.linalg.eigvals(m)):
                matrices.append(m)
        complex_vectors = 0
        for m in matrices:
            w, v = np.linalg.eig(m)
            assert np.iscomplexobj(w)
            for n in range(1, len(m) + 1):
                for eta in (float(np.sort(w.real)[n - 1]), 0.25):
                    vec, residual, scale = spectral._level_check(m, w, v,
                                                                 eta, n)
                    _, old_residual, old_vec = _old_level_check(m, w, v,
                                                                eta, n)
                    assert residual.hex() == old_residual.hex()
                    assert vec.dtype == old_vec.dtype
                    assert vec.tobytes() == old_vec.tobytes()
                    assert scale == max(1.0, float(np.max(np.abs(m))))
                    complex_vectors += np.iscomplexobj(vec)
        assert complex_vectors >= 10
        # the collapsed pair passes the check: its residual is its
        # imaginary part
        vec, residual, _ = spectral._level_check(tiny, *np.linalg.eig(tiny),
                                                 1.0, 2)
        assert np.iscomplexobj(vec)
        assert residual == pytest.approx(1e-12, rel=1e-3)


def _flat_balanced_form(h, seen):
    """The balanced form by a flat-view fill of its own, the reference for
    the shared fill of spectral._balanced_form; the corner a_0 is the
    block's."""
    M, chain = h.M, h.chain
    rho, N = chain.rho[:seen], M + seen
    root = np.sqrt(np.abs(rho))
    form = np.zeros((N, N))
    form[:M, :M] = h.p_block
    flat = form.reshape(-1)  # a view: entry (i, j) is flat[i N + j]
    flat[M * (N + 1)::N + 1] = chain.a[1:seen + 1]
    flat[(M - 1) * (N + 1) + 1::N + 1] = np.copysign(root, rho)
    flat[M * (N + 1) - 1::N + 1] = root
    return form


class TestBalancedForm:
    """The balanced form is the doorway fill of the model module in the
    balanced gauge, bit for bit the flat-view fill, signs of zero aside."""

    @pytest.mark.parametrize("sign", ["positive", "mixed", "nonsymmetric"])
    def test_bitwise_flat_fill(self, sign):
        for h in _sweep(sign):
            for seen in range(h.K + 1):
                got = spectral._balanced_form(h, seen)
                ref = _flat_balanced_form(h, seen)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    def test_signed_zeros(self):
        # a -0.0 in the chain reads +0.0 from the corner on, as in the
        # chain's to_dense; the block keeps its own
        h = PartitionedHamiltonian(np.array([[-0.0, 0.5], [0.5, 1.0]]),
                                   TridiagonalChain([-0.0] * 3, [1.0, -4.0]))
        form = spectral._balanced_form(h, 2)
        np.testing.assert_array_equal(form, _flat_balanced_form(h, 2))
        assert np.signbit(form[0, 0])
        assert not np.signbit(np.diag(form)[1:]).any()
        assert np.signbit(np.diag(_flat_balanced_form(h, 2))[1:]).all()
        # no rho_k before the cut, so the form is the block, sign kept
        assert np.signbit(np.diag(spectral._balanced_form(h, 0))).all()


class TestSetupCuts:
    """The setup takes the poles of G from the balanced form it builds,
    by the helper of real_poles and bit for bit its result."""

    @pytest.mark.parametrize("sign", ["positive", "mixed", "degenerate",
                                      "nonsymmetric"])
    def test_cuts_are_real_poles(self, sign):
        for h in _sweep(sign):
            cuts = spectral._setup(h).cuts
            assert [x.hex() for x in cuts] == [
                x.hex() for x in real_poles(h.chain).tolist()]


def _g_slope_reference(chain, E, moved=()):
    """(G, dG/dE) by the recurrence over the stored arrays of the whole
    chain, from its first rho_k = 0, with the pivot rule of g_function:
    level 1 is tested, and a deeper pivot p with |p| <= 1e-32 min(|a_k|,
    sqrt|rho_{k-1}|) has vanished, with its level appended to the list
    ``moved``.  It is taken at its limit: f_k is infinite, and the slope
    of f_{k-1} = 1 / (a_{k-1} - E - rho_{k-1} f_k), exactly 0, is
    (1 + rho_k f_{k+1}') / rho_{k-1}."""
    a, rho = chain.a.tolist(), chain.rho.tolist()
    f = df = 0.0
    for k in range(rho.index(0.0) if 0.0 in rho else len(rho), 0, -1):
        r = rho[k] if k < len(rho) else 0.0
        pivot = a[k] - E - r * f
        scale = abs(a[k]) + abs(E) + abs(r * f) + sys.float_info.min
        if k == 1 and abs(pivot) < 1e-12 * scale:
            raise PoleProximity(1)
        if moved and moved[-1] == k + 1:
            f, df = 1.0 / pivot, df / r
        elif k > 1 and abs(pivot) <= 1e-32 * min(abs(a[k]),
                                                 math.sqrt(abs(rho[k - 1]))):
            f, df = math.inf, 1.0 + r * df
            moved.append(k)
        else:
            f = 1.0 / pivot
            df = f * f * (1.0 + r * df)
    if not rho:
        return a[0] - E, -1.0
    return a[0] - E - rho[0] * f, -1.0 - rho[0] * df


def _slope_outcome(fn, *args):
    """The bits of (G, dG/dE), or the level of the PoleProximity raised."""
    try:
        return np.array(fn(*args)).tobytes()
    except PoleProximity as exc:
        return ("PoleProximity", exc.level)


class TestSetupChain:
    """The entries that _cut keeps on a chain for the recurrence of D, cut
    at the first rho_k = 0, give bitwise the G and dG/dE of the recurrence
    over the whole chain, with the same PoleProximity."""

    @pytest.mark.parametrize("zero", [None, 0, "middle", "last", "-0.0"])
    def test_matches_g_slope(self, zero):
        rng = np.random.default_rng(42)
        raised = Counter()
        # K = 0 has no rho_k to set to zero
        for K in range(0 if zero is None else 1, 11):
            h = random_hamiltonian(3, K, rng, "mixed" if K % 2 else
                                   "positive")
            rho, cut = np.array(h.chain.rho), K
            if zero is not None:
                cut = {0: 0, "middle": K // 2, "last": K - 1,
                       "-0.0": K // 2}[zero]
                rho[cut] = -0.0 if zero == "-0.0" else 0.0
            chain = TridiagonalChain(h.chain.a, rho)
            # the recurrence runs from the cut down to level 1
            assert [step[0] for step in _cut(chain)[2]] == (
                chain.a[cut:0:-1].tolist())
            energies = rng.uniform(-8.0, 8.0, 20).tolist()
            # on and next to the eigenvalues of every trailing block,
            # those past the cut included, which are no poles of G
            for k in range(1, K + 1):
                block = TridiagonalChain(chain.a[k:], rho[k:]).to_dense()
                for p in np.linalg.eigvals(block).real.tolist():
                    energies += [p, p * (1 + 1e-13), p * (1 + 1e-11)]
            for E in energies:
                got = _slope_outcome(_slope_recurrence, *_cut(chain), E)
                moved = []
                assert got == _slope_outcome(_g_slope_reference, chain, E,
                                             moved)
                if moved:
                    raised["moved"] += 1
                if isinstance(got, tuple):
                    raised[got[1]] += 1
                else:
                    assert got[:8] == np.float64(g_function(chain,
                                                            E)).tobytes()
        if zero == 0:  # G = a_0 - E has no pole and no deeper pivot
            assert not raised
        else:
            # a pole of G, at level 1, and a deeper trailing-block
            # eigenvalue whose pivot vanishes
            assert raised[1] >= 5 and raised["moved"] >= 5
            assert set(raised) == {1, "moved"}


class TestScanEdges:
    """Inputs at the edges of the visit of the levels in the rule's order
    and of the finish on r_n, which levels of random Hamiltonians do not
    reach."""

    @pytest.mark.parametrize("eta0", [-3.0, 3.0])
    def test_double_pole(self, eta0):
        # the tail [[1, -1], [1, -1]] is a Jordan block, so G has a double
        # pole at 0 where the pivot vanishes quadratically
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([0.0, 1.0, -1.0], [1.0, -1.0]))
        res = self_consistent_solve(h, eta0, n=1)
        _assert_dense_level(h, res)

    def test_coincident_poles(self):
        # rho_1 = 0 and a_1 = a_2: the tail level behind rho_1 = 0 is no
        # pole of G and no level of any branch
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([-2.0, 2.0, 2.0], [-1.0, 0.0]))
        res = self_consistent_solve(h, eta0=3.0, n=1)
        _assert_dense_level(h, res)
        assert res.energy == pytest.approx(ROOT3, abs=1e-12)

    def test_start_beyond_the_bound(self):
        # levels +-i: the dense path has no real level to visit, so branch
        # 1 has none.  eta0 = 100, far beyond every level, is the one
        # energy evaluated
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([0.0, 0.0], [-1.0]))
        with pytest.raises(NonConvergence) as exc:
            self_consistent_solve(h, eta0=100.0, n=1)
        assert exc.value.reason == "no_sign_change"
        assert max(exc.value.trace) == 100.0

    @pytest.mark.parametrize("block, rho, secular", [
        ([[0.0]], [1.0, 1.0], True),
        ([[0.0]], [-1.0, 1.0], False),
        ([[1.0, 0.7], [0.2, 0.0]], [1.0, 1.0], False),
    ], ids=["secular", "dense-rho", "dense-block"])
    def test_start_on_a_deeper_pivot_breakdown(self, block, rho, secular):
        # a = (0, 0, 0): G's pivot vanishes at 0 at level 2, but the poles
        # of G are +-1 and G is continuous at 0, where it is 0: G runs
        # through that pivot, within 1e-31 of 0, and the solve starts at
        # 0.  Each level is the one found from 1e-12
        h = PartitionedHamiltonian(np.array(block),
                                   TridiagonalChain([0.0, 0.0, 0.0], rho))
        assert (spectral._setup(h).door is not None) == secular
        assert abs(g_function(h.chain, 0.0)) <= 1e-31
        for n in range(1, h.M + 1):
            res = self_consistent_solve(h, 0.0, n)
            assert res.trace[0] == 0.0
            near = self_consistent_solve(h, 1e-12, n)
            assert abs(res.energy - near.energy) <= 1e-12

    def test_start_on_a_pole_behind_a_deeper_pivot(self):
        # G's pivot vanishes at -1 at level 3, and -1 is a pole of G too:
        # G runs through level 3 and breaks down at level 1, so the start
        # raises
        h = PartitionedHamiltonian(np.diag([-1.0, 0.5]), TridiagonalChain(
            [0.5, -1.0, 0.3, -1.0], [0.7, 1.0, 1.0]))
        assert abs(spectral._setup(h).cuts[1] + 1.0) <= 1e-15
        for n in (1, 2):
            with pytest.raises(PoleProximity) as exc:
                self_consistent_solve(h, -1.0, n)
            assert exc.value.level == 1

    def test_interval_narrower_than_two_offsets(self):
        # poles of G at +-7.5e-11, 1.5e-10 apart, and a level 1.3e-13
        # below the lower one.  Hermitian with M = 1, so the secular path:
        # the rule takes the first level above eta0, and Newton steps on
        # D, in the bracket from eta0 to that pole, find it
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([0.7, 7.5e-11, -7.5e-11], [1e-10, 1e-24]))
        levels = np.linalg.eigvalsh(_balanced_form(h))
        assert levels[0] < real_poles(h.chain)[0] < levels[1]
        assert _rule_level(h, -1.2e-10, 1) == levels[0]
        res = self_consistent_solve(h, eta0=-1.2e-10, n=1)
        assert abs(res.energy - levels[0]) <= np.spacing(0.7)

    def test_near_end_past_a_light_pole(self):
        # rho_1 = 1e-22 gives the pole near 0 a weight of 1e-22, and the
        # rest of G vanishes there, so a level sits about 7.07e-12 to each
        # side of it.  Hermitian with M = 1, so the secular path: the rule
        # takes the first level above eta0, the one just below the pole,
        # not the one just above it or the level near 2
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([1.0, 1.0, 0.0], [1.0, 1e-22]))
        levels = np.linalg.eigvalsh(_balanced_form(h))
        assert levels[0] == pytest.approx(-np.sqrt(5e-23), rel=1e-6)
        assert _rule_level(h, -0.5, 1) == levels[0]
        res = self_consistent_solve(h, eta0=-0.5, n=1)
        assert abs(res.energy - levels[0]) <= np.spacing(1.0)

    def test_near_end_missing_quasi_hermitian(self):
        # rho_0 < 0: two poles of G 1.5e-10 apart at +-7.5e-11, with
        # levels next to them
        h = PartitionedHamiltonian.from_chain(
            TridiagonalChain([0.7, 7.5e-11, -7.5e-11], [-1e-10, 1e-24]))
        res = self_consistent_solve(h, eta0=1.2e-10, n=1)
        _assert_dense_level(h, res)

    def test_polish_step_on_a_pole_moves_on(self, monkeypatch,
                                            paper_hamiltonian):
        # rho_0 < 0, so the dense path: from eta0 = 3 the level of the
        # rule is sqrt(3), below the pole of G at 2.  The first evaluation
        # in (0, sqrt(3)) is the first step of the finish on r_n below the
        # level, made to raise as within rounding of a pole of G;
        # _off_pivot moves that end one step further
        hits = _pole_once(monkeypatch, lambda x: 0.0 < x < ROOT3)
        res = self_consistent_solve(paper_hamiltonian, eta0=3.0, n=1)
        assert len(hits) == 1
        _assert_dense_level(paper_hamiltonian, res)
        assert res.energy == pytest.approx(ROOT3, abs=1e-12)

    def test_level_on_a_pole_is_passed_over(self, monkeypatch,
                                            paper_hamiltonian):
        # rho_0 < 0, so the dense path: from eta0 = -1 the level of the
        # rule is -sqrt(3).  The first evaluation in (-4, -1) is H_eff at
        # that level, made to raise as within rounding of a pole of G: the
        # level is passed over, and the rule takes the next one, sqrt(3)
        hits = _pole_once(monkeypatch, lambda x: -4.0 < x < -1.0)
        res = self_consistent_solve(paper_hamiltonian, eta0=-1.0, n=1)
        assert hits == [-ROOT3]
        _assert_dense_level(paper_hamiltonian, res)
        assert res.energy == pytest.approx(ROOT3, abs=1e-12)
