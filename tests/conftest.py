import numpy as np
import pytest
from hypothesis import settings

from effham.model import PartitionedHamiltonian, TridiagonalChain

# the same examples on every run and no example database, so that a
# property test passes or fails the same way each time
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def paper_chain():
    """The worked K=1 example chain: a = (-2, 2), rho = (-1)."""
    return TridiagonalChain([-2.0, 2.0], [-1.0])


@pytest.fixture
def paper_hamiltonian(paper_chain):
    return PartitionedHamiltonian.from_chain(paper_chain)


@pytest.fixture
def m2_hamiltonian():
    """M = 2 instance with model block [[1, 2], [3, a0]] and a K = 1 tail."""
    chain = TridiagonalChain([0.5, -1.5], [0.8])
    return PartitionedHamiltonian(np.array([[1.0, 2.0], [3.0, 0.5]]), chain)
