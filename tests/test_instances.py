import numpy as np
import pytest

from effham.instances import random_chain


def test_unknown_rho_sign():
    with pytest.raises(ValueError, match="unknown rho_sign"):
        random_chain(2, np.random.default_rng(0), "negative")
