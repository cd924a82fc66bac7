"""Dense reference routes that live beside the tests, not in the package.

The package computes every readout on the vectors it spans (rank-1
fisher.Projector elements). The helpers here take dense operator matrices
instead, so a test can check the structured route against the textbook one.
"""

import numpy as np

from hgsense.fisher import PROBABILITY_FLOOR, _stencil_value


def dense_cfi(state_fn, g, elements, step=None):
    """Classical Fisher information sum_k (dp_k/dg)^2 / p_k of a dense POVM.

    elements are square arrays on the flat basis; they must be Hermitian,
    positive semidefinite and sum to the identity (to 1e-10). The
    probabilities p_k = <psi|E_k|psi> go through the same stencil and
    disagreement guard as fisher.cfi_povm, and outcomes below its
    probability floor contribute zero.
    """
    mats = [np.asarray(e, dtype=complex) for e in elements]
    assert all(np.max(np.abs(e - e.conj().T)) <= 1e-12 for e in mats)
    assert all(np.linalg.eigvalsh(e)[0] >= -1e-10 for e in mats)
    assert np.max(np.abs(sum(mats) - np.eye(len(mats[0])))) <= 1e-10

    def probs(x):
        psi = state_fn(x).amplitudes
        return np.array([float(np.real(np.vdot(psi, e @ psi))) for e in mats])

    p0 = probs(g)

    def fisher_sum(dp):
        return sum((dpk ** 2 / pk for pk, dpk in zip(p0, dp)
                    if pk >= PROBABILITY_FLOOR), 0.0)

    return _stencil_value(probs, fisher_sum, g, step)
