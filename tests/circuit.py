"""The swap test as a gate-level circuit: a reference for the dense oracle.

A qudit of dimension d <= 2^k is held in k qubits, its basis state |j> as
the k-bit binary of j (most significant bit first), with the basis states
j >= d unused.  On 2k + 1 qubits (the ancilla, then register A, then
register B) the swap test is the textbook circuit

    H on the ancilla, k controlled swaps (ancilla; A_i, B_i), H, measure,

and each outcome's kept register is register A of the joint state with the
ancilla projected onto that outcome and register B traced out.  Nothing
here uses the oracle's identity Tr_2[P (rho (x) sigma) P] =
(rho + sigma +- (rho sigma + sigma rho))/4: every gate is applied to the
2(2k + 1)-axis density tensor as an explicit unitary.  Its gate list is the
gate set that recurrence.gate_count_estimate counts.  O(16^k) memory:
2^18 entries at d = 16.
"""

from __future__ import annotations

import numpy as np

_BRANCH_EPS = 1e-12  # as dense_oracle: lighter branches are not normalized

GATES = {
    "h": np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    # |c a b>, c the most significant bit: swaps |101> and |110>
    "cswap": np.eye(8)[[0, 1, 2, 3, 4, 6, 5, 7]],
}


def swap_test_circuit(d: int) -> list[tuple[str, tuple[int, ...]]]:
    """The swap test's gates at dimension d, as (name, qubits), ancilla = qubit 0."""
    k = (d - 1).bit_length()
    cswaps = [("cswap", (0, 1 + i, 1 + k + i)) for i in range(k)]
    return [("h", (0,)), *cswaps, ("h", (0,)), ("measure", (0,))]


def _apply(state: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """U rho U^dagger for a gate U on `qubits` of an n-qubit density tensor (2,) * 2n."""
    n = state.ndim // 2
    m = len(qubits)
    u = gate.reshape((2,) * 2 * m)
    inputs = list(range(m, 2 * m))
    state = np.tensordot(u, state, axes=(inputs, list(qubits)))  # U rho: ket axes
    state = np.moveaxis(state, range(m), qubits)
    bra = [n + q for q in qubits]
    state = np.tensordot(state, u.conj(), axes=(bra, inputs))  # rho U^dagger: bra axes
    return np.moveaxis(state, range(2 * n - m, 2 * n), bra)


def _embed(rho: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((size, size), dtype=complex)
    out[: len(rho), : len(rho)] = rho
    return out


def run_swap_test_circuit(rho: np.ndarray, sigma: np.ndarray) -> list[tuple]:
    """[(p0, omega0), (p1, omega1)] of the circuit on rho (x) sigma, like swap_test_apply.

    omega is the outcome's kept register over its weight p, cut back to
    d x d, and None when p <= 1e-12.
    """
    d = rho.shape[0]
    k = (d - 1).bit_length()
    n = 2 * k + 1
    size = 2**k
    *gates, (last, (ancilla,)) = swap_test_circuit(d)
    assert last == "measure" and ancilla == 0
    joint = np.kron(np.diag([1.0, 0.0]), np.kron(_embed(rho, size), _embed(sigma, size)))
    state = joint.reshape((2,) * 2 * n)
    for name, qubits in gates:
        state = _apply(state, GATES[name], qubits)
    branches = []
    for outcome in (0, 1):
        # project the ancilla's ket and bra onto the outcome
        kept = state.take(outcome, axis=n).take(outcome, axis=0)
        reduced = np.einsum("ijkj->ik", kept.reshape(size, size, size, size))  # trace out B
        p = float(np.trace(reduced).real)
        branches.append((p, reduced[:d, :d] / p if p > _BRANCH_EPS else None))
    return branches
