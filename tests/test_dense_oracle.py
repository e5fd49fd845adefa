import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from circuit import run_swap_test_circuit, swap_test_circuit
from purestream import cli
from purestream.core import Seed
from purestream.dense_oracle import (
    MAX_DIM,
    make_depolarized,
    random_pure_state,
    swap_test_apply,
    trace_distance,
    validate_density_matrix,
)
from purestream.gadget import swap_output_delta, swap_success_prob
from purestream.recurrence import gate_count_estimate


def swap_operator(d):
    """The d^2 x d^2 permutation matrix S |i>|j> = |j>|i>."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def reference_swap_test(rho, sigma):
    """The swap test by explicit projection: (I +- S)/2 @ J @ (I +- S)/2.

    Returns [(p0, omega0), (p1, omega1)], with the same 1e-12 branch
    cutoff as swap_test_apply.  O(d^6) dense matmuls; a test-only
    reference for the matrix form.
    """
    d = rho.shape[0]
    joint = np.kron(rho, sigma)
    s = swap_operator(d)
    eye = np.eye(d * d)
    branches = []
    for sign in (+1.0, -1.0):
        proj = (eye + sign * s) / 2.0
        sub = proj @ joint @ proj
        p = np.trace(sub).real
        omega = np.einsum("ijkj->ik", sub.reshape(d, d, d, d)) / p if p > 1e-12 else None
        branches.append((p, omega))
    return branches


def _joint(rho, sigma):
    """J = rho (x) sigma as the (d, d, d, d) view J[i, j, k, l] = rho[i, k] sigma[j, l]."""
    return np.multiply.outer(rho, sigma).transpose(0, 2, 1, 3)


def einsum_swap_test(rho, sigma):
    """The swap test by index contractions of the joint state J = rho (x) sigma.

    S permutes the joint indices: (SJ)[i,j,k,l] = J[j,i,k,l] and
    (JS)[i,j,k,l] = J[i,j,l,k].  So P J P = (J + SJS +- (SJ + JS))/4 is
    never formed, and each term's second-register partial trace is one
    contraction of J.  Returns [(p0, omega0), (p1, omega1)] like
    reference_swap_test.  O(d^4) memory; a test-only reference for the
    matrix form, which it preceded in the oracle.
    """
    joint = _joint(rho, sigma)
    direct = np.einsum("ijkj->ik", joint) + np.einsum("jijk->ik", joint)  # J + SJS
    cross = np.einsum("jikj->ik", joint) + np.einsum("ijjk->ik", joint)  # SJ + JS
    branches = []
    for sign in (+1.0, -1.0):
        reduced = (direct + sign * cross) / 4.0
        p = np.trace(reduced).real
        branches.append((p, reduced / p if p > 1e-12 else None))
    return branches


def _wishart_state(d, rank, rng):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _pure_state(d, rng):
    psi = random_pure_state(d, rng)
    return np.outer(psi, psi.conj())


def _random_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRandomPureState:
    def test_deterministic_per_seed(self):
        a = random_pure_state(2, Seed(5))
        b = random_pure_state(2, Seed(5))
        assert np.array_equal(a, b)

    def test_normalized(self):
        psi = random_pure_state(5, Seed(1))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_distinct_seeds_nearly_orthogonal_overlap(self):
        a = random_pure_state(8, Seed(10))
        b = random_pure_state(8, Seed(11))
        assert abs(np.vdot(a, b)) ** 2 < 1 - 1e-9


class TestMakeDepolarized:
    def test_pure_limit(self):
        psi = random_pure_state(3, Seed(0))
        assert np.allclose(make_depolarized(psi, 0.0), np.outer(psi, psi.conj()))

    def test_mixed_limit(self):
        psi = random_pure_state(4, Seed(0))
        assert np.allclose(make_depolarized(psi, 1.0), np.eye(4) / 4)

    def test_spectrum_qubit(self):
        psi = random_pure_state(2, Seed(3))
        eigs = np.linalg.eigvalsh(make_depolarized(psi, 0.3))
        assert np.allclose(sorted(eigs), [0.15, 0.85], atol=1e-12)

    def test_valid_density_matrix(self):
        psi = random_pure_state(6, Seed(4))
        assert validate_density_matrix(make_depolarized(psi, 0.7)) == 6

    @pytest.mark.parametrize(
        "psi, match",
        [
            (np.zeros(3), "^psi must have unit norm"),  # once a trace-0.5 matrix
            (np.array([2.0, 0.0]), "^psi must have unit norm"),
            (np.eye(2) / np.sqrt(2), "^psi must be a 1-D vector"),  # once a broadcast error
            (np.array([np.nan, 1.0]), "^psi has a non-finite entry"),
            (np.array([1.0]), "^d must be >= 2"),
        ],
        ids=["zero", "norm-2", "2-D", "nan", "d=1"],
    )
    def test_non_state_psi_rejected(self, psi, match):
        with pytest.raises(ValueError, match=match):
            make_depolarized(psi, 0.5)


class TestSwapOperator:
    def test_permutation_action(self):
        d = 3
        s = swap_operator(d)
        for i in range(d):
            for j in range(d):
                v = np.zeros(d * d)
                v[i * d + j] = 1.0
                out = s @ v
                assert out[j * d + i] == 1.0
                assert out.sum() == 1.0

    def test_involution(self):
        s = swap_operator(4)
        assert np.allclose(s @ s, np.eye(16))


class TestSwapTestApply:
    def test_identical_pure_inputs(self):
        psi = random_pure_state(3, Seed(7))
        proj = np.outer(psi, psi.conj())
        res = swap_test_apply(proj, proj)
        assert res.p0 == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(res.omega0, proj) <= 1e-10
        assert res.omega1 is None  # the reject branch has no weight

    def test_orthogonal_pure_inputs(self):
        e0 = np.zeros(2)
        e0[0] = 1.0
        e1 = np.zeros(2)
        e1[1] = 1.0
        res = swap_test_apply(np.outer(e0, e0), np.outer(e1, e1))
        assert res.p0 == pytest.approx(0.5, abs=1e-12)

    def test_probability_completeness(self):
        rng = Seed(21).generator()
        psi = random_pure_state(4, rng)
        rho = make_depolarized(psi, 0.3)
        sigma = make_depolarized(psi, 0.8)
        res = swap_test_apply(rho, sigma)
        assert res.p0 + res.p1 == pytest.approx(1.0, abs=1e-12)

    def test_output_is_valid_density_matrix(self):
        rng = Seed(22).generator()
        psi = random_pure_state(5, rng)
        res = swap_test_apply(make_depolarized(psi, 0.6), make_depolarized(psi, 0.2))
        validate_density_matrix(res.omega0, "omega0")
        validate_density_matrix(res.omega1, "omega1")

    def test_dimension_mismatch_rejected(self):
        a = np.eye(2) / 2
        b = np.eye(3) / 3
        with pytest.raises(ValueError):
            swap_test_apply(a, b)

    def test_invalid_density_rejected(self):
        bad = np.eye(2)  # trace 2
        with pytest.raises(ValueError):
            swap_test_apply(bad, np.eye(2) / 2)

    def test_non_finite_rejected(self):
        # NaN fails every comparison, so it once passed the checks, and the
        # 1e-12 probability cross-check stayed silent on p0 = nan
        with pytest.raises(ValueError, match="^state has a non-finite entry"):
            validate_density_matrix(np.full((2, 2), np.nan))
        for bad in (np.nan, np.inf):
            rho = np.eye(2) / 2
            rho[0, 0] = bad
            with pytest.raises(ValueError, match="^rho has a non-finite entry"):
                swap_test_apply(rho, np.eye(2) / 2)
            with pytest.raises(ValueError, match="^sigma has a non-finite entry"):
                swap_test_apply(np.eye(2) / 2, rho)

    def test_dimension_cap(self):
        big = np.eye(17) / 17
        with pytest.raises(ValueError):
            swap_test_apply(big, big)

    def test_one_dimensional_states_rejected(self):
        # d = 1 once gave p0 = 1, though check_dim refuses it everywhere else
        with pytest.raises(ValueError, match="^d must be >= 2, got 1"):
            swap_test_apply(np.eye(1), np.eye(1))

    def test_empty_matrix_rejected(self):
        # once numpy's "zero-size array to reduction operation maximum"
        with pytest.raises(ValueError, match="^d must be >= 2, got 0"):
            validate_density_matrix(np.zeros((0, 0)))

    def test_probabilities_are_plain_floats(self):
        res = swap_test_apply(np.eye(3) / 3, np.eye(3) / 3)
        assert type(res.p0) is float and type(res.p1) is float

    @pytest.mark.parametrize("d", [2, 3, 7, MAX_DIM])
    def test_equal_inputs_closed_form(self, d):
        # rho = sigma: p0 = (1 + Tr rho^2)/2, omega0 = (rho + rho^2)/(1 + Tr rho^2)
        rng = Seed(90 + d).generator()
        for rank in (1, max(d // 2, 1), d):
            rho = _wishart_state(d, rank, rng)
            rho2 = rho @ rho
            purity = np.trace(rho2).real
            res = swap_test_apply(rho, rho)
            assert abs(res.p0 - (1 + purity) / 2) <= 1e-12
            assert np.abs(res.omega0 - (rho + rho2) / (1 + purity)).max() <= 1e-12

    def test_matches_parametric_formulas(self):
        rng = Seed(30).generator()
        for d in (2, 3, 5):
            for _ in range(20):
                psi = random_pure_state(d, rng)
                d1, d2 = rng.random(2)
                res = swap_test_apply(
                    make_depolarized(psi, d1), make_depolarized(psi, d2)
                )
                assert abs(res.p0 - swap_success_prob(d1, d2, d)) <= 1e-10
                expected = make_depolarized(psi, swap_output_delta(d1, d2, d))
                assert trace_distance(res.omega0, expected) <= 1e-10

    def test_reject_branch_stays_in_family(self):
        # omega(1) is also a depolarized state; its error parameter follows
        # from the same operator algebra: the identity coefficient of
        # rho + sigma - (rho sigma + sigma rho) over the branch weight
        rng = Seed(32).generator()
        for d in (2, 4, 7):
            for _ in range(10):
                psi = random_pure_state(d, rng)
                d1, d2 = 0.2 + 0.6 * rng.random(2)
                rho = make_depolarized(psi, d1)
                sigma = make_depolarized(psi, d2)
                res = swap_test_apply(rho, sigma)
                tr_rs = np.trace(rho @ sigma).real
                # mathematically in [0, 1] (exactly 1 for qubits, whose
                # reject branch is always the maximally mixed state);
                # clamp the last-ulp rounding
                delta_reject = min(
                    1.0, (d1 + d2 - 2 * d1 * d2 / d) / (2 * (1 - tr_rs))
                )
                expected = make_depolarized(psi, delta_reject)
                assert trace_distance(res.omega1, expected) <= 1e-10

    def test_basis_independence(self):
        rng = Seed(31).generator()
        d = 4
        psi = random_pure_state(d, rng)
        rho = make_depolarized(psi, 0.4)
        sigma = make_depolarized(psi, 0.7)
        u = _random_unitary(d, rng)
        res = swap_test_apply(rho, sigma)
        res_rot = swap_test_apply(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(res.p0 - res_rot.p0) <= 1e-10
        back = u.conj().T @ res_rot.omega0 @ u
        assert trace_distance(res.omega0, back) <= 1e-10


def _pairs(d, rng):
    """Non-commuting pairs that share no psi: Wishart states of several ranks, pure states."""
    low = d // 2
    yield _wishart_state(d, d, rng), _wishart_state(d, d, rng)
    yield _wishart_state(d, low, rng), _wishart_state(d, d, rng)
    yield _wishart_state(d, low, rng), _wishart_state(d, 1, rng)
    yield _pure_state(d, rng), _pure_state(d, rng)
    yield _pure_state(d, rng), _wishart_state(d, d, rng)


def _assert_matches(rho, sigma, reference):
    assert np.abs(rho @ sigma - sigma @ rho).max() > 1e-6  # non-commuting
    res = swap_test_apply(rho, sigma)
    got = [(res.p0, res.omega0), (res.p1, res.omega1)]
    for (p, omega), (p_ref, omega_ref) in zip(got, reference(rho, sigma)):
        assert abs(p - p_ref) <= 1e-12
        assert (omega is None) == (omega_ref is None)
        if omega is not None:
            assert np.abs(omega - omega_ref).max() <= 1e-12


class TestAgainstExplicitSwapOperator:
    """Differential test against the projectors (I +- S)/2 built as matrices."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_small_dimensions(self, d):
        rng = Seed(50 + d).generator()
        for _ in range(4):
            for rho, sigma in _pairs(d, rng):
                _assert_matches(rho, sigma, reference_swap_test)

    def test_dimension_cap(self):
        rng = Seed(66).generator()
        for rho, sigma in _pairs(MAX_DIM, rng):
            _assert_matches(rho, sigma, reference_swap_test)


class TestAgainstEinsumJoint:
    """Differential test against the index contractions of the d^4 joint state."""

    @pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
    def test_every_dimension(self, d):
        rng = Seed(100 + d).generator()
        for _ in range(2):
            for rho, sigma in _pairs(d, rng):
                _assert_matches(rho, sigma, einsum_swap_test)


def _branches(res, t=None):
    """[(p0, omega0), (p1, omega1)] of a result, or of pair t of a stacked one."""
    pick = (lambda x: x) if t is None else (lambda x: None if x is None else x[t])
    return [(pick(res.p0), pick(res.omega0)), (pick(res.p1), pick(res.omega1))]


def _stack(pairs):
    """A list of (rho, sigma) pairs as the two stacks (n, d, d)."""
    return np.stack([rho for rho, _ in pairs]), np.stack([sigma for _, sigma in pairs])


class TestStacked:
    """A stack (..., d, d) is checked and swap-tested as its pairs are, one by one."""

    @pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
    def test_stack_equals_per_pair_calls_bit_for_bit(self, d):
        rng = Seed(140 + d).generator()
        pairs = [pair for _ in range(2) for pair in _pairs(d, rng)]
        singles = [swap_test_apply(rho, sigma) for rho, sigma in pairs]
        stacked = swap_test_apply(*_stack(pairs))
        assert stacked.p0.dtype == stacked.p1.dtype == float
        assert stacked.p0.shape == (len(pairs),)
        for field in ("p0", "p1", "omega0", "omega1"):
            want = np.stack([getattr(res, field) for res in singles])
            assert np.array_equal(getattr(stacked, field), want), field
        # two leading axes read as one
        rho, sigma = (x.reshape(2, -1, d, d) for x in _stack(pairs))
        grid = swap_test_apply(rho, sigma)
        assert np.array_equal(grid.p0.ravel(), stacked.p0)
        assert np.array_equal(grid.omega1.reshape(-1, d, d), stacked.omega1)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([np.nan, 0.5, 0.5]), "has a non-finite entry"),
            (np.eye(3) / 3 + np.diag([0.1, 0.1], 1), "is not Hermitian"),
            (np.eye(3) / 2, "does not have unit trace"),
            (np.diag([0.7, 0.5, -0.2]), "has a negative eigenvalue"),
        ],
        ids=["non-finite", "non-Hermitian", "trace", "negative"],
    )
    def test_one_bad_member_fails_the_stack(self, bad, message):
        with pytest.raises(ValueError, match=f"^state {message}$"):
            validate_density_matrix(bad)
        stack = np.stack([np.eye(3) / 3] * 4)
        stack[2] = bad
        with pytest.raises(ValueError, match=f"^state {message}$"):
            validate_density_matrix(stack)
        with pytest.raises(ValueError, match=f"^sigma {message}$"):
            swap_test_apply(np.stack([np.eye(3) / 3] * 4), stack)

    def test_unequal_stack_shapes_rejected(self):
        three, two = np.stack([np.eye(2) / 2] * 3), np.stack([np.eye(2) / 2] * 2)
        for rho, sigma in ((three, two), (two, three), (three, np.eye(2) / 2)):
            with pytest.raises(ValueError, match="^dimension mismatch"):
                swap_test_apply(rho, sigma)

    def test_one_equal_pure_pair_leaves_the_stack_no_reject_branch(self):
        rng = Seed(150).generator()
        pure = _pure_state(4, rng)
        rho = np.stack([_wishart_state(4, 4, rng), pure, _wishart_state(4, 4, rng)])
        sigma = np.stack([_wishart_state(4, 4, rng), pure, _wishart_state(4, 4, rng)])
        res = swap_test_apply(rho, sigma)
        assert abs(res.p1[1]) <= 1e-12 and res.p1[[0, 2]].min() > 1e-12
        assert res.omega1 is None
        assert res.omega0 is not None


class TestAgainstCircuit:
    """Differential test against the gate-level circuit on 2k + 1 qubits (tests/circuit.py)."""

    @pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
    def test_single_and_stacked(self, d):
        rng = Seed(160 + d).generator()
        pairs = list(_pairs(d, rng))
        stacked = swap_test_apply(*_stack(pairs))
        for t, (rho, sigma) in enumerate(pairs):
            want = run_swap_test_circuit(rho, sigma)
            for got in (_branches(swap_test_apply(rho, sigma)), _branches(stacked, t)):
                for (p, omega), (p_ref, omega_ref) in zip(got, want):
                    assert abs(p - p_ref) <= 1e-12
                    assert np.abs(omega - omega_ref).max() <= 1e-12

    @pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
    def test_gate_count_is_the_estimate(self, d):
        assert len(swap_test_circuit(d)) == gate_count_estimate(1, d)


class TestJointView:
    """J as the outer-product view, against the Kronecker product it stands for."""

    @pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
    def test_equals_reshaped_kron(self, d):
        rng = Seed(80 + d).generator()
        for rank in (1, max(d // 2, 1), d):
            rho = _wishart_state(d, rank, rng)
            sigma = _wishart_state(d, d, rng)
            assert np.array_equal(_joint(rho, sigma), np.kron(rho, sigma).reshape(d, d, d, d))

    def test_verify_bytes_at_the_cap(self):
        # the golden verify-v4 at d = MAX_DIM, from the oracle's matrix form
        argv = ["verify", "--seed", "9", "--trials", "200", "--d", str(MAX_DIM)]
        golden = Path(__file__).resolve().parent / "golden" / "cli_sha256.json"
        want = next(c["sha256"] for c in json.loads(golden.read_text()) if c["argv"] == argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want


class TestTraceDistance:
    def test_self_distance_zero(self):
        rho = np.eye(3) / 3
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_pure_vs_maximally_mixed_qubit(self):
        psi = random_pure_state(2, Seed(40))
        assert trace_distance(
            make_depolarized(psi, 0.0), make_depolarized(psi, 1.0)
        ) == pytest.approx(0.5, abs=1e-12)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2), np.eye(3))

    def test_non_square_rejected(self):
        # equal-shape non-square arrays once leaked numpy's LinAlgError
        a = np.ones((2, 3))
        with pytest.raises(ValueError, match="^trace_distance needs square matrices"):
            trace_distance(a, a)

    def test_non_finite_rejected(self):
        # a NaN diagonal entry once read as distance 0.0 from I/2
        bad = np.eye(2) / 2
        bad[0, 0] = np.nan
        for a, b in ((bad, np.eye(2) / 2), (np.eye(2) / 2, bad)):
            with pytest.raises(ValueError, match="finite"):
                trace_distance(a, b)


def test_max_dim_constant():
    assert MAX_DIM == 16
