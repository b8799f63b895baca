import numpy as np
import pytest

from helpers import log_domain_dot, logsumexp
from smjp.core import (
    Alphabet,
    DimensionMismatch,
    NegativeOffDiagonal,
    NegativeTime,
    NonFinite,
    RowSumNonzero,
    SmjpError,
    StochasticMatrix,
    derive_rng,
    matrix_exponential,
    validate_generator,
)


def random_generator(rng, n, scale=2.0):
    rates = rng.uniform(0, scale, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    rates[np.diag_indices(n)] = -rates.sum(axis=1)
    return validate_generator(rates)


class TestAlphabet:
    def test_bijection(self):
        a = Alphabet("state", ("idle", "search", "press"))
        assert len(a) == 3
        for i, lab in enumerate(a.labels):
            assert a.index(lab) == i
            assert a.label(i) == lab

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(SmjpError):
            Alphabet("state", ("a", "a"))
        with pytest.raises(SmjpError):
            Alphabet("state", ())
        with pytest.raises(SmjpError):
            Alphabet("state", ("with space",))
        with pytest.raises(SmjpError):
            Alphabet("thing", ("a",))

    def test_unknown_label(self):
        a = Alphabet("action", ("x",))
        with pytest.raises(SmjpError):
            a.index("y")


class TestValidateGenerator:
    def test_accepts_exact_generator(self):
        g = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        assert np.array_equal(g.rates, [[-1.0, 1.0], [2.0, -2.0]])
        assert g.max_exit_rate == 2.0

    def test_rejects_bad_row_sum(self):
        with pytest.raises(RowSumNonzero):
            validate_generator([[-1.0, 0.5], [1.0, -1.0]])

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_generator([[0.0, -1.0], [1.0, -1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            validate_generator([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NonFinite):
            validate_generator([[-np.inf, np.inf], [1.0, -1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_generator(np.zeros((2, 3)))

    def test_repairs_small_residual(self):
        rates = np.array([[-1.0 + 3e-10, 1.0], [2.0, -2.0]])
        g = validate_generator(rates)
        assert abs(g.rates.sum(axis=1)).max() < 1e-12

    def test_idempotent(self):
        rng = derive_rng(0)
        for _ in range(20):
            g = random_generator(rng, 4)
            again = validate_generator(g.rates)
            assert np.array_equal(again.rates, g.rates)

    def test_immutability(self):
        g = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
        with pytest.raises(ValueError):
            g.rates[0, 0] = 5.0


class TestStochasticMatrix:
    def test_accepts_valid(self):
        m = StochasticMatrix([[0.25, 0.75], [1.0, 0.0]])
        assert m.n_rows == 2 and m.n_cols == 2

    def test_rejects_bad_rows(self):
        with pytest.raises(SmjpError):
            StochasticMatrix([[0.5, 0.4], [1.0, 0.0]])
        with pytest.raises(SmjpError):
            StochasticMatrix([[1.5, -0.5], [1.0, 0.0]])


def series_expm(rates, t, terms=80):
    """Independent oracle: plain truncated power series, no scaling."""
    n = rates.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ (rates * t) / k
        acc = acc + term
    return acc


class TestMatrixExponential:
    def test_time_zero_is_identity(self):
        g = validate_generator([[-3.0, 3.0], [0.5, -0.5]])
        assert np.array_equal(matrix_exponential(g, 0.0).probs, np.eye(2))

    def test_negative_time_rejected(self):
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(NegativeTime):
            matrix_exponential(g, -0.1)

    @pytest.mark.parametrize("r,t", [(1.0, 0.3), (2.5, 1.0), (0.2, 7.0)])
    def test_symmetric_two_state_closed_form(self, r, t):
        # exp of [[-r, r], [r, -r]] has eigenvalues {0, -2r}.
        g = validate_generator([[-r, r], [r, -r]])
        p = matrix_exponential(g, t).probs
        same = (1 + np.exp(-2 * r * t)) / 2
        diff = (1 - np.exp(-2 * r * t)) / 2
        expected = np.array([[same, diff], [diff, same]])
        assert np.abs(p - expected).max() < 1e-9

    def test_matches_series_oracle(self):
        rng = derive_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            g = random_generator(rng, n)
            t = float(rng.uniform(0, 2.0 / max(g.max_exit_rate, 1e-9)))
            p = matrix_exponential(g, t).probs
            assert np.abs(p - series_expm(g.rates, t)).max() < 1e-9

    def test_rows_stochastic_and_nonnegative(self):
        rng = derive_rng(7)
        for _ in range(25):
            g = random_generator(rng, 5, scale=4.0)
            t = float(rng.uniform(0, 50.0 / g.max_exit_rate))
            p = matrix_exponential(g, t).probs
            assert p.min() >= 0.0
            assert np.abs(p.sum(axis=1) - 1).max() < 1e-9

    def test_semigroup_property(self):
        rng = derive_rng(3)
        for _ in range(15):
            g = random_generator(rng, 4)
            tmax = 100.0 / g.max_exit_rate
            t1, t2 = rng.uniform(0, tmax / 2, size=2)
            lhs = matrix_exponential(g, t1).probs @ matrix_exponential(g, t2).probs
            rhs = matrix_exponential(g, t1 + t2).probs
            assert np.abs(lhs - rhs).max() < 1e-8


class TestLogDomainDot:
    def test_identity(self):
        with np.errstate(divide="ignore"):
            v = np.log(np.array([1.0, 0.0]))
        out = log_domain_dot(v, np.eye(2))
        assert out[0] == pytest.approx(0.0, abs=1e-15)
        assert out[1] == -np.inf

    def test_uniform_fixed_point(self):
        v = np.log([0.5, 0.5])
        out = log_domain_dot(v, [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(out, np.log([0.5, 0.5]), atol=1e-14)

    def test_matches_linear_domain(self):
        rng = derive_rng(9)
        for _ in range(30):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            vec = rng.dirichlet(np.ones(n))
            mat = rng.dirichlet(np.ones(m), size=n)
            expected = vec @ mat
            got = np.exp(log_domain_dot(np.log(vec), mat))
            assert np.abs((got - expected) / expected).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_domain_dot(np.zeros(3), np.eye(2))


class TestLogsumexp:
    def test_all_neg_inf(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_matches_direct(self):
        rng = derive_rng(1)
        x = rng.normal(size=20)
        assert logsumexp(x) == pytest.approx(np.log(np.exp(x).sum()), rel=1e-12)


class TestDeriveRng:
    def test_reproducible_and_branch_disjoint(self):
        a = derive_rng(5, 1, 2).random(4)
        b = derive_rng(5, 1, 2).random(4)
        c = derive_rng(5, 1, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
