import numpy as np
import pytest

from subspec.ensembles import (EnsembleSpec, half_ones_diagonal, load_matrix,
                               make_matrix, random_symmetric, rw_covariance,
                               save_matrix)
from subspec.linalg import DenseMatrix, eigenvalues_hermitian

from reference import is_hermitian


class TestRwCovariance:
    def test_order_one(self):
        assert rw_covariance(1).data.tolist() == [[1.0]]

    def test_min_entries(self):
        assert rw_covariance(3).data.tolist() == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]

    def test_eigenvalues_order_two(self):
        lo = (3.0 - 5.0 ** 0.5) / 2.0
        hi = (3.0 + 5.0 ** 0.5) / 2.0
        np.testing.assert_allclose(
            eigenvalues_hermitian(rw_covariance(2)).values, [lo, hi], atol=1e-12)

    def test_positive_definite_up_to_50(self):
        for n in (2, 7, 23, 50):
            assert eigenvalues_hermitian(rw_covariance(n)).values[0] > 0


class TestHalfOnes:
    def test_small(self):
        assert half_ones_diagonal(2).data.tolist() == [[1, 0], [0, 0]]
        assert half_ones_diagonal(4).data.tolist() == np.diag([1.0, 1, 0, 0]).tolist()

    def test_odd_floor(self):
        assert np.diag(half_ones_diagonal(5).data).tolist() == [1, 1, 0, 0, 0]

    def test_eigenvalue_counts(self):
        for n in (1, 2, 5, 12, 17):
            vals = eigenvalues_hermitian(half_ones_diagonal(n)).values
            assert int(np.sum(vals > 0.5)) == n // 2
            assert int(np.sum(vals < 0.5)) == n - n // 2


class TestRandomSymmetric:
    def test_deterministic(self):
        a = random_symmetric(6, 99, "gaussian")
        b = random_symmetric(6, 99, "gaussian")
        assert a.data.tolist() == b.data.tolist()

    def test_symmetric_at_zero_tol(self):
        assert is_hermitian(random_symmetric(8, 5, "gaussian"), 0.0)
        assert is_hermitian(random_symmetric(8, 5, "pm1"), 0.0)

    def test_order_one(self):
        m = random_symmetric(1, 0, "gaussian")
        assert m.rows == 1 and np.isfinite(m.data[0, 0])

    def test_pm1_values(self):
        m = random_symmetric(10, 3, "pm1")
        assert set(np.unique(m.data)) <= {-1.0, 1.0}

    def test_seeds_differ(self):
        assert random_symmetric(5, 0, "gaussian").data.tolist() != \
            random_symmetric(5, 1, "gaussian").data.tolist()

    def test_gaussian_moments(self):
        m = random_symmetric(60, 17, "gaussian")
        upper = m.data[np.triu_indices(60)]
        assert abs(upper.mean()) < 0.1
        assert abs(upper.std() - 1.0) < 0.05


class TestMatrixFiles:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "id.txt"
        save_matrix(DenseMatrix(np.eye(3)), path)
        assert load_matrix(path).data.tolist() == np.eye(3).tolist()

    def test_round_trip_extreme_exponents(self, tmp_path):
        m = DenseMatrix(np.array([[1e-300, 1e300], [-1e300, 2.718281828459045]]))
        path = tmp_path / "extreme.txt"
        save_matrix(m, path)
        assert load_matrix(path).data.tolist() == m.data.tolist()

    def test_round_trip_complex(self, tmp_path):
        m = DenseMatrix(np.array([[1.0, 1j], [-1j, 2.0]]))
        path = tmp_path / "c.txt"
        save_matrix(m, path)
        loaded = load_matrix(path)
        assert loaded.field == "complex"
        assert loaded.data.tolist() == m.data.tolist()

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(11)
        m = DenseMatrix(rng.standard_normal((4, 7)) * 10.0 ** rng.integers(-12, 12))
        path = tmp_path / "r.txt"
        save_matrix(m, path)
        assert load_matrix(path).data.tolist() == m.data.tolist()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "commented.txt"
        path.write_text("# a comment\n\n2 2 real\n# another\n1 2\n\n3 4\n")
        assert load_matrix(path).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_arity_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3 real\n1 2 3 4 5\n6 7 8\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("1 2 real\n1 oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("2 2 quaternion\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="field"):
            load_matrix(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "bad4.txt"
        path.write_text("3 2 real\n1 2\n3 4\n")
        with pytest.raises(ValueError, match="expected 3 data rows"):
            load_matrix(path)


class TestEnsembleSpec:
    def test_dispatch(self):
        m = make_matrix(EnsembleSpec(kind="rw_covariance", n=4))
        assert m.data[3, 1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(kind="nope", n=3)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="rw_covariance", n=0)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="file")
