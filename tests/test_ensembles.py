import numpy as np
import pytest

from subspec.cli import build_parser
from subspec.ensembles import (ENSEMBLES, half_ones_diagonal, load_matrix, make_matrix,
                               random_symmetric, rw_covariance, save_matrix)
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


def test_ensembles_hand_over_their_arrays(tmp_path):
    # DenseMatrix adopts a read-only array that owns its data, so no n x n copy is made
    save_matrix(rw_covariance(3), tmp_path / "m.txt")
    for m in (half_ones_diagonal(8), rw_covariance(5), random_symmetric(4, 1, "pm1"),
              load_matrix(tmp_path / "m.txt")):
        assert m.data.flags.owndata and not m.data.flags.writeable


class TestEnsembleTable:
    # each CLI name and the constructor call it stands for
    BUILT = {
        "rw-covariance": lambda n, seed: rw_covariance(n),
        "half-ones": lambda n, seed: half_ones_diagonal(n),
        "random-gaussian": lambda n, seed: random_symmetric(n, seed, "gaussian"),
        "random-pm1": lambda n, seed: random_symmetric(n, seed, "pm1"),
    }

    def test_names(self):
        assert sorted(ENSEMBLES) == sorted(self.BUILT)

    @pytest.mark.parametrize("name", sorted(ENSEMBLES))
    def test_builds_its_constructor(self, name):
        for n, seed in ((1, 0), (2, 5), (7, 3)):
            m = make_matrix(name, n, seed)
            assert m.data.shape == (n, n)
            assert m.data.tobytes() == self.BUILT[name](n, seed).data.tobytes()
        assert make_matrix(name, 6).data.tobytes() == make_matrix(name, 6, 0).data.tobytes()

    @pytest.mark.parametrize("name", sorted(ENSEMBLES))
    def test_only_random_names_read_the_seed(self, name):
        # the CLI accepts a seed option for exactly the names with this prefix
        one, two = make_matrix(name, 6, 1), make_matrix(name, 6, 2)
        assert (one.data.tobytes() != two.data.tobytes()) == name.startswith("random")

    def test_cli_choices_are_the_table(self):
        subcommands = next(action.choices for action in build_parser()._actions
                           if action.dest == "subcommand")
        choices = {name: action.choices for name, sub in subcommands.items()
                   for action in sub._actions if action.dest == "ensemble"}
        assert sorted(choices) == ["estimate", "gen", "oracle", "pair"]
        assert all(sorted(c) == sorted(ENSEMBLES) for c in choices.values())

    def test_rejects_unknown_name_and_empty_order(self):
        with pytest.raises(ValueError, match="unknown ensemble 'nope'"):
            make_matrix("nope", 3)
        for name in ENSEMBLES:
            with pytest.raises(ValueError, match="n must be positive"):
                make_matrix(name, 0)
