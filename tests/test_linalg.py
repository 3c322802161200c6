import errno
import itertools
import math
import os
import threading
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from subspec import linalg as linalg_mod
from subspec.ensembles import (ENSEMBLES, load_matrix, make_matrix, random_symmetric,
                               rw_covariance, save_matrix)
from subspec.linalg import (DenseMatrix, Spectrum, eigenvalues_hermitian,
                            eigenvalues_hermitian_stack, gather_submatrices, gram,
                            numerical_rank, principal_block_solver, row_block_solver,
                            singular_values)
from subspec.cli import main
from subspec.montecarlo import estimate_F
from subspec.oracle import subset_spectra
from subspec.sampling import draw_subsets, solve_subsets

from reference import bisection, is_hermitian, row_block_singular_values


def dm(rows):
    return DenseMatrix(np.array(rows))


def random_symmetric_np(rng, n):
    a = rng.standard_normal((n, n))
    return dm(a + a.T)


def random_complex_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return DenseMatrix(a + a.conj().T)


@lru_cache(maxsize=None)
def rotation_rounds_loop(n):
    """The former list-rotation build of `linalg._rotation_rounds`, kept as
    its oracle: each round seats the players in a circle, pairs seat i with
    seat m-1-i, and moves every player but the first one seat on."""
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a >= 0 and b >= 0:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _off_norm(a):
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.sqrt(np.sum(b * b)))


def _symmetric_eigenvalues(a):
    """The former per-matrix cyclic Jacobi solver, kept as the oracle for the
    batched one: each row of a batched solve must equal it byte for byte."""
    a = np.array(a, dtype=np.float64, order="C")
    n = a.shape[0]
    if n == 1:
        return a.ravel().copy()

    amax = float(np.max(np.abs(a)))
    rescale = 1.0
    if amax > 1e100 or (0.0 < amax < 1e-100):
        rescale = amax
        a /= rescale

    target = linalg_mod.JACOBI_TOL * float(np.sqrt(np.sum(a * a)))
    rounds = rotation_rounds_loop(n)
    for _ in range(linalg_mod.JACOBI_MAX_SWEEPS):
        off = _off_norm(a)
        if off <= target:
            return np.sort(np.diag(a)) * rescale
        threshold = target / n
        for p_all, q_all in rounds:
            apq = a[p_all, q_all]
            mask = np.abs(apq) > threshold
            if not mask.any():
                continue
            p = p_all[mask]
            q = q_all[mask]
            apq = apq[mask]
            app = a[p, p]
            aqq = a[q, q]
            diff = aqq - app
            tiny_pivot = np.abs(apq) < np.abs(diff) * 1e-36
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = diff / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(theta == 0.0, 1.0, t)
                t = np.where(tiny_pivot, apq / diff, t)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            col_p = a[:, p]
            col_q = a[:, q]
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p = a[p, :]
            row_q = a[q, :]
            cs = c[:, None]
            ss = s[:, None]
            a[p, :] = cs * row_p - ss * row_q
            a[q, :] = ss * row_p + cs * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
    raise RuntimeError("eigensolver did not converge")


def per_matrix_eigenvalues(data):
    """The former eigenvalues_hermitian front end over the per-matrix solver."""
    if np.iscomplexobj(data):
        h = 0.5 * (data + data.conj().T)
        doubled = _symmetric_eigenvalues(np.block([[h.real, -h.imag], [h.imag, h.real]]))
        return 0.5 * (doubled[0::2] + doubled[1::2])
    return _symmetric_eigenvalues(0.5 * (data + data.T))


@pytest.fixture
def jacobi_only(monkeypatch):
    """`_symmetric_eigenvalues` by Jacobi at every order, as the per-matrix
    oracle solves: the crossover to bisection moved out of reach."""
    monkeypatch.setattr(linalg_mod, "_BISECTION_MIN_ORDER", 10**9)


def principal_blocks(m, k, count, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(count):
        idx = np.sort(rng.choice(m.shape[0], k, replace=False))
        blocks.append(m[np.ix_(idx, idx)])
    return blocks


def signed_zero_pair(a):
    """a with entry (0, 1) set to -0.0 and (1, 0) to +0.0: every gap is 0,
    but a differs from its transpose in one bit."""
    a = a.copy()
    a[0, 1], a[1, 0] = -0.0, 0.0
    return a


def stack_cases(tmp_path):
    rng = np.random.default_rng(40)
    rw = rw_covariance(60).data
    x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    save_matrix(DenseMatrix((x + x.conj().T) / 2), tmp_path / "h.txt")
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))

    def sym(a):
        return a + a.T

    return {
        "rw-covariance-k20": principal_blocks(rw, 20, 12, 1),
        "rw-covariance-k5": principal_blocks(rw, 5, 60, 2),
        "gaussian": [sym(rng.standard_normal((8, 8))) for _ in range(40)],
        "pm1": [sym(rng.choice([-1.0, 1.0], (8, 8))) for _ in range(40)],
        "half-ones-ties": ([np.diag(rng.integers(0, 2, 6).astype(float)) for _ in range(10)]
                           + [q @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) @ q.T
                              for _ in range(3)]),
        "complex-file": principal_blocks(load_matrix(tmp_path / "h.txt").data, 4, 20, 3),
        "order-1": [rng.standard_normal((1, 1)) for _ in range(5)],
        "order-2": [sym(rng.standard_normal((2, 2))) for _ in range(20)] + [np.eye(2)],
        "mixed-scales": [sym(rng.standard_normal((6, 6))) * scale
                         for scale in (1e200, 1e-200, 1.0, 3e-150, 1e-200, 1e200)],
        # exactly symmetric matrices next to ones asymmetric within the
        # guard's tolerance, and one whose only asymmetry is a +0/-0 pair
        "mixed-symmetry": [sym(rng.standard_normal((5, 5))) + skew
                           for skew in (0.0, 1e-12 * rng.standard_normal((5, 5)), 0.0,
                                        1e-14 * rng.standard_normal((5, 5)), 0.0)]
        + [signed_zero_pair(sym(rng.standard_normal((5, 5))))],
    }


class TestDenseMatrix:
    def test_shape_and_field(self):
        m = dm([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert (m.rows, m.cols, m.field) == (3, 2, "real")
        assert DenseMatrix(np.array([[1 + 2j, 3 - 4j]])).field == "complex"

    def test_rejects_nan_and_bad_shape(self):
        with pytest.raises(ValueError):
            dm([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros(4))

    def test_immutable(self):
        m = dm([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_writable_input_is_copied(self):
        a = np.eye(3)
        m = DenseMatrix(a)
        a[0, 0] = 5.0
        a[1, 2] = -1.0
        assert m.data.tolist() == np.eye(3).tolist()
        assert not np.shares_memory(a, m.data)

    def test_read_only_views_and_other_dtypes_are_copied(self):
        base = np.eye(4)
        view = base[:3, :3]
        view.setflags(write=False)
        ints = np.eye(3, dtype=np.int64)
        ints.setflags(write=False)
        columns = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        columns.setflags(write=False)
        for arr in (view, ints, columns):
            m = DenseMatrix(arr)
            assert not np.shares_memory(arr, m.data)
            assert m.data.dtype == np.float64 and m.data.flags.c_contiguous
            assert m.data.tolist() == arr.tolist()

    def test_read_only_owned_array_is_adopted(self):
        for arr in (np.arange(6.0).reshape(2, 3).copy(), np.array([[1 + 2j, 3 - 4j]])):
            arr.setflags(write=False)
            assert DenseMatrix(arr).data is arr


class TestIsHermitian:
    def test_identity_zero_tol(self):
        assert is_hermitian(dm(np.eye(2)), 0.0)

    def test_strictly_triangular(self):
        assert not is_hermitian(dm([[0.0, 1.0], [0.0, 0.0]]), 1e-12)

    def test_textbook_complex(self):
        m = DenseMatrix(np.array([[1.0, 1j], [-1j, 2.0]]))
        assert is_hermitian(m, 1e-12)

    def test_not_square(self):
        with pytest.raises(ValueError, match="not square"):
            is_hermitian(dm([[1.0, 2.0, 3.0]]), 0.0)


class TestEigenvalues:
    def test_swap_matrix(self):
        spec = eigenvalues_hermitian(dm([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spec.values, [-1.0, 1.0], atol=1e-14)

    def test_rw_covariance_2_against_quadratic_formula(self):
        # characteristic polynomial of [[1,1],[1,2]] is x^2 - 3x + 1
        lo = (3.0 - math.sqrt(5.0)) / 2.0
        hi = (3.0 + math.sqrt(5.0)) / 2.0
        spec = eigenvalues_hermitian(dm([[1.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.values, [lo, hi], atol=1e-12)

    def test_diagonal(self):
        spec = eigenvalues_hermitian(dm(np.diag([1.0, 0.0, 1.0, 0.0])))
        assert spec.values.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_order_one(self):
        assert eigenvalues_hermitian(dm([[4.5]])).values.tolist() == [4.5]

    def test_not_hermitian_raises(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigenvalues_hermitian(dm([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_cap_raises(self, monkeypatch):
        from subspec import linalg as linalg_mod
        monkeypatch.setattr(linalg_mod, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(RuntimeError, match="did not converge"):
            eigenvalues_hermitian(dm([[0.0, 1.0], [1.0, 0.0]]))

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 11, 40):
            m = random_symmetric_np(rng, n)
            spec = eigenvalues_hermitian(m)
            scale = np.abs(m.data).max()
            assert abs(spec.values.sum() - np.trace(m.data)) <= 1e-9 * n * scale

    def test_permutation_similarity(self):
        rng = np.random.default_rng(4)
        for n in (3, 8, 20):
            m = random_symmetric_np(rng, n)
            perm = rng.permutation(n)
            permuted = dm(m.data[np.ix_(perm, perm)])
            a = eigenvalues_hermitian(m).values
            b = eigenvalues_hermitian(permuted).values
            np.testing.assert_allclose(a, b, atol=1e-8 * np.abs(m.data).max())

    def test_weyl_shift(self):
        rng = np.random.default_rng(5)
        m = random_symmetric_np(rng, 9)
        eps = 0.625  # exactly representable
        shifted = dm(m.data + eps * np.eye(9))
        a = eigenvalues_hermitian(m).values
        b = eigenvalues_hermitian(shifted).values
        np.testing.assert_allclose(b - a, eps, atol=1e-9 * np.abs(m.data).max())

    def test_complex_doubling_halves_multiplicity(self):
        rng = np.random.default_rng(6)
        for n in (2, 5, 10):
            m = random_complex_hermitian(rng, n)
            spec = eigenvalues_hermitian(m)
            assert spec.values.size == n
            # the doubled real embedding must contain each eigenvalue twice
            x, y = m.data.real, m.data.imag
            embedded = dm(np.block([[x, -y], [y, x]]))
            doubled = eigenvalues_hermitian(embedded).values
            np.testing.assert_allclose(
                doubled, np.repeat(spec.values, 2), atol=1e-8 * np.abs(m.data).max())

    def test_complex_vs_numpy(self):
        rng = np.random.default_rng(7)
        m = random_complex_hermitian(rng, 6)
        ours = eigenvalues_hermitian(m).values
        ref = np.linalg.eigvalsh(m.data)
        np.testing.assert_allclose(ours, ref, atol=1e-10 * np.abs(m.data).max())

    def test_against_numpy_corpus(self):
        rng = np.random.default_rng(20)
        for n in (2, 3, 7, 16, 33, 64):
            for scale in (1.0, 1e-6, 1e6):
                m = random_symmetric_np(rng, n)
                m = dm(m.data * scale)
                ours = eigenvalues_hermitian(m).values
                ref = np.linalg.eigvalsh(m.data)
                np.testing.assert_allclose(ours, ref, atol=1e-11 * n * np.abs(m.data).max())

    def test_hilbert_matrix(self):
        # severely ill-conditioned PSD input
        n = 12
        h = dm(1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0))
        ours = eigenvalues_hermitian(h).values
        ref = np.linalg.eigvalsh(h.data)
        np.testing.assert_allclose(ours, ref, atol=1e-13)
        assert np.all(ours >= -1e-15)

    def test_clustered_eigenvalues(self):
        base = np.diag([1.0, 1.0 + 1e-13, 1.0 + 2e-13, 5.0])
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = dm(q @ base @ q.T)
        ours = eigenvalues_hermitian(dm(0.5 * (m.data + m.data.T))).values
        np.testing.assert_allclose(ours, np.diag(base), atol=1e-11)

    def test_extreme_scale_guard(self):
        big = eigenvalues_hermitian(dm(np.diag([1e200, 2e200]))).values
        np.testing.assert_allclose(big, [1e200, 2e200], rtol=1e-12)
        tiny = eigenvalues_hermitian(dm(np.diag([3e-200, 1e-200]))).values
        np.testing.assert_allclose(tiny, [1e-200, 3e-200], rtol=1e-12)


class TestBatchedSolver:
    @pytest.mark.parametrize("case", ["rw-covariance-k20", "rw-covariance-k5", "gaussian",
                                      "pm1", "half-ones-ties", "complex-file", "order-1",
                                      "order-2", "mixed-scales", "mixed-symmetry"])
    def test_matches_per_matrix_solver(self, case, tmp_path, jacobi_only):
        blocks = stack_cases(tmp_path)[case]
        got = eigenvalues_hermitian_stack(np.array(blocks))
        expected = np.array([per_matrix_eigenvalues(b) for b in blocks])
        assert got.tobytes() == expected.tobytes()

    def test_orders_past_one_reduction_block(self, jacobi_only):
        # 96^2 entries exceed numpy's 8192-element reduction buffer; the
        # per-matrix sums of a stack must still match a sum of one matrix
        rng = np.random.default_rng(43)
        blocks = [random_symmetric_np(rng, 96).data * scale for scale in (1.0, 1e-3)]
        got = eigenvalues_hermitian_stack(np.array(blocks))
        expected = np.array([per_matrix_eigenvalues(b) for b in blocks])
        assert got.tobytes() == expected.tobytes()

    def test_alone_equals_in_batch(self, tmp_path):
        # batch-mates converge at different sweeps and scales; none may
        # change another's bytes
        cases = stack_cases(tmp_path)
        rng = np.random.default_rng(42)
        blocks = ([random_symmetric_np(rng, 6).data for _ in range(6)]
                  + cases["half-ones-ties"] + cases["mixed-scales"])
        batch = eigenvalues_hermitian_stack(np.array(blocks))
        reverse = eigenvalues_hermitian_stack(np.array(blocks[::-1]))[::-1]
        assert batch.tobytes() == reverse.tobytes()
        for block, row in zip(blocks, batch):
            assert eigenvalues_hermitian(DenseMatrix(block)).values.tobytes() == row.tobytes()

    def test_sweep_cap_raises_for_any_matrix_of_a_stack(self, monkeypatch):
        # diagonal matrices converge at the first check; one that needs a
        # rotation runs out of sweeps and fails the whole stack
        monkeypatch.setattr(linalg_mod, "JACOBI_MAX_SWEEPS", 1)
        diagonal = np.array([np.diag([1.0, 2.0]), np.diag([3.0, -1.0])])
        assert eigenvalues_hermitian_stack(diagonal).tolist() == [[1.0, 2.0], [-1.0, 3.0]]
        mixed = np.concatenate([diagonal, [[[0.0, 1.0], [1.0, 0.0]]]])
        with pytest.raises(RuntimeError, match="did not converge"):
            eigenvalues_hermitian_stack(mixed)

    def test_each_matrix_guarded_at_its_own_scale(self):
        # 1e-7 asymmetry passes next to a 1e6 entry but not in a unit block
        skewed = np.array([[1.0, 1.0 + 1e-7], [1.0, 1.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            eigenvalues_hermitian_stack(np.array([1e6 * np.eye(2), skewed]))
        eigenvalues_hermitian_stack(np.array([1e6 * np.eye(2) + skewed]))

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="not square"):
            eigenvalues_hermitian_stack(np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("case", ["rw-covariance-k5", "mixed-symmetry", "complex-file"])
    def test_leaves_input_unmodified(self, case, tmp_path):
        # exactly symmetric and inexact stacks and the complex embedding
        # are all solved from a symmetrized copy
        stack = np.array(stack_cases(tmp_path)[case])
        before = stack.tobytes()
        eigenvalues_hermitian_stack(stack)
        assert stack.tobytes() == before

    def test_entries_near_float_max(self):
        # A + A^T overflows here although every entry is finite: a matrix
        # with an entry of 2^1023 or more is halved before the add
        big = eigenvalues_hermitian(dm(np.diag([1e308, 1.0]))).values
        np.testing.assert_allclose(big, [1.0, 1e308], rtol=1e-12)
        skewed = np.array([[1e308, 3e297], [1e297, -5e307]])
        assert is_hermitian(DenseMatrix(skewed), 1e-10 * 1e308)
        np.testing.assert_allclose(eigenvalues_hermitian(DenseMatrix(skewed)).values,
                                   [-5e307, 1e308], rtol=1e-12)
        hermitian = np.array([[1e308, 3e297j], [-1e297j, 2.0]])
        np.testing.assert_allclose(eigenvalues_hermitian(DenseMatrix(hermitian)).values,
                                   [2.0 - 4e286, 1e308], rtol=1e-12)
        # a batch-mate that needs halving leaves an ordinary one's bits alone
        ordinary = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
        got = eigenvalues_hermitian_stack(np.array([skewed, ordinary]))
        assert got[1].tobytes() == per_matrix_eigenvalues(ordinary).tobytes()


def layout_cases():
    """Stacks at the edges of the rotation arithmetic, for both layouts."""
    rng = np.random.default_rng(44)

    def sym(a):
        return a + np.swapaxes(a, -1, -2)

    def with_zeros(a, zero):
        # a symmetric pattern of off-diagonal zeros, and zeros on half the diagonal
        a = a.copy()
        pattern = rng.random(a.shape) < 0.4
        a[pattern | np.swapaxes(pattern, -1, -2)] = zero
        a[..., ::2, ::2][..., np.eye((a.shape[-1] + 1) // 2, dtype=bool)] = zero
        return a

    equal_diagonal = sym(rng.standard_normal((6, 5, 5)))
    equal_diagonal[:, np.arange(5), np.arange(5)] = 2.0
    tiny = np.diag(np.arange(1.0, 6.0)) + sym(np.triu(np.full((5, 5), 1e-40), 1))
    near_diagonal = np.diag(np.arange(91.0)) + 1e-9 * sym(rng.standard_normal((91, 91)))
    return {
        # theta = 0: pivots between equal diagonal entries
        "theta-zero": [*equal_diagonal, np.full((5, 5), 0.5) + 0.5 * np.eye(5)],
        # pivots that miss, |a_pq| < |a_qq - a_pp| * 1e-36 or a_pq = 0, in
        # rounds where batch-mates rotate the same pairs
        "tiny-pivots": [tiny, np.diag(np.arange(1.0, 6.0)), np.full((5, 5), 3.0) * 0.0,
                        *sym(rng.standard_normal((4, 5, 5)))],
        "signed-zeros": [*with_zeros(sym(rng.standard_normal((6, 6, 6))), -0.0),
                         *with_zeros(sym(rng.standard_normal((3, 6, 6))), 0.0),
                         np.full((6, 6), -0.0), np.where(np.eye(6) > 0, -0.0, 1.0),
                         # their sorted diagonals keep the order of the zeros
                         np.diag([0.0, -0.0, -0.0, 1.0, 2.0, 3.0]),
                         np.diag([-0.0, 0.0, 5.0, -0.0, 0.0, -1.0])],
        "rescaled": [sym(rng.standard_normal((6, 6))) * scale
                     for scale in (1e150, 1e-150, 1.0, 1e101, -1e-101, 1e200, 1e-200, 3.0)],
        "order-1": list(rng.standard_normal((4, 1, 1))),
        "order-2": [*sym(rng.standard_normal((5, 2, 2))), np.eye(2), np.array([[-0.0, 1.0],
                                                                             [1.0, -0.0]])],
        "odd-order": list(sym(rng.standard_normal((9, 7, 7)))),
        # batch-mates that leave the stack at sweeps 0, 1 and later
        "mixed-sweeps": [np.diag(rng.standard_normal(6)),
                         np.diag(np.arange(6.0)) + 1e-7 * sym(rng.standard_normal((6, 6))),
                         *sym(rng.standard_normal((3, 6, 6))), np.zeros((6, 6))],
        "below-order": list(sym(rng.standard_normal((19, 20, 20)))),
        "above-order": list(sym(rng.standard_normal((21, 20, 20)))),
        # 91^2 entries exceed numpy's 8192-element reduction buffer
        "past-one-reduction-block": [near_diagonal, 2.0 * near_diagonal],
    }


class TestLayouts:
    """The row-major and batch-last sweeps of `linalg._jacobi` must give the
    same bytes as each other and as the per-matrix solver."""

    @pytest.mark.parametrize("case", ["theta-zero", "tiny-pivots", "signed-zeros", "rescaled",
                                      "order-1", "order-2", "odd-order", "mixed-sweeps",
                                      "below-order", "above-order",
                                      "past-one-reduction-block"])
    def test_layouts_agree(self, case, jacobi_only):
        stack = np.array(layout_cases()[case])
        expected = np.array([_symmetric_eigenvalues(b) for b in stack])
        for batch_last in (False, True):
            got = linalg_mod._jacobi(stack.copy(), batch_last)
            assert got.tobytes() == expected.tobytes()
        assert linalg_mod._symmetric_eigenvalues(stack.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["theta-zero", "tiny-pivots", "signed-zeros", "rescaled",
                                      "order-2", "odd-order", "mixed-sweeps",
                                      "past-one-reduction-block"])
    def test_sweeps_leave_the_same_bytes(self, case):
        # every entry, signed zeros and pivots set to zero included, and
        # every off-diagonal norm, sweep after sweep
        row = np.array(layout_cases()[case])
        amax = np.abs(row).max(axis=(1, 2))
        row /= linalg_mod._rescale_factors(amax)[:, None, None]
        batch = np.ascontiguousarray(row.transpose(1, 2, 0))
        threshold = 1e-3 * np.abs(row).max(axis=(1, 2))
        for _ in range(3):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                off = linalg_mod._sweep_row_major(row, threshold)
                assert linalg_mod._sweep_batch_last(batch, threshold).tobytes() == off.tobytes()
            assert batch.transpose(2, 0, 1).tobytes() == row.tobytes()
        assert off.tobytes() == np.array([_off_norm(b) for b in row]).tobytes()

    def test_tiny_pivots_that_rotate(self, monkeypatch):
        # at this tolerance pivots of 1e-40 between diagonal entries 1 apart
        # are above threshold and take the tiny-pivot branch
        monkeypatch.setattr(linalg_mod, "JACOBI_TOL", 1e-60)
        stack = np.array(layout_cases()["tiny-pivots"])
        expected = np.array([_symmetric_eigenvalues(b) for b in stack])
        for batch_last in (False, True):
            assert linalg_mod._jacobi(stack.copy(), batch_last).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("batch_last", [False, True])
    def test_sweep_cap_raises_in_both_layouts(self, monkeypatch, batch_last):
        monkeypatch.setattr(linalg_mod, "JACOBI_MAX_SWEEPS", 1)
        stack = np.array([np.diag([1.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
        with pytest.raises(RuntimeError, match="did not converge"):
            linalg_mod._jacobi(stack, batch_last)

    def test_layout_rule(self, monkeypatch, jacobi_only):
        # batch last when B * n >= 400, from B and n alone; the split is off,
        # so the stub runs in this process only
        chosen = []
        monkeypatch.setattr(linalg_mod, "_fork_cpus", lambda: 1)
        monkeypatch.setattr(linalg_mod, "_jacobi", lambda a, batch_last: (
            chosen.append(batch_last), np.zeros(a.shape[:2]))[1])
        for count, n in [(19, 20), (20, 20), (21, 20), (1, 120), (40, 3), (133, 3), (134, 3),
                         (462, 5), (250, 20), (63, 64), (64, 64)]:
            linalg_mod._symmetric_eigenvalues(np.zeros((count, n, n)))
        assert chosen == [False, True, True, False, False, False, True,
                          True, True, True, True]

    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    @pytest.mark.parametrize("count, n, parts, expected", [
        (59, 20, 3, [False, True, True]), (60, 20, 3, [True, True, True]),
        (250, 20, 2, [True, True]), (64, 64, 2, [True, True])])
    def test_layout_rule_per_part(self, monkeypatch, jacobi_only, count, n, parts, expected):
        # each part of a split stack takes the layout of its own B (rows
        # 19, 20, 20 of 59); the stub answers with its choice in every row,
        # which is how a worker's choice comes back
        force_parts(monkeypatch, parts)
        monkeypatch.setattr(linalg_mod, "_jacobi", lambda a, batch_last: np.full(
            a.shape[:2], float(batch_last)))
        got = linalg_mod._symmetric_eigenvalues(np.zeros((count, n, n)))
        bounds = [count * i // parts for i in range(parts + 1)]
        assert got.tolist() == [[float(layout)] * n for layout, start, stop
                                in zip(expected, bounds, bounds[1:]) for _ in range(start, stop)]


def force_parts(monkeypatch, parts):
    """Cut every Jacobi stack into min(B, parts) row ranges, whatever its
    size and however many threads this process runs."""
    monkeypatch.setattr(linalg_mod, "_PART_MIN_WORK", 1)
    monkeypatch.setattr(linalg_mod, "_fork_cpus", lambda: parts)


def count_forks(monkeypatch):
    """A list that grows by one at each `os.fork` of this process."""
    forks = []
    real = os.fork

    def counting():
        forks.append(1)
        return real()
    monkeypatch.setattr(os, "fork", counting)
    return forks


def split_cases():
    """Blocks of the four ensembles, the edge stacks of `layout_cases`, and
    a stack whose parts each send back more than a pipe holds: a third of
    3600 order-8 rows is 1200 * 8 * 8 = 76800 bytes, a pipe 65536."""
    cases = {name: np.array(stack) for name, stack in layout_cases().items()}
    idx = draw_subsets(40, 12, 3, 0, 30).astype(np.intp) - 1
    for name in ENSEMBLES:
        cases[name] = gather_submatrices(make_matrix(name, 40, 7), idx)
    big = np.random.default_rng(45).standard_normal((3600, 8, 8))
    cases["past-a-pipe"] = big + big.transpose(0, 2, 1)
    return cases


# pytest's process may run BLAS threads, which the split's own check would
# refuse; these tests fork it anyway, as the stacks they solve use no BLAS
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
class TestSplit:
    """A stack cut into row ranges, solved in this process and forked
    workers, must give the bytes of its serial solve."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_split_equals_serial(self, monkeypatch, parts):
        cases = split_cases()
        monkeypatch.setattr(linalg_mod, "_fork_cpus", lambda: 1)
        expected = {name: linalg_mod._symmetric_eigenvalues(stack.copy())
                    for name, stack in cases.items()}
        force_parts(monkeypatch, parts)
        forks = count_forks(monkeypatch)
        for name, stack in cases.items():
            got = linalg_mod._symmetric_eigenvalues(stack.copy())
            assert got.tobytes() == expected[name].tobytes(), name
        assert len(forks) == sum(min(len(stack), parts) - 1 for stack in cases.values())

    def test_every_path_splits(self, monkeypatch, tmp_path):
        # the complex embedding and the blocks of gram(M), wide or narrow,
        # reach the same solver
        complex_stack = np.array(stack_cases(tmp_path)["complex-file"])
        rng = np.random.default_rng(46)
        idx = np.array([rng.permutation(12)[:6] for _ in range(12)])
        wide, narrow = (row_block_solver(DenseMatrix(rng.standard_normal((12, cols))))
                        for cols in (9, 4))
        solves = [lambda: eigenvalues_hermitian_stack(complex_stack),
                  lambda: wide.solve(idx), lambda: narrow.solve(idx)]
        monkeypatch.setattr(linalg_mod, "_fork_cpus", lambda: 1)
        expected = [solve() for solve in solves]
        force_parts(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        for solve, serial in zip(solves, expected):
            assert solve().tobytes() == serial.tobytes()
        assert len(forks) == 6

    @pytest.mark.parametrize("failing", [0, 2, 5])
    def test_no_convergence_surfaces_from_any_part(self, monkeypatch, failing):
        # rows 0-1 are solved here, 2-3 and 4-5 in two workers
        monkeypatch.setattr(linalg_mod, "JACOBI_MAX_SWEEPS", 1)
        force_parts(monkeypatch, 3)
        stack = np.array([np.diag([1.0, 2.0])] * 6)
        stack[failing] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(RuntimeError, match="^eigensolver did not converge$"):
            linalg_mod._symmetric_eigenvalues(stack)

    @pytest.mark.parametrize("fault", ["exit", "error"])
    def test_worker_without_result(self, monkeypatch, fault):
        # a worker that leaves without writing, or fails with anything but
        # the solver's RuntimeError, is a RuntimeError here
        parent, real = os.getpid(), linalg_mod._jacobi

        def failing_in_workers(a, batch_last):
            if os.getpid() != parent:
                if fault == "exit":
                    os._exit(0)
                raise ValueError("worker fault")
            return real(a, batch_last)
        monkeypatch.setattr(linalg_mod, "_jacobi", failing_in_workers)
        force_parts(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="worker returned no result"):
            linalg_mod._symmetric_eigenvalues(np.array([np.eye(3)] * 4))

    def test_failed_fork_leaves_nothing_behind(self, monkeypatch, capsys):
        # the second of a split's two workers cannot start: the error
        # surfaces, no pipe stays open, and the first worker is reaped (the
        # autouse fixture checks that); the CLI exits 1 with the message
        force_parts(monkeypatch, 3)
        real, calls = os.fork, []

        def refusing_second():
            calls.append(1)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()
        monkeypatch.setattr(os, "fork", refusing_second)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as failure:
            linalg_mod._symmetric_eigenvalues(np.array([np.eye(3)] * 6))
        assert failure.value.errno == errno.EAGAIN
        assert sorted(os.listdir("/proc/self/fd")) == fds
        calls.clear()
        assert main(["estimate", "--ensemble", "random-gaussian", "--n", "8", "--k", "3",
                     "--samples", "20"]) == 1
        assert capsys.readouterr().err == f"subspec: {failure.value}\n"
        assert len(calls) == 2

    def test_second_thread_keeps_the_solve_serial(self, monkeypatch):
        # a process that runs another OS thread never forks, however large
        # the stack and however many CPUs it has
        stack = split_cases()["random-gaussian"]
        expected = linalg_mod._jacobi(stack.copy(), False)
        monkeypatch.setattr(linalg_mod, "_PART_MIN_WORK", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

        def no_fork():
            raise AssertionError("forked while a second thread runs")
        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert linalg_mod._fork_cpus() == 1
            got = linalg_mod._symmetric_eigenvalues(stack.copy())
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert got.tobytes() == expected.tobytes()


def bisection_cases():
    """Stacks of order 13 and above, which `_symmetric_eigenvalues` solves by
    Householder + bisection: the order-5 to 7 edge stacks of `layout_cases`
    (signed zeros, tiny pivots, rescales by 1e+-101, 1e+-150 and 1e+-200)
    as block-diagonal matrices of three copies, so that every eigenvalue is
    an exact triple tie, and the order-20 and order-91 stacks as they are."""
    cases = layout_cases()
    lifted = {name: np.kron(np.eye(3), np.array(cases[name]))
              for name in ("theta-zero", "tiny-pivots", "signed-zeros", "rescaled", "odd-order",
                           "mixed-sweeps")}
    # rows right of the diagonal whose squares are subnormal (left as they
    # are) or just above 2^-1000 (reflected), next to entries of 1e100
    rng = np.random.default_rng(48)
    tiny = np.repeat(np.diag(np.arange(1.0, 17.0))[None], 6, axis=0)
    for matrix, scale, coupling in zip(tiny, (1.0, 1e100, 1.0, 1e100, 1.0, 1e-100),
                                       (1e-160, 1e-160, 1e-150, 1e-150, 1e-140, 1e-230)):
        matrix *= scale
        rows = rng.permutation(16)[:5]
        matrix[rows, (rows + 3) % 16] = matrix[(rows + 3) % 16, rows] = coupling
    return lifted | {name: np.array(cases[name])
                     for name in ("below-order", "above-order", "past-one-reduction-block")
                     } | {"tiny-rows": tiny}


BISECTION_CASES = list(bisection_cases())
UNIT_ROUNDOFF = 2.0**-53


def exact_count_below(d, e, x):
    """How many eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e lie below the rational x: the sign changes
    along the leading principal minors of T - x I, in integers (Sylvester's
    law of inertia).  Past a zero minor x moves down by 2^-1100."""
    for y in (Fraction(x), Fraction(x) - Fraction(1, 2**1100)):
        exact = [Fraction(v) for v in (*d, *e)]
        scale = max(v.denominator for v in (*exact, y))
        shifted = [int(v * scale) - int(y * scale) for v in exact[:len(d)]]
        squares = [int(v * scale) ** 2 for v in exact[len(d):]]
        prev, minor, changes = 0, 1, 0
        for i, diagonal in enumerate(shifted):
            prev, minor = minor, diagonal * minor - (squares[i - 1] * prev if i else 0)
            if minor == 0:
                break
            changes += (minor < 0) != (prev < 0)
        else:
            return changes
    raise AssertionError("zero minor at x and just below it")


def gershgorin_norm(d, e):
    """max(|lower end|, |upper end|) of the Gershgorin bracket of (d, e)."""
    radius = np.abs(np.concatenate([[0.0], e])) + np.abs(np.concatenate([e, [0.0]]))
    return max(abs(float(np.min(d - radius))), abs(float(np.max(d + radius))))


class TestBisection:
    """Householder + bisection, the method from `_BISECTION_MIN_ORDER` on."""

    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_rows_do_not_depend_on_the_stack(self, case, monkeypatch):
        # alone, in the stack and in the reversed stack; no Jacobi call
        stack = bisection_cases()[case]
        assert stack.shape[1] >= linalg_mod._BISECTION_MIN_ORDER
        monkeypatch.setattr(linalg_mod, "_jacobi", None)
        got = linalg_mod._symmetric_eigenvalues(stack.copy())
        reverse = linalg_mod._symmetric_eigenvalues(stack[::-1].copy())[::-1]
        assert got.tobytes() == reverse.tobytes()
        for matrix, row in zip(stack, got):
            assert linalg_mod._symmetric_eigenvalues(matrix[None].copy())[0].tobytes() == \
                row.tobytes()

    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_within_the_error_bound_of_lapack(self, case):
        # the module docstring's bound, (4 n^2 + 9) u |A|_F, for each of the
        # two solvers: LAPACK's reduction and tridiagonal solve are of the
        # same class
        stack = bisection_cases()[case]
        n = stack.shape[1]
        got = linalg_mod._symmetric_eigenvalues(stack.copy())
        amax = np.abs(stack).max(axis=(1, 2))
        scale = np.where(amax > 0, amax, 1.0)
        frobenius = scale * np.sqrt(np.sum((stack / scale[:, None, None]) ** 2, axis=(1, 2)))
        bound = 2 * (4 * n * n + 9) * UNIT_ROUNDOFF * frobenius
        assert np.all(np.abs(got - np.linalg.eigvalsh(stack)).max(axis=1) <= bound)

    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_sturm_certificate(self, case):
        # the exact count of T's eigenvalues below lambda_i - tol is at most
        # i, and below lambda_i + tol more than i, with tol the bracket's
        # half-width and the floating counts' backward error (docstring)
        stack = bisection_cases()[case].copy()
        stack /= linalg_mod._rescale_factors(np.abs(stack).max(axis=(1, 2)))[:, None, None]
        d, e = linalg_mod._tridiagonal(stack)
        self.check_certificate(d, e, linalg_mod._bisection(d, e))

    @staticmethod
    def check_certificate(d, e, values):
        n = d.shape[1]
        for di, ei, row in zip(d, e, values):
            pivmin = np.finfo(np.float64).tiny * max(1.0, float(np.max(ei * ei, initial=0.0)))
            tol = Fraction(8 * UNIT_ROUNDOFF * gershgorin_norm(di, ei) + 4 * n * pivmin)
            for i, value in enumerate(row):
                assert exact_count_below(di, ei, Fraction(value) - tol) <= i
                assert exact_count_below(di, ei, Fraction(value) + tol) >= i + 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_and_empty_stacks(self, n):
        assert linalg_mod._bisection(np.zeros((0, n)), np.zeros((0, n - 1))).shape == (0, n)
        rng = np.random.default_rng(47 + n)
        d = np.concatenate([rng.standard_normal((6, n)), np.zeros((1, n)), np.ones((1, n))])
        e = np.concatenate([rng.standard_normal((6, n - 1)), np.zeros((2, n - 1))])
        got = linalg_mod._bisection(d, e)
        assert got.shape == (8, n)
        for row, alone in zip(got, (linalg_mod._bisection(d[i:i + 1], e[i:i + 1])
                                    for i in range(8))):
            assert row.tobytes() == alone[0].tobytes()
        assert got[6].tolist() == [0.0] * n
        self.check_certificate(d, e, got)

    @pytest.mark.parametrize("n", [12, 13])
    def test_eigenvalue_past_the_float_range(self, n):
        # 1e308 * n is no float: either method gives inf, silently, and the
        # spectrum refuses it (a warning would fail this test)
        with pytest.raises(ValueError, match="must be finite"):
            eigenvalues_hermitian(dm(np.full((n, n), 1e308)))

    def test_method_by_order(self, monkeypatch):
        # Jacobi below the crossover, Householder + bisection from it on,
        # whatever the stack's size
        calls = []
        monkeypatch.setattr(linalg_mod, "_fork_cpus", lambda: 1)
        monkeypatch.setattr(linalg_mod, "_jacobi", lambda a, batch_last: (
            calls.append(("jacobi", a.shape[1])), np.zeros(a.shape[:2]))[1])
        monkeypatch.setattr(linalg_mod, "_bisection", lambda d, e: (
            calls.append(("bisection", d.shape[1])), np.zeros(d.shape))[1])
        crossover = linalg_mod._BISECTION_MIN_ORDER
        for count in (1, 250):
            for n in (crossover - 1, crossover, 64):
                linalg_mod._symmetric_eigenvalues(np.zeros((count, n, n)))
        expected = [("jacobi", crossover - 1), ("bisection", crossover), ("bisection", 64)]
        assert calls == expected * 2


def tridiagonals(stack):
    """(d, e) of a stack, rescaled and reduced as `_symmetric_eigenvalues`
    hands it to `_bisection`."""
    stack = np.array(stack, dtype=np.float64)
    stack /= linalg_mod._rescale_factors(np.abs(stack).max(axis=(1, 2)))[:, None, None]
    return tuple(part.copy() for part in linalg_mod._tridiagonal(stack))


def ensemble_stack(name, n, count):
    """`count` order-n principal blocks of the named ensemble's matrix of
    order 2n + 10, at rows drawn from a seeded generator."""
    m = make_matrix(name, 2 * n + 10, n).data
    idx = np.sort(np.random.default_rng(n * count).random((count, m.shape[0])).argsort(axis=1)
                  [:, :n], axis=1)
    return m[idx[:, :, None], idx[:, None, :]]


ORACLE_STACKS = BISECTION_CASES + [f"{name}-{n}-{count}" for name in ENSEMBLES
                                   for n in (13, 20, 32, 64) for count in (1, 25, 250)]


def oracle_stack(case):
    if case in BISECTION_CASES:
        return bisection_cases()[case]
    name, n, count = case.rsplit("-", 2)
    return ensemble_stack(name, int(n), int(count))


def width(d, e):
    """The half-width of `_bisection`'s window about each hint of (d, e)."""
    return 4.2 * d.shape[1] * np.finfo(np.float64).eps * np.array(
        [gershgorin_norm(di, ei) for di, ei in zip(d, e)])[:, None]


def counts_along(d, e, x):
    """`_sturm_counts` of the one tridiagonal (d, e) at every point of x."""
    e2 = np.square(e)[:, None]
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(e2.max(initial=0.0)))
    return linalg_mod._sturm_counts(d[:, None], e2, pivmin, x,
                                    np.empty((2, len(d), len(x))))


class TestVerifiedHint:
    """`_bisection` counts only at midpoints LAPACK's hint cannot decide; its
    eigenvalues are those of the former 53-step bisection, whatever the hint."""

    @pytest.mark.parametrize("case", ORACLE_STACKS)
    def test_matches_the_former_bisection_under_any_hint(self, case, monkeypatch):
        d, e = tridiagonals(oracle_stack(case))
        expected = bisection(d, e).tobytes()
        lapack = linalg_mod._eigenvalue_hint
        signs = np.where(np.arange(d.shape[1]) % 2, np.inf, -np.inf)
        for hint in (lapack, lambda d, e: np.full(d.shape, np.nan),
                     lambda d, e: np.broadcast_to(signs, d.shape),
                     lambda d, e: lapack(d, e)[::-1],
                     lambda d, e: lapack(d, e) * (1 + 1e-9),
                     lambda d, e: np.zeros(d.shape)):
            monkeypatch.setattr(linalg_mod, "_eigenvalue_hint", hint)
            assert linalg_mod._bisection(d, e).tobytes() == expected
        monkeypatch.setattr(linalg_mod, "_eigenvalue_hint", lapack)

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        assert np.isnan(lapack(d, e)).all()
        assert linalg_mod._bisection(d, e).tobytes() == expected

    def test_zero_over_zero_next_to_a_tiny_pivot(self):
        # both brackets are symmetric, so the first midpoint is 0 in every
        # lane: the first matrix's first pivot there is 0 and its next
        # off-diagonal 0, so its unclamped pass divides 0 by 0; the second's
        # is 1e-310, below pivmin, which the clamp turns negative
        d = np.tile([0.0] + [v for i in range(1, 7) for v in (i, -i)], (2, 1))
        d[1, 0] = 1e-310
        e = np.zeros((2, 12))
        assert [counts_along(di, ei, np.zeros(1))[0] for di, ei in zip(d, e)] == [7, 7]
        assert linalg_mod._bisection(d, e).tobytes() == bisection(d, e).tobytes()

    @pytest.mark.parametrize("case", BISECTION_CASES)
    def test_counts_rise_with_x(self, case):
        # the float count is non-decreasing in x (module docstring), at and
        # next to every eigenvalue and every end of a window
        d, e = tridiagonals(bisection_cases()[case])
        hint, half = linalg_mod._eigenvalue_hint(d, e), width(d, e)
        for di, ei, points in zip(d, e, np.concatenate(
                [linalg_mod._bisection(d, e), hint - half, hint + half], axis=1)):
            x = np.unique(np.concatenate([points, np.nextafter(points, -np.inf),
                                          np.nextafter(points, np.inf)]))
            assert np.all(np.diff(counts_along(di, ei, x)) >= 0)

    def test_hint_is_lapacks_on_the_tridiagonal(self):
        d, e = tridiagonals(ensemble_stack("random-gaussian", 20, 5))
        dense = [np.diag(di) + np.diag(ei, 1) + np.diag(ei, -1) for di, ei in zip(d, e)]
        assert linalg_mod._eigenvalue_hint(d, e).tobytes() == \
            np.linalg.eigvalsh(np.array(dense)).tobytes()


class TestRotationRounds:
    def test_matches_the_loop_schedule(self):
        for n in [*range(1, 100), 256, 257, 720]:
            rounds = linalg_mod._rotation_rounds(n)
            expected = rotation_rounds_loop(n)
            assert len(rounds) == len(expected)
            for (p, q), (p_ref, q_ref) in zip(rounds, expected):
                assert p.dtype == q.dtype == np.intp
                assert p.tolist() == p_ref.tolist() and q.tolist() == q_ref.tolist()
                assert not p.flags.writeable and not q.flags.writeable

    def test_rounds_cover_every_pair_once(self):
        for n in (7, 8):
            pairs = [(int(a), int(b)) for p, q in linalg_mod._rotation_rounds(n)
                     for a, b in zip(p, q)]
            assert sorted(pairs) == list(itertools.combinations(range(n), 2))


def nudged_rw_covariance():
    """rw_covariance(9) with entry (0, 5) moved by 1e-13 relative: Hermitian
    within the guard's tolerance, but not equal to its transpose."""
    a = rw_covariance(9).data.copy()
    a[0, 5] *= 1.0 + 1e-13
    return DenseMatrix(a)


class TestPrincipalBlockSolver:
    @pytest.mark.parametrize("case", ["nudged", "signed-zero"])
    def test_inexact_matrices_take_the_general_path(self, case):
        data = (nudged_rw_covariance().data if case == "nudged" else
                signed_zero_pair(random_symmetric(9, 5, "gaussian").data))
        m = DenseMatrix(data)
        assert principal_block_solver(m).path == "hermitian"
        subsets = np.array(list(itertools.combinations(range(1, 10), 4)))
        table = solve_subsets(m, subsets, "eigen")
        for row, s in zip(table, subsets - 1):
            expected = per_matrix_eigenvalues(data[np.ix_(s, s)])
            assert row.tobytes() == expected.tobytes()

    def test_exactly_symmetric_blocks_skip_the_guard(self, monkeypatch):
        shapes = []
        real = linalg_mod._require_hermitian_stack

        def counting(stack):
            shapes.append(stack.shape)
            return real(stack)

        monkeypatch.setattr(linalg_mod, "_require_hermitian_stack", counting)
        monkeypatch.setattr("subspec.sampling.STACK_BYTES", 1000)
        subsets = np.array(list(itertools.combinations(range(1, 10), 4)))
        exact = solve_subsets(rw_covariance(9), subsets, "eigen")
        assert shapes == []
        nudged = solve_subsets(nudged_rw_covariance(), subsets, "eigen")
        # the whole matrix once, then every stack of its blocks
        assert shapes[0] == (1, 9, 9)
        assert len(shapes) > 2 and all(shape[1:] == (4, 4) for shape in shapes[1:])
        assert sum(shape[0] for shape in shapes[1:]) == len(subsets)
        # blocks that miss entry (0, 5) are the same either way
        untouched = ~((subsets == 1).any(axis=1) & (subsets == 6).any(axis=1))
        assert exact[untouched].tobytes() == nudged[untouched].tobytes()

    def test_rejects_non_square_and_non_hermitian(self):
        with pytest.raises(ValueError, match="not square"):
            principal_block_solver(dm(np.ones((3, 4))))
        with pytest.raises(ValueError, match="not Hermitian"):
            principal_block_solver(dm([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            principal_block_solver(DenseMatrix(np.array([[1.0, 1j], [1j, 1.0]])))


def gathered_block_eigenvalues(m, idx):
    """The path the diagonal one replaces: the batched Jacobi solver over the
    gathered k x k blocks, kept as the oracle for it."""
    return linalg_mod._jacobi(gather_submatrices(m, idx), False)


def diagonal_cases(tmp_path):
    """(name, diagonal M, (B, k) 0-based index rows)"""
    rng = np.random.default_rng(61)
    # a third each of tiny, moderate and huge magnitudes, of either sign,
    # so that blocks rescale up, not at all, and down
    exponents = np.concatenate([rng.uniform(-300, -100, 20), rng.uniform(-99, 99, 20),
                                rng.uniform(101, 300, 20)])
    wide = rng.choice([-1.0, 1.0], 60) * 10.0 ** exponents
    bands = [rng.permutation(20)[:5] + 20 * band for band in range(3) for _ in range(10)]
    mixed = [rng.permutation(60)[:5] for _ in range(30)]
    signed = rng.choice([-0.0, 0.0, -3.5, 2.0, 1e-200], 12)
    signed[:4] = [-0.0, 0.0, -0.0, 0.0]
    file_data = np.diag(rng.choice([-1.0, 0.0, 2.0], 9))
    file_data[0, 1], file_data[3, 7], file_data[8, 2] = -0.0, -0.0, -0.0
    save_matrix(DenseMatrix(file_data), tmp_path / "d.txt")
    ties = rng.choice([-1.0, 0.0, 2.0], 16)
    return [
        ("wide", DenseMatrix(np.diag(wide)), np.array(bands + mixed)),
        ("signed-zero", DenseMatrix(np.diag(signed)),
         np.array([[0, 1, 2, 3], [1, 0, 3, 2], [3, 2, 1, 0], [0, 1, 4, 5]]
                  + [rng.permutation(12)[:4] for _ in range(40)])),
        ("file-negative-zero", load_matrix(tmp_path / "d.txt"),
         np.array(list(itertools.combinations(range(9), 4)))),
        ("ties-k1", DenseMatrix(np.diag(ties)), np.arange(16)[:, None]),
        ("ties-kn", DenseMatrix(np.diag(ties)),
         np.array([np.arange(16), rng.permutation(16), np.arange(16)[::-1]])),
        ("ties", DenseMatrix(np.diag(ties)), np.array([rng.permutation(16)[:7]
                                                       for _ in range(50)])),
    ]


class TestDiagonalBlocks:
    def test_matches_gathered_solve(self, tmp_path):
        for name, m, idx in diagonal_cases(tmp_path):
            blocks = principal_block_solver(m)
            assert blocks.path == "diagonal", name
            expected = gathered_block_eigenvalues(m, idx)
            assert blocks.solve(idx).tobytes() == expected.tobytes(), name
            # and through the stacks, one row at a time
            table = solve_subsets(m, idx + 1, "eigen")
            assert table.tobytes() == expected.tobytes(), name

    def test_cases_rescale_both_ways(self, tmp_path):
        _, m, idx = diagonal_cases(tmp_path)[0]
        amax = np.abs(m.data.diagonal()[idx]).max(axis=1)
        factors = linalg_mod._rescale_factors(amax)
        assert np.any(factors > 1e100) and np.any(factors < 1e-100)
        assert np.any(factors == 1.0)

    def test_negative_zero_file_matches_the_general_path(self, tmp_path):
        # the file matrix differs from its transpose in the sign of its
        # zeros, which took it down the guarded path before
        _, m, idx = diagonal_cases(tmp_path)[2]
        bits = m.data.view(np.int64)
        assert not np.array_equal(bits, bits.T)
        expected = eigenvalues_hermitian_stack(gather_submatrices(m, idx))
        assert principal_block_solver(m).solve(idx).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["one-off-diagonal", "symmetric-pair", "complex"])
    def test_near_diagonal_and_complex_take_the_general_path(self, case):
        d = np.array([3.0, -1.0, 0.0, 2.5, 1.0, -4.0])
        idx = np.array(list(itertools.combinations(range(6), 3)))
        data = np.diag(d)
        if case == "one-off-diagonal":
            # within the guard's tolerance, but not symmetric
            data[1, 4] = 1e-12
            path, solve = "hermitian", eigenvalues_hermitian_stack
        elif case == "symmetric-pair":
            data[1, 4] = data[4, 1] = 0.5
            path, solve = "symmetric", linalg_mod._symmetric_eigenvalues
        else:
            data = data.astype(np.complex128)
            path, solve = "hermitian", eigenvalues_hermitian_stack
        m = DenseMatrix(data)
        blocks = principal_block_solver(m)
        assert blocks.path == path
        assert blocks.row_bytes(3) == 3 * 3 * m.data.itemsize
        expected = solve(gather_submatrices(m, idx))
        assert blocks.solve(idx).tobytes() == expected.tobytes()


class TestGram:
    def test_row_vector(self):
        g = gram(dm([[1.0, 2.0, 2.0]]))
        assert g.data.tolist() == [[9.0]]

    def test_identity(self):
        g = gram(dm(np.eye(2)))
        assert g.data.tolist() == np.eye(2).tolist()

    def test_orthogonal_rows(self):
        g = gram(dm([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        assert g.data.tolist() == [[2.0, 0.0], [0.0, 1.0]]

    def test_complex_is_hermitian(self):
        rng = np.random.default_rng(8)
        a = DenseMatrix(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        assert is_hermitian(gram(a), 0.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_the_stacked_product(self, field):
        # the former (1, rows, cols) stack product and out-of-place halving
        rng = np.random.default_rng(9)
        for shape in ((3, 5), (40, 7), (100, 100), (64, 300)):
            a = rng.standard_normal(shape)
            if field == "complex":
                a = a + 1j * rng.standard_normal(shape)
            g = a[None] @ a[None].conj().transpose(0, 2, 1)
            expected = 0.5 * (g + g.conj().transpose(0, 2, 1))
            assert gram(DenseMatrix(a)).data.tobytes() == expected[0].tobytes()

    def test_real_product_needs_no_second_matrix(self):
        # a real product that is bitwise symmetric is kept as it is: forming
        # G peaks near its own size, not at twice it for the symmetrizing sum
        a = DenseMatrix(np.random.default_rng(10).standard_normal((512, 64)))
        tracemalloc.start()
        try:
            g = gram(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.data.tobytes() == (a.data @ a.data.T).tobytes()
        assert peak < 1.25 * g.data.nbytes


def row_block_cases():
    """(name, M, k) for singular mode: square, wide, narrow (fewer columns
    than k), complex and diagonal input, an order-200 Gaussian, and rows
    scaled far up and down."""
    rng = np.random.default_rng(71)
    narrow = rng.standard_normal((10, 3))
    cases = [("square", DenseMatrix(rng.standard_normal((30, 30))), 5),
             ("wide", DenseMatrix(rng.standard_normal((20, 50))), 6),
             ("narrow-k4", DenseMatrix(narrow), 4), ("narrow-k5", DenseMatrix(narrow), 5),
             ("complex", DenseMatrix(rng.standard_normal((12, 15))
                                     + 1j * rng.standard_normal((12, 15))), 5),
             ("diagonal", DenseMatrix(np.diag(rng.standard_normal(20))), 5),
             ("rw-covariance", rw_covariance(40), 8),
             ("gaussian-200", DenseMatrix(rng.standard_normal((200, 200))), 20)]
    for scale in (1e120, 1e-120):
        data = rng.standard_normal((30, 40))
        data[rng.permutation(30)[:10]] *= scale
        cases.append((f"rows-{scale:g}", DenseMatrix(data), 6))
    return cases


class TestRowBlocks:
    """Singular mode solves the principal blocks of gram(M)."""

    @pytest.mark.parametrize("case", [name for name, _, _ in row_block_cases()])
    def test_matches_the_former_row_block_path(self, case):
        # within 1e-13 of each block's largest singular value
        _, m, k = next(c for c in row_block_cases() if c[0] == case)
        idx = draw_subsets(m.rows, k, 5, 0, 60).astype(np.intp) - 1
        expected = row_block_singular_values(m, idx)
        got = solve_subsets(m, idx + 1, "singular")
        assert got.shape == expected.shape == (60, min(k, m.cols))
        assert np.all(np.abs(got - expected) <= 1e-13 * expected[:, -1:])

    @pytest.mark.parametrize("shape, k", [((9, 9), 4), ((8, 11), 3), ((12, 30), 5),
                                          ((10, 3), 4)])
    def test_table_is_the_roots_of_the_gram_table(self, shape, k):
        # bit for bit, in the normal range; narrow input keeps the cols
        # largest eigenvalues of each k x k block
        m = DenseMatrix(np.random.default_rng(72).standard_normal(shape))
        vals = subset_spectra(gram(m), k)[:, max(0, k - m.cols):]
        roots = np.sqrt(np.where(vals < 0, 0.0, vals))
        assert subset_spectra(m, k, "singular").tobytes() == roots.tobytes()

    def test_gram_picks_the_block_path(self):
        rng = np.random.default_rng(73)
        assert row_block_solver(rw_covariance(6)).path == "symmetric"
        assert row_block_solver(DenseMatrix(np.diag([3.0, -1.0, 0.0]))).path == "diagonal"
        assert row_block_solver(DenseMatrix(rng.standard_normal((4, 2)) + 1j)).path == \
            "hermitian"
        # budgeted like eigen blocks: k x k entries, not k x cols
        assert row_block_solver(DenseMatrix(rng.standard_normal((5, 40)))).row_bytes(3) == 72

    @pytest.mark.parametrize("scale", [2.0**400, 2.0**-400])
    def test_rescale_is_a_power_of_two(self, scale):
        # M scaled out of range by two powers of two is rescaled to the same
        # matrix, so the tables differ by exactly the ratio
        m = random_symmetric(9, 2, "gaussian").data
        idx = np.array(list(itertools.combinations(range(9), 4)))
        one = row_block_solver(DenseMatrix(m * scale)).solve(idx)
        two = row_block_solver(DenseMatrix(m * (scale * 2.0**60))).solve(idx)
        assert (two * 2.0**-60).tobytes() == one.tobytes()
        expected = row_block_singular_values(DenseMatrix(m * scale), idx)
        assert np.all(np.abs(one - expected) <= 1e-13 * expected[:, -1:])

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    def test_refuses_rows_below_the_gram_scale(self, scale, tmp_path, capsys, monkeypatch):
        # one Gram matrix cannot hold rows 2^-480 below the largest: the
        # library raises before any draw, and the CLI exits 1 with no output
        data = np.random.default_rng(74).standard_normal((8, 6))
        data[[1, 4]] *= scale
        m = DenseMatrix(data)
        draws = []
        monkeypatch.setattr("subspec.montecarlo.draw_subsets",
                            lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="too small for singular mode"):
            estimate_F(m, 3, "singular", 10, 1)
        assert draws == []
        with pytest.raises(ValueError, match="too small for singular mode"):
            row_block_solver(m)
        save_matrix(m, tmp_path / "m.txt")
        for command in (["oracle"], ["estimate", "--samples", "10"],
                        ["pair", "--pairs", "3", "--exclude-top", "0"]):
            out = tmp_path / "out.json"
            assert main([*command, "--matrix", str(tmp_path / "m.txt"), "--k", "3",
                         "--mode", "singular", "--out", str(out)]) == 1
            assert "too small for singular mode" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_rows_and_matrix(self):
        data = np.random.default_rng(75).standard_normal((6, 4))
        data[2] = 0.0
        idx = np.array([[0, 2, 3], [1, 2, 5]])
        got = row_block_solver(DenseMatrix(data)).solve(idx)
        expected = row_block_singular_values(DenseMatrix(data), idx)
        assert np.all(np.abs(got - expected) <= 1e-13 * expected[:, -1:])
        assert row_block_solver(DenseMatrix(np.zeros((4, 3)))).solve(idx[:, :2]).tolist() == \
            [[0.0, 0.0], [0.0, 0.0]]


class TestEmptyStacks:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_eigenvalues(self, dtype):
        for n in (1, 2, 3):
            out = eigenvalues_hermitian_stack(np.zeros((0, n, n), dtype=dtype))
            assert out.shape == (0, n) and out.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_gram_and_rank(self, dtype):
        # no index row on the singular path, for wide, narrow and square M
        for k, cols in ((2, 5), (5, 2), (3, 3)):
            solver = row_block_solver(DenseMatrix(np.ones((6, cols), dtype=dtype)))
            assert solver.solve(np.zeros((0, k), dtype=np.intp)).shape == (0, min(k, cols))


class TestSingularValues:
    def test_identity(self):
        assert singular_values(dm(np.eye(3))).values.tolist() == [1.0, 1.0, 1.0]

    def test_diagonal(self):
        assert singular_values(dm([[3.0, 0.0], [0.0, 4.0]])).values.tolist() == [3.0, 4.0]

    def test_rank_one_all_ones(self):
        # Gram of [[1,1],[1,1]] is [[2,2],[2,2]] with eigenvalues {0, 4}
        sv = singular_values(dm([[1.0, 1.0], [1.0, 1.0]])).values
        np.testing.assert_allclose(sv, [0.0, 2.0], atol=1e-12)

    def test_wide_and_tall_agree(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 7))
        wide = singular_values(dm(a)).values
        tall = singular_values(dm(a.T)).values
        np.testing.assert_allclose(wide, tall, atol=1e-10 * np.max(np.abs(a)))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 6))
        sv = singular_values(dm(a)).values
        shuffled = singular_values(dm(a[rng.permutation(4), :])).values
        np.testing.assert_allclose(sv, shuffled, atol=1e-8 * np.max(np.abs(a)))

    def test_unimodular_row_scaling(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 6)).astype(complex)
        sv = singular_values(DenseMatrix(a)).values
        b = a.copy()
        b[2, :] *= np.exp(1j * 0.7)
        scaled = singular_values(DenseMatrix(b)).values
        np.testing.assert_allclose(sv, scaled, atol=1e-8 * np.max(np.abs(a)))

    def test_hermitian_absolute_eigenvalues(self):
        rng = np.random.default_rng(12)
        m = random_symmetric_np(rng, 6)
        sv = singular_values(m).values
        absev = np.sort(np.abs(eigenvalues_hermitian(m).values))
        np.testing.assert_allclose(sv, absev, atol=1e-8 * np.abs(m.data).max())

    def test_zero_matrix(self):
        sv = singular_values(dm(np.zeros((3, 5)))).values
        assert sv.tolist() == [0.0, 0.0, 0.0]

    def test_extreme_scales(self):
        # the Gram product of these would underflow to 0 or overflow to inf
        tiny = singular_values(dm(1e-300 * np.eye(3))).values
        np.testing.assert_allclose(tiny, [1e-300] * 3, rtol=1e-12)
        huge = singular_values(dm(1e200 * np.eye(3))).values
        np.testing.assert_allclose(huge, [1e200] * 3, rtol=1e-12)
        wide = singular_values(dm(1e-250 * np.array([[3.0, 0.0, 4.0], [0.0, 2.0, 0.0]])))
        np.testing.assert_allclose(wide.values, [2e-250, 5e-250], rtol=1e-12)

    def test_refuses_rows_below_the_gram_scale(self):
        # singular mode's rule: one Gram matrix cannot hold a row 2^-480
        # below the largest
        a = dm([[1.0, 0.0], [0.0, 1e-200]])
        with pytest.raises(ValueError, match="too small for singular mode"):
            singular_values(a)
        with pytest.raises(ValueError, match="too small for singular mode"):
            numerical_rank(a, 1e-12)


class TestNumericalRank:
    def test_zero(self):
        assert numerical_rank(dm(np.zeros((4, 4))), 1e-12) == 0

    def test_identity(self):
        assert numerical_rank(dm(np.eye(4)), 1e-12) == 4

    def test_extreme_scales(self):
        assert numerical_rank(dm(1e-300 * np.eye(3)), 1e-12) == 3
        assert numerical_rank(dm(1e200 * np.eye(3)), 1e-12) == 3

    def test_outer_product(self):
        v = np.array([1.0, 2.0, 3.0])
        assert numerical_rank(dm(np.outer(v, v)), 1e-12) == 1

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            numerical_rank(dm(np.eye(2)), -1.0)

    def test_known_ranks(self):
        # zero, full-rank, low-rank, rectangular and complex matrices
        rng = np.random.default_rng(19)
        u = rng.standard_normal((4, 2))
        square = [np.zeros((4, 4)), np.eye(4), u @ u.T, u @ rng.standard_normal((2, 4)),
                  1e-3 * np.eye(4), rng.standard_normal((4, 4))]
        wide = [rng.standard_normal((3, 5)), np.zeros((3, 5)),
                np.outer(rng.standard_normal(3), rng.standard_normal(5))]
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cplx = [z, np.outer(z[0], z[1].conj()), np.zeros((3, 3), dtype=complex)]
        for group, expected in ((square, [0, 4, 2, 2, 4, 4]), (wide, [3, 0, 1]),
                                ([a.T for a in wide], [3, 0, 1]), (cplx, [3, 1, 0])):
            assert [numerical_rank(dm(a), 1e-7) for a in group] == expected


class TestSpectrum:
    def test_must_be_sorted(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([2.0, 1.0]))

    def test_nonempty(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([]))
