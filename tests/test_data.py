"""Loader, generator, and split behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralr.data import (
    ColumnSparseMatrix,
    LTISystemSpec,
    SplitSpec,
    TripletFormatError,
    antidiag_counts,
    antidiag_means,
    antidiag_spread,
    antidiag_sums,
    hankel_matrix,
    load_triplets,
    save_triplets,
    split,
    synth_completion,
    synth_hankel,
)


class TestColumnSparseMatrix:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            ColumnSparseMatrix(3, 1, [0, 2], [2, 1], [1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ColumnSparseMatrix(3, 1, [0, 1], [5], [1.0])

    def test_from_triplets_rejects_column_out_of_range(self):
        with pytest.raises(ValueError, match="column index 5"):
            ColumnSparseMatrix.from_triplets([0, 1, 0], [0, 5, -1], [1.0, 2.0, 3.0], 2, 2)
        with pytest.raises(ValueError, match="column index -1"):
            ColumnSparseMatrix.from_triplets([0, 0], [0, -1], [1.0, 3.0], 2, 2)

    def test_from_triplets_rejects_length_mismatch(self):
        for rows, cols, vals in (([0, 1], [0, 1], [1.0]), ([0], [0, 1], [1.0, 2.0]),
                                 ([0, 1], [0], [1.0, 2.0])):
            with pytest.raises(ValueError, match="differ in length"):
                ColumnSparseMatrix.from_triplets(rows, cols, vals, 2, 2)

    def test_nnz_and_dense_round_trip(self):
        m = ColumnSparseMatrix.from_triplets([0, 1, 2], [0, 0, 1], [3.0, 1.0, -2.0], 3, 2)
        assert m.nnz == 3
        dense = m.to_dense()
        assert dense[0, 0] == 3.0 and dense[2, 1] == -2.0
        assert np.count_nonzero(dense) == 3


non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


class TestNonFiniteRejected:
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000), non_finite)
    def test_column_named(self, d, t, seed, bad):
        rng = np.random.default_rng(seed)
        flat = rng.permutation(d * t)[:max(1, d * t // 2)]
        rows, cols = np.unravel_index(flat, (d, t))
        vals = rng.standard_normal(flat.size)
        k = int(rng.integers(flat.size))
        vals[k] = bad
        with pytest.raises(ValueError, match=f"column {cols[k]}: non-finite"):
            ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.integers(1, 8), st.integers(0, 10_000),
           st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]))
    def test_triplet_file_line_named(self, n_lines, seed, text):
        import tempfile
        rng = np.random.default_rng(seed)
        k = int(rng.integers(n_lines))
        values = [f"{v:.17g}" for v in rng.standard_normal(n_lines)]
        values[k] = text
        lines = [f"{i + 1} 1 {v}" for i, v in enumerate(values)]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.txt"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            with pytest.raises(TripletFormatError, match=f"line {k + 1}: non-finite"):
                load_triplets(path, d=n_lines, t=1)


@st.composite
def sparse_patterns(draw):
    """Random d x t triplets, optionally with empty leading, middle and
    trailing columns, in shuffled order."""
    d, t = draw(st.integers(1, 6)), draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    counts = rng.integers(0, d + 1, size=t)
    for pos, flag in ((0, st.booleans()), (t - 1, st.booleans()),
                      (draw(st.integers(1, t - 2)), st.booleans())):
        if draw(flag):
            counts[pos] = 0
    rows = np.concatenate([rng.permutation(d)[:n] for n in counts]).astype(np.int64)
    cols = np.repeat(np.arange(t), counts)
    vals = rng.standard_normal(rows.size)
    order = rng.permutation(rows.size)
    return rows[order], cols[order], vals[order], d, t


class TestCSCLayout:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(sparse_patterns())
    def test_round_trip(self, pattern):
        rows, cols, vals, d, t = pattern
        m = ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)
        order = np.lexsort((rows, cols))
        back = m.to_coo()
        for got, want in zip(back, (rows[order], cols[order], vals[order])):
            assert np.array_equal(got, want)
        dense = np.zeros((d, t))
        dense[rows, cols] = vals
        assert np.array_equal(m.to_dense(), dense)
        assert np.array_equal(m.to_scipy().toarray(), dense)
        for t_idx in range(t):
            idx, val = m.column(t_idx)
            assert np.array_equal(idx, back[0][back[1] == t_idx])
            assert np.array_equal(val, back[2][back[1] == t_idx])

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(sparse_patterns(), st.sampled_from(["descending", "row", "value"]),
           st.integers(0, 10_000))
    def test_bad_entry_names_its_column(self, pattern, fault, pick):
        rows, cols, vals, d, t = pattern
        m = ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)
        sizes = np.diff(m.indptr)
        need = 2 if fault == "descending" else 1
        candidates = np.flatnonzero(sizes >= need)
        if candidates.size == 0:
            return
        k = int(candidates[pick % candidates.size])
        lo = m.indptr[k]
        indices, values = m.indices.copy(), m.values.copy()
        if fault == "descending":
            indices[lo], indices[lo + 1] = indices[lo + 1], indices[lo]
            message = "indices must be strictly increasing"
        elif fault == "row":
            indices[lo + pick % sizes[k]] = d if pick % 2 else -1
            message = "row index out of range"
        else:
            values[lo + pick % sizes[k]] = np.nan
            message = "non-finite value"
        with pytest.raises(ValueError, match=f"column {k}: {message}"):
            ColumnSparseMatrix(d, t, m.indptr, indices, values)


class TestTripletIO:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1 3.5\n2 1 1.0\n")
        m = load_triplets(path, d=2, t=1)
        idx, val = m.column(0)
        assert list(idx) == [0, 1]
        assert list(val) == [3.5, 1.0]

    def test_header_line_sets_dims(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("%%4 3 1\n2 3 -1.5\n")
        m = load_triplets(path)
        assert (m.d, m.t) == (4, 3)
        assert m.to_dense()[1, 2] == -1.5

    def test_empty_file_with_dims(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("% nothing here\n")
        m = load_triplets(path, d=3, t=2)
        assert m.nnz == 0 and (m.d, m.t) == (3, 2)

    def test_empty_file_without_dims_errors(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        with pytest.raises(TripletFormatError):
            load_triplets(path)

    def test_duplicate_reports_position(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1 1.0\n1 1 2.0\n")
        with pytest.raises(TripletFormatError, match="duplicate"):
            load_triplets(path, d=2, t=2)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1 1.0\n2 x 2.0\n")
        with pytest.raises(TripletFormatError, match="line 2"):
            load_triplets(path, d=2, t=2)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("5 1 1.0\n")
        with pytest.raises(TripletFormatError):
            load_triplets(path, d=2, t=2)

    def test_comma_separated_accepted(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1,2,0.25\n")
        m = load_triplets(path, d=1, t=2)
        assert m.to_dense()[0, 1] == 0.25

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = synth_completion(7, 9, rank=2, sample_fraction=0.4, seed=3).train
        path = tmp_path / "m.txt"
        save_triplets(path, m)
        back = load_triplets(path)
        assert (back.d, back.t) == (m.d, m.t)
        assert np.array_equal(back.indptr, m.indptr)
        assert np.array_equal(back.indices, m.indices)
        assert np.array_equal(back.values, m.values)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_round_trip_property(self, seed):
        import tempfile
        rng = np.random.default_rng(seed)
        d, t = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        k = int(rng.integers(0, d * t + 1))
        flat = rng.permutation(d * t)[:k]
        rows, cols = np.unravel_index(flat, (d, t))
        vals = rng.standard_normal(k)
        m = ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.txt"
            save_triplets(path, m)
            back = load_triplets(path)
        assert back.nnz == m.nnz
        assert np.array_equal(back.indptr, m.indptr)
        assert np.array_equal(back.indices, m.indices)
        assert np.array_equal(back.values, m.values)


class TestSynthCompletion:
    def test_full_sampling_zero_noise_reproduces_truth(self):
        out = synth_completion(5, 5, rank=5, sample_fraction=1.0, seed=0)
        assert out.train.nnz == 25 and out.test.nnz == 0
        assert np.allclose(out.train.to_dense(), out.truth.dense())

    def test_underdetermined_warns(self):
        with pytest.warns(UserWarning, match="underdetermined"):
            synth_completion(20, 20, rank=4, sample_fraction=0.1, seed=0)

    def test_seed_determinism(self):
        a = synth_completion(10, 12, rank=2, sample_fraction=0.5, seed=42)
        b = synth_completion(10, 12, rank=2, sample_fraction=0.5, seed=42)
        assert np.array_equal(a.truth.left, b.truth.left)
        assert np.array_equal(a.train.indptr, b.train.indptr)
        assert np.array_equal(a.train.indices, b.train.indices)
        assert np.array_equal(a.train.values, b.train.values)

    def test_train_test_disjoint(self):
        out = synth_completion(10, 12, rank=2, sample_fraction=0.4, seed=1)
        tr = set(zip(*out.train.to_coo()[:2]))
        te = set(zip(*out.test.to_coo()[:2]))
        assert not (tr & te)

    def test_truth_rank(self):
        out = synth_completion(12, 9, rank=3, sample_fraction=0.5, seed=2)
        sv = np.linalg.svd(out.truth.dense(), compute_uv=False)
        assert sv[3] < 1e-10 * sv[0]

    def test_nonneg_factors(self):
        out = synth_completion(6, 6, rank=2, sample_fraction=0.8, seed=3, nonneg=True)
        assert np.min(out.truth.dense()) >= 0.0


class TestHankelStructure:
    def test_hankel_matrix_layout(self):
        y = np.arange(1.0, 8.0)
        h = hankel_matrix(y, 3, 5)
        assert np.array_equal(h[0], [1, 2, 3, 4, 5])
        assert np.array_equal(h[:, 4], [5, 6, 7])

    def test_sums_spread_adjoint(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((4, 6))
        v = rng.standard_normal(9)
        lhs = antidiag_sums(s) @ v
        rhs = np.tensordot(s, antidiag_spread(v, 4, 6), axes=2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_means_on_exact_hankel(self):
        y = np.random.default_rng(5).standard_normal(8)
        h = hankel_matrix(y, 4, 5)
        assert np.allclose(antidiag_means(h), y)

    def test_means_hand_3x3(self):
        w = np.arange(9.0).reshape(3, 3)
        means = antidiag_means(w)
        # anti-diagonals of [[0,1,2],[3,4,5],[6,7,8]]
        expect = [0.0, (1 + 3) / 2, (2 + 4 + 6) / 3, (5 + 7) / 2, 8.0]
        assert np.allclose(means, expect)
        assert np.allclose(antidiag_counts(3, 3), [1, 2, 3, 2, 1])


class TestSynthHankel:
    def test_order_one_is_geometric(self):
        spec = LTISystemSpec(1, 3, 4, noise_sigma=0.0)
        y, y_noisy = synth_hankel(spec, seed=0)
        assert np.array_equal(y, y_noisy)
        ratios = y[1:] / y[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_rank_bound_vs_svd(self):
        spec = LTISystemSpec(3, 10, 12, noise_sigma=0.05)
        y, _ = synth_hankel(spec, seed=1)
        sv = np.linalg.svd(hankel_matrix(y, 10, 12), compute_uv=False)
        assert sv[3] < 1e-6 * sv[2]

    def test_zero_noise(self):
        spec = LTISystemSpec(2, 5, 6, noise_sigma=0.0)
        y, y_noisy = synth_hankel(spec, seed=2)
        assert np.array_equal(y, y_noisy)

    def test_determinism(self):
        spec = LTISystemSpec(4, 8, 9)
        a = synth_hankel(spec, seed=9)
        b = synth_hankel(spec, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_stability(self):
        spec = LTISystemSpec(5, 30, 30, noise_sigma=0.0)
        y, _ = synth_hankel(spec, seed=3)
        assert abs(y[-1]) < abs(np.max(np.abs(y[:5])))


class TestSplit:
    def test_partition_per_fold(self):
        data = synth_completion(10, 10, rank=2, sample_fraction=0.6, seed=0).train
        folds = split(data, SplitSpec(train_fraction=0.8, seed=1, folds=5))
        all_entries = set(zip(*data.to_coo()[:2]))
        assert len(folds) == 5
        for train, test in folds:
            tr = set(zip(*train.to_coo()[:2]))
            te = set(zip(*test.to_coo()[:2]))
            assert not (tr & te)
            assert (tr | te) == all_entries

    def test_near_unit_fraction_leaves_test_nearly_empty(self):
        data = synth_completion(10, 10, rank=2, sample_fraction=0.6, seed=0).train
        [(train, test)] = split(data, SplitSpec(train_fraction=1.0 - 1e-12, seed=0))
        assert test.nnz == 0 and train.nnz == data.nnz

    def test_folds_differ_and_tests_distinct(self):
        data = synth_completion(12, 12, rank=2, sample_fraction=0.7, seed=0).train
        folds = split(data, SplitSpec(train_fraction=0.8, seed=3, folds=3))
        tests = [frozenset(zip(*test.to_coo()[:2])) for _, test in folds]
        assert len(set(tests)) == 3
        for te in tests:
            assert len(te) == len(set(te))

    def test_seed_determinism(self):
        data = synth_completion(10, 10, rank=2, sample_fraction=0.6, seed=0).train
        a = split(data, SplitSpec(train_fraction=0.8, seed=7, folds=2))
        b = split(data, SplitSpec(train_fraction=0.8, seed=7, folds=2))
        for (tr_a, te_a), (tr_b, te_b) in zip(a, b):
            assert np.array_equal(tr_a.to_coo()[2], tr_b.to_coo()[2])
            assert np.array_equal(te_a.to_coo()[2], te_b.to_coo()[2])
