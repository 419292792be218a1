import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from otafl.data import (
    Dataset,
    PartitionSpec,
    generate_synthetic,
    load_csv,
    partition,
    save_csv,
    standardize,
)
from otafl.objectives import ProbeBall, estimate_constants, grams_optimum, shard_grams, solve_optimum

from conftest import accumulated_optimum


class TestGenerateSynthetic:
    def test_noiseless_data_is_realizable(self, rng):
        dataset = generate_synthetic(5, 60, 0.0, rng)
        theta_star = solve_optimum(dataset.shards(np.arange(60)[None]), 0.0)
        residuals = dataset.features @ theta_star - dataset.targets
        assert np.max(np.abs(residuals)) <= 1e-8

    def test_shapes(self, rng):
        dataset = generate_synthetic(1, 3, 1.0, rng)
        assert len(dataset) == 3
        assert dataset.feature_dim == 1

    def test_feature_variance_near_unit(self, rng):
        dataset = generate_synthetic(2, 100_000, 1.0, rng)
        var = dataset.features.var()
        assert abs(var - 1.0) < 0.03

    def test_deterministic(self):
        a = generate_synthetic(3, 10, 1.0, np.random.default_rng(5))
        b = generate_synthetic(3, 10, 1.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)


class TestCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1990,0.1,0.2\n2001,0.3,0.4\n")
        dataset = load_csv(path)
        assert len(dataset) == 2
        assert dataset.feature_dim == 2
        np.testing.assert_allclose(dataset.targets, [1990.0, 2001.0])

    def test_round_trip(self, tmp_path, rng):
        original = generate_synthetic(4, 25, 1.0, rng)
        path = tmp_path / "rt.csv"
        save_csv(original, path)
        loaded = load_csv(path)
        np.testing.assert_allclose(loaded.features, original.features, atol=1e-12)
        np.testing.assert_allclose(loaded.targets, original.targets, atol=1e-12)

    def test_single_column_row_errors_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5\n")
        with pytest.raises(ValueError, match="line 1"):
            load_csv(path)

    def test_ragged_row_errors_with_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_malformed_value_errors_with_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,2\nx,3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data"):
            load_csv(path)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("year,f1\n2001,0.5\n")
        dataset = load_csv(path, header=True)
        assert len(dataset) == 1
        assert dataset.targets[0] == 2001.0


def test_standardize_centers_and_scales(rng):
    dataset = generate_synthetic(3, 500, 1.0, rng)
    shifted = Dataset(dataset.features * 3.0 + 5.0, dataset.targets)
    out = standardize(shifted)
    np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)


def test_standardize_holds_one_copy_of_the_features():
    # subtracting into a new array and dividing it in place gives the bits
    # of (features - mean) / std, which held two (D, d) temporaries: the
    # peak stays under 1.5 times the features, which two copies exceed
    dataset = generate_synthetic(30, 20000, 1.0, np.random.default_rng(8))
    shifted = Dataset(dataset.features * 3.0 + 5.0, dataset.targets)
    tracemalloc.start()
    try:
        out = standardize(shifted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * shifted.features.nbytes
    mean, std = shifted.features.mean(axis=0), shifted.features.std(axis=0)
    assert out.features.tobytes() == ((shifted.features - mean) / std).tobytes()
    assert out.targets.tobytes() == shifted.targets.tobytes()


class TestPartition:
    def test_iid_even_sizes(self, rng):
        dataset = generate_synthetic(3, 100, 1.0, rng)
        rows = partition(dataset, PartitionSpec("iid", 5), rng)
        assert rows.shape == (5, 20)


    @pytest.mark.parametrize("mode", ["iid", "heterogeneous"])
    def test_partition_gathers_the_row_ids(self, mode):
        dataset = generate_synthetic(3, 103, 1.0, np.random.default_rng(4))
        spec = PartitionSpec(mode, 5, 0.3)
        rows = partition(dataset, spec, np.random.default_rng(9))
        shards = dataset.shards(rows)
        assert rows.shape == (5, 20) and len(np.unique(rows)) == 100
        assert shards.shape == (5, 20, 3)
        # iterating gathers one shard per step: user n's rows of the block
        read = list(shards)
        assert len(read) == 5
        block_features, block_targets = dataset.features[rows], dataset.targets[rows]
        for n, (features, targets) in enumerate(read):
            np.testing.assert_array_equal(features, block_features[n])
            np.testing.assert_array_equal(targets, block_targets[n])

    def test_remainder_dropped(self, rng):
        dataset = generate_synthetic(2, 103, 1.0, rng)
        rows = partition(dataset, PartitionSpec("iid", 5), rng)
        assert rows.shape == (5, 20)

    def test_disjoint_cover(self, rng):
        dataset = generate_synthetic(2, 60, 1.0, rng)
        rows = partition(dataset, PartitionSpec("heterogeneous", 3, 0.3), rng)
        assert rows.shape == (3, 20)
        # every sample appears exactly once
        np.testing.assert_array_equal(np.sort(rows, axis=None), np.arange(60))

    def test_too_many_users(self, rng):
        dataset = generate_synthetic(2, 3, 1.0, rng)
        with pytest.raises(ValueError):
            partition(dataset, PartitionSpec("iid", 4), rng)

    def test_determinism(self):
        dataset = generate_synthetic(2, 50, 1.0, np.random.default_rng(3))
        a = partition(dataset, PartitionSpec("heterogeneous", 5, 0.2), np.random.default_rng(9))
        b = partition(dataset, PartitionSpec("heterogeneous", 5, 0.2), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_zero_skew_matches_iid_statistics(self, rng):
        dataset = generate_synthetic(2, 2000, 1.0, rng)
        rows = partition(dataset, PartitionSpec("heterogeneous", 10, 0.0), rng)
        assert rows.shape == (10, 200)
        global_mean = dataset.targets.mean()
        global_std = dataset.targets.std()
        for targets in dataset.targets[rows]:
            se = global_std / np.sqrt(len(targets))
            assert abs(targets.mean() - global_mean) < 3 * se + 0.15

    def test_heterogeneous_increases_gamma(self):
        # target-quantile skew must raise the heterogeneity degree vs iid
        lam = 0.5
        wins = 0
        for seed in range(5):
            data_rng = np.random.default_rng(100 + seed)
            dataset = generate_synthetic(4, 1200, 1.0, data_rng)
            gammas = {}
            for mode, skew in (("iid", 0.0), ("heterogeneous", 0.2)):
                rows = partition(
                    dataset, PartitionSpec(mode, 10, skew), np.random.default_rng(7 + seed)
                )
                c = estimate_constants(
                    dataset.shards(rows),
                    lam,
                    ProbeBall(np.zeros(4), 1.0, count=4),
                    np.random.default_rng(1),
                    H=1,
                    P=1.0,
                    sigma_w2=0.0,
                )
                gammas[mode] = c.Gamma
            if gammas["heterogeneous"] > gammas["iid"]:
                wins += 1
        assert wins == 5


class TestShardBlock:
    """The shard checks, under the name of the (N, D_n, d) block type they were
    first written for: a Dataset scans its samples once, ShardRows checks the
    row ids, and a caller holding sample arrays builds
    Dataset(features, targets).shards(rows)."""

    def test_non_finite_values_rejected(self):
        features, targets = np.ones((6, 2)), np.ones(6)
        for bad in (np.nan, np.inf):
            for row in (0, 5):  # a bad value in the first or the last sample
                spoiled_features, spoiled_targets = features.copy(), targets.copy()
                spoiled_features[row, 0] = bad
                spoiled_targets[row] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    Dataset(spoiled_features, targets)
                with pytest.raises(ValueError, match="non-finite"):
                    Dataset(features, spoiled_targets)

    def test_empty_dataset_rejected(self):
        # an empty shard needs an empty dataset or empty shard rows
        with pytest.raises(ValueError, match="non-empty 2-D"):
            Dataset(np.zeros((0, 3)), np.zeros(0))

    def test_empty_shards_rejected(self):
        dataset = generate_synthetic(3, 8, 1.0, np.random.default_rng(6))
        with pytest.raises(ValueError, match="non-empty"):
            dataset.shards(np.zeros((2, 0), dtype=np.int64))
        with pytest.raises(ValueError, match="at least one user shard"):
            dataset.shards(np.zeros((0, 4), dtype=np.int64))

    def test_shapes_checked(self):
        dataset = generate_synthetic(3, 40, 1.0, np.random.default_rng(6))
        for rows in (np.arange(10), np.arange(8).reshape(2, 2, 2)):
            with pytest.raises(ValueError, match=r"need \(N, D_n, d\) features"):
                dataset.shards(rows)

    def test_hand_built_block_of_dataset_samples_is_still_checked(self):
        # a caller's copy of a partition's samples goes through Dataset's scan
        dataset = generate_synthetic(3, 40, 1.0, np.random.default_rng(6))
        rows = partition(dataset, PartitionSpec("iid", 4), np.random.default_rng(7))
        features, targets = dataset.features[rows], dataset.targets[rows]
        features[2, 5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features.reshape(-1, 3), targets.reshape(-1)).shards(
                np.arange(40).reshape(4, 10)
            )

    def test_dataset_blocks_keep_the_shape_checks(self):
        dataset = generate_synthetic(3, 40, 1.0, np.random.default_rng(6))
        for bad in ([[0, 40]], [[-1, 3]], [[0.0, 1.0]]):  # numpy would wrap -1
            with pytest.raises(ValueError, match=r"row ids must be integers in \[0, 40\)"):
                dataset.shards(np.array(bad))


class TestDatasetArrays:
    def test_arrays_are_read_only(self):
        dataset = generate_synthetic(3, 20, 1.0, np.random.default_rng(2))
        with pytest.raises(ValueError, match="read-only"):
            dataset.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            dataset.targets[:] = 0.0

    def test_copies_are_read_only(self):
        dataset = generate_synthetic(3, 20, 1.0, np.random.default_rng(2))
        for copied in (pickle.loads(pickle.dumps(dataset)), copy.deepcopy(dataset)):
            np.testing.assert_array_equal(copied.features, dataset.features)
            np.testing.assert_array_equal(copied.targets, dataset.targets)
            assert not (copied.features.flags.writeable or copied.targets.flags.writeable)

    def test_caller_array_stays_writeable(self):
        # the read-only flag is set on Dataset's own views, not on the input
        features, targets = np.ones((4, 2)), np.zeros(4)
        dataset = Dataset(features, targets)
        assert np.shares_memory(dataset.features, features)
        assert features.flags.writeable and targets.flags.writeable

    def test_whole_optimum_reads_the_arrays_uncopied(self):
        # the full-dataset Gram pass runs on the dataset's own arrays: its
        # peak stays under half the dataset's bytes, which a copy exceeds
        dataset = generate_synthetic(30, 20000, 1.0, np.random.default_rng(2))
        tracemalloc.start()
        try:
            dataset.whole_optimum(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (dataset.features.nbytes + dataset.targets.nbytes) / 2

    def test_whole_optimum_is_solved_once_per_lam(self):
        # the full-dataset objective that resolve and the bound inputs share
        dataset = generate_synthetic(4, 30, 1.0, np.random.default_rng(3))
        whole = dataset.shards(np.arange(30)[None])
        for lam in (0.5, 0.1):
            theta_star, hess = dataset.whole_optimum(lam)
            oracle = accumulated_optimum(whole, lam)
            np.testing.assert_array_equal(hess, oracle[1])
            np.testing.assert_array_equal(theta_star, oracle[0])
            np.testing.assert_array_equal(hess, grams_optimum(*shard_grams(whole), lam)[1])
            np.testing.assert_array_equal(theta_star, solve_optimum(whole, lam))
            again = dataset.whole_optimum(lam)
            assert again[0] is theta_star and again[1] is hess
            assert not (theta_star.flags.writeable or hess.flags.writeable)
        # a copy goes through the checks again and solves afresh
        copied = pickle.loads(pickle.dumps(dataset))
        assert copied.whole_optimum(0.5)[1] is not dataset.whole_optimum(0.5)[1]


class TestKeptOptimum:
    LAM = 0.5

    @pytest.mark.parametrize("total", [240, 247, 253])  # 0, 7 and 13 rows dropped
    @pytest.mark.parametrize("mode", ["iid", "heterogeneous"])
    def test_kept_rows_optimum_matches_the_shard_pass(self, mode, total):
        # a partition's objective depends only on the rows it drops: the
        # dataset's sums less theirs give the per-shard pass's optimum
        dataset = generate_synthetic(6, total, 1.0, np.random.default_rng(total))
        for seed in range(3):
            rows = partition(dataset, PartitionSpec(mode, 20), np.random.default_rng(seed))
            dropped = dataset.dropped_rows(rows)
            assert dropped.size == total - rows.size
            assert np.array_equal(np.sort(np.concatenate([rows.ravel(), dropped])), np.arange(total))
            theta_star, hess = dataset.kept_optimum(dropped, self.LAM)
            oracle_star, oracle_hess = grams_optimum(*shard_grams(dataset.shards(rows)), self.LAM)
            np.testing.assert_allclose(theta_star, oracle_star, rtol=1e-13, atol=0)
            np.testing.assert_allclose(hess, oracle_hess, rtol=1e-13, atol=0)
            assert not (theta_star.flags.writeable or hess.flags.writeable)

    def test_no_dropped_row_gives_the_whole_optimum(self):
        dataset = generate_synthetic(4, 40, 1.0, np.random.default_rng(4))
        rows = partition(dataset, PartitionSpec("iid", 8), np.random.default_rng(5))
        dropped = dataset.dropped_rows(rows)
        assert dropped.size == 0
        kept, whole = dataset.kept_optimum(dropped, self.LAM), dataset.whole_optimum(self.LAM)
        assert kept[0] is whole[0] and kept[1] is whole[1]

    @pytest.mark.parametrize(
        "dropped",
        [[3, 3], [5, 2], [40], [-1], [0.0], np.arange(40), [[1, 2]]],
        ids=["repeat", "unsorted", "past", "negative", "float", "all", "2-d"],
    )
    def test_rejects_row_ids_that_name_no_partition(self, dropped):
        dataset = generate_synthetic(4, 40, 1.0, np.random.default_rng(4))
        with pytest.raises(ValueError, match="row ids"):
            dataset.kept_optimum(np.asarray(dropped), self.LAM)
