"""Synthetic dataset generation, geometry, determinism, and the file format."""

import re
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from iwot import data as data_module
from iwot.data import (
    LabelSplit,
    ShiftSpec,
    class_means,
    generate_pair,
    load_dataset,
    save_dataset,
)
from iwot.errors import ConfigError, DataFormatError
from iwot.settings import PRIVATE, Setting, check_split_for_setting


class TestLabelSplit:
    def test_class_index_layout(self):
        split = LabelSplit(4, 2, 2)
        assert split.n_total == 8
        assert split.source_classes == (0, 1, 2, 3, 4, 5)
        assert split.target_classes == (0, 1, 2, 3, 6, 7)

    def test_at_least_one_common_class(self):
        with pytest.raises(ConfigError):
            LabelSplit(0, 2, 2)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            LabelSplit(2, -1, 0)

    def test_setting_structure_checks(self):
        # A split fits a setting exactly when its private sides are the setting's.
        for setting in Setting:
            for shape in ((False, False), (True, False), (False, True), (True, True)):
                split = LabelSplit(4, 3 * shape[0], 2 * shape[1])
                if shape == PRIVATE[setting]:
                    check_split_for_setting(split, setting.value)
                else:
                    with pytest.raises(ConfigError, match=setting.value):
                        check_split_for_setting(split, setting.value)


class TestClassMeans:
    def test_pairwise_distances_all_equal(self):
        means = class_means(5, 8, spread=1.0)
        for i in range(5):
            for j in range(i + 1, 5):
                assert_allclose(np.linalg.norm(means[i] - means[j]), 6.0, atol=1e-12)

    def test_distance_scales_with_spread(self):
        means = class_means(3, 4, spread=2.5)
        assert_allclose(np.linalg.norm(means[0] - means[1]), 15.0, atol=1e-12)

    def test_private_means_far_from_all_source_means(self):
        # every pair is a full simplex edge apart, over the 3-spread floor
        means = class_means(8, 8, spread=1.0)
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert np.linalg.norm(means[i] - means[j]) >= 3.0

    def test_dim_below_class_count_rejected(self):
        with pytest.raises(ConfigError):
            class_means(9, 8, spread=1.0)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ConfigError):
            class_means(1, 1, spread=1.0)

    def test_nonpositive_spread_rejected(self):
        with pytest.raises(ConfigError):
            class_means(3, 4, spread=0.0)


class TestGeneratePair:
    def test_deterministic_bitwise(self):
        split = LabelSplit(4, 2, 2)
        a_src, a_tgt = generate_pair(split, 120, 140, 8, seed=7)
        b_src, b_tgt = generate_pair(split, 120, 140, 8, seed=7)
        assert (a_src.features == b_src.features).all()
        assert (a_src.labels == b_src.labels).all()
        assert (a_tgt.features == b_tgt.features).all()
        assert (a_tgt.labels == b_tgt.labels).all()

    def test_different_seeds_differ(self):
        split = LabelSplit(4, 2, 2)
        a_src, _ = generate_pair(split, 120, 140, 8, seed=7)
        b_src, _ = generate_pair(split, 120, 140, 8, seed=8)
        assert not (a_src.features == b_src.features).all()

    def test_label_space_containment(self):
        split = LabelSplit(4, 2, 2)
        source, target = generate_pair(split, 200, 200, 8, seed=0)
        assert set(np.unique(source.labels)) == set(split.source_classes)
        assert set(np.unique(target.labels)) == set(split.target_classes)

    def test_class_balance_floor(self):
        split = LabelSplit(4, 2, 2)
        source, target = generate_pair(split, 601, 599, 8, seed=1)
        for dataset, classes in ((source, split.source_classes), (target, split.target_classes)):
            counts = {c: int((dataset.labels == c).sum()) for c in classes}
            floor = dataset.n // (2 * len(classes))
            assert min(counts.values()) >= floor

    def test_zero_shift_csda_matches_source_generators(self):
        split = LabelSplit(5, 0, 0)
        shift = ShiftSpec(rotation=0.0, translation=(0.0,), noise_std=0.0)
        source, target = generate_pair(split, 2000, 2000, 8, seed=3, shift=shift)
        means = class_means(5, 8, spread=1.0)
        for c in range(5):
            src_mean = source.features[source.labels == c].mean(axis=0)
            tgt_mean = target.features[target.labels == c].mean(axis=0)
            assert np.linalg.norm(src_mean - means[c]) < 0.25
            assert np.linalg.norm(tgt_mean - means[c]) < 0.25

    def test_shift_moves_target_but_not_source(self):
        split = LabelSplit(4, 0, 0)
        shift = ShiftSpec(rotation=0.8, translation=(2.0,), noise_std=0.0)
        plain = ShiftSpec(rotation=0.0, translation=(0.0,), noise_std=0.0)
        src_a, tgt_a = generate_pair(split, 100, 100, 8, seed=5, shift=shift)
        src_b, tgt_b = generate_pair(split, 100, 100, 8, seed=5, shift=plain)
        assert (src_a.features == src_b.features).all()
        assert not np.allclose(tgt_a.features, tgt_b.features)
        # translation of 2.0 in every coordinate
        assert_allclose(tgt_a.features[:, 2:] - tgt_b.features[:, 2:], 2.0, atol=1e-12)

    def test_office31_style_pda_split(self):
        split = LabelSplit(10, 21, 0)
        check_split_for_setting(split, "pda")
        source, target = generate_pair(split, 310, 100, 32, seed=0)
        assert set(np.unique(source.labels)) == set(range(31))
        assert set(np.unique(target.labels)) == set(range(10))

    def test_too_few_samples_rejected(self):
        split = LabelSplit(4, 2, 2)
        with pytest.raises(ConfigError):
            generate_pair(split, 5, 100, 8, seed=0)

    @pytest.mark.parametrize(
        "n_common, n_source, n_target, dim",
        [(2, 12, 12, 10**20), (2, 12, 12, 2**60), (2, 10**30, 12, 4), (2, 12, 10**30, 4),
         (10**20, 12, 12, 4)],
        ids=["dim-1e20", "dim-2^60", "n_source", "n_target", "n_common"],
    )
    def test_unindexable_size_fails_before_allocating(
        self, monkeypatch, n_common, n_source, n_target, dim
    ):
        # NumPy cannot describe these arrays (it raises ValueError, not
        # MemoryError), so they are config errors found before the first
        # allocation, the class means.
        real_zeros = np.zeros

        def zeros(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) < 1e6, "allocating %r" % (shape,)
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        with pytest.raises(ConfigError, match="larger than NumPy can index$"):
            generate_pair(LabelSplit(n_common, 1, 0), n_source, n_target, dim, seed=0)

    def test_dim_below_total_classes_rejected(self):
        split = LabelSplit(4, 2, 2)
        with pytest.raises(ConfigError):
            generate_pair(split, 100, 100, 7, seed=0)

    def test_target_labels_strippable(self):
        split = LabelSplit(2, 0, 0)
        _, target = generate_pair(split, 50, 50, 4, seed=0)
        stripped = target.without_labels()
        assert stripped.labels is None
        assert (stripped.features == target.features).all()


class TestDatasetFile:
    def roundtrip(self, tmp_path, dataset, name="data.txt"):
        path = tmp_path / name
        save_dataset(path, dataset)
        return load_dataset(path)

    def test_round_trip_bitwise(self, tmp_path):
        split = LabelSplit(3, 1, 2)
        source, target = generate_pair(split, 60, 60, 8, seed=11)
        for dataset in (source, target):
            loaded = self.roundtrip(tmp_path, dataset, "%s.txt" % dataset.role)
            assert (loaded.features == dataset.features).all()
            assert (loaded.labels == dataset.labels).all()
            assert loaded.split == dataset.split
            assert loaded.role == dataset.role
            assert loaded.seed == dataset.seed

    def test_stripped_labels_not_saveable(self, tmp_path):
        split = LabelSplit(2, 0, 0)
        _, target = generate_pair(split, 20, 20, 4, seed=0)
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "x.txt", target.without_labels())

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def valid_lines(self):
        return [
            "iwot-dataset v1",
            "role source",
            "dim 2",
            "split 2 0 0",
            "seed 0",
            "count 2",
            "0 0.5 -1.25",
            "1 3.5 2",
        ]

    def test_valid_hand_file_loads(self, tmp_path):
        loaded = load_dataset(self.write_lines(tmp_path, self.valid_lines()))
        assert loaded.n == 2 and loaded.dim == 2
        assert_allclose(loaded.features, [[0.5, -1.25], [3.5, 2.0]], atol=0)

    def test_version_mismatch(self, tmp_path):
        lines = self.valid_lines()
        lines[0] = "iwot-dataset v2"
        with pytest.raises(DataFormatError, match="line 1"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_label_outside_declared_set(self, tmp_path):
        lines = self.valid_lines()
        lines[6] = "2 0.5 -1.25"
        with pytest.raises(DataFormatError, match="label 2"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_unknown_marker_rejected_in_source(self, tmp_path):
        lines = self.valid_lines()
        lines[6] = "-1 0.5 -1.25"
        with pytest.raises(DataFormatError, match="target-only"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_unknown_marker_allowed_in_target(self, tmp_path):
        lines = self.valid_lines()
        lines[1] = "role target"
        lines[6] = "-1 0.5 -1.25"
        loaded = load_dataset(self.write_lines(tmp_path, lines))
        assert loaded.labels[0] == -1

    def test_wrong_field_count(self, tmp_path):
        lines = self.valid_lines()
        lines[7] = "1 3.5"
        with pytest.raises(DataFormatError, match="line 8"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_corrupt_dim_fails_before_allocating(self, tmp_path, monkeypatch):
        # A dim of 1e11 would ask for a 745 GiB feature matrix; the width of
        # line 7 must be checked first, so no allocation of that size is made.
        lines = self.valid_lines()[:-1]
        lines[2] = "dim 100000000000"
        lines[5] = "count 1"
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) < 1e6, "allocating %r" % (shape,)
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        with pytest.raises(DataFormatError, match="^line 7: expected 100000000001 fields, found 3$"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_non_numeric_feature(self, tmp_path):
        lines = self.valid_lines()
        lines[7] = "1 3.5 abc"
        with pytest.raises(DataFormatError, match="not a float"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_non_finite_feature(self, tmp_path):
        lines = self.valid_lines()
        lines[7] = "1 3.5 inf"
        with pytest.raises(DataFormatError, match="non-finite"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_count_mismatch(self, tmp_path):
        lines = self.valid_lines()[:-1]
        with pytest.raises(DataFormatError, match="expected 2 sample lines"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_missing_final_newline(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(self.valid_lines()), encoding="utf-8")
        with pytest.raises(DataFormatError, match="newline"):
            load_dataset(path)

    def test_carriage_returns_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("\r\n".join(self.valid_lines()) + "\r\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="carriage returns"):
            load_dataset(path)

    def test_bad_header_key(self, tmp_path):
        lines = self.valid_lines()
        lines[2] = "dimensions 2"
        with pytest.raises(DataFormatError, match="line 3"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_bad_role(self, tmp_path):
        lines = self.valid_lines()
        lines[1] = "role both"
        with pytest.raises(DataFormatError, match="role"):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_non_integer_label(self, tmp_path):
        lines = self.valid_lines()
        lines[6] = "0.0 0.5 -1.25"
        with pytest.raises(DataFormatError, match="not an integer"):
            load_dataset(self.write_lines(tmp_path, lines))

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("0 1_0 -1.25", "_"),  # float() reads it as 10.0
            ("0 \t1.5 -1.25", "\t"),  # float() strips the tab
            ("0 0.5 -1.25\x0b", "\x0b"),
            ("0 0.5\x0c -1.25", "\x0c"),
            ("0 0.5 \x1c-1.25", "\x1c"),
            ("\u0661 0.5 -1.25", "\u0661"),  # an Arabic-Indic one; int() reads 1
            ("0 \u0661.5 -1.25", "\u0661"),  # float() reads 1.5
            ("0 0.5 \uff11", "\uff11"),  # a fullwidth one
        ],
    )
    def test_text_that_python_parses_but_the_format_forbids(self, tmp_path, line, bad):
        lines = self.valid_lines()
        lines[6] = line
        with pytest.raises(DataFormatError, match="line 7: character " + re.escape(repr(bad))):
            load_dataset(self.write_lines(tmp_path, lines))

    @pytest.mark.parametrize("header, line", [("dim \u0662", 3), ("seed 1_000", 5)])
    def test_header_integers_are_ascii_digits(self, tmp_path, header, line):
        lines = self.valid_lines()
        lines[line - 1] = header
        with pytest.raises(DataFormatError, match="line %d: character" % line):
            load_dataset(self.write_lines(tmp_path, lines))

    def test_integer_pattern_takes_ascii_digits_only(self):
        with pytest.raises(DataFormatError, match="not an integer"):
            data_module._parse_int("\u0661", "line 7")
        assert data_module._parse_int("-12", "line 7") == -12

    @pytest.mark.parametrize("classes", [10**8, 10**20])
    def test_huge_class_count_checks_labels_by_range(self, tmp_path, classes):
        # Labels are tested against the split's class ranges, so a header that
        # declares 10^20 classes builds no label set and 10^8 loads at once.
        lines = self.valid_lines()
        lines[3] = "split 2 %d 1" % classes
        lines[7] = "2 3.5 2"
        start = time.perf_counter()
        loaded = load_dataset(self.write_lines(tmp_path, lines))
        assert time.perf_counter() - start < 0.1
        assert loaded.split == LabelSplit(2, classes, 1)
        assert loaded.labels.tolist() == [0, 2]
        # a target-private label in the source, a source-private one in the target
        for role, label in (("source", classes + 2), ("target", 2)):
            lines[1] = "role %s" % role
            lines[7] = "%d 3.5 2" % label
            with pytest.raises(DataFormatError, match="line 8: label %d outside" % label):
                load_dataset(self.write_lines(tmp_path, lines))

    def test_label_beyond_int64_rejected(self, tmp_path):
        lines = self.valid_lines()
        lines[3] = "split %d 0 0" % 10**20
        lines[7] = "%d 3.5 2" % 2**63
        with pytest.raises(DataFormatError, match="line 8: label %d outside" % 2**63):
            load_dataset(self.write_lines(tmp_path, lines))
