"""File formats: line-delimited records, frames, and binary model files."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from headpose.formats import (
    MODEL_FORMAT_VERSION,
    Dataset,
    RecordError,
    atomic_write_bytes,
    dataset_lines,
    infer_lines,
    laeo_lines,
    read_dataset,
    read_frames,
    read_model,
    write_dataset,
    write_json,
    write_model,
)
from headpose.laeo import LaeoResult
from headpose.model import FIXED_CONFIG, MAX_FC_WIDTH, Model, ModelConfig, parameter_layout
from headpose.synthetic import generate_dataset, synthesize

import dataset_reference
import frame_rows
import frames_reference


class TestAtomicWrite:
    def test_writes_exact_bytes(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"\x00\x01data")
        assert target.read_bytes() == b"\x00\x01data"

    def test_overwrites_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_bytes(target, b"first")
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_missing_directory_names_the_requested_path(self, tmp_path):
        target = tmp_path / "absent" / "r.json"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_bytes(target, b"data")
        assert info.value.filename == str(target)
        assert str(info.value) == f"[Errno 2] No such file or directory: '{target}'"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_bytes(tmp_path / "taken", b"data")
        assert info.value.filename == str(tmp_path / "taken")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_write_json_pretty_with_newline(self, tmp_path):
        target = tmp_path / "r.json"
        write_json(target, {"b": 1, "a": 2})
        text = target.read_text()
        assert text.endswith("\n")
        assert list(json.loads(text).keys()) == ["b", "a"]


class TestDatasetRoundTrip:
    def test_ids_are_zero_padded(self):
        assert synthesize(3, np.random.default_rng(0)).ids == ("s000000", "s000001", "s000002")

    def test_round_trip_is_exact(self, tmp_path):
        data = synthesize(8, np.random.default_rng(1), drop_fraction=0.5)
        path = tmp_path / "data.jsonl"
        write_dataset(path, data)
        loaded = read_dataset(path)
        assert loaded.ids == data.ids and loaded.meta == (None,) * 8
        assert loaded.lines.tolist() == data.lines.tolist() == list(range(1, 9))
        assert loaded.has_pose.all()
        assert loaded.keypoints.tobytes() == data.keypoints.tobytes()
        assert loaded.poses.tobytes() == data.poses.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        data = synthesize(4, np.random.default_rng(2))
        write_dataset(tmp_path / "a.jsonl", data)
        write_dataset(tmp_path / "b.jsonl", data)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_pose_is_optional_but_needed_for_training(self, tmp_path):
        data = synthesize(1, np.random.default_rng(3))
        bare = dataclasses.replace(data, poses=np.full((1, 3), np.nan),
                                   has_pose=np.zeros(1, dtype=bool))
        path = tmp_path / "bare.jsonl"
        write_dataset(path, bare)
        assert "pose" not in json.loads(path.read_text())
        loaded = read_dataset(path)
        assert not loaded.has_pose[0] and np.isnan(loaded.poses).all()
        with pytest.raises(RecordError) as info:
            loaded.targets()
        assert info.value.line_number == 1
        assert info.value.reason == "record 's000000' has no ground-truth pose"

    @pytest.mark.parametrize("field, bad", [("keypoints", np.inf), ("keypoints", np.nan),
                                            ("poses", -np.inf)])
    def test_write_refuses_non_finite_values(self, tmp_path, field, bad):
        data = synthesize(3, np.random.default_rng(5))
        values = getattr(data, field).copy()
        values[1].flat[2] = bad
        path = tmp_path / "d.jsonl"
        with pytest.raises(ValueError) as info:
            write_dataset(path, dataclasses.replace(data, **{field: values}))
        assert str(info.value) == f"{path}: refusing to write non-finite value in record 's000001'"
        assert not path.exists() and not list(tmp_path.iterdir())

    def test_meta_passes_through(self, tmp_path):
        data = synthesize(1, np.random.default_rng(4))
        tagged = dataclasses.replace(data, meta=({"src": "cam0"},))
        path = tmp_path / "meta.jsonl"
        write_dataset(path, tagged)
        assert read_dataset(path).meta == ({"src": "cam0"},)


def write_lines(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


GOOD_LINE = json.dumps(
    {"id": "x", "keypoints": [[0, 0, 1], [1, 0, 1], [2, 0, 1], [3, 0, 1], [4, 0, 1]]}
)


class TestDatasetErrors:
    def error_from(self, tmp_path, bad_line, n_good_before=1):
        path = write_lines(tmp_path, [GOOD_LINE] * n_good_before + [bad_line])
        with pytest.raises(RecordError) as info:
            read_dataset(path)
        assert info.value.line_number == n_good_before + 1
        assert f"line {n_good_before + 1}:" in str(info.value)
        return info.value

    def test_invalid_json(self, tmp_path):
        self.error_from(tmp_path, "{not json")

    def test_non_object_line(self, tmp_path):
        err = self.error_from(tmp_path, "[1, 2, 3]")
        assert "not an object" in err.reason

    def test_missing_required_keys(self, tmp_path):
        err = self.error_from(tmp_path, json.dumps({"id": "x"}))
        assert "keypoints" in err.reason

    def test_wrong_keypoint_count(self, tmp_path):
        row = {"id": "x", "keypoints": [[0, 0, 1]] * 4}
        err = self.error_from(tmp_path, json.dumps(row))
        assert "5" in err.reason

    def test_malformed_triple(self, tmp_path):
        row = {"id": "x", "keypoints": [[0, 0]] + [[0, 0, 1]] * 4}
        self.error_from(tmp_path, json.dumps(row))

    def test_confidence_out_of_range(self, tmp_path):
        row = {"id": "x", "keypoints": [[0, 0, 1.5]] + [[0, 0, 1]] * 4}
        err = self.error_from(tmp_path, json.dumps(row))
        assert "confidence" in err.reason

    def test_non_finite_coordinate(self, tmp_path):
        row = '{"id": "x", "keypoints": [[Infinity, 0, 1], [1, 0, 1], [2, 0, 1], [3, 0, 1], [4, 0, 1]]}'
        err = self.error_from(tmp_path, row)
        assert "non-finite" in err.reason

    def test_bad_pose_shape(self, tmp_path):
        row = json.loads(GOOD_LINE)
        row["pose"] = [1.0, 2.0]
        err = self.error_from(tmp_path, json.dumps(row))
        assert "pose" in err.reason

    def test_meta_must_be_object(self, tmp_path):
        row = json.loads(GOOD_LINE)
        row["meta"] = "nope"
        err = self.error_from(tmp_path, json.dumps(row))
        assert "meta" in err.reason

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = write_lines(tmp_path, [GOOD_LINE, "", "{broken"])
        with pytest.raises(RecordError) as info:
            read_dataset(path)
        assert info.value.line_number == 3
        path2 = write_lines(tmp_path, [GOOD_LINE, "", GOOD_LINE])
        assert len(read_dataset(path2)) == 2


def make_frames():
    kp = generate_dataset(1, np.random.default_rng(9))[0].keypoints
    head = frame_rows.head
    labelled = frame_rows.frame("f0", (
        head("a", (0.0, 0.0), pose=(90.0, 0.0, 0.0), log_variance=(0.1, 0.2, 0.3)),
        head("b", (10.0, 0.0), pose=(-90.0, 0.0, 0.0)),
        head("c", (5.0, 20.0), keypoints=kp),
    ), pairs=[("a", "b")])
    negatives_only = frame_rows.frame("f1", (
        head("a", (0.0, 0.0), pose=(10.0, 0.0, 0.0)),
        head("b", (10.0, 0.0), pose=(10.0, 0.0, 0.0)),
    ), pairs=[])
    unlabelled = frame_rows.frame("f2", (head("a", (0.0, 0.0), pose=(0.0, 10.0, 0.0)),))
    return [labelled, negatives_only, unlabelled], kp


class TestFrames:
    def test_round_trip(self, tmp_path):
        rows, kp = make_frames()
        loaded = read_frames(frame_rows.write(tmp_path / "frames.jsonl", rows))
        nan3 = [math.nan] * 3
        assert len(loaded) == 3
        assert loaded.frame_ids.tolist() == ["f0", "f1", "f2"]
        assert loaded.starts.tolist() == [0, 3, 5, 6]
        assert loaded.head_ids.tolist() == ["a", "b", "c", "a", "b", "a"]
        assert loaded.centroids.tolist() == [[0, 0], [10, 0], [5, 20], [0, 0], [10, 0], [0, 0]]
        assert np.array_equal(loaded.poses, [
            [90, 0, 0], [-90, 0, 0], nan3, [10, 0, 0], [10, 0, 0], [0, 10, 0],
        ], equal_nan=True)
        assert np.array_equal(loaded.log_variance, [[0.1, 0.2, 0.3]] + [nan3] * 5,
                              equal_nan=True)
        assert loaded.keypoints[2].tolist() == [[p.x1, p.x2, p.c] for p in kp.points]
        assert np.isnan(np.delete(loaded.keypoints, 2, axis=0)).all()
        assert loaded.labels == (frozenset({("a", "b")}), frozenset(), None)

    def test_unlabelled_frame_omits_pair_key(self, tmp_path):
        rows, _ = make_frames()
        assert "laeo_pairs" not in rows[2]
        assert rows[1]["laeo_pairs"] == []
        loaded = read_frames(frame_rows.write(tmp_path / "frames.jsonl", rows))
        assert loaded.labels[1] == frozenset() and loaded.labels[2] is None

    def test_label_pairs_are_sorted_and_unique(self, tmp_path):
        heads = [frame_rows.head(h, (i, 0), pose=(0, 0, 0)) for i, h in enumerate("yxz")]
        rows = [frame_rows.frame("f", heads, [("y", "x"), ("x", "y"), ("z", "x")])]
        loaded = read_frames(frame_rows.write(tmp_path / "frames.jsonl", rows))
        assert loaded.labels == (frozenset({("x", "y"), ("x", "z")}),)

    def test_log_variance_requires_pose(self, tmp_path):
        kp = [[0, 0, 1], [1, 0, 1], [2, 0, 1], [3, 0, 1], [4, 0, 1]]
        row = {
            "frame_id": "f",
            "heads": [{"id": "a", "centroid": [0, 0], "keypoints": kp, "log_variance": [1, 1, 1]}],
        }
        path = write_lines(tmp_path, [json.dumps(row)])
        loaded = read_frames(path)
        assert np.isnan(loaded.log_variance).all() and np.isnan(loaded.poses).all()
        assert loaded.keypoints[0].tolist() == kp

    def frame_error(self, tmp_path, row):
        path = write_lines(tmp_path, [json.dumps(row)])
        with pytest.raises(RecordError) as info:
            read_frames(path)
        return info.value

    def test_duplicate_head_ids(self, tmp_path):
        row = {
            "frame_id": "f",
            "heads": [
                {"id": "a", "centroid": [0, 0], "pose": [0, 0, 0]},
                {"id": "a", "centroid": [1, 0], "pose": [0, 0, 0]},
            ],
        }
        assert "duplicate" in self.frame_error(tmp_path, row).reason

    def test_duplicate_frame_ids(self, tmp_path):
        # the second line has no labels; read as two frames of one id, its
        # pairs would be reported under the first line's labels
        heads = [
            {"id": "a", "centroid": [0, 0], "pose": [0, 0, 0]},
            {"id": "b", "centroid": [1, 0], "pose": [0, 0, 0]},
        ]
        rows = [{"frame_id": "f1", "heads": heads, "laeo_pairs": [["a", "b"]]},
                {"frame_id": "f1", "heads": heads}]
        path = write_lines(tmp_path, [json.dumps(r) for r in rows])
        with pytest.raises(RecordError) as info:
            read_frames(path)
        assert info.value.line_number == 2
        assert info.value.reason == "duplicate frame_id 'f1'"

    def test_pair_with_unknown_id(self, tmp_path):
        row = {
            "frame_id": "f",
            "heads": [{"id": "a", "centroid": [0, 0], "pose": [0, 0, 0]}],
            "laeo_pairs": [["a", "z"]],
        }
        assert "z" in self.frame_error(tmp_path, row).reason

    def test_pair_with_itself(self, tmp_path):
        row = {
            "frame_id": "f",
            "heads": [{"id": "a", "centroid": [0, 0], "pose": [0, 0, 0]}],
            "laeo_pairs": [["a", "a"]],
        }
        self.frame_error(tmp_path, row)

    def test_head_needs_keypoints_or_pose(self, tmp_path):
        row = {"frame_id": "f", "heads": [{"id": "a", "centroid": [0, 0]}]}
        err = self.frame_error(tmp_path, row)
        assert "keypoints" in err.reason and "pose" in err.reason

    def test_bad_centroid(self, tmp_path):
        row = {"frame_id": "f", "heads": [{"id": "a", "centroid": [0], "pose": [0, 0, 0]}]}
        assert "centroid" in self.frame_error(tmp_path, row).reason


class TestModelFile:
    def build(self, kind="heteroscedastic", alpha=1.0):
        return Model.build(ModelConfig(kind, width_scale=alpha), np.random.default_rng(5))

    def test_round_trip_preserves_config_and_weights(self, tmp_path):
        for kind in ("heteroscedastic", "mse", "combined"):
            model = self.build(kind)
            path = tmp_path / f"{kind}.hpm"
            write_model(path, model)
            loaded = read_model(path)
            assert loaded.config == model.config
            for name, _ in parameter_layout(model.config):
                expect = model.params[name].astype("<f4").astype(np.float64)
                assert np.array_equal(loaded.params[name], expect), name

    def test_second_write_is_byte_identical(self, tmp_path):
        model = self.build()
        first = tmp_path / "a.hpm"
        second = tmp_path / "b.hpm"
        write_model(first, model)
        write_model(second, read_model(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_is_single_json_line(self, tmp_path):
        model = self.build(alpha=0.6)
        path = tmp_path / "m.hpm"
        write_model(path, model)
        header_line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(header_line)
        assert header["format_version"] == MODEL_FORMAT_VERSION
        assert header["model_config"]["width_scale"] == 0.6
        assert [t[0] for t in header["tensors"]] == [
            name for name, _ in parameter_layout(model.config)
        ]

    def test_rejects_unknown_version(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.hpm"
        write_model(path, model)
        header, blob = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["format_version"] = 99
        path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)
        with pytest.raises(ValueError, match="format_version"):
            read_model(path)

    def test_rejects_layout_mismatch(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.hpm"
        write_model(path, model)
        header, blob = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["tensors"][0][0] = "mystery"
        path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)
        with pytest.raises(ValueError, match="layout"):
            read_model(path)

    def test_rejects_truncated_blob(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.hpm"
        write_model(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="bytes"):
            read_model(path)

    def test_rejects_non_model_file(self, tmp_path):
        path = tmp_path / "m.hpm"
        path.write_bytes(b"\x80\x81 not a header\nrest")
        with pytest.raises(ValueError, match="not a model file"):
            read_model(path)

    def test_rejects_non_finite_tensor(self, tmp_path):
        model = self.build("mse", alpha=0.2)
        path = tmp_path / "m.hpm"
        write_model(path, model)
        header, blob = path.read_bytes().split(b"\n", 1)
        values = np.frombuffer(blob, dtype="<f4").copy()
        values[model.offsets[8] + 2] = np.nan  # an element of fc1_w
        path.write_bytes(header + b"\n" + values.tobytes())
        with pytest.raises(ValueError) as info:
            read_model(path)
        assert str(info.value) == f"{path}: non-finite value in tensor fc1_w"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])  # 1e39 overflows float32
    def test_write_refuses_non_finite_tensor(self, tmp_path, bad):
        model = self.build("mse", alpha=0.2)
        model.params["head_b"][1] = bad
        path = tmp_path / "m.hpm"
        with pytest.raises(ValueError, match="non-finite value in tensor head_b"):
            write_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["score_pin_unc.hpm", "score_pin_mse.hpm"])
    def test_committed_files_rewrite_byte_identical(self, tmp_path, name):
        committed = Path(__file__).parent / "data" / name
        path = tmp_path / name
        write_model(path, read_model(committed))
        assert path.read_bytes() == committed.read_bytes()

    def test_full_width_file_is_small(self, tmp_path):
        path = tmp_path / "m.hpm"
        write_model(path, self.build())
        assert path.stat().st_size < 512 * 1024


KP = [[0, 0, 1], [1, 0, 1], [2, 0, 1], [3, 0, 1], [4, 0, 1]]
GOOD_FRAME_LINE = json.dumps(
    {"frame_id": "f", "heads": [{"id": "a", "centroid": [0, 0], "pose": [0, 0, 0]}]}
)


def head_row(**fields):
    head = {"id": "a", "centroid": [0, 0], "pose": [0, 0, 0], **fields}
    return {"frame_id": "g", "heads": [head]}


@pytest.mark.parametrize(
    "reader, row, word",
    [
        pytest.param(read_dataset, {"id": "x", "keypoints": [[None, 0, 1]] + KP[1:]},
                     "keypoint", id="null-coordinate"),
        pytest.param(read_dataset, {"id": "x", "keypoints": [["x", 0, 1]] + KP[1:]},
                     "keypoint", id="string-coordinate"),
        pytest.param(read_frames, head_row(centroid=[None, 0]), "centroid", id="null-centroid"),
        pytest.param(read_frames, head_row(log_variance=[0, "x", 0]),
                     "log_variance", id="string-log-variance"),
        pytest.param(read_frames, head_row(log_variance=[0, float("nan"), 0]),
                     "log_variance", id="nan-log-variance"),
        pytest.param(read_frames, {**head_row(), "laeo_pairs": 5}, "laeo_pairs",
                     id="laeo-pairs-not-a-list"),
    ],
)
def test_bad_value_reports_line(tmp_path, reader, row, word):
    good = GOOD_LINE if reader is read_dataset else GOOD_FRAME_LINE
    path = write_lines(tmp_path, [good, json.dumps(row)])
    with pytest.raises(RecordError) as info:
        reader(path)
    assert info.value.line_number == 2
    assert word in info.value.reason


@pytest.mark.parametrize(
    "edit, words",
    [
        pytest.param(lambda d: {**d, "model_config": {**d["model_config"], "mystery": 1}},
                     ("model_config", "mystery"), id="unknown-config-key"),
        pytest.param(lambda d: {**d, "model_config": {**d["model_config"], "width_scale": "x"}},
                     ("model_config", "width_scale"), id="wrong-typed-value"),
        pytest.param(lambda d: {**d, "model_config": {**d["model_config"], "width_scale": 10**400}},
                     ("model_config",), id="width-beyond-float"),
        pytest.param(lambda d: {**d, "model_config": {**d["model_config"], "width_scale": 1000}},
                     ("model_config", f"wider than {MAX_FC_WIDTH} units"), id="width-beyond-bound"),
        pytest.param(lambda d: {k: v for k, v in d.items() if k != "model_config"},
                     ("model_config",), id="missing-config"),
        pytest.param(lambda d: [1, 2], ("not a model file",), id="header-not-an-object"),
        pytest.param(lambda d: {**d, "model_config": {**d["model_config"], "kernel_size": 3}},
                     ("model_config", "kernel_size must be 1"), id="kernel-size-3"),
        # a combined model as written when its bin logits had their own head
        pytest.param(lambda d: {**d, "model_config": {**d["model_config"], "loss_kind": "combined"},
                                "tensors": d["tensors"] + [["logits_w", [30, 198]],
                                                           ["logits_b", [198]]]},
                     ("tensor layout does not match the config",), id="combined-two-heads"),
    ],
)
def test_bad_model_header_names_path(tmp_path, edit, words):
    path = tmp_path / "m.hpm"
    write_model(path, Model.build(ModelConfig("mse", width_scale=0.2), np.random.default_rng(0)))
    header, blob = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + blob)
    with pytest.raises(ValueError) as info:
        read_model(path)
    assert str(path) in str(info.value)
    for word in words:
        assert word in str(info.value)


def test_deeply_nested_model_header_is_not_a_model_file(tmp_path):
    path = tmp_path / "m.hpm"
    path.write_bytes(b"[" * 100_000 + b"\n" + bytes(8))
    with pytest.raises(ValueError) as info:
        read_model(path)
    assert str(info.value).startswith(f"{path}: not a model file (")


def _rewrite_config(path: Path, edit) -> None:
    header, blob = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["model_config"] = edit(doc["model_config"])
    path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)


@pytest.mark.parametrize("key", list(FIXED_CONFIG))
def test_fixed_header_key_must_hold_its_constant(tmp_path, key):
    path = tmp_path / "m.hpm"
    write_model(path, Model.build(ModelConfig("combined", width_scale=0.2),
                                  np.random.default_rng(0)))
    _rewrite_config(path, lambda config: {**config, key: FIXED_CONFIG[key] + 1})
    with pytest.raises(ValueError) as info:
        read_model(path)
    expect = f"{key} must be {FIXED_CONFIG[key]}, got {FIXED_CONFIG[key] + 1}"
    assert str(info.value) == f"{path}: bad model_config ({expect})"


@pytest.mark.parametrize("key", list(FIXED_CONFIG))
def test_fixed_header_key_may_be_omitted(tmp_path, key):
    path = tmp_path / "m.hpm"
    model = Model.build(ModelConfig("combined", width_scale=0.2), np.random.default_rng(0))
    write_model(path, model)
    _rewrite_config(path, lambda config: {k: v for k, v in config.items() if k != key})
    loaded = read_model(path)
    assert loaded.config == model.config
    assert np.array_equal(loaded.flat, model.flat.astype("<f4"))


# Random JSON lines, most of them shaped like dataset or frame records so
# that draws get past the first checks and into the field parsers.
_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.floats(0, 1)
    | st.text(max_size=3)
)


def _containers(inner):
    return st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


_values = st.recursive(_scalars, _containers, max_leaves=10)


def _numbers(n):
    return st.lists(st.floats(0, 1) | _scalars, min_size=n, max_size=n) | _values


_keypoints = st.lists(_numbers(3), min_size=5, max_size=5) | _values
_ids = st.sampled_from(["a", "b", "c"]) | _values
_dataset_rows = st.fixed_dictionaries(
    {"id": _ids, "keypoints": _keypoints}, optional={"pose": _numbers(3), "meta": _values}
)
_heads = st.fixed_dictionaries(
    {"id": _ids, "centroid": _numbers(2)},
    optional={"keypoints": _keypoints, "pose": _numbers(3), "log_variance": _numbers(3)},
) | _values
_frame_rows = st.fixed_dictionaries(
    {"frame_id": _ids, "heads": st.lists(_heads, min_size=1, max_size=3) | _values},
    optional={"laeo_pairs": st.lists(st.lists(_ids, max_size=3), max_size=3) | _values},
)
_garbage = st.binary(min_size=1, max_size=20).filter(lambda b: b"\n" not in b and b.strip())


def _lines(rows):
    return st.lists(rows.map(lambda r: json.dumps(r).encode()) | _garbage, min_size=1, max_size=4)


@pytest.mark.parametrize(
    "reader, rows", [(read_dataset, _dataset_rows), (read_frames, _frame_rows)],
    ids=["dataset", "frames"],
)
def test_readers_fail_only_with_record_errors(tmp_path, reader, rows):
    path = tmp_path / "fuzz.jsonl"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lines=_lines(rows | _values))
    def check(lines):
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            parsed = reader(path)
        except RecordError as e:
            assert 1 <= e.line_number <= len(lines)
        else:
            assert len(parsed) == len(lines)

    check()


def assert_reads_as_oracle(path):
    """read_dataset gives the oracle's records as arrays, or its RecordError."""
    try:
        expected = dataset_reference.read(path)
    except RecordError as e:
        with pytest.raises(RecordError) as info:
            read_dataset(path)
        assert (info.value.line_number, info.value.reason) == (e.line_number, e.reason)
        return
    data = read_dataset(path)
    n = len(expected)
    assert len(data) == n
    assert data.ids == tuple(r.id for r in expected)
    assert data.lines.tolist() == [r.line for r in expected]
    assert np.array_equal(data.keypoints, np.reshape([r.keypoints for r in expected], (n, 5, 3)))
    assert data.has_pose.tolist() == [r.pose is not None for r in expected]
    poses = [[math.nan] * 3 if r.pose is None else r.pose for r in expected]
    assert np.array_equal(data.poses, np.reshape(poses, (n, 3)), equal_nan=True)
    # meta may hold NaN, which is unequal to itself
    assert [json.dumps(m) for m in data.meta] == [json.dumps(r.meta) for r in expected]


def check_against_oracle(tmp_path, lines_strategy):
    path = tmp_path / "data.jsonl"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy)
    def check(lines):
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert_reads_as_oracle(path)

    check()


def test_read_dataset_matches_oracle_on_fuzz_lines(tmp_path):
    check_against_oracle(tmp_path, _lines(_dataset_rows | _values))


# Well-formed records, at most one of them spoiled in one place, often
# with a value that a float conversion would take although the reader
# must not: true, "1.5", null, an integer beyond the float range, a ragged
# triple, a dict in place of a triple, a confidence outside [0, 1]. One
# fault per file, so a check the whole-file pass lacks is not masked by a
# second fault that sends the file to the per-record rescan anyway.
_number = st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6) | st.integers()
_odd = st.sampled_from(
    [True, False, "1.5", None, 10**400, -10**400, math.nan, math.inf, [1.0], {"x": 1}]
)
_bad_triples = (
    st.lists(_number, max_size=5).filter(lambda t: len(t) != 3)
    | st.dictionaries(st.text(max_size=2), _number, max_size=2)
    | st.tuples(_number, _number, st.floats(1.0, 1e3, exclude_min=True)
                | st.floats(-1e3, 0.0, exclude_max=True)).map(list)
)
_triple = st.tuples(_number, _number, st.floats(0, 1) | st.sampled_from([0, 1])).map(list)
_clean_records = st.fixed_dictionaries(
    {"id": st.sampled_from(["a", "b", 7, None]),
     "keypoints": st.lists(_triple, min_size=5, max_size=5)},
    optional={"pose": st.lists(_number, min_size=3, max_size=3),
              "meta": st.none() | st.dictionaries(st.text(max_size=2), _number, max_size=2)},
)


def _spoil(draw, row):
    """One fault in one place of a well-formed record."""
    fault = draw(st.sampled_from(
        ["value", "non-finite", "triple", "count", "transposed", "pose", "meta", "key"]
    ))
    kp = row["keypoints"]
    if fault == "value":
        kp[draw(st.integers(0, 4))][draw(st.integers(0, 2))] = draw(_odd)
    elif fault == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if "pose" in row and draw(st.booleans()):
            row["pose"][draw(st.integers(0, 2))] = bad
        else:
            kp[draw(st.integers(0, 4))][draw(st.integers(0, 1))] = bad
    elif fault == "triple":
        kp[draw(st.integers(0, 4))] = draw(_bad_triples)
    elif fault == "count":
        row["keypoints"] = kp[:4] if draw(st.booleans()) else kp + kp[:1]
    elif fault == "transposed":  # as many numbers, as three lists of five
        row["keypoints"] = draw(st.lists(st.lists(st.floats(0, 1), min_size=5, max_size=5),
                                         min_size=3, max_size=3))
    elif fault == "pose":
        pose = draw(st.lists(_number, min_size=3, max_size=3))
        pose[draw(st.integers(0, 2))] = draw(_odd)
        row["pose"] = pose if draw(st.booleans()) else pose[:2]
    elif fault == "meta":
        row["meta"] = draw(_odd.filter(lambda v: v is not None and not isinstance(v, dict)))
    else:
        del row[draw(st.sampled_from(["id", "keypoints"]))]


@st.composite
def _spoilt_files(draw):
    rows = draw(st.lists(_clean_records, max_size=5))
    if rows and draw(st.sampled_from([True, True, True, False])):
        _spoil(draw, draw(st.sampled_from(rows)))
    lines = [json.dumps(r).encode() for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), b"  ")
    return lines


def test_read_dataset_matches_oracle_on_odd_values(tmp_path):
    check_against_oracle(tmp_path, _spoilt_files())


_finite = st.floats(-1e6, 1e6)
_head_rows =st.fixed_dictionaries(
    {"centroid": st.lists(_finite, min_size=2, max_size=2)},
    optional={
        "keypoints": st.lists(st.tuples(_finite, _finite, st.floats(0, 1)).map(list),
                              min_size=5, max_size=5),
        "pose": st.lists(_finite, min_size=3, max_size=3),
        "log_variance": st.lists(_finite, min_size=3, max_size=3),
    },
).filter(lambda h: "keypoints" in h or "pose" in h)


@st.composite
def _frame_files(draw):
    """Valid frame rows: unique ids, heads with keypoints, a pose or both."""
    frame_ids = draw(st.lists(st.text(max_size=3), max_size=4, unique=True))
    rows = []
    for frame_id in frame_ids:
        heads = draw(st.lists(_head_rows, max_size=4))
        ids = draw(st.lists(st.text(max_size=2), min_size=len(heads), max_size=len(heads),
                            unique=True))
        row = {"frame_id": frame_id, "heads": [{"id": i, **h} for i, h in zip(ids, heads)]}
        if draw(st.booleans()):  # else unlabelled
            row["laeo_pairs"] = [[a, b] for k, a in enumerate(ids) for b in ids[k + 1:]
                                 if draw(st.booleans())]
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=_frame_files())
def test_read_frames_arrays_hold_the_rows(rows):
    frames = frame_rows.read(rows)
    heads = [h for row in rows for h in row["heads"]]
    nan = [math.nan] * 3

    def column(key, absent, present=lambda h: True):
        return np.array([h[key] if key in h and present(h) else absent for h in heads],
                        dtype=np.float64)

    assert len(frames) == len(rows)
    assert frames.frame_ids.tolist() == [row["frame_id"] for row in rows]
    assert frames.starts.tolist() == np.cumsum([0] + [len(row["heads"]) for row in rows]).tolist()
    assert frames.head_ids.tolist() == [h["id"] for h in heads]
    assert frames.centroids.tolist() == [h["centroid"] for h in heads]
    assert np.array_equal(frames.poses.reshape(-1, 3), column("pose", nan).reshape(-1, 3),
                          equal_nan=True)
    with_pose = column("log_variance", nan, lambda h: "pose" in h).reshape(-1, 3)
    assert np.array_equal(frames.log_variance.reshape(-1, 3), with_pose, equal_nan=True)
    assert np.array_equal(frames.keypoints.reshape(-1, 5, 3),
                          column("keypoints", [nan] * 5).reshape(-1, 5, 3), equal_nan=True)
    assert frames.labels == tuple(
        None if "laeo_pairs" not in row
        else frozenset(tuple(sorted(p)) for p in row["laeo_pairs"])
        for row in rows
    )


def assert_frames_read_as_oracle(path):
    """read_frames gives the oracle's arrays, or its RecordError: same file, line and reason."""
    try:
        expected = frames_reference.read(path)
    except RecordError as e:
        with pytest.raises(RecordError) as info:
            read_frames(path)
        assert str(info.value) == f"{path}: {e}"
        return
    frames = read_frames(path)
    assert frames.path == expected.path and frames.labels == expected.labels
    for field in ("frame_ids", "lines", "starts", "head_ids", "centroids", "poses",
                  "log_variance", "keypoints"):
        got, want = getattr(frames, field), getattr(expected, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), field


def check_frames_against_oracle(tmp_path, lines_strategy):
    path = tmp_path / "frames.jsonl"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy)
    def check(lines):
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert_frames_read_as_oracle(path)

    check()


def test_read_frames_matches_oracle_on_fuzz_lines(tmp_path):
    # frame ids are drawn from three values, so frames often repeat one
    # across lines
    check_frames_against_oracle(tmp_path, _lines(_frame_rows | _values))


def _spoil_frame(draw, rows):
    """One fault in one place of valid frame rows, or one that must still read."""
    row = draw(st.sampled_from(rows))
    heads = row["heads"]
    fault = draw(st.sampled_from(
        ["value", "shape", "confidence", "head", "heads", "frame", "pairs", "self pair",
         "duplicate head", "duplicate frame", "unused log_variance"]
    ))
    if fault in ("value", "shape") and heads:
        h = draw(st.sampled_from(heads))
        key = draw(st.sampled_from(sorted(k for k in h if k != "id")))
        if fault == "value" and key == "keypoints":
            h[key][draw(st.integers(0, 4))][draw(st.integers(0, 2))] = draw(_odd)
        elif fault == "value":
            h[key][draw(st.integers(0, len(h[key]) - 1))] = draw(_odd)
        elif key == "keypoints" and draw(st.booleans()):
            h[key][draw(st.integers(0, 4))] = draw(_bad_triples)
        else:
            h[key] = h[key][:-1] if draw(st.booleans()) else h[key] + h[key][:1]
    elif fault == "confidence" and any("keypoints" in h for h in heads):
        h = draw(st.sampled_from([h for h in heads if "keypoints" in h]))
        h["keypoints"][draw(st.integers(0, 4))][2] = draw(st.sampled_from([-0.5, 1.5, 2]))
    elif fault == "head" and heads:
        k = draw(st.integers(0, len(heads) - 1))
        if draw(st.booleans()):
            heads[k] = draw(_odd)
        else:
            for key in draw(st.sampled_from([["id"], ["centroid"], ["pose", "keypoints"]])):
                heads[k].pop(key, None)
    elif fault == "heads":
        row["heads"] = draw(_odd)
    elif fault == "frame":
        del row[draw(st.sampled_from(["frame_id", "heads"]))]
    elif fault == "pairs":
        ids = [h["id"] for h in heads] or ["x"]
        row["laeo_pairs"] = draw(
            _odd | st.lists(st.lists(st.sampled_from(ids + ["zz"]), max_size=3), max_size=3))
    elif fault == "self pair" and heads:
        hid = draw(st.sampled_from(heads))["id"]
        row["laeo_pairs"] = row.get("laeo_pairs", []) + [[hid, hid]]
    elif fault == "duplicate head" and heads:
        draw(st.sampled_from(heads))["id"] = heads[0]["id"]
    elif fault == "duplicate frame":
        row["frame_id"] = draw(st.sampled_from(rows))["frame_id"]
    elif fault == "unused log_variance" and heads:
        # read only beside a pose, so a keypoints-only head may carry anything
        draw(st.sampled_from(heads))["log_variance"] = draw(_odd | st.just([1.0]))


@st.composite
def _spoilt_frame_files(draw):
    rows = draw(_frame_files())
    if rows and draw(st.sampled_from([True, True, True, False])):
        _spoil_frame(draw, rows)
    lines = [json.dumps(r).encode() for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), b"  ")
    return lines


def test_read_frames_matches_oracle_on_spoilt_files(tmp_path):
    check_frames_against_oracle(tmp_path, _spoilt_frame_files())


def test_read_frames_names_a_duplicate_frame_id_on_its_second_line(tmp_path):
    lines = [GOOD_FRAME_LINE, json.dumps(head_row()), GOOD_FRAME_LINE]
    path = write_lines(tmp_path, lines)
    with pytest.raises(RecordError) as info:
        read_frames(path)
    assert str(info.value) == f"{path}: line 3: duplicate frame_id 'f'"


# Rows as json.dumps writes them must come out of the three row formatters
# byte for byte, for any finite float and any id. The rows hold finite
# values only: write_dataset checks dataset rows, the CLI refuses a
# non-finite estimate before an `infer` or `laeo` row, and a `laeo` cosine
# is computed only where its denominator is a normal float.
_any_id = st.text() | st.sampled_from(['"', "\\", "\n", "é", "\u2028", "😀", "\x7f"])
_any_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, 0.1 + 0.2])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_any_id, st.lists(_any_finite, min_size=6, max_size=6)),
                     max_size=6),
       with_variance=st.booleans())
def test_infer_lines_are_json_dumps(rows, with_variance):
    ids = [i for i, _ in rows]
    values = np.array([v for _, v in rows], dtype=np.float64).reshape(-1, 6)
    angles, log_var = values[:, :3], values[:, 3:] if with_variance else None
    expected = "".join(
        json.dumps({"id": i, "yaw": v[0], "pitch": v[1], "roll": v[2],
                    "log_variance": v[3:] if with_variance else None}) + "\n"
        for i, v in zip(ids, values.tolist())
    )
    assert infer_lines(ids, angles, log_var) == expected


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(
    _any_id, st.tuples(_any_id, _any_id), _any_finite, _any_finite, st.sampled_from([0, 1]),
    st.sampled_from([0, 1]), _any_finite, st.booleans(), st.sampled_from([True, False, None]),
), max_size=6))
def test_laeo_lines_are_json_dumps(rows):
    results = [(frame_id, LaeoResult(*fields), label) for frame_id, *fields, label in rows]
    expected = "".join(
        json.dumps({"frame_id": frame_id, **result._asdict(), "label": label}) + "\n"
        for frame_id, result, label in results
    )
    assert laeo_lines(results) == expected


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(
    _any_id, st.lists(_any_finite, min_size=18, max_size=18), st.booleans(),
    st.sampled_from([None, {}, {"src": "cam0", "n": [1, 2.5, None]}, {"é": "\u2028"}]),
), max_size=6))
def test_dataset_lines_are_json_dumps(rows):
    values = np.array([v for _, v, _, _ in rows], dtype=np.float64).reshape(-1, 18)
    data = Dataset(
        ids=tuple(i for i, *_ in rows), keypoints=values[:, :15].reshape(-1, 5, 3),
        poses=values[:, 15:], has_pose=np.array([p for _, _, p, _ in rows], dtype=bool),
        meta=tuple(m for *_, m in rows), lines=np.arange(1, len(rows) + 1))
    expected = ""
    for i, v, has_pose, meta in rows:
        row = {"id": i, "keypoints": np.reshape(v[:15], (5, 3)).tolist()}
        if has_pose:
            row["pose"] = v[15:]
        if meta is not None:
            row["meta"] = meta
        expected += json.dumps(row) + "\n"
    assert dataset_lines(data) == expected
