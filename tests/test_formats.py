"""File formats: line-delimited records, frames, and binary model files."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from headpose.formats import (
    DatasetRecord,
    FrameRecord,
    HeadRecord,
    MODEL_FORMAT_VERSION,
    RecordError,
    atomic_write_bytes,
    read_dataset,
    read_frames,
    read_model,
    records_from_samples,
    samples_from_records,
    write_dataset,
    write_frames,
    write_json,
    write_model,
)
from headpose.geometry import EulerPose
from headpose.model import Model, ModelConfig, parameter_layout
from headpose.synthetic import generate_dataset


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

    def test_write_json_pretty_with_newline(self, tmp_path):
        target = tmp_path / "r.json"
        write_json(target, {"b": 1, "a": 2})
        text = target.read_text()
        assert text.endswith("\n")
        assert list(json.loads(text).keys()) == ["b", "a"]


class TestDatasetRoundTrip:
    def test_ids_are_zero_padded(self):
        samples = generate_dataset(3, np.random.default_rng(0))
        records = records_from_samples(samples)
        assert [r.id for r in records] == ["s000000", "s000001", "s000002"]
        assert records_from_samples(samples, prefix="v")[0].id == "v000000"

    def test_round_trip_is_exact(self, tmp_path):
        samples = generate_dataset(8, np.random.default_rng(1), drop_fraction=0.5)
        records = records_from_samples(samples)
        path = tmp_path / "data.jsonl"
        write_dataset(path, records)
        loaded = read_dataset(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]
        back = samples_from_records(loaded)
        assert all(b.pose == s.pose for b, s in zip(back, samples))
        assert all(b.keypoints == s.keypoints for b, s in zip(back, samples))

    def test_write_is_deterministic(self, tmp_path):
        records = records_from_samples(generate_dataset(4, np.random.default_rng(2)))
        write_dataset(tmp_path / "a.jsonl", records)
        write_dataset(tmp_path / "b.jsonl", records)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_pose_is_optional_but_needed_for_training(self, tmp_path):
        record = records_from_samples(generate_dataset(1, np.random.default_rng(3)))[0]
        bare = DatasetRecord(id=record.id, keypoints=record.keypoints)
        path = tmp_path / "bare.jsonl"
        write_dataset(path, [bare])
        loaded = read_dataset(path)[0]
        assert loaded.pose is None
        assert "pose" not in loaded.to_dict()
        with pytest.raises(ValueError, match="pose"):
            loaded.to_sample()

    def test_meta_passes_through(self, tmp_path):
        record = records_from_samples(generate_dataset(1, np.random.default_rng(4)))[0]
        tagged = DatasetRecord(record.id, record.keypoints, record.pose, meta={"src": "cam0"})
        path = tmp_path / "meta.jsonl"
        write_dataset(path, [tagged])
        assert read_dataset(path)[0].meta == {"src": "cam0"}


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
    kp = records_from_samples(generate_dataset(1, np.random.default_rng(9)))[0].keypoints
    labelled = FrameRecord(
        frame_id="f0",
        heads=(
            HeadRecord("a", (0.0, 0.0), pose=EulerPose(90.0, 0.0, 0.0), log_variance=(0.1, 0.2, 0.3)),
            HeadRecord("b", (10.0, 0.0), pose=EulerPose(-90.0, 0.0, 0.0)),
            HeadRecord("c", (5.0, 20.0), keypoints=kp),
        ),
        laeo_pairs=(("a", "b"),),
    )
    negatives_only = FrameRecord(
        frame_id="f1",
        heads=(
            HeadRecord("a", (0.0, 0.0), pose=EulerPose(10.0, 0.0, 0.0)),
            HeadRecord("b", (10.0, 0.0), pose=EulerPose(10.0, 0.0, 0.0)),
        ),
        laeo_pairs=(),
    )
    unlabelled = FrameRecord(
        frame_id="f2",
        heads=(HeadRecord("a", (0.0, 0.0), pose=EulerPose(0.0, 10.0, 0.0)),),
        has_labels=False,
    )
    return [labelled, negatives_only, unlabelled]


class TestFrames:
    def test_round_trip(self, tmp_path):
        frames = make_frames()
        path = tmp_path / "frames.jsonl"
        write_frames(path, frames)
        loaded = read_frames(path)
        assert [f.to_dict() for f in loaded] == [f.to_dict() for f in frames]
        assert loaded[0].laeo_pairs == (("a", "b"),)
        assert loaded[0].heads[0].log_variance == (0.1, 0.2, 0.3)
        assert loaded[2].heads[0].keypoints is None

    def test_unlabelled_frame_omits_pair_key(self, tmp_path):
        frames = make_frames()
        assert "laeo_pairs" not in frames[2].to_dict()
        assert frames[1].to_dict()["laeo_pairs"] == []
        path = tmp_path / "frames.jsonl"
        write_frames(path, frames)
        loaded = read_frames(path)
        assert loaded[0].has_labels and loaded[1].has_labels
        assert not loaded[2].has_labels

    def test_log_variance_requires_pose(self, tmp_path):
        kp = [[0, 0, 1], [1, 0, 1], [2, 0, 1], [3, 0, 1], [4, 0, 1]]
        row = {
            "frame_id": "f",
            "heads": [{"id": "a", "centroid": [0, 0], "keypoints": kp, "log_variance": [1, 1, 1]}],
        }
        path = write_lines(tmp_path, [json.dumps(row)])
        assert read_frames(path)[0].heads[0].log_variance is None

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
                expect = model.params[name].data.astype("<f4").astype(np.float64)
                assert np.array_equal(loaded.params[name].data, expect), name

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
        pytest.param(lambda d: {k: v for k, v in d.items() if k != "model_config"},
                     ("model_config",), id="missing-config"),
        pytest.param(lambda d: [1, 2], ("not a model file",), id="header-not-an-object"),
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
