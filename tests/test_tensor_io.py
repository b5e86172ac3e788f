import json
import os
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import ude.tensor_io
from ude.tensor_io import (
    MAGIC,
    PROVENANCE,
    TensorFormatError,
    load_artifact,
    load_tensor,
    save_artifact,
    save_tensor,
    tensor_bytes,
    tensor_digest,
)

f32_elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                         width=32)


@given(arrays(np.float32, array_shapes(min_dims=1, max_dims=4, max_side=5),
              elements=f32_elements))
@settings(max_examples=60, deadline=None)
def test_round_trip_bit_exact(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("tio") / "t.udet"
    save_tensor(path, arr)
    back = load_tensor(path)
    assert back.shape == arr.shape
    assert back.dtype == np.float32
    assert arr.tobytes() == back.tobytes()


def test_header_layout():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    blob = tensor_bytes(arr)
    assert blob[:4] == MAGIC
    version, rank = struct.unpack_from("<HB", blob, 4)
    assert (version, rank) == (1, 2)
    assert struct.unpack_from("<2I", blob, 7) == (2, 3)
    assert blob[15:] == arr.tobytes()


def test_rank_zero_blob_loads(tmp_path):
    path = tmp_path / "s.udet"
    path.write_bytes(MAGIC + struct.pack("<HB", 1, 0) + struct.pack("<f", 2.5))
    back = load_tensor(path)
    assert back.shape == ()
    assert float(back) == 2.5


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.udet"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.udet"
    path.write_bytes(MAGIC + struct.pack("<HB", 9, 0) + struct.pack("<f", 0.0))
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_truncated_payload(tmp_path):
    arr = np.ones(4, dtype=np.float32)
    path = tmp_path / "t.udet"
    save_tensor(path, arr)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        tensor_bytes(np.array([np.inf], dtype=np.float32))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite(tmp_path, value):
    """A blob tensor_bytes would refuse to write does not load either."""
    path = tmp_path / "t.udet"
    save_tensor(path, np.ones(3, dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", value))
    with pytest.raises(TensorFormatError, match="non-finite"):
        load_tensor(path)


def test_digest_tracks_content():
    a = np.zeros(3, dtype=np.float32)
    b = np.zeros(3, dtype=np.float32)
    assert tensor_digest(a) == tensor_digest(b)
    b[0] = 1.0
    assert tensor_digest(a) != tensor_digest(b)


@dataclass
class Thing:
    w: np.ndarray
    b: np.ndarray
    seed: int
    trace: list


class TestArtifact:
    THING = Thing(np.arange(6, dtype=np.float32).reshape(2, 3), np.ones(3, dtype=np.float32),
                  4, [0.5, 0.25])

    @pytest.fixture
    def saved(self, tmp_path):
        save_artifact(tmp_path, "thing", self.THING, note="n")
        return tmp_path

    def edit_provenance(self, path, **changes):
        prov = json.loads((path / PROVENANCE).read_text())
        (path / PROVENANCE).write_text(json.dumps({**prov, **changes}))

    def test_round_trip(self, saved):
        back = load_artifact(saved, "thing", Thing, notes=("note",))
        assert (back.w.tobytes(), back.b.tobytes()) == \
            (self.THING.w.tobytes(), self.THING.b.tobytes())
        assert (back.seed, back.trace) == (4, [0.5, 0.25])
        assert json.loads((saved / PROVENANCE).read_text()) == {
            "kind": "thing", "tensors": {"w": [2, 3], "b": [3]}, "seed": 4,
            "trace": [0.5, 0.25], "note": "n"}
        assert list(json.loads((saved / PROVENANCE).read_text())) == [
            "kind", "tensors", "seed", "trace", "note"]

    def test_a_key_neither_field_nor_note_is_refused(self, saved):
        with pytest.raises(TypeError, match="note"):
            load_artifact(saved, "thing", Thing)

    def test_wrong_kind(self, saved):
        with pytest.raises(TensorFormatError, match="other"):
            load_artifact(saved, "other", Thing, notes=("note",))

    def test_shape_mismatch(self, saved):
        self.edit_provenance(saved, tensors={"w": [3, 2], "b": [3]})
        with pytest.raises(TensorFormatError, match="shape"):
            load_artifact(saved, "thing", Thing, notes=("note",))

    @pytest.mark.parametrize("shapes", [{"w": (2, 3)}, {"w": (None, 3), "b": (None,)},
                                        {"w": (None, None)}])
    def test_required_shapes_that_hold(self, saved, shapes):
        assert load_artifact(saved, "thing", Thing, ("note",), shapes).w.shape == (2, 3)

    @pytest.mark.parametrize("shapes", [{"w": (2, 4)}, {"w": (None,)}, {"b": (3, None)},
                                        {"seed": (4,)}])
    def test_required_shapes_that_fail(self, saved, shapes):
        with pytest.raises(TensorFormatError, match="shape"):
            load_artifact(saved, "thing", Thing, ("note",), shapes)

    def test_missing_tensor_file(self, saved):
        (saved / "b.udet").unlink()
        with pytest.raises(FileNotFoundError):
            load_artifact(saved, "thing", Thing, notes=("note",))

    @pytest.mark.parametrize("raw", ["[]", '"thing"', "3", "null", "{broken", "\udcff"])
    def test_provenance_not_a_json_object(self, saved, raw):
        (saved / PROVENANCE).write_text(raw, errors="surrogateescape")
        with pytest.raises(TensorFormatError):
            load_artifact(saved, "thing", Thing, notes=("note",))

    @pytest.mark.parametrize("tensors", [None, [], "w"])
    def test_provenance_without_a_tensor_listing(self, saved, tensors):
        self.edit_provenance(saved, tensors=tensors)
        with pytest.raises(TensorFormatError):
            load_artifact(saved, "thing", Thing, notes=("note",))


@pytest.mark.parametrize("name", [os.path.join("..", "..", "outside", "secret"), "seed",
                                  "nothing"])
def test_a_listed_tensor_that_is_no_array_field_is_refused_unopened(tmp_path, monkeypatch,
                                                                    name):
    """A provenance listing a tensor name that is not an ndarray field of
    the class, even one whose file exists, outside the artifact's directory
    or inside it, is refused before any tensor file is opened."""
    art = tmp_path / "run" / "thing"
    save_artifact(art, "thing", TestArtifact.THING)
    os.makedirs(tmp_path / "outside")
    save_tensor(art / f"{name}.udet", np.zeros(1, np.float32))
    prov = json.loads((art / PROVENANCE).read_text())
    prov["tensors"][name] = [1]
    (art / PROVENANCE).write_text(json.dumps(prov))
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(ude.tensor_io, "open", spy, raising=False)
    with pytest.raises(TensorFormatError, match=r"of tensors \['b', 'w'\]"):
        load_artifact(art, "thing", Thing)
    assert opened == [os.path.join(art, PROVENANCE)]
