"""The feature container on disk: a damaged file raises an error naming the
file, and a non-finite row also names its feature and its sample."""

import numpy as np
import pytest

import malfusion.substrate as S
from malfusion.features import FeatureError, load_features, save_features

IDS = ["s0", "s,1", "s\n2"]  # a comma or a line break is a legal id


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "features.mfc"
    save_features(path, IDS, {"api_freq": np.arange(6.0).reshape(3, 2),
                              "pe_onehot": np.ones((3, 4))})
    return path


def test_saved_features_load_back(saved):
    ids, features = load_features(saved)
    assert ids == IDS
    assert list(features) == ["api_freq", "pe_onehot"]
    assert np.array_equal(features["api_freq"], np.arange(6.0).reshape(3, 2))


@pytest.mark.parametrize("sample_id", ["a,b", "a\nb", "a\rb", "a\u2028b"])
def test_any_sample_id_loads_back(tmp_path, sample_id):
    path = tmp_path / "features.mfc"
    save_features(path, ["s0", sample_id], {"api_freq": np.zeros((2, 3))})
    assert load_features(path)[0] == ["s0", sample_id]


def _set(name, value):
    def damage(meta, arrays):
        arrays[name] = value(arrays[name]) if name in arrays else value
    return damage


def _nan_at(row):
    def value(matrix):
        matrix[row, 1] = np.nan
        return matrix
    return value


@pytest.mark.parametrize("damage, message", [
    (lambda meta, arrays: meta.pop("sample_ids"), "sample_ids is not a list of strings"),
    (lambda meta, arrays: meta.update(sample_ids=[0, 1, 2]),
     "sample_ids is not a list of strings"),
    (_set("bogus", np.zeros((3, 1))), "unknown feature name 'bogus'"),
    (_set("api_freq", lambda m: m.astype(np.float32)),
     "api_freq is float32(3, 2), expected float64 rows for 3 samples"),
    (_set("api_freq", lambda m: m[:2]),
     "api_freq is float64(2, 2), expected float64 rows for 3 samples"),
    (_set("api_freq", lambda m: m.ravel()),
     "api_freq is float64(6,), expected float64 rows for 3 samples"),
    (_set("pe_onehot", _nan_at(1)), "pe_onehot row for 's,1' has non-finite values"),
    (_set("api_freq", lambda m: np.where(m == 5.0, np.inf, m)),
     "api_freq row for 's\\n2' has non-finite values"),
], ids=["no-ids", "int-ids", "name", "float32", "row-count", "one-dimensional",
        "nan-row", "inf-row"])
def test_malformed_file_is_named(saved, damage, message):
    meta, arrays = S.load_container(saved)
    damage(meta, arrays)
    S.save_container(saved, meta, arrays)
    with pytest.raises(FeatureError) as err:
        load_features(saved)
    assert str(err.value) == f"{saved}: {message}"


@pytest.mark.parametrize("damage, message", [
    (lambda blob: blob[:len(blob) // 2], "truncated at byte"),
    (lambda blob: b"s0,1.0\n" + blob, "not a model container (bad magic)"),
    (lambda blob: blob + b"\0", "1 trailing bytes"),
], ids=["truncated", "foreign", "trailing"])
def test_damaged_file_is_named(saved, damage, message):
    saved.write_bytes(damage(saved.read_bytes()))
    with pytest.raises(S.ContainerError) as err:
        load_features(saved)
    assert str(err.value).startswith(f"{saved}: {message}")
