"""Feature tables on disk: malformed files raise FeatureError naming the file,
and the sample where a row is at fault; ids the reader cannot split are
rejected at write time."""

import re

import numpy as np
import pytest

from malfusion.features import FeatureError, FeatureTable, load_features, save_features


@pytest.mark.parametrize("text, message", [
    ("api_freq,abc\ns0,1.0\n", "bad header 'api_freq,abc'"),
    ("bogus,1\ns0,1.0\n", "unknown feature name 'bogus'"),
    ("api_freq,2\ns0,1.0,0.5\ns1,abc,0.5\n", "row for 's1' has a value that is not a number"),
], ids=["length", "name", "cell"])
def test_malformed_file_is_named(tmp_path, text, message):
    path = tmp_path / "api_freq.csv"
    path.write_text(text)
    with pytest.raises(FeatureError) as err:
        load_features(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("sample_id", ["a,b", "a\nb", "a\rb", "a\u2028b"])
def test_unreadable_sample_id_rejected_at_write(tmp_path, sample_id):
    table = FeatureTable("api_freq", ["s0", sample_id], np.zeros((2, 3)))
    path = tmp_path / "api_freq.csv"
    with pytest.raises(FeatureError, match=re.escape(f"sample id {sample_id!r} holds a comma")):
        save_features(table, path)
    assert not path.exists()
