"""labels.json's text for any representative bits: LabelTable.write_json
writes what json.dumps writes for the whole payload. Any table the labeler
can give loads back from the files it is saved as."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from provprune import label
from provprune.embed import effective_threshold
from provprune.label import BENIGN, MALICIOUS, LabelTable
from provprune.nodeset import NodeSet

from oracles import reference_table_json, sequential_labels, table_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

BITS = 2 ** 64 - 1


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# Magnitudes where json.dumps turns to exponent notation, and their
# neighbours.
_EDGES = [_bits(float(x)) for edge in (1e-4, 1e16) for sign in (1, -1)
          for x in (np.nextafter(sign * edge, 0), sign * edge,
                    np.nextafter(sign * edge, sign * np.inf))]

# Any bit pattern (NaN payloads, infinities, subnormals, both zeros), or a
# value json.dumps writes without an exponent.
any_bits = st.one_of(st.integers(0, BITS),
                     st.floats().map(_bits),
                     st.sampled_from(_EDGES))
plain_bits = st.one_of(st.floats(min_value=1e-4, max_value=1e16,
                                 exclude_max=True),
                       st.floats(min_value=-1e16, max_value=-1e-4,
                                 exclude_min=True),
                       st.sampled_from([0.0, -0.0])).map(_bits)


@st.composite
def tables(draw):
    """Tables of up to 12 labels of width 1 to 70. A row draws from any
    bits or only from plain values, so rows of both kinds reach the
    writer."""
    width = draw(st.integers(1, 70))
    rows = draw(st.lists(st.one_of(
        st.lists(any_bits, min_size=width, max_size=width),
        st.lists(plain_bits, min_size=width, max_size=width)),
        max_size=12))
    count = len(rows)
    reps = np.array(rows, dtype=np.uint64).reshape(count, width)
    return LabelTable(
        polarity=[MALICIOUS if i % 3 else BENIGN for i in range(count)],
        member_count=[1] * count, representatives=reps.view(np.float64),
        assignment=list(range(count)))


@hypothesis.given(tables(), st.sampled_from([1, 3, label.WRITE_LABELS]))
def test_write_json_equals_json_dumps_for_any_bits(table, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(label, "WRITE_LABELS", chunk)
        assert table_json(table) == reference_table_json(table)


# Feature values: any but a NaN of another sign or payload than the one
# json.loads gives for `NaN`, which the sidecar stores for every NaN.
FEATURE_VALUES = st.one_of(st.floats(allow_nan=False),
                           st.sampled_from([0.0, -0.0, 1.0, float("nan")]))


@st.composite
def labeled_sets(draw):
    """Up to 30 chains of width 1 to 5, drawn from up to 6 rows so that
    some join labels, a malicious id set and a cutoff."""
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(FEATURE_VALUES, min_size=width,
                                  max_size=width), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=30))
    sets = [NodeSet(node_ids=(f"x{k}", f"y{row}"), edge_indices=(k,),
                    anchor_ts=k, feature=np.array(rows[row]))
            for k, row in enumerate(picks)]
    malicious = {f"y{row}" for row in draw(st.sets(st.integers(0, 5)))}
    threshold = draw(st.sampled_from([1.0, 0.99, 0.0, -1.0]))
    return sets, malicious, effective_threshold(threshold)


# Infinite and huge features overflow their norms, as they may in labeling.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@hypothesis.given(labeled_sets())
def test_labeled_table_loads_back_from_its_files(case):
    """A table labeled one chain at a time, written as labels.json and its
    sidecar, loads back with equal columns, representatives bit for bit,
    and its stamp."""
    table = sequential_labels(*case)
    stamp = {"model": "hash-ngrams", "threshold": case[2]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.json"
        with open(path, "w", encoding="utf-8") as fh:
            table.write_json(fh)
            fh.write("\n")
        label.write_sidecar(table, path, stamp)
        back, back_stamp = label.label_table_from_json(
            path.read_text(encoding="utf-8"), label.sidecar_path(path))
    assert back_stamp == stamp
    assert back.polarity == table.polarity
    assert back.member_count == table.member_count
    assert back.assignment == table.assignment
    assert back.zero_vector_sets == table.zero_vector_sets
    assert back.representatives.dtype == np.float64
    assert back.representatives.shape == table.representatives.shape
    assert (back.representatives.view(np.uint64).tolist()
            == table.representatives.view(np.uint64).tolist())
