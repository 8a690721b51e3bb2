"""labels.json's text for any representative bits: LabelTable.write_json
writes what json.dumps writes for the whole payload."""

import struct

import numpy as np
import pytest

from provprune import label
from provprune.label import BENIGN, MALICIOUS, LabelTable

from oracles import reference_table_json, table_json

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
