"""Property tests over small random inputs; they need the ``test`` extra."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from calibkit.genmodel import FiniteGenerativeModel, Predictor, population_cw_ece, tce


def _rows(draw, s, k):
    """s rows of k small integer counts (at least one positive) over their sum."""
    count_row = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    counts = np.asarray(draw(st.lists(count_row, min_size=s, max_size=s)), dtype=float)
    return counts / counts.sum(axis=1, keepdims=True)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_population_cw_ece_bounded_by_tce(data):
    k = data.draw(st.integers(2, 4), label="k")
    s = data.draw(st.integers(1, 6), label="s")
    w = np.asarray(
        data.draw(st.lists(st.integers(0, 3), min_size=s, max_size=s).filter(any)),
        dtype=float,
    )
    ids = [f"x{i}" for i in range(s)]
    model = FiniteGenerativeModel(k, ids, w / w.sum(), _rows(data.draw, s, k))
    predictor = Predictor(ids, _rows(data.draw, s, k))
    assert population_cw_ece(model, predictor) <= tce(model, predictor) + 1e-12
