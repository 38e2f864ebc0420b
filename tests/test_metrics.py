import numpy as np
import pytest

from calibkit.core import BinningConfig, Dataset, SchemaError, bin_index_array
from calibkit.genmodel import (
    FiniteGenerativeModel,
    Predictor,
    make_model,
    population_cw_ece,
    sample_dataset,
)
from calibkit.metrics import (
    BinStats,
    EmptyInput,
    NonFiniteInput,
    PairwisePreferenceRecord,
    accuracy,
    conf_ece,
    cw_ece,
    cw_ece_arrays,
    metric_row,
    win_rate,
)


def _ds(probs, labels):
    return Dataset.from_arrays(np.asarray(probs, dtype=float), np.asarray(labels))


def test_accuracy_half():
    ds = _ds([[0.6, 0.4], [0.6, 0.4], [0.4, 0.6], [0.4, 0.6]], [0, 1, 0, 1])
    assert accuracy(ds) == 0.5


def test_accuracy_one_hot_correct():
    ds = _ds([[1, 0], [0, 1]], [0, 1])
    assert accuracy(ds) == 1.0


def test_accuracy_uniform_tie_break():
    # Uniform confidences all argmax to class 0; exactly one label is 0.
    ds = _ds([[0.25] * 4] * 4, [0, 1, 2, 3])
    assert accuracy(ds) == 0.25


def test_conf_ece_single_bin_fixture():
    ds = _ds([[0.8, 0.1, 0.05, 0.05]] * 4, [0, 0, 1, 2])
    ece, bins = conf_ece(ds, BinningConfig(M=10))
    assert abs(ece - 0.3) < 1e-12
    row = bins[7]
    assert (row.m, row.count) == (8, 4)
    assert row.mean_conf == pytest.approx(0.8, abs=1e-15)
    assert row.empirical_freq == 0.5
    assert sum(b.count for b in bins) == 4


def test_conf_ece_one_hot_correct_is_zero():
    ds = _ds([[1, 0, 0, 0]] * 5, [0] * 5)
    ece, bins = conf_ece(ds)
    assert ece == 0.0
    assert bins[9].count == 5 and bins[9].empirical_freq == 1.0


def test_conf_ece_permutation_invariant():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(4), 300)
    labels = rng.integers(0, 4, 300)
    ds = _ds(probs, labels)
    perm = rng.permutation(300)
    ds2 = _ds(probs[perm], labels[perm])
    assert conf_ece(ds)[0] == pytest.approx(conf_ece(ds2)[0], abs=1e-12)
    assert cw_ece(ds)[0] == pytest.approx(cw_ece(ds2)[0], abs=1e-12)


def test_metrics_split_recombine_identical():
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(4), 200)
    labels = rng.integers(0, 4, 200)
    whole = conf_ece(_ds(probs, labels))[0]
    # Binning is global and order-free: concatenating parts changes nothing.
    recombined = conf_ece(_ds(np.vstack([probs[:50], probs[50:]]), labels))[0]
    assert whole == recombined


def test_cw_ece_uniform_balanced_is_zero():
    ds = _ds([[0.25] * 4] * 4, [0, 1, 2, 3])
    val, tables = cw_ece(ds, BinningConfig(M=10))
    assert val == 0.0
    assert len(tables) == 4 and all(len(t) == 10 for t in tables)


def test_cw_ece_collapsed_predictor_fixture():
    ds = _ds([[1.0, 0.0, 0.0, 0.0]] * 4, [0, 1, 2, 3])
    val, tables = cw_ece(ds, BinningConfig(M=10))
    assert abs(val - 0.375) < 1e-12
    assert tables[0][9].count == 4 and tables[0][9].empirical_freq == 0.25
    assert tables[1][0].count == 4 and tables[1][0].mean_conf == 0.0


def _reference_cw_ece(probs, labels, M):
    """cw-ECE and its tables from one 1-D binning pass per class, summed in
    class order: the per-class loop the stacked kernel replaced."""
    n, k = probs.shape
    total, tables = 0.0, []
    for j in range(k):
        values, events = probs[:, j], (labels == j).astype(float)
        idx = bin_index_array(values, M)
        counts = np.bincount(idx, minlength=M + 1)[1:]
        val_sums = np.bincount(idx, weights=values, minlength=M + 1)[1:]
        evt_sums = np.bincount(idx, weights=events, minlength=M + 1)[1:]
        occupied = counts > 0
        mean_conf = np.divide(val_sums, counts, out=np.zeros(M), where=occupied)
        freq = np.divide(evt_sums, counts, out=np.zeros(M), where=occupied)
        total += float((np.abs(freq - mean_conf) * counts).sum() / n)
        tables.append([
            BinStats(m, (m - 1) / M, m / M, int(counts[m - 1]),
                     float(mean_conf[m - 1]), float(freq[m - 1]))
            for m in range(1, M + 1)
        ])
    return total / k, tables


@pytest.mark.parametrize("M", [1, 10, 13])
@pytest.mark.parametrize("k", [2, 3, 4, 9])
def test_stacked_cw_ece_equals_per_class_loop(k, M):
    rng = np.random.default_rng(100 * k + M)
    n = 300
    probs = rng.dirichlet(np.ones(k) * 0.6, n)
    probs[:5] = np.eye(k)[rng.integers(0, k, 5)]
    probs[5:10] = 0.0
    probs[5:10, :2] = [0.3, 0.7]
    labels = rng.integers(0, k, n)
    expected = _reference_cw_ece(probs, labels, M)
    assert cw_ece_arrays(probs, labels, M) == expected
    assert metric_row(probs, labels, M)["cw_ece"] == expected[0]


def test_cw_ece_rejects_labels_not_aligned_with_the_rows():
    probs = np.full((4, 2), 0.5)
    for labels in (np.zeros(3, dtype=int), np.zeros((4, 1), dtype=int), 0):
        with pytest.raises(SchemaError):
            cw_ece_arrays(probs, labels, 10)


def test_ece_bounds_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(3), 50)
        labels = rng.integers(0, 3, 50)
        ds = _ds(probs, labels)
        assert 0.0 <= conf_ece(ds)[0] <= 1.0
        assert 0.0 <= cw_ece(ds)[0] <= 1.0


def test_population_gaps_group_signed_zeros_together():
    # Predictor accepts both rows; as floats their class-0 confidences are
    # one group, whose class-0 frequency 0 matches it exactly.
    model = FiniteGenerativeModel(3, ["a", "b"], [0.5, 0.5], [[0, 1, 0], [0, 0, 1]])
    pred = Predictor(["a", "b"], [[-0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    assert population_cw_ece(model, pred) == 0.0


def test_reliability_modes():
    """The reliability tables: conf-ECE's top-confidence table and cw-ECE's
    table of each class."""
    ds = _ds([[0.8, 0.1, 0.05, 0.05]] * 4, [0, 0, 1, 2])
    conf_rows = conf_ece(ds, BinningConfig(M=10))[1]
    assert conf_rows[7].count == 4 and conf_rows[7].empirical_freq == 0.5

    uniform = _ds([[0.25] * 4] * 4, [0, 1, 2, 3])
    class1 = cw_ece(uniform, BinningConfig(M=10))[1][1]
    occupied = [b for b in class1 if b.count]
    assert len(occupied) == 1
    assert occupied[0].mean_conf == 0.25 and occupied[0].empirical_freq == 0.25

    onehot = _ds([[1, 0, 0, 0]] * 3, [0, 0, 0])
    rows = conf_ece(onehot)[1]
    assert rows[9].count == 3 and rows[9].empirical_freq == 1.0


def test_sampled_generative_predictor_is_calibrated():
    model = make_model("dirichlet", 4, 40, alpha=1.0, seed=13)
    ds = sample_dataset(model, Predictor.from_model(model), 20000, seed=13)
    assert conf_ece(ds)[0] <= 0.03
    assert cw_ece(ds)[0] <= 0.03


def test_win_rate_examples():
    mk = lambda i, c, r: PairwisePreferenceRecord(f"p{i}", c, r)
    assert win_rate([mk(0, -1.0, -2.0), mk(1, -0.5, -3.0)]) == 1.0
    assert win_rate([mk(0, -1.0, -1.0), mk(1, -2.0, -2.0)]) == 0.0
    pairs = [mk(0, -1, -2), mk(1, -1, -2), mk(2, -1, -2), mk(3, -3, -2)]
    assert win_rate(pairs) == 0.75
    with pytest.raises(EmptyInput):
        win_rate([])


def test_win_rate_negation_without_ties():
    rng = np.random.default_rng(6)
    pairs, flipped = [], []
    for i in range(50):
        a, b = rng.normal(size=2)
        if a == b:
            continue
        pairs.append(PairwisePreferenceRecord(f"p{i}", a, b))
        flipped.append(PairwisePreferenceRecord(f"p{i}", b, a))
    assert win_rate(pairs) == pytest.approx(1.0 - win_rate(flipped), abs=1e-12)


def test_pair_record_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        PairwisePreferenceRecord("p", float("nan"), 0.0)

