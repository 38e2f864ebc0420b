import numpy as np
import pytest

from calibkit.core import Dataset, OutOfRange, SchemaError, bin_index_array
from calibkit.genmodel import (
    FiniteGenerativeModel,
    Predictor,
    make_model,
    population_cw_ece,
    sample_dataset,
)
from calibkit.metrics import (
    EmptyInput,
    accuracy,
    build_report,
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
    ece, (counts, mean_conf, freq) = conf_ece(ds, 10)
    assert abs(ece - 0.3) < 1e-12
    assert counts[7] == 4
    assert mean_conf[7] == pytest.approx(0.8, abs=1e-15)
    assert freq[7] == 0.5
    assert counts.sum() == 4


def test_conf_ece_one_hot_correct_is_zero():
    ds = _ds([[1, 0, 0, 0]] * 5, [0] * 5)
    ece, (counts, _, freq) = conf_ece(ds)
    assert ece == 0.0
    assert counts[9] == 5 and freq[9] == 1.0


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
    val, tables = cw_ece(ds, 10)
    assert val == 0.0
    assert all(t.shape == (4, 10) for t in tables)


def test_cw_ece_collapsed_predictor_fixture():
    ds = _ds([[1.0, 0.0, 0.0, 0.0]] * 4, [0, 1, 2, 3])
    val, (counts, mean_conf, freq) = cw_ece(ds, 10)
    assert abs(val - 0.375) < 1e-12
    assert counts[0, 9] == 4 and freq[0, 9] == 0.25
    assert counts[1, 0] == 4 and mean_conf[1, 0] == 0.0


def _reference_cw_ece(probs, labels, M):
    """cw-ECE and its tables from one 1-D binning pass per class, summed in
    class order: the per-class loop the stacked kernel replaced."""
    n, k = probs.shape
    total, tables = 0.0, ([], [], [])
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
        for table, row in zip(tables, (counts, mean_conf, freq)):
            table.append(row)
    return total / k, tuple(np.stack(t) for t in tables)


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
    got = cw_ece_arrays(probs, labels, M)
    assert got[0] == expected[0]
    for table, want in zip(got[1], expected[1]):
        assert table.dtype == want.dtype and table.tobytes() == want.tobytes()
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
    model = FiniteGenerativeModel(3, [0.5, 0.5], [[0, 1, 0], [0, 0, 1]])
    pred = Predictor([[-0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    assert population_cw_ece(model, pred) == 0.0


def test_reliability_modes():
    """The reliability tables: conf-ECE's top-confidence table and cw-ECE's
    table of each class."""
    ds = _ds([[0.8, 0.1, 0.05, 0.05]] * 4, [0, 0, 1, 2])
    counts, _, freq = conf_ece(ds, 10)[1]
    assert counts[7] == 4 and freq[7] == 0.5

    uniform = _ds([[0.25] * 4] * 4, [0, 1, 2, 3])
    counts, mean_conf, freq = (table[1] for table in cw_ece(uniform, 10)[1])
    occupied = np.flatnonzero(counts)
    assert occupied.tolist() == [2]
    assert mean_conf[2] == 0.25 and freq[2] == 0.25

    onehot = _ds([[1, 0, 0, 0]] * 3, [0, 0, 0])
    counts, _, freq = conf_ece(onehot)[1]
    assert counts[9] == 3 and freq[9] == 1.0


@pytest.mark.parametrize("M", [0, -1, 2**31])
def test_dataset_metrics_take_a_checked_int_bin_count(M):
    ds = _ds([[0.8, 0.2]] * 2, [0, 1])
    for metric in (conf_ece, cw_ece, build_report):
        with pytest.raises(OutOfRange, match=f"bin count {M} must be"):
            metric(ds, M)


def test_sampled_generative_predictor_is_calibrated():
    model = make_model("dirichlet", 4, 40, alpha=1.0, seed=13)
    ds = sample_dataset(model, Predictor.from_model(model), 20000, seed=13)
    assert conf_ece(ds)[0] <= 0.03
    assert cw_ece(ds)[0] <= 0.03


def test_win_rate_examples():
    assert win_rate(np.array([-1.0, -0.5]), np.array([-2.0, -3.0])) == 1.0
    assert win_rate(np.array([-1.0, -2.0]), np.array([-1.0, -2.0])) == 0.0
    assert win_rate([-1, -1, -1, -3], [-2, -2, -2, -2]) == 0.75
    with pytest.raises(EmptyInput):
        win_rate([], [])


def test_win_rate_negation_without_ties():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(50, 2)).T
    keep = a != b
    a, b = a[keep], b[keep]
    assert win_rate(a, b) == pytest.approx(1.0 - win_rate(b, a), abs=1e-12)


def test_win_rate_takes_aligned_1d_arrays_and_a_nan_pair_loses():
    assert win_rate([np.nan, 0.0, 0.0], [0.0, np.nan, -1.0]) == 1 / 3
    for chosen, reject in (([0.0], [0.0, 1.0]), ([[0.0]], [[1.0]]), (0.0, 1.0)):
        with pytest.raises(SchemaError):
            win_rate(chosen, reject)
