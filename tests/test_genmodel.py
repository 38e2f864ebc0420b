import numpy as np
import pytest

from calibkit.core import ConfidenceVector
from calibkit.genmodel import (
    BadParams,
    FiniteGenerativeModel,
    NoDisagreement,
    Predictor,
    UnknownSupportPoint,
    classify_regime,
    construct_bound_predictor,
    labeled_accuracy,
    labels_matching_accuracy,
    lower_bound_constant,
    make_model,
    population_accuracy,
    population_cw_ece,
    realize_labels,
    sample_dataset,
    tce,
    verify_ece_le_tce,
)
from calibkit.metrics import accuracy


def _one_point():
    return FiniteGenerativeModel(4, ["a"], [1.0], [[1, 0, 0, 0]])


def test_make_model_pure_random():
    m = make_model("pure-random", 4, 10)
    assert np.allclose(m.label_probs, 0.25)
    assert np.allclose(m.weights, 0.1)


def test_make_model_deterministic_round_robin():
    m = make_model("deterministic", 4, 4)
    assert np.array_equal(m.label_probs, np.eye(4))
    m2 = make_model("deterministic", 4, 10)
    counts = m2.label_probs.argmax(axis=1)
    assert np.bincount(counts, minlength=4).tolist() == [3, 3, 2, 2]


def test_make_model_dirichlet_concentration_limit():
    m = make_model("dirichlet", 4, 1, alpha=1e6, seed=0)
    assert np.allclose(m.label_probs[0], 0.25, atol=1e-2)


def test_make_model_bad_params():
    with pytest.raises(BadParams):
        make_model("gaussian", 4, 10)
    with pytest.raises(BadParams):
        make_model("dirichlet", 4, 10, alpha=0.0)
    with pytest.raises(BadParams):
        make_model("pure-random", 4, 0)


def test_model_json_round_trip():
    m = make_model("dirichlet", 4, 7, alpha=0.5, seed=5)
    back = FiniteGenerativeModel.from_json_dict(m.to_json_dict())
    assert back.support == m.support
    assert np.array_equal(back.weights, m.weights)
    assert np.array_equal(back.label_probs, m.label_probs)


def test_sample_dataset_pure_random_accuracy():
    m = make_model("pure-random", 4, 10)
    ds = sample_dataset(m, Predictor.from_model(m), 100000, seed=1)
    assert abs(accuracy(ds) - 0.25) <= 0.01


def test_sample_dataset_deterministic_accuracy():
    m = make_model("deterministic", 4, 8)
    ds = sample_dataset(m, Predictor.from_model(m), 500, seed=2)
    assert accuracy(ds) == 1.0


def test_sample_dataset_single_record():
    m = make_model("pure-random", 4, 3)
    ds = sample_dataset(m, Predictor.from_model(m), 1, seed=3)
    assert ds.n == 1


def test_sample_dataset_deterministic_given_seed():
    m = make_model("dirichlet", 4, 20, alpha=1.0, seed=4)
    a = sample_dataset(m, Predictor.from_model(m), 200, seed=9)
    b = sample_dataset(m, Predictor.from_model(m), 200, seed=9)
    assert np.array_equal(a.probs_matrix, b.probs_matrix)
    assert np.array_equal(a.labels_array, b.labels_array)


def test_predictor_unknown_point():
    m = _one_point()
    p = Predictor(["z"], [[0.25, 0.25, 0.25, 0.25]])
    with pytest.raises(UnknownSupportPoint):
        p.matrix_for(m.support)
    with pytest.raises(UnknownSupportPoint):
        p.vector_for("a")


def test_tce_examples():
    m = _one_point()
    assert tce(m, Predictor.from_model(m)) == 0.0
    assert tce(m, Predictor(["a"], [[0, 1, 0, 0]])) == pytest.approx(0.5, abs=1e-15)
    m2 = FiniteGenerativeModel(
        4, ["a", "b"], [0.5, 0.5], [[1, 0, 0, 0], [0.25, 0.25, 0.25, 0.25]]
    )
    # Per-point scaled L1 gaps of 0.5 and 0 average to 0.25.
    pred = Predictor(["a", "b"], [[0, 1, 0, 0], [0.25, 0.25, 0.25, 0.25]])
    assert tce(m2, pred) == pytest.approx(0.25, abs=1e-15)


def test_tce_symmetric_triangle_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = rng.integers(2, 30)
        w = rng.dirichlet(np.ones(s))
        a = rng.dirichlet(np.ones(4), s)
        b = rng.dirichlet(np.ones(4), s)
        c = rng.dirichlet(np.ones(4), s)
        ma = FiniteGenerativeModel(4, [f"x{i}" for i in range(s)], w, a)
        pb = Predictor([f"x{i}" for i in range(s)], b)
        pc = Predictor([f"x{i}" for i in range(s)], c)
        mb = FiniteGenerativeModel(4, [f"x{i}" for i in range(s)], w, b)
        pa = Predictor([f"x{i}" for i in range(s)], a)
        assert tce(ma, pb) == pytest.approx(tce(mb, pa), abs=1e-12)
        assert tce(ma, pb) <= 2.0
        assert tce(ma, pc) <= tce(ma, pb) + tce(mb, pc) + 1e-12


def test_construct_bound_identity_when_target_is_reference():
    m = make_model("dirichlet", 4, 10, alpha=1.0, seed=21)
    labels = realize_labels(m, seed=21)
    built = construct_bound_predictor(m, labels, labeled_accuracy(m, Predictor.from_model(m), labels))
    assert tce(m, built.predictor) == 0.0
    assert np.array_equal(built.predictor.probs, m.label_probs)


def test_construct_bound_raises_accuracy():
    # Uniform-weight 10-point support with 6 correctly labeled points; moving
    # to 0.8 flips exactly two wrong points to a one-hot on their label.
    m = make_model("dirichlet", 4, 10, alpha=1.0, seed=3)
    labels = labels_matching_accuracy(m, 0.6)
    ref = Predictor.from_model(m)
    assert labeled_accuracy(m, ref, labels) == pytest.approx(0.6, abs=1e-12)
    built = construct_bound_predictor(m, labels, 0.8)
    assert built.achieved_acc == pytest.approx(0.8, abs=1e-12)
    flipped = (built.predictor.probs != m.label_probs).any(axis=1).sum()
    assert flipped == 2
    assert labeled_accuracy(m, built.predictor, labels) == pytest.approx(0.8, abs=1e-12)
    assert tce(m, built.predictor) <= 2 * abs(0.6 - built.achieved_acc) + 1e-12


def test_construct_bound_lowers_accuracy():
    m = make_model("dirichlet", 4, 10, alpha=1.0, seed=3)
    labels = labels_matching_accuracy(m, 0.6)
    built = construct_bound_predictor(m, labels, 0.3)
    assert built.achieved_acc == pytest.approx(0.3, abs=1e-12)
    assert tce(m, built.predictor) <= 0.6 + 1e-12
    assert labeled_accuracy(m, built.predictor, labels) == pytest.approx(0.3, abs=1e-12)


def test_construct_bound_rejects_foreign_reference():
    m = make_model("dirichlet", 4, 6, alpha=1.0, seed=1)
    labels = realize_labels(m, seed=1)
    other = Predictor(list(m.support), np.full((6, 4), 0.25))
    with pytest.raises(BadParams):
        construct_bound_predictor(m, labels, 0.5, pi_star=other)


def test_lower_bound_no_disagreement():
    m = _one_point()
    p = Predictor.from_model(m)
    with pytest.raises(NoDisagreement):
        lower_bound_constant(m, p, p)


def test_lower_bound_one_point():
    m = _one_point()
    c, holds = lower_bound_constant(m, Predictor.from_model(m), Predictor(["a"], [[0, 1, 0, 0]]))
    assert c == pytest.approx(0.25, abs=1e-15)
    assert holds


def test_lower_bound_random_sweep():
    rng = np.random.default_rng(31)
    checked = 0
    for seed in range(300):
        m = make_model("dirichlet", 4, 50, alpha=1.0, seed=seed)
        pi = Predictor(list(m.support), rng.dirichlet(np.ones(4), 50))
        try:
            c, holds = lower_bound_constant(m, Predictor.from_model(m), pi)
        except NoDisagreement:
            continue
        assert c > 0.0 and holds
        checked += 1
    assert checked >= 250


def test_verify_ece_le_tce_examples():
    m = _one_point()
    cw, t, holds = verify_ece_le_tce(m, Predictor.from_model(m))
    assert (cw, t, holds) == (0.0, 0.0, True)
    cw, t, holds = verify_ece_le_tce(m, Predictor(["a"], [[0, 1, 0, 0]]))
    assert cw == pytest.approx(0.5, abs=1e-12)
    assert t == pytest.approx(0.5, abs=1e-12)
    assert holds


def test_population_cw_ece_groups_by_exact_value():
    model = FiniteGenerativeModel(2, ["a", "b"], [0.5, 0.5], [[1, 0], [0, 1]])
    half = Predictor.constant(model, ConfidenceVector((0.5, 0.5)))
    assert population_cw_ece(model, half) == pytest.approx(0.0, abs=1e-15)


def _reference_population_cw_ece(model, predictor):
    """The per-value loop population_cw_ece replaced: one O(s) mask per
    distinct class-j confidence."""
    pred = predictor.matrix_for(model.support)
    total = 0.0
    for j in range(model.k):
        vals = pred[:, j]
        for v in np.unique(vals):
            mask = vals == v
            w = float(model.weights[mask].sum())
            if w == 0.0:
                continue
            freq = float(model.weights[mask] @ model.label_probs[mask, j]) / w
            total += w * abs(freq - float(v))
    return float(total) / model.k


def test_population_cw_ece_matches_per_value_loop(finite_cases):
    for model, predictor in finite_cases:
        got = population_cw_ece(model, predictor)
        assert abs(got - _reference_population_cw_ece(model, predictor)) <= 1e-12
        assert got <= tce(model, predictor) + 1e-12


def test_population_accuracy_matches_definition():
    m = make_model("dirichlet", 4, 30, alpha=2.0, seed=12)
    p = Predictor.from_model(m)
    manual = float(m.weights @ m.label_probs.max(axis=1))
    assert population_accuracy(m, p) == pytest.approx(manual, abs=1e-15)


def test_classify_regime():
    r = classify_regime(0.43, 0.60)
    assert r.regime == "calibratable"
    assert r.ece_upper == pytest.approx(0.34, abs=1e-12)
    assert r.ece_lower == 0.0

    boundary = classify_regime(0.60, 0.60)
    assert boundary.regime == "calibratable" and boundary.ece_upper == 0.0

    hi = classify_regime(0.85, 0.60)
    assert hi.regime == "non-calibratable"
    assert hi.ece_upper == pytest.approx(0.50, abs=1e-12)
    assert hi.ece_lower > 0.0


def test_labels_matching_accuracy_hits_grid():
    m = make_model("dirichlet", 4, 25, alpha=1.0, seed=2)
    for target in (0.0, 0.2, 0.48, 1.0):
        labels = labels_matching_accuracy(m, target)
        got = labeled_accuracy(m, Predictor.from_model(m), labels)
        assert abs(got - target) <= 0.5 / 25 + 1e-12
