import numpy as np
import pytest

from calibkit.core import Dataset, SimplexViolation
from calibkit.genmodel import (
    BadParams,
    FiniteGenerativeModel,
    NoDisagreement,
    Predictor,
    UnreachableAccuracy,
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
from test_core import _ROW_A, _ROW_B, _reference_row_reason


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


# Each breaks row 1 of a two-row matrix in one way the row rule rejects.
_BAD_ROWS = {
    "nan": ([np.nan, 0.5], "non-finite entry nan"),
    "negative": ([-0.25, 1.25], "entry -0.25 outside [0, 1]"),
    "above-1": ([1.5, -0.5], "entry 1.5 outside [0, 1]"),
    "off-sum": ([0.6, 0.5], "entries sum to 1.1, not 1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ROWS))
def test_label_distributions_reject_bad_rows(case):
    row, reason = _BAD_ROWS[case]
    with pytest.raises(SimplexViolation) as exc:
        FiniteGenerativeModel(2, ["a", "b"], [0.5, 0.5], [[0.5, 0.5], row])
    assert str(exc.value) == f"label distributions: row 1: {reason}"


@pytest.mark.parametrize("case", sorted(_BAD_ROWS))
def test_predictor_rejects_bad_rows(case):
    row, reason = _BAD_ROWS[case]
    with pytest.raises(SimplexViolation) as exc:
        Predictor(["a", "b"], [[0.5, 0.5], row])
    assert str(exc.value) == f"predictor confidences: row 1: {reason}"


def test_predictor_rejects_a_non_matrix():
    for probs in (0.5, [0.5, 0.5], [[1.0], [1.0]]):
        with pytest.raises(SimplexViolation, match="must be an"):
            Predictor(["a", "b"], probs)


def _row_verdicts(row: np.ndarray) -> list[bool]:
    """Whether the reference row rule, Dataset.from_arrays, Predictor and
    FiniteGenerativeModel each accept one probability row."""
    builders = [
        lambda: Dataset.from_arrays(row[None, :], np.array([0])),
        lambda: Predictor(["x"], row[None, :]),
        lambda: FiniteGenerativeModel(row.size, ["x"], [1.0], row[None, :]),
    ]
    verdicts = [_reference_row_reason(row) is None]
    for build in builders:
        try:
            build()
            verdicts.append(True)
        except SimplexViolation:
            verdicts.append(False)
    return verdicts


def test_rows_at_the_tolerance_edge_get_one_verdict():
    assert _row_verdicts(np.asarray(_ROW_A)) == [False] * 4
    assert _row_verdicts(np.asarray(_ROW_B)) == [True] * 4


def test_support_weights_must_sum_to_one():
    with pytest.raises(BadParams, match="weights sum to 1.1, not 1"):
        FiniteGenerativeModel(2, ["a", "b"], [0.6, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    # The exact sum decides, as for a probability row.
    for weights, accepted in ((_ROW_A, False), (_ROW_B, True)):
        ids = [f"x{i}" for i in range(len(weights))]
        labels = [[0.5, 0.5]] * len(weights)
        if accepted:
            FiniteGenerativeModel(2, ids, weights, labels)
        else:
            with pytest.raises(BadParams, match="weights sum to 0.9999999989999999"):
                FiniteGenerativeModel(2, ids, weights, labels)


def test_sample_dataset_on_an_edge_row_model():
    model = FiniteGenerativeModel(3, ["x"], [1.0], [_ROW_B])
    ds = sample_dataset(model, Predictor.from_model(model), 50, seed=3)
    assert ds.n == 50 and ds.probs_matrix.tolist() == [_ROW_B] * 50


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
    with pytest.raises(BadParams):
        p.matrix_for(m.support)
    m2 = make_model("dirichlet", 4, 5, alpha=1.0, seed=6)
    subset = Predictor(m2.support[:4], m2.label_probs[:4])
    with pytest.raises(BadParams):
        subset.matrix_for(m2.support)


def test_matrix_for_aligned_support_is_the_probs_themselves(finite_cases):
    """On the support it was built on a predictor returns its own matrix;
    a permuted and a superset predictor of the same rows are refused."""
    rng = np.random.default_rng(5)
    for model, predictor in finite_cases:
        aligned = predictor.matrix_for(model.support)
        assert aligned is predictor.probs
        perm = rng.permutation(model.n_support)
        permuted = Predictor([model.support[i] for i in perm], predictor.probs[perm])
        if permuted.ids != model.support:
            with pytest.raises(BadParams, match="must equal the support"):
                permuted.matrix_for(model.support)
        extra = np.full((1, model.k), 1.0 / model.k)
        superset = Predictor(
            ["extra"] + model.support, np.vstack([extra, predictor.probs])
        )
        with pytest.raises(BadParams, match="must equal the support"):
            superset.matrix_for(model.support)


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
    half = Predictor(model.support, np.tile([0.5, 0.5], (2, 1)))
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
    assert classify_regime(0.43, 0.60) == "calibratable"
    assert classify_regime(0.60, 0.60) == "calibratable"
    assert classify_regime(0.85, 0.60) == "non-calibratable"


def test_labels_matching_accuracy_hits_grid():
    m = make_model("dirichlet", 4, 25, alpha=1.0, seed=2)
    for target in (0.0, 0.2, 0.48, 1.0):
        labels = labels_matching_accuracy(m, target)
        got = labeled_accuracy(m, Predictor.from_model(m), labels)
        assert abs(got - target) <= 0.5 / 25 + 1e-12


def _reference_labels_matching_accuracy(model, target_acc):
    """The per-point loop ``labels_matching_accuracy`` replaced."""
    modal = np.argmax(model.label_probs, axis=1)
    labels = np.where(modal == 0, 1, 0)
    acc = 0.0
    for i in range(model.n_support):
        w = model.weights[i]
        if abs(acc + w - target_acc) <= abs(acc - target_acc):
            labels[i] = modal[i]
            acc += w
        else:
            break
    return labels


def _reference_construct_bound_predictor(model, labels, target_acc):
    """The per-point loop ``construct_bound_predictor`` replaced: the flipped
    matrix, the achieved accuracy and the reference accuracy. The achieved
    accuracy is clamped into [0, 1], as an accuracy must lie there."""
    base = model.label_probs
    correct = np.argmax(base, axis=1) == labels
    a_star = float(model.weights @ correct)
    raise_acc = target_acc >= a_star
    pool = np.flatnonzero(~correct) if raise_acc else np.flatnonzero(correct)
    needed = abs(target_acc - a_star)
    if needed > float(model.weights[pool].sum()) + 1e-9:
        return None
    out = base.copy()
    moved = 0.0
    for i in pool:
        w = float(model.weights[i])
        if abs(moved + w - needed) > abs(moved - needed):
            break
        out[i] = 0.0
        if raise_acc:
            out[i, labels[i]] = 1.0
        else:
            out[i, 0 if labels[i] != 0 else 1] = 1.0
        moved += w
    achieved = min(a_star + moved, 1.0) if raise_acc else max(a_star - moved, 0.0)
    return out, achieved, a_star


def _greedy_targets(rng, weights, start=0.0):
    """Targets on the greedy rule's edges: 0, 1, ``start`` plus or minus
    exact prefix sums of the weights (at most 12, drawn at random) and the
    midpoints after them, and a few uniform draws; all clipped into [0, 1]."""
    prefix = np.cumsum(weights)
    pick = rng.choice(len(weights), size=min(len(weights), 12), replace=False)
    half = 0.5 * np.append(weights[1:], 0.0)
    steps = np.concatenate([prefix[pick], prefix[pick] + half[pick]])
    targets = np.concatenate(
        [[0.0, 1.0, start], start + steps, start - steps, rng.random(4)]
    )
    return np.clip(targets, 0.0, 1.0).tolist()


def test_greedy_prefix_matches_the_per_point_loops(finite_cases):
    """Labels, flipped bytes and both accuracies equal the old loops exactly,
    on zero weights, tied weights and targets at exact prefix sums."""
    rng = np.random.default_rng(17)
    tied = make_model("dirichlet", 3, 12, alpha=1.0, seed=4)
    for model in [m for m, _ in finite_cases] + [tied]:
        for target in _greedy_targets(rng, model.weights):
            got = labels_matching_accuracy(model, target)
            assert got.tolist() == _reference_labels_matching_accuracy(model, target).tolist()
        for labels in (realize_labels(model, seed=3), labels_matching_accuracy(model, 0.5)):
            a_star = float(model.weights @ (np.argmax(model.label_probs, axis=1) == labels))
            for target in _greedy_targets(rng, model.weights, a_star):
                expected = _reference_construct_bound_predictor(model, labels, target)
                if expected is None:
                    with pytest.raises(UnreachableAccuracy):
                        construct_bound_predictor(model, labels, target)
                    continue
                built = construct_bound_predictor(model, labels, target)
                assert built.predictor.probs.tobytes() == expected[0].tobytes()
                assert (built.achieved_acc, built.reference_acc) == expected[1:]
