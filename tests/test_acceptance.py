"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Theory checks are exact (1e-12); sampled checks use the pinned seeds
and tolerances below.
"""

import json
import time

import numpy as np
import pytest

from calibkit.core import Dataset
from calibkit.cli import main
from calibkit.emcal import EmConfig, _one_hot, ece_loss, run_em, sft_loss
from calibkit.genmodel import (
    NoDisagreement,
    Predictor,
    construct_bound_predictor,
    make_model,
    population_accuracy,
    lower_bound_constant,
    sample_dataset,
    tce,
    verify_ece_le_tce,
)
from calibkit.metrics import accuracy, conf_ece, cw_ece
from calibkit.targetmap import build_target_matrix
from calibkit.toylab import (
    LinearPolicy,
    TabularPolicy,
    apply_temperature,
    fit_temperature,
    gen_toy_task,
    tradeoff_study,
    train,
)
from test_genmodel import labeled_accuracy, realize_labels
from test_toylab import combined_loss


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_generative_models_are_calibrated():
    """Sampling any generative model with its own distribution as the
    predictor yields near-zero binned calibration errors."""
    specs = [
        ("pure-random", None),
        ("deterministic", None),
        ("dirichlet", 0.5),
        ("dirichlet", 1.0),
        ("dirichlet", 5.0),
    ]
    worst = 0.0
    for i, (kind, alpha) in enumerate(specs):
        start = time.perf_counter()
        model = make_model(kind, 4, 50, alpha=alpha or 1.0, seed=100 + i)
        ds = sample_dataset(model, Predictor.from_model(model), 100000, seed=200 + i)
        conf, _ = conf_ece(ds, 10)
        cw, _ = cw_ece(ds, 10)
        elapsed = time.perf_counter() - start
        worst = max(worst, conf, cw)
        assert elapsed < 10.0, f"{kind}(alpha={alpha}) took {elapsed:.1f}s"
        assert conf <= 0.02 and cw <= 0.02, f"{kind}(alpha={alpha}): {conf}, {cw}"
    _verdict("criterion 1: sampled ECE of generative predictors <= 0.02", True,
             f"worst={worst:.4f}")


def test_criterion_02_upper_bound_construction():
    """200 seeded models x 9 target accuracies: the constructed predictor
    keeps its distribution distance within twice the accuracy gap, exactly."""
    start = time.perf_counter()
    grid = np.linspace(0.1, 0.9, 9)
    checked = 0
    for seed in range(200):
        n_support = 10 + (seed % 91)
        model = make_model("dirichlet", 4, n_support, alpha=1.0, seed=seed)
        labels = realize_labels(model, seed=seed)
        a_star = labeled_accuracy(model, Predictor.from_model(model), labels)
        for target in grid:
            built = construct_bound_predictor(model, labels, float(target))
            t = tce(model, built.predictor)
            bound = 2.0 * abs(a_star - built.achieved_acc)
            assert t <= bound + 1e-12, f"seed={seed} target={target}: {t} > {bound}"
            got = labeled_accuracy(model, built.predictor, labels)
            assert abs(got - built.achieved_acc) <= 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _verdict("criterion 2: TCE <= 2|a* - a| on the construction", True,
             f"{checked} instances, {elapsed:.2f}s")


def test_criterion_03_lower_bound_constant():
    """1000 seeded (model, reference, predictor) triples with top-class
    disagreement: TCE >= C * |accuracy gap| with the proof's constant."""
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 1000:
        n_support = int(rng.integers(2, 60))
        model = make_model("dirichlet", 4, n_support, alpha=1.0, seed=int(rng.integers(1 << 31)))
        pi = Predictor(rng.dirichlet(np.ones(4), n_support))
        ref = Predictor.from_model(model)
        try:
            c, holds = lower_bound_constant(model, ref, pi)
        except NoDisagreement:
            continue
        assert c > 0.0 and holds
        gap = abs(population_accuracy(model, ref) - population_accuracy(model, pi))
        assert tce(model, pi) >= c * gap - 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _verdict("criterion 3: TCE >= C|a* - a| on 1000 instances", True, f"{elapsed:.2f}s")


def test_criterion_04_cw_ece_bounded_by_tce():
    """1000 seeded (model, predictor) pairs: population classwise gap never
    exceeds the distribution distance."""
    start = time.perf_counter()
    rng = np.random.default_rng(888)
    for i in range(1000):
        n_support = int(rng.integers(1, 101))
        model = make_model("dirichlet", 4, n_support, alpha=1.0, seed=10_000 + i)
        pi = Predictor(rng.dirichlet(np.ones(4) * 0.8, n_support))
        cw, t, holds = verify_ece_le_tce(model, pi)
        assert holds, f"instance {i}: cw={cw} > tce={t}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _verdict("criterion 4: population cw-ECE <= TCE on 1000 instances", True,
             f"{elapsed:.2f}s")


def test_criterion_05_target_mapping_suite():
    """1e5 random rows: targets stay on the simplex with the pinned top and
    never invert the source ordering; the worked example matches a fresh
    recomputation of the closed-form coefficients."""
    import math

    start = time.perf_counter()
    rng = np.random.default_rng(999)
    n = 100000
    conf = rng.dirichlet(np.ones(4), n)
    q = rng.uniform(0.26 + 1e-9, 0.99, n)
    out, top, rank = build_target_matrix(conf, q)
    rows = np.arange(n)
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
    assert out.min() >= 0.0
    assert np.abs(out[rows, top] - q).max() <= 1e-12
    assert rank.all()

    q_low = rng.uniform(1e-6, 0.25, n)
    out_low, top_low, _ = build_target_matrix(conf, q_low)
    assert np.abs(out_low.sum(axis=1) - 1.0).max() <= 1e-9
    assert out_low.min() >= 0.0
    assert np.abs(out_low[rows, top_low] - q_low).max() <= 1e-12

    gamma = math.log(3.0) / (0.2 * 0.4)
    tanh_sum = sum(math.tanh(gamma * c) for c in (0.2, 0.06, 0.04))
    alpha = 0.4 / (tanh_sum + 3.0)
    expected = np.array(
        [0.6] + [alpha * math.tanh(gamma * c) + alpha for c in (0.2, 0.06, 0.04)]
    )
    got = build_target_matrix(
        np.array([[0.7, 0.2, 0.06, 0.04]]), np.array([0.6])
    )[0][0]
    assert np.abs(got - expected).max() <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _verdict("criterion 5: target mapping sweep + worked example", True, f"{elapsed:.2f}s")


def test_criterion_06_gradient_oracle():
    """Analytic gradients match central finite differences (h=1e-5) for both
    policy families, both divergences, lam in {0, 1}, over 100 seeds."""
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((6, 5))
        y = rng.integers(0, 4, 6)
        y1 = _one_hot(y, 4)
        q = rng.uniform(0.3, 0.9, 6)
        for lam in (0.0, 1.0):
            for div in ("mse", "cross-entropy"):
                for make in (
                    lambda: LinearPolicy(5, 4, rng.standard_normal((5, 4)) * 0.4),
                    lambda: TabularPolicy(rng.standard_normal((6, 4)) * 0.4),
                ):
                    policy = make()
                    targets = build_target_matrix(policy.probs(X), q)[0]
                    grad = policy.combined_grad(X, y1, targets, lam, div)
                    params = policy.W if isinstance(policy, LinearPolicy) else policy.logits
                    fd = np.zeros_like(params)
                    for idx in np.ndindex(*params.shape):
                        orig = params[idx]
                        params[idx] = orig + h
                        up = combined_loss(policy.probs(X), y, targets, lam, div)
                        params[idx] = orig - h
                        dn = combined_loss(policy.probs(X), y, targets, lam, div)
                        params[idx] = orig
                        fd[idx] = (up - dn) / (2.0 * h)
                    rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"worst relative error {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _verdict("criterion 6: gradient oracle", True, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_hand_computed_fixtures():
    """The frozen metric and loss fixtures reproduce exactly."""
    ds = Dataset.from_arrays(
        np.array([[0.8, 0.1, 0.05, 0.05]] * 4), np.array([0, 0, 1, 2])
    )
    ece, _ = conf_ece(ds, 10)
    assert abs(ece - 0.3) < 1e-12

    ds2 = Dataset.from_arrays(np.array([[1.0, 0, 0, 0]] * 4), np.array([0, 1, 2, 3]))
    cw, _ = cw_ece(ds2, 10)
    assert abs(cw - 0.375) < 1e-12

    assert abs(ece_loss([1, 0, 0, 0], [0.25] * 4, "mse") - 0.1875) < 1e-12
    assert abs(
        ece_loss([1, 0, 0, 0], [0.25] * 4, "cross-entropy") - np.log(4.0)
    ) < 1e-12
    assert abs(sft_loss([0.25] * 4, 1) - np.log(4.0)) < 1e-12
    _verdict("criterion 7: hand-computed fixtures exact", True)


def test_criterion_08_tradeoff_trends():
    """Baseline fit leaves a calibration gap; EM calibration halves it at
    constant accuracy; the stronger-fit analog buys accuracy while staying
    better calibrated than the baseline."""
    start = time.perf_counter()
    study = tradeoff_study(seed=42)
    sft, cft, rcft = study["sft"], study["cft"], study["rcft"]

    assert sft["acc"] >= 0.85, f"sft acc {sft['acc']}"
    assert sft["conf_ece"] >= 0.05, f"sft conf_ece {sft['conf_ece']}"
    assert cft["conf_ece"] <= 0.5 * sft["conf_ece"], (
        f"cft {cft['conf_ece']} vs sft {sft['conf_ece']}"
    )
    assert abs(cft["acc"] - sft["acc"]) <= 0.02
    assert rcft["acc"] > cft["acc"]
    assert rcft["conf_ece"] < sft["conf_ece"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _verdict(
        "criterion 8: fit/calibration trade-off trends",
        True,
        f"sft acc={sft['acc']:.3f} ece={sft['conf_ece']:.4f}; "
        f"cft ece={cft['conf_ece']:.4f}; rcft acc={rcft['acc']:.3f} "
        f"ece={rcft['conf_ece']:.4f}; {elapsed:.1f}s",
    )


def test_criterion_09_target_only_training_and_lam_zero():
    """Target-only training collapses to chance accuracy with tiny binned
    error; lam = 0 reproduces plain fit training bitwise."""
    start = time.perf_counter()
    study = tradeoff_study(seed=42)
    eo = study["ece_only"]
    assert abs(eo["acc"] - 0.25) <= 0.05, f"ece-only acc {eo['acc']}"
    assert eo["conf_ece"] < 0.02, f"ece-only conf_ece {eo['conf_ece']}"

    task = gen_toy_task(d=16, k=4, n=500, seed=21)
    a = LinearPolicy(task.d, task.k)
    a, _ = train(a, task, mode="sft-only", epochs=100, lr=0.5)
    b = LinearPolicy(task.d, task.k)
    b, _ = run_em(
        b, task.labels,
        EmConfig(epochs=2, inner_steps=50, lam=0.0, learning_rate=0.5),
        features=task.features,
    )
    assert np.array_equal(a.W, b.W)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _verdict(
        "criterion 9: target-only collapse + bitwise lam=0 reduction",
        True,
        f"acc={eo['acc']:.3f} ece={eo['conf_ece']:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_temperature_scaling_invariants():
    """Rescaling never changes accuracy; the fitted temperature never
    increases the binned error on the split it optimized."""
    start = time.perf_counter()
    fitted = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4) * 0.7, 50)
        labels = rng.integers(0, 4, 50)
        ds = Dataset.from_arrays(probs, labels)
        base_acc = accuracy(ds)
        for T in (0.07, 0.5, 2.0, 13.0):
            assert accuracy(apply_temperature(ds, T)) == base_acc
        t_star, before, after = fit_temperature(ds)
        assert after <= before + 1e-15
        recomputed = conf_ece(apply_temperature(ds, t_star))[0]
        assert recomputed <= before + 1e-15
        fitted += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _verdict("criterion 10: temperature scaling invariants", True,
             f"{fitted} fits, {elapsed:.1f}s")


def test_criterion_11_cli_determinism(tmp_path):
    """Every subcommand, run twice with identical flags, produces byte-identical
    files and stdout."""
    import contextlib
    import io

    model = make_model("dirichlet", 4, 25, alpha=1.0, seed=4)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json_dict()), encoding="utf-8")

    preds = tmp_path / "preds.jsonl"
    rng = np.random.default_rng(12)
    rows = [
        {"id": f"r{i}", "confidences": rng.dirichlet(np.ones(4)).tolist(),
         "label": int(rng.integers(0, 4))}
        for i in range(200)
    ]
    preds.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")

    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        "\n".join(
            json.dumps({"id": f"p{i}", "logp_chosen": -1.0 - i, "logp_reject": -2.0})
            for i in range(10)
        )
        + "\n",
        encoding="utf-8",
    )

    def run(args, out_prefix):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args + out_prefix)
        return code, buf.getvalue()

    commands = [
        (
            ["eval", str(preds), "--bins", "10"],
            lambda tag: ["--report", str(tmp_path / f"{tag}.report.json"),
                         "--plot", str(tmp_path / f"{tag}.svg")],
            lambda tag: [f"{tag}.report.json", f"{tag}.svg"],
        ),
        (
            ["simulate", "--model", "dirichlet", "--n", "3000", "--support", "20",
             "--seed", "11"],
            lambda tag: ["--out", str(tmp_path / tag)],
            lambda tag: [f"{tag}.jsonl", f"{tag}.model.json"],
        ),
        (
            ["bounds", "--model", str(model_path), "--acc-star", "0.55"],
            lambda tag: ["--out", str(tmp_path / f"{tag}.csv")],
            lambda tag: [f"{tag}.csv"],
        ),
        (
            ["train-toy", "--mode", "cft", "--n", "300", "--dim", "8",
             "--epochs", "50", "--em-epochs", "2", "--seed", "3"],
            lambda tag: ["--out", str(tmp_path / tag)],
            lambda tag: [f"{tag}.history.json", f"{tag}.report.json",
                         f"{tag}.before.svg", f"{tag}.after.svg"],
        ),
        (
            ["winrate", "--pairs", str(pairs)],
            lambda tag: [],
            lambda tag: [],
        ),
    ]
    for base, out_for, files_for in commands:
        code1, out1 = run(base, out_for("run1"))
        code2, out2 = run(base, out_for("run2"))
        assert code1 == code2 == 0, f"{base[0]} exit codes {code1}/{code2}"
        assert out1 == out2, f"{base[0]} stdout differs"
        for f1, f2 in zip(files_for("run1"), files_for("run2")):
            b1 = (tmp_path / f1).read_bytes()
            b2 = (tmp_path / f2).read_bytes()
            assert b1 == b2, f"{base[0]}: {f1} differs from {f2}"
    _verdict("criterion 11: CLI determinism (byte-identical reruns)", True)
