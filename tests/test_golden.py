"""Golden digests: SHA-256 of CLI outputs and fitted temperatures on seeded
inputs, so a change that claims byte-identical output is checked against the
recorded bytes rather than only against a rerun of itself.

`train-toy` is left out: its policies go through BLAS matrix products, whose
last bits may differ between machines. The EM loop is pinned instead through
a tabular policy, which makes no matrix product. The digests were recorded with
Python 3.11 and numpy 2.4; a different numpy may sample or format other
bytes. When a change alters these outputs on purpose, say so and re-record.
"""

import hashlib
import json

import numpy as np
import pytest

from calibkit.cli import main
from calibkit.core import Dataset
from calibkit.emcal import EmConfig, run_em
from calibkit.genmodel import make_model
from calibkit.metrics import conf_ece_arrays, cw_ece_arrays, metric_row
from calibkit.toylab import TabularPolicy, fit_temperature

GOLDEN = {
    "eval-10": "8e0f07d134ff1a6868680015fcf1045658f4ff511052b286e3849263d506fb2f",
    "eval-heuristic": "4c691170c3029bf5b5e143e2a9dbc19a03185882884ac045dcb762b297159fca",
    "simulate": "9baa74b12965073690e278d0be914f348b7ff4dcd9f0310af9d22d18ded98ea6",
    "bounds": "0de9e43afe0832bcc13f6b11d330de4783588f685e1a59cb6c78ebb6d48aa383",
    "fit_temperature": "41b6d6a7dc0ffc2f36beb93130d6b4b588246caaaa89d76447c6188ef42fafd4",
    "run_em": "31cf8c3b9c82b541772bf73edea9e90a1531c5a7f40b7b21426a82bbc8c5de44",
    # Recorded at the parent of the change that moved the argmax, cw-ECE,
    # softmax, gradient and tempered-top kernels to column passes, before
    # any of those kernels changed.
    "run_em-k2-k7": "fc112f8df0da58876efb6d43a9edd56a43ef89255ef3ee854cb485fdfda92835",
    "metric-kernels": "c12a9e9cf17cadeee83273bcbf588f1d09f65d6224a85ac36407b2136e957521",
    "run_em-lam0.3": "907f815dde106f7f81db40512b38b0165162250c6ea2b150878fe96ca98d04b0",
}


def _digest(stdout: str, *paths) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in paths:
        h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("bins", ["10", "heuristic"])
def test_eval_report_and_plot_digest(bins, tmp_path, capsys):
    rng = np.random.default_rng(2000)
    probs = rng.dirichlet(np.ones(4) * 0.5, 2000)
    labels = rng.integers(0, 4, 2000)
    src = tmp_path / "preds.jsonl"
    src.write_text("".join(
        json.dumps({"id": f"r{i}", "confidences": row, "label": label}) + "\n"
        for i, (row, label) in enumerate(zip(probs.tolist(), labels.tolist()))
    ), encoding="utf-8")
    report, plot = tmp_path / "report.json", tmp_path / "plot.svg"
    out = _run(["eval", str(src), "--bins", bins, "--report", str(report),
                "--plot", str(plot)], capsys)
    assert _digest(out, report, plot) == GOLDEN[f"eval-{bins}"]


def test_simulate_digest(tmp_path, capsys):
    prefix = tmp_path / "sim"
    out = _run(["simulate", "--model", "dirichlet", "--n", "3000", "--seed", "7",
                "--out", str(prefix)], capsys)
    paths = [tmp_path / "sim.jsonl", tmp_path / "sim.model.json"]
    assert _digest(out, *paths) == GOLDEN["simulate"]


def test_bounds_digest(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(make_model("dirichlet", 4, 40, seed=3).to_json_dict()),
                     encoding="utf-8")
    csv = tmp_path / "bounds.csv"
    out = _run(["bounds", "--model", str(model), "--out", str(csv)], capsys)
    assert _digest(out, csv) == GOLDEN["bounds"]


def test_fit_temperature_digest():
    fits = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4) * 0.7, 300)
        labels = rng.integers(0, 4, 300)
        fits.append(repr(fit_temperature(Dataset.from_arrays(probs, labels))))
    assert _digest("\n".join(fits)) == GOLDEN["fit_temperature"]


def test_run_em_digest():
    """Histories and final logits of the EM loop at lam = 1 and lam = 0, for
    both divergences, at k = 4 and at k = 9."""
    assert _digest("\n".join(_run_em_parts((4, 9)))) == GOLDEN["run_em"]


def _run_em_parts(ks, lams=(1.0, 0.0)) -> list[str]:
    parts = []
    for k in ks:
        rng = np.random.default_rng(k)
        probs = rng.dirichlet(np.ones(k) * 0.7, 400)
        labels = rng.integers(0, k, 400)
        for divergence in ("mse", "cross-entropy"):
            for lam in lams:
                cfg = EmConfig(epochs=4, bins=10, lam=lam, divergence=divergence,
                               learning_rate=0.5, inner_steps=5)
                policy, hist = run_em(TabularPolicy.from_probs(probs), labels, cfg)
                parts.append(repr(hist))
                parts.append(repr(policy.logits.tolist()))
    return parts


def test_run_em_digest_k2_k7():
    """The same EM runs at k = 2, the smallest class count, and k = 7, the
    largest that the small-k column passes serve."""
    assert _digest("\n".join(_run_em_parts((2, 7)))) == GOLDEN["run_em-k2-k7"]


def test_run_em_digest_fractional_lam():
    """The EM runs at k = 4 and 9 with lam = 0.3: a weight that is no power
    of two rounds differently when the gradient's products are regrouped, so
    this pins their order."""
    assert _digest("\n".join(_run_em_parts((4, 9), (0.3,)))) == GOLDEN["run_em-lam0.3"]


def _edge_matrix(n: int, k: int, M: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n rows over k classes: a third Dirichlet rows, a third rows whose
    entries are bin edges m / M (zeros included), and a third one-hot rows,
    shuffled, with uniform labels."""
    rng = np.random.default_rng(seed)
    third = n // 3
    dirichlet = rng.dirichlet(np.ones(k) * 0.5, n - 2 * third)
    # Each row splits M units over the k classes: entries m / M that sum to 1.
    units = rng.multinomial(M, np.ones(k) / k, third)
    edges = units / M
    one_hot = np.eye(k)[rng.integers(0, k, third)]
    probs = np.concatenate([dirichlet, edges, one_hot])[rng.permutation(n)]
    return probs, rng.integers(0, k, n)


def _recorded_table(counts, mean_conf, freq) -> str:
    """One (M,) reliability table as the digest was recorded: the repr of a
    list of per-bin records, each with the bin's edges (m - 1) / M and m / M."""
    M = len(counts)
    return "[" + ", ".join(
        f"BinStats(m={m}, lo={(m - 1) / M!r}, hi={m / M!r}, count={c!r}, "
        f"mean_conf={mc!r}, empirical_freq={f!r})"
        for m, c, mc, f in zip(
            range(1, M + 1), counts.tolist(), mean_conf.tolist(), freq.tolist()
        )
    ) + "]"


def test_metric_kernels_digest():
    """metric_row values and the conf-ECE and cw-ECE tables on 1e5 rows with
    entries on the bin edges, exact zeros and one-hot rows, at k = 4 (column
    passes) and k = 9 (numpy's reductions), at M = 10 and M = 5."""
    parts = []
    for k in (4, 9):
        probs, labels = _edge_matrix(100_000, k, 10, seed=k)
        for M in (10, 5):
            parts.append(repr(metric_row(probs, labels, M)))
            conf, table = conf_ece_arrays(probs, labels, M)
            parts.append(f"({conf!r}, {_recorded_table(*table)})")
            cw, tables = cw_ece_arrays(probs, labels, M)
            rows = ", ".join(_recorded_table(*class_table) for class_table in zip(*tables))
            parts.append(f"({cw!r}, [{rows}])")
    assert _digest("\n".join(parts)) == GOLDEN["metric-kernels"]
