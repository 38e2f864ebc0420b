"""Desk-scale training lab: a synthetic multiple-choice task, linear and
tabular softmax policies with analytic gradients, temperature scaling, and
label smoothing.

The task draws features from a standard normal and labels from a hidden
linear-softmax teacher, so the highest accuracy any predictor can reach is
known from the teacher itself (its mean top probability). That value plays
the role of the critical accuracy separating the two calibration regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _COLUMN_PASS_K,
    BadParams,
    BinningConfig,
    CalibrationError,
    Dataset,
    _row_argmax,
    _row_max,
    _row_sum,
)
from .emcal import (
    EmConfig,
    LOG_FLOOR,
    NonFiniteGradient,
    _epochs,
    _history,
    _one_hot,  # noqa: F401  re-exported: the acceptance suite imports it from here
    mean_ece_loss,
    mean_sft,
    run_em,
)
from .genmodel import _draw_labels
from .metrics import _binned_gaps, binned_ece, metric_row


class DimensionMismatch(CalibrationError):
    pass


class BadTemperature(CalibrationError):
    pass


class BadEpsilon(CalibrationError):
    pass


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written into one new array."""
    z = np.asarray(z)
    return _softmax_into(z, np.empty(z.shape, dtype=np.result_type(z, 1.0)))


def _softmax_into(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``softmax(z)`` written into ``out``, which may be ``z`` itself."""
    _by_column(np.subtract, z, _row_max(z), out=out)
    np.exp(out, out=out)
    return _by_column(np.divide, out, _row_sum(out), out=out)


def _by_column(op, a: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``op(a, r[..., None], out=out)``, one elementwise pass per column,
    which avoids numpy's slow broadcast over a short last axis."""
    for j in range(a.shape[-1]):
        op(a[..., j], r, out=out[..., j])
    return out


@dataclass
class ToyTask:
    """Synthetic multiple-choice dataset with a known linear-softmax teacher."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    teacher_weights: np.ndarray
    teacher_temperature: float

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @cached_property
    def teacher_probs(self) -> np.ndarray:
        return softmax(self.features @ self.teacher_weights / self.teacher_temperature)

    @cached_property
    def bayes_accuracy(self) -> float:
        """Highest accuracy any predictor can reach in expectation: the mean
        top probability of the label-generating teacher."""
        return float(self.teacher_probs.max(axis=1).mean())


def gen_toy_task(
    d: int, k: int, n: int, teacher_temperature: float = 1.0, seed: int = 0
) -> ToyTask:
    """Features ~ N(0, 1), hidden teacher weights ~ N(0, 1), labels sampled
    from softmax(X W* / tau*). Deterministic given the seed."""
    if d < 1 or k < 2 or n < 1:
        raise BadParams("need d >= 1, k >= 2, n >= 1")
    if not (teacher_temperature > 0.0):
        raise BadParams("teacher temperature must be > 0")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((d, k))
    # A subnormal temperature can overflow the logits: that is reported as a
    # bad temperature, not as numpy warnings and NaN teacher rows.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = X @ W / teacher_temperature
        probs = softmax(logits)
    if not (np.isfinite(logits).all() and np.isfinite(probs).all()):
        raise BadParams(
            f"teacher temperature {teacher_temperature!r} overflows the teacher logits"
        )
    labels = _draw_labels(probs, rng.random(n))
    return ToyTask(X, labels.astype(np.int64), k, W, float(teacher_temperature))


def _grad_wrt_logits(
    probs: np.ndarray,
    soft_labels: np.ndarray,
    targets: np.ndarray | None,
    lam: float,
    divergence: str,
    sft_weight: float,
) -> np.ndarray:
    """Gradient of the mean combined loss with respect to the row logits.

    The fit term is cross-entropy against ``soft_labels`` (one-hot for plain
    training), whose softmax gradient is (p - t). The target term goes through
    the full softmax Jacobian. lam == 0 skips the target term entirely so the
    trajectory is bit-identical to fit-only training.
    """
    n, k = probs.shape
    g = np.subtract(probs, soft_labels)
    g *= sft_weight / n
    if lam != 0.0:
        if targets is None:
            raise BadParams("a positive lam needs targets")
        # In place, in the operation order of
        # g + lam * probs * (dldp - _row_sum(dldp * probs)[:, None]), with
        # three (n, k) buffers: g, dldp and prod.
        if divergence == "mse":
            dldp = np.subtract(probs, targets)
            dldp *= 2.0 / k
        elif divergence == "cross-entropy":
            # -targets / probs where probs > LOG_FLOOR, else 0.0.
            live = probs > LOG_FLOOR
            dldp = np.divide(targets, probs, out=np.zeros_like(probs), where=live)
            np.negative(dldp, out=dldp, where=live)
        else:
            raise BadParams(f"unknown divergence {divergence!r}")
        dldp /= n
        prod = dldp * probs
        rowsum = _row_sum(prod)
        _by_column(np.subtract, dldp, rowsum, out=dldp)
        np.multiply(probs, lam, out=prod)
        prod *= dldp
        g += prod
    return g


class LinearPolicy:
    """Softmax of X @ W / temperature."""

    def __init__(self, d: int, k: int, W: np.ndarray | None = None, temperature: float = 1.0):
        if not (temperature > 0.0):
            raise BadTemperature("temperature must be > 0")
        self.W = np.zeros((d, k)) if W is None else np.array(W, dtype=float)
        if self.W.shape != (d, k):
            raise DimensionMismatch(f"W must be ({d}, {k})")
        self.temperature = float(temperature)

    @property
    def k(self) -> int:
        return self.W.shape[1]

    def probs(self, features: np.ndarray) -> np.ndarray:
        if features is None or features.shape[1] != self.W.shape[0]:
            raise DimensionMismatch("features do not match the weight matrix")
        # A huge learning rate overflows the logits. A shift that overflows is
        # -inf, which exp turns into 0; a NaN row fails the training loop's
        # finiteness check.
        with np.errstate(over="ignore", invalid="ignore"):
            z = features @ self.W
            z /= self.temperature
            return _softmax_into(z, z)

    def combined_grad(
        self, features, soft_labels, targets, lam, divergence, sft_weight=1.0, probs=None
    ):
        if probs is None:
            probs = self.probs(features)
        g = _grad_wrt_logits(probs, soft_labels, targets, lam, divergence, sft_weight)
        grad = features.T @ g / self.temperature
        if not np.isfinite(grad).all():
            raise NonFiniteGradient("linear policy gradient is not finite")
        return grad

    def descend(self, grad: np.ndarray, lr: float) -> None:
        self.W -= lr * grad

    def clone(self) -> "LinearPolicy":
        return LinearPolicy(self.W.shape[0], self.W.shape[1], self.W.copy(), self.temperature)


class TabularPolicy:
    """One free logit row per record; ignores features."""

    def __init__(self, logits: np.ndarray):
        self.logits = np.array(logits, dtype=float)
        if self.logits.ndim != 2 or self.logits.shape[1] < 2:
            raise DimensionMismatch("logits must be (n, k>=2)")

    @property
    def k(self) -> int:
        return self.logits.shape[1]

    @classmethod
    def zeros(cls, n: int, k: int) -> "TabularPolicy":
        return cls(np.zeros((n, k)))

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "TabularPolicy":
        return cls(np.log(np.maximum(probs, LOG_FLOOR)))

    def probs(self, features: np.ndarray | None = None) -> np.ndarray:
        # Non-finite logits after a huge step: see ``LinearPolicy.probs``.
        with np.errstate(over="ignore", invalid="ignore"):
            return softmax(self.logits)

    def combined_grad(
        self, features, soft_labels, targets, lam, divergence, sft_weight=1.0, probs=None
    ):
        if probs is None:
            probs = self.probs()
        grad = _grad_wrt_logits(probs, soft_labels, targets, lam, divergence, sft_weight)
        if not np.isfinite(grad).all():
            raise NonFiniteGradient("tabular policy gradient is not finite")
        return grad

    def descend(self, grad: np.ndarray, lr: float) -> None:
        # The mean-loss gradient carries a 1/n factor per row, but the rows are
        # independent coordinates of a separable objective; stepping per record
        # keeps the learning rate scale comparable to the linear policy. A huge
        # lr gives NaN logits (inf * 0), which the next epoch reports.
        with np.errstate(over="ignore", invalid="ignore"):
            self.logits -= lr * self.logits.shape[0] * grad

    def clone(self) -> "TabularPolicy":
        return TabularPolicy(self.logits.copy())


def combined_loss(
    probs: np.ndarray,
    labels: np.ndarray,
    targets: np.ndarray | None,
    lam: float,
    divergence: str = "mse",
    sft_weight: float = 1.0,
) -> float:
    loss = sft_weight * mean_sft(probs, labels)
    if lam != 0.0:
        loss += lam * mean_ece_loss(probs, targets, divergence)
    return float(loss)


def label_smooth_targets(labels: np.ndarray, k: int, epsilon: float) -> np.ndarray:
    """The (n, k) smoothed label matrix: 1 - epsilon on each row's true
    class, epsilon spread evenly over the others."""
    if not (0.0 <= epsilon < 1.0):
        raise BadEpsilon(f"epsilon {epsilon!r} outside [0, 1)")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise BadParams(f"labels outside [0, {k})")
    out = np.full((labels.shape[0], k), epsilon / (k - 1))
    out[np.arange(labels.shape[0]), labels] = 1.0 - epsilon
    return out


def apply_temperature(ds: Dataset, T: float) -> Dataset:
    """Rescale every record's log-confidences by 1/T and renormalize.

    For any T > 0 the source top entry stays a maximum of its tempered row,
    so the argmax (and accuracy) is kept wherever that maximum is unique. A
    near-tie that tempering rounds into an exact tie goes to the lower index:
    ``[0.5 - ulp, 0.5 + ulp]`` with label 1 is wrong at T = 13 and T = 20.
    """
    return ds.with_probs(temperature_transform(ds.probs_matrix, T))


def temperature_transform(probs: np.ndarray, T: float) -> np.ndarray:
    if not (T > 0.0):
        raise BadTemperature("temperature must be > 0")
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    return _tempered(logp, _row_max(logp)[:, None], T)


def _tempered(logp: np.ndarray, logp_max: np.ndarray, T) -> np.ndarray:
    """softmax(logp / T) over the last axis, bit for bit, given the row max
    of logp. T > 0 is a scalar or an array that broadcasts against logp.

    Division by T > 0 is monotone, so the row max of logp / T is the row max
    of logp divided by T; the slow max reduction runs once per dataset rather
    than once per temperature.
    """
    z = _tempered_exp(logp, logp_max, T)
    z /= _row_sum(z)[..., None]
    return z


def _tempered_exp(logp: np.ndarray, logp_max: np.ndarray, T) -> np.ndarray:
    """exp(logp / T - logp_max / T): the tempered softmax before its divide."""
    z = logp / T
    z -= logp_max / T
    return np.exp(z, out=z)


def _tempered_top(logp: np.ndarray, logp_max: np.ndarray, T) -> np.ndarray:
    """Each row's tempered top entry, ``_tempered(logp, logp_max, T)`` at the
    row's argmax, bit for bit.

    The entry at the argmax is exp(0) = 1 over the row sum, so only the sum
    is needed. For k < 8 the sum is a column pass that tempers one class
    column at a time, the same operations in the same order, so no
    (..., n, k) tensor exists; from k = 8 on the tensor is built and freed
    before the reciprocal.
    """
    k = logp.shape[-1]
    if not 0 < k < _COLUMN_PASS_K:
        total = _row_sum(_tempered_exp(logp, logp_max, T))
        return np.divide(1.0, total, out=total)
    shift = logp_max / T
    total, e = None, None
    for j in range(k):
        e = np.divide(logp[:, j:j + 1], T, out=e)
        e -= shift
        np.exp(e, out=e)
        if total is None:
            total = e + 0.0
        else:
            total += e
    return np.divide(1.0, total, out=total)[..., 0]


# fit_temperature scores this log-spaced grid of temperatures, (first, last,
# count), then refines around the best one by golden section.
_TEMPERATURE_GRID = (0.05, 20.0, 400)
# fit_temperature scores its grid a chunk of temperatures at a time, and
# each chunk tempers at most this many entries (chunk * n * k; 8 MB as one
# tensor, which only k >= 8 builds): memory stays flat as n grows, and a
# small split takes one pass.
_GRID_CHUNK_ENTRIES = 2**20


def fit_temperature(
    ds_val: Dataset, bins: BinningConfig = BinningConfig()
) -> tuple[float, float, float]:
    """Search a log-spaced temperature grid, ``_TEMPERATURE_GRID`` (plus
    golden-section refinement), for the value minimizing conf-ECE on the
    given split.

    T = 1 is always a candidate, so the fitted temperature never increases
    conf-ECE here; when nothing beats the identity, (1.0, e, e) is returned.
    """
    M = bins.effective_bins(ds_val.n)
    probs, labels = ds_val.probs_matrix, ds_val.labels_array
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    logp_max = _row_max(logp)[:, None]
    rows = np.arange(ds_val.n)
    # Correctness is judged once, at the source argmax. Tempering is
    # monotone, so the tempered entry there is exp(0) / sum, a row max bit
    # for bit, and the top class is the same at every T. The one place this
    # differs from apply_temperature + conf_ece is a near-tie that the
    # tempered softmax rounds to a tie, where a fresh argmax takes the lower
    # index.
    top = _row_argmax(probs)
    correct = top == labels

    def objective(T: float) -> float:
        return binned_ece(_tempered_top(logp, logp_max, T), correct, M)

    ece_before = binned_ece(probs[rows, top], correct, M)
    grid = np.geomspace(*_TEMPERATURE_GRID)
    # A stacked _binned_gaps scores each row alone, so scoring the grid a
    # chunk at a time gives the same bits as one pass.
    step = max(1, _GRID_CHUNK_ENTRIES // probs.size)
    chunks = []
    for i in range(0, grid.size, step):
        tops = _tempered_top(logp, logp_max, grid[i:i + step, None, None])
        chunks.append(_binned_gaps(tops, np.broadcast_to(correct, tops.shape), M)[0])
    scores = np.concatenate(chunks)
    best = int(np.argmin(scores))

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    t_best, s_best = _golden_section(objective, lo, hi)
    if scores[best] < s_best:
        t_best, s_best = float(grid[best]), float(scores[best])

    if s_best < ece_before:
        return t_best, ece_before, s_best
    return 1.0, ece_before, ece_before


def _grid_edge_warning(T: float) -> str | None:
    """The warning for a fitted temperature T in the first or last cell of
    the grid, where a better temperature may lie beyond it; else None."""
    lo, hi, count = _TEMPERATURE_GRID
    grid = np.geomspace(lo, hi, count)
    if grid[1] < T < grid[-2]:
        return None
    edge = "first" if T <= grid[1] else "last"
    return (f"fitted temperature {T!r} lies in the {edge} cell of the grid "
            f"[{lo!r}, {hi!r}]; a better one may lie beyond it")


def _golden_section(fn, lo: float, hi: float, iters: int = 24) -> tuple[float, float]:
    """Golden-section minimization on log-temperature inside [lo, hi]."""
    a, b = np.log(lo), np.log(hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(float(np.exp(c))), fn(float(np.exp(d)))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(float(np.exp(c)))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(float(np.exp(d)))
    t = float(np.exp((a + b) / 2.0))
    return t, fn(t)


def _plain_descent(epochs: int, lr: float, bins: int = 10) -> EmConfig:
    """The EM config of plain full-batch descent: lam = 0, one step per
    epoch. ``bins`` bins only the history rows; 10 is ``train``'s default."""
    return EmConfig(epochs=epochs, bins=bins, lam=0.0, learning_rate=lr, inner_steps=1)


def train(
    policy,
    task: ToyTask,
    mode: str = "sft-only",
    epochs: int = 200,
    lr: float = 0.05,
    epsilon: float = 0.1,
    em: EmConfig | None = None,
    overfit_epochs: int = 400,
    overfit_lr: float = 0.5,
    bins: int = 10,
):
    """Train a policy on the toy task under one of the study modes.

    Every mode runs the EM loop. sft-only and label-smooth run it at lam = 0,
    one gradient step per epoch, which is plain full-batch descent on the
    (optionally smoothed) label cross-entropy. cft hands the policy to the EM
    loop with ``em``. rcft-analog first switches to a tabular policy seeded
    from the current confidences and overfits it with plain descent, then runs
    the EM loop with ``em``; the capacity jump stands in for a heavier fit
    objective and pushes accuracy past the task's critical threshold. cft and
    rcft-analog need ``em``.

    sft-only and label-smooth rows bin their metrics into ``bins`` bins; cft
    and rcft-analog rows, the overfit rows included, use the EM config's bins.
    Every plain-descent row carries ``mean_ece: None``.
    """
    if mode in ("sft-only", "label-smooth"):
        fit = None if mode == "sft-only" else label_smooth_targets(task.labels, task.k, epsilon)
        return run_em(
            policy, task.labels, _plain_descent(epochs, lr, bins), features=task.features,
            fit_targets=fit,
        )
    if mode in ("cft", "rcft-analog") and em is None:
        raise BadParams(f"mode {mode!r} needs an EmConfig")
    if mode == "cft":
        return run_em(policy, task.labels, em, features=task.features)
    if mode == "rcft-analog":
        tab = TabularPolicy.from_probs(policy.probs(task.features))
        tab, hist1 = run_em(
            tab, task.labels, _plain_descent(overfit_epochs, overfit_lr, em.bins)
        )
        stage = _epochs(tab, task.labels, em)
        next(stage)  # epoch 0 is the overfit stage's last state: hist1 ends with its row
        hist2 = _history(stage, task.labels, em.bins)
        for row in hist2:
            row["epoch"] += hist1[-1]["epoch"]
        return tab, hist1 + hist2
    raise BadParams(f"unknown training mode {mode!r}")


def task_dataset(task: ToyTask, policy) -> Dataset:
    """Snapshot the policy's confidences on the task as a metrics dataset."""
    return Dataset.from_arrays(policy.probs(task.features), task.labels)


# Pinned study configuration: one task and budget per stage, reused by the
# acceptance suite so published numbers are reproducible. The CLI defaults
# differ: `train-toy --mode rcft` uses its --lr (0.5) as the EM rate where the
# study uses rcft_em_lr, and `--mode ece-only` runs --em-epochs (8) where the
# study runs ece_only_epochs.
STUDY = {
    "d": 32,
    "k": 4,
    "n": 2000,
    "teacher_temperature": 1.0,
    "sft_epochs": 150,
    "sft_lr": 0.5,
    "em_epochs": 8,
    "em_lr": 0.5,
    "rcft_overfit_epochs": 400,
    "rcft_overfit_lr": 0.5,
    "rcft_em_lr": 0.1,
    "ece_only_epochs": 12,
    "bins": 10,
}


def tradeoff_study(seed: int = 42) -> dict:
    """Run the pinned four-stage study on one seeded task.

    Stages: plain-descent baseline (fits the labels, leaves a calibration
    gap), EM calibration at lam = 1 from that endpoint, the stronger-fit
    analog (tabular capacity, then EM at lam = 1), and target-only training
    from scratch (no fit term). Returns per-stage endpoint metrics plus the
    task's critical accuracy.
    """
    task = gen_toy_task(
        d=STUDY["d"], k=STUDY["k"], n=STUDY["n"],
        teacher_temperature=STUDY["teacher_temperature"], seed=seed,
    )
    out = {"bayes_accuracy": task.bayes_accuracy, "task": task}

    def endpoint(policy) -> dict:
        return metric_row(policy.probs(task.features), task.labels, STUDY["bins"])

    sft = LinearPolicy(task.d, task.k)
    sft, sft_hist = train(
        sft, task, mode="sft-only", epochs=STUDY["sft_epochs"], lr=STUDY["sft_lr"]
    )
    out["sft"] = endpoint(sft)
    out["sft_policy"] = sft
    out["sft_history"] = sft_hist

    cft_cfg = EmConfig(
        epochs=STUDY["em_epochs"], bins=STUDY["bins"], lam=1.0,
        learning_rate=STUDY["em_lr"],
    )
    cft_pol, cft_hist = train(sft.clone(), task, mode="cft", em=cft_cfg)
    out["cft"] = endpoint(cft_pol)
    out["cft_history"] = cft_hist

    rcft_cfg = EmConfig(
        epochs=STUDY["em_epochs"], bins=STUDY["bins"], lam=1.0,
        learning_rate=STUDY["rcft_em_lr"],
    )
    rcft_pol, rcft_hist = train(
        sft.clone(), task, mode="rcft-analog", em=rcft_cfg,
        overfit_epochs=STUDY["rcft_overfit_epochs"], overfit_lr=STUDY["rcft_overfit_lr"],
    )
    out["rcft"] = endpoint(rcft_pol)
    out["rcft_history"] = rcft_hist

    eo_cfg = EmConfig(
        epochs=STUDY["ece_only_epochs"], bins=STUDY["bins"], lam=1.0,
        sft_weight=0.0, learning_rate=STUDY["em_lr"],
    )
    eo_pol, eo_hist = run_em(
        TabularPolicy.zeros(task.n, task.k), task.labels, eo_cfg, features=None
    )
    out["ece_only"] = endpoint(eo_pol)
    out["ece_only_history"] = eo_hist
    return out
