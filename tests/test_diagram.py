import numpy as np

from calibkit.core import BinningConfig, Dataset
from calibkit.diagram import reliability_svg
from calibkit.metrics import build_report


def _report():
    rng = np.random.default_rng(14)
    probs = rng.dirichlet(np.ones(4), 300)
    labels = rng.integers(0, 4, 300)
    return build_report(Dataset.from_arrays(probs, labels), BinningConfig(M=10))


def test_confidence_mode_omits_bins_below_chance():
    report = _report()
    svg = reliability_svg(report.conf_bins, report.n, report.k)
    # Bins 1 and 2 end at or below 1/4 and cannot hold a top confidence; they
    # stay in the report data but are not drawn.
    assert report.conf_bins[0].m == 1 and report.conf_bins[1].m == 2
    bars = svg.count("fill-opacity")
    drawable = sum(1 for b in report.conf_bins if b.count > 0 and b.hi > 0.25)
    assert bars == drawable


def test_svg_deterministic():
    report = _report()
    a = reliability_svg(report.conf_bins, report.n, report.k)
    b = reliability_svg(report.conf_bins, report.n, report.k)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
