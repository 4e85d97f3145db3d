"""perfbench/layers.py's layer table, measured once with its shortest
settings. Only the traced benchmark runs it otherwise, so a library change
that breaks one of its calls (perturb_pose, params_for, LossContext(gt=...),
the pair form of mean_reproj_distance) would pass the rest of the suite.
"""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import layers  # noqa: E402


def test_layer_table_measures_every_figure(monkeypatch):
    for name, value in [("BATCH_S", 0), ("REPS", 1), ("SCALING_REPS", 1),
                        ("EPOCH_FRAMES", (8,)), ("GRAD_POINTS", (60,))]:
        monkeypatch.setattr(layers, name, value)
    # _time_s bound REPS and BATCH_S as its defaults when layers was imported
    monkeypatch.setattr(layers._time_s, "__defaults__", (1, 0))
    figures = layers.measure()
    assert len(figures) == 25, sorted(figures)
    assert all(math.isfinite(v) and v > 0 for v in figures.values()), figures
