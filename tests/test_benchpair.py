import importlib.util
from pathlib import Path

import pytest

BENCHPAIR = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"


@pytest.fixture(scope="module")
def benchpair():
    spec = importlib.util.spec_from_file_location("benchpair", BENCHPAIR)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _pairs(name, parent, change):
    # one pair per (parent, change) value, shaped as run_once returns them
    def side(v):
        return {"result": {"metrics": {name: {"value": v}}}}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change)]


@pytest.mark.parametrize("better, change, rel, worse", [
    ("lower", [1.1, 1.2, 1.3], 0.2, False),     # slower, inside a 25 % bound
    ("lower", [1.2, 1.3, 1.4], 0.3, True),      # slower beyond it
    ("lower", [0.5, 0.6, 0.7], -0.4, False),    # faster
    ("higher", [0.8, 0.9, 1.0], -0.1, False),   # lower throughput, inside the bound
    ("higher", [0.6, 0.7, 0.8], -0.3, True),    # lower throughput beyond it
    ("higher", [1.8, 1.9, 2.0], 0.9, False),    # higher throughput
], ids=["lower-within", "lower-beyond", "lower-better", "higher-within", "higher-beyond",
        "higher-better"])
def test_summarize_flags_a_metric_worse_beyond_its_bound(benchpair, better, change, rel, worse):
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    s = benchpair.summarize(_pairs("m", [0.9, 1.0, 1.1], change), [metric])["m"]
    assert (s["parent_median"], s["change_median"]) == (1.0, change[1])
    assert s["change_rel"] == pytest.approx(rel)
    assert s["worse_beyond_bound"] is worse
    assert s["change_wins"] == (3 if (rel < 0) == (better == "lower") else 0)



@pytest.mark.parametrize("better, gaps, wins, gain", [
    ("lower", [-0.6] * 10, 10, True),               # median gap 0.6 > IQR 0.55
    ("lower", [-0.5] * 10, 10, False),              # every pair better, gap inside the IQR
    ("lower", [-1.0] * 8 + [0.1] * 2, 8, False),    # wide gap, but better in 8/10 only
    ("higher", [0.6] * 10, 10, True),
    ("higher", [0.5] * 10, 10, False),
    ("higher", [1.0] * 8 + [-0.1] * 2, 8, False),
], ids=["lower-gain", "lower-inside-iqr", "lower-8-of-10", "higher-gain",
        "higher-inside-iqr", "higher-8-of-10"])
def test_summarize_states_the_gain_rule(benchpair, better, gaps, wins, gain):
    parent = [1.0 + i / 10 for i in range(10)]      # median 1.45, IQR 1.725 - 1.175
    change = [p + d for p, d in zip(parent, gaps)]
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    s = benchpair.summarize(_pairs("m", parent, change), [metric])["m"]
    assert s["parent_iqr"] == pytest.approx(0.55)
    assert s["change_wins"] == wins
    assert s["gain"] is gain


def test_summarize_states_no_gain_from_fewer_than_ten_pairs(benchpair):
    parent = [1.0 + i / 10 for i in range(9)]
    metric = {"name": "m", "unit": "s", "better": "lower", "bound": 0.25}
    s = benchpair.summarize(_pairs("m", parent, [p - 1.0 for p in parent]), [metric])["m"]
    assert s["change_wins"] == 9 and s["gain"] is False
