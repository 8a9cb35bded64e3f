import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iforest_dpg.dpg import (
    GT,
    INLIER_ID,
    LE,
    OUTLIER_ID,
    SOURCE_ID,
    ClassWeights,
    Predicate,
    SingleClassError,
    build_model_graph,
    predicate_id,
)
from iforest_dpg.forest import OUTLIER, Contamination, Dataset, ForestParams, fit
from iforest_dpg.metrics import IopEntry, IopReport, iop_score, rank_report, score_graph
from graph_reference import graph_of

W = ClassWeights(w_o=2.0, w_i=2.0, n_o=1, n_i=1)


def _graph(counts, n_features):
    """Graph from per-edge (inlier, outlier) counts, both classes weighted 2."""
    return graph_of(counts, n_features, W)


# ---------------------------------------------------------------------------
# iop_score


def test_iop_endpoint_semantics():
    assert iop_score(f_i=5.0, f_o=0.0, f_in=5.0) == 1.0
    assert iop_score(f_i=0.0, f_o=5.0, f_in=5.0) == -1.0
    assert iop_score(f_i=3.0, f_o=3.0, f_in=10.0) == 0.0


def test_iop_rejects_bad_flows():
    with pytest.raises(ValueError):
        iop_score(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        iop_score(-1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        iop_score(0.0, -1.0, 2.0)
    with pytest.raises(ValueError, match="exceeds the inflow"):
        iop_score(3.0, 0.0, 2.0)


# ---------------------------------------------------------------------------
# score_graph


def test_score_graph_hand_traced_example():
    # One inlier and one outlier trace A -> B: SOURCE->A 4, A->B 4,
    # B->Inlier 2, B->Outlier 2.
    a, b = Predicate(0, LE), Predicate(1, GT)
    g = _graph(
        {
            (SOURCE_ID, "F0_LE"): (1, 1),
            ("F0_LE", "F1_GT"): (1, 1),
            ("F1_GT", INLIER_ID): (1, 0),
            ("F1_GT", OUTLIER_ID): (0, 1),
        },
        2,
    )
    report = score_graph(g)
    by = report.by_predicate()
    assert by[b].iop == 0.0
    assert by[b].f_in == 4.0
    assert by[a].iop == 0.0  # no terminal edges at all
    assert by[a].f_i == 0.0 and by[a].f_o == 0.0


def test_score_graph_pure_inlier_node_scores_one():
    a = Predicate(0, LE)
    g = _graph({(SOURCE_ID, "F0_LE"): (1, 0), ("F0_LE", INLIER_ID): (1, 0)}, 1)
    report = score_graph(g)
    assert report.entries[0].predicate == a
    assert report.entries[0].iop == 1.0


def test_score_graph_self_loop_counts_into_inflow():
    a = Predicate(0, LE)
    g = _graph(
        {
            (SOURCE_ID, "F0_LE"): (0, 1),
            ("F0_LE", "F0_LE"): (0, 1),
            ("F0_LE", OUTLIER_ID): (0, 1),
        },
        1,
    )
    entry = score_graph(g).entries[0]
    assert entry.predicate == a
    assert entry.f_in == 4.0  # source + self-loop
    assert entry.iop == (0.0 - 2.0) / 4.0


def test_report_sorted_descending_with_tie_break():
    # Two nodes tied at iop 1: lower feature first, LE before GT.
    g = _graph(
        {
            (SOURCE_ID, "F2_GT"): (1, 0),
            ("F2_GT", INLIER_ID): (1, 0),
            (SOURCE_ID, "F2_LE"): (1, 0),
            ("F2_LE", INLIER_ID): (1, 0),
            (SOURCE_ID, "F0_GT"): (0, 1),
            ("F0_GT", OUTLIER_ID): (0, 1),
        },
        3,
    )
    report = score_graph(g)
    ids = [predicate_id(e.predicate) for e in report.entries]
    assert ids == ["F2_LE", "F2_GT", "F0_GT"]
    assert [e.iop for e in report.entries] == [1.0, 1.0, -1.0]


# ---------------------------------------------------------------------------
# rank_report


def test_rank_report_single_row_format():
    entry = IopEntry(
        predicate=Predicate(0, GT), iop=-0.1202, f_i=10.0, f_o=20.0, f_in=83.2
    )
    text = rank_report(IopReport(entries=(entry,)))
    lines = text.splitlines()
    assert lines[0].startswith("Predicate")
    assert "IOP-Score" in lines[0]
    assert lines[1].startswith("F0 >")
    assert "-0.1202" in lines[1]


def test_rank_report_empty_is_header_only():
    text = rank_report(IopReport(entries=()))
    assert text == "Predicate | IOP-Score\n"


def test_rank_report_uses_feature_names():
    entry = IopEntry(
        predicate=Predicate(1, GT), iop=-0.2429, f_i=0.0, f_o=1.0, f_in=4.0
    )
    report = IopReport(entries=(entry,), feature_names=["Age", "TSH"])
    assert "TSH >" in rank_report(report)


def test_rank_report_json_full_precision():
    iop = -0.12345678901234567
    entry = IopEntry(
        predicate=Predicate(3, LE), iop=iop, f_i=1.0, f_o=2.0, f_in=8.1
    )
    doc = json.loads(rank_report(IopReport(entries=(entry,)), format="json"))
    assert doc["schema_version"] == 1
    assert doc["entries"][0]["iop"] == iop
    assert doc["entries"][0]["sign"] == LE
    assert doc["entries"][0]["feature"] == 3


def test_rank_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        rank_report(IopReport(entries=()), format="yaml")


# ---------------------------------------------------------------------------
# whole-pipeline properties


def test_all_iops_bounded_on_small_model(small_model):
    data, model = small_model
    report = score_graph(build_model_graph(model, data, model.labels == OUTLIER))
    assert report.entries, "expected at least one predicate"
    for e in report.entries:
        assert -1.0 <= e.iop <= 1.0
        assert e.f_i + e.f_o <= e.f_in * (1 + 1e-12)


def test_iop_invariant_under_uniform_weight_scaling(small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.labels == OUTLIER)
    base = score_graph(g)
    w = g.weights
    for scale in (0.25, 3.0, 1e6):
        scaled = replace(g, weights=replace(w, w_o=w.w_o * scale, w_i=w.w_i * scale))
        other = score_graph(scaled)
        for e1, e2 in zip(base.entries, other.entries):
            assert e1.predicate == e2.predicate
            assert e2.iop == pytest.approx(e1.iop, rel=1e-12)


def test_terminal_difference_identity(small_model):
    # Sum of (f_i - f_o) over predicates equals the terminal inflow
    # difference minus the source's direct terminal contributions.
    data, model = small_model
    g = build_model_graph(model, data, model.labels == OUTLIER)
    report = score_graph(g)
    lhs = sum(e.f_i - e.f_o for e in report.entries)
    into_i = int(g.c_in[1:, -2].sum())
    into_o = int(g.c_out[1:, -1].sum())
    rhs = into_i * g.weights.w_i - into_o * g.weights.w_o
    assert lhs == pytest.approx(rhs, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_iops_bounded_randomized(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    d = int(rng.integers(1, 5))
    data = Dataset(
        features=rng.normal(size=(n, d)),
        feature_names=[f"F{i}" for i in range(d)],
    )
    model = fit(
        data, ForestParams(n_trees=6, seed=seed, label_rule=Contamination(0.25))
    )
    try:
        report = score_graph(build_model_graph(model, data, model.labels == OUTLIER))
    except SingleClassError:
        return
    for e in report.entries:
        assert -1.0 <= e.iop <= 1.0


def test_fixture_one_sign_pattern(fixture_one_run):
    # Altered-feature GT predicates come out negative; every predicate of an
    # untouched feature comes out positive at the pinned seed.
    _, log, _, _, report = fixture_one_run
    by = {predicate_id(e.predicate): e.iop for e in report.entries}
    assert by["F0_GT"] < 0
    assert by["F4_GT"] < 0
    assert by["F5_GT"] < 0
    altered = {r.feature for r in log}
    assert altered == {0, 3, 4, 5}
    for f in range(6):
        if f not in altered:
            for sign in ("LE", "GT"):
                assert by[f"F{f}_{sign}"] > 0
