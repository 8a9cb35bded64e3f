"""End-to-end acceptance checks with pinned tolerances.

Each test prints one verdict line; run `pytest tests/test_acceptance.py -s`
to see them. Checks that need the externally supplied thyroid dataset skip
unless it is present (tests/data/annthyroid.csv or IFDPG_ANNTHYROID).
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from iforest_dpg.cli import main
from iforest_dpg.dpg import (
    INLIER_ID,
    OUTLIER_ID,
    SOURCE_ID,
    ClassWeights,
    SingleClassError,
    build_model_graph,
    class_weights,
    predicate_id,
)
from iforest_dpg.forest import (
    OUTLIER,
    Contamination,
    Dataset,
    ForestParams,
    anomaly_score,
    average_path_normalizer,
    fit,
)
from iforest_dpg.io import read_csv
from iforest_dpg.metrics import score_graph
from iforest_dpg.synth import fixture_one, fixture_two

from graph_reference import graph_of
from test_dpg import _oracle_edges
from tree_reference import trees_of, walk


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1-3: formula exactness


def test_normalizer_reference_values():
    c2 = average_path_normalizer(2)
    c256 = average_path_normalizer(256)
    fixed = all(
        anomaly_score(average_path_normalizer(n), n) == 0.5
        for n in (2, 3, 16, 256, 1000)
    )
    ok = abs(c2 - 0.1544) <= 1e-4 and abs(c256 - 10.2447) <= 1e-3 and fixed
    _verdict(
        "normalizer reference values and score fixed point",
        ok,
        f"c(2)={c2:.6f}, c(256)={c256:.6f}, score(c(n),n)==0.5: {fixed}",
    )


def test_class_weight_exactness():
    a = class_weights(1, 199)
    b = class_weights(4, 196)
    ok = (
        a.w_o == 200.0
        and a.w_i == 200 / 199
        and b.w_o == 50.0
        and b.w_i == 200 / 196
    )
    _verdict(
        "class weight exactness",
        ok,
        f"(1,199)->({a.w_o}, {a.w_i}); (4,196)->({b.w_o}, {b.w_i})",
    )


def test_iop_endpoint_exactness():
    w = ClassWeights(w_o=2.0, w_i=2.0, n_o=1, n_i=1)

    def one_node(c_i, c_o):
        counts = {
            (SOURCE_ID, "F0_LE"): (c_i, c_o),
            ("F0_LE", INLIER_ID): (c_i, 0),
            ("F0_LE", OUTLIER_ID): (0, c_o),
        }
        return score_graph(graph_of(counts, 1, w)).entries[0].iop

    pure_in, pure_out, neutral = one_node(2, 0), one_node(0, 2), one_node(3, 3)
    ok = pure_in == 1.0 and pure_out == -1.0 and neutral == 0.0
    _verdict(
        "IOP endpoint semantics",
        ok,
        f"pure-inlier={pure_in}, pure-outlier={pure_out}, balanced={neutral}",
    )


# ---------------------------------------------------------------------------
# 4: oracle equivalence


def test_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    built, worst = 0, 0.0
    for trial in range(50):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(1, 4))
        data = Dataset(
            features=rng.normal(size=(n, d)),
            feature_names=[f"F{i}" for i in range(d)],
        )
        model = fit(
            data,
            ForestParams(
                n_trees=int(rng.integers(1, 4)),
                seed=1000 + trial,
                label_rule=Contamination(0.3),
            ),
        )
        outlier = model.labels == OUTLIER
        expected = _oracle_edges(model, data, outlier)
        if expected is None:
            with pytest.raises(SingleClassError):
                build_model_graph(model, data, outlier)
            continue
        built += 1
        g = build_model_graph(model, data, outlier)
        assert set(g.edges) == set(expected)
        for key, frac in expected.items():
            rel = abs(g.edges[key] - float(frac)) / float(frac)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = built >= 25 and worst <= 1e-9 and elapsed < 10
    _verdict(
        "rational-arithmetic oracle agreement on 50 tiny instances",
        ok,
        f"{built}/50 two-class graphs, worst rel err {worst:.2e}, {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 5: randomized property suite


def test_randomized_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    runs, graphs = 1000, 0
    for i in range(runs):
        n = int(rng.integers(8, 25))
        d = int(rng.integers(1, 4))
        data = Dataset(
            features=rng.normal(size=(n, d)),
            feature_names=[f"F{k}" for k in range(d)],
        )
        model = fit(
            data,
            ForestParams(
                n_trees=int(rng.integers(2, 5)),
                seed=i,
                label_rule=Contamination(0.25),
            ),
        )
        assert np.all(model.scores > 0.0) and np.all(model.scores <= 1.0)
        cap = model.max_depth
        for tree in trees_of(model):
            assert max(depth for _, depth in walk(tree)) <= cap

        try:
            g = build_model_graph(model, data, model.labels == OUTLIER)
        except SingleClassError:
            continue
        graphs += 1
        report = score_graph(g)
        for counts in (g.c_in, g.c_out):
            # Flow conservation at every predicate node, exactly.
            assert np.array_equal(counts.sum(axis=0)[1:-2], counts.sum(axis=1)[1:-2])
        for p in g.predicates:
            assert g.c_in[:, g.index(p)].sum() + g.c_out[:, g.index(p)].sum() > 0
        for e in report.entries:
            assert -1.0 <= e.iop <= 1.0
        w = g.weights
        scaled = replace(g, weights=replace(w, w_o=w.w_o * 7.5, w_i=w.w_i * 7.5))
        for e1, e2 in zip(report.entries, score_graph(scaled).entries):
            assert e2.iop == pytest.approx(e1.iop, rel=1e-9)
    elapsed = time.monotonic() - start
    ok = graphs >= 0.8 * runs and elapsed < 60
    _verdict(
        "1000-run property suite (scores, depth cap, conservation, IOP range, scaling)",
        ok,
        f"{graphs}/{runs} graphs built, {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 6-7: synthetic fixture sign/rank stability


def _most_negative(by_id, k):
    return {pid for pid, _ in sorted(by_id.items(), key=lambda kv: (kv[1], kv[0]))[:k]}


def _fixture_sweep(make, contamination, negative, seeds=20):
    full, neg_only, detections = 0, 0, 0
    for seed in range(seeds):
        data, _ = make(seed=seed)
        model = fit(
            data,
            ForestParams(n_trees=200, seed=seed, label_rule=Contamination(contamination)),
        )
        report = score_graph(build_model_graph(model, data, model.labels == OUTLIER))
        by_id = {predicate_id(e.predicate): e.iop for e in report.entries}
        neg_ok = all(by_id.get(pid, 1.0) < 0 for pid in negative)
        top_ok = _most_negative(by_id, 3) == set(negative)
        detected = {int(i) for i in np.flatnonzero(model.labels == OUTLIER)}
        if detected == set(range(len(detected))) and len(detected) > 0:
            detections += 1
        if neg_ok:
            neg_only += 1
        if neg_ok and top_ok:
            full += 1
    return full, neg_only, detections


def test_fixture_one_sign_rank_stability():
    start = time.monotonic()
    negative = ("F4_GT", "F5_GT", "F0_GT")
    full, neg_only, detections = _fixture_sweep(fixture_one, 1 / 200, negative)
    elapsed = time.monotonic() - start
    # detection and top-3 rank in >= 90% of seeds, all-negative in >= 95%
    ok = (
        min(full, detections) >= 18
        and neg_only >= 19
        and elapsed < 60
    )
    _verdict(
        "single-outlier fixture: detection + {F4>, F5>, F0>} most negative",
        ok,
        f"top3+neg {full}/20 (>=18), detected {detections}/20 (>=18), "
        f"all-neg {neg_only}/20 (>=19), {elapsed:.1f}s (<60s)",
    )


def test_fixture_two_sign_rank_stability():
    start = time.monotonic()
    negative = ("F0_GT", "F3_LE", "F1_GT")
    full, _, _ = _fixture_sweep(fixture_two, 4 / 200, negative)
    elapsed = time.monotonic() - start
    ok = full >= 16 and elapsed < 60
    _verdict(
        "four-outlier fixture: {F0>, F3<=, F1>} negative and most negative",
        ok,
        f"{full}/20 (>=16), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 8: thyroid benchmark (runs only when the dataset is supplied)


def _annthyroid_path():
    env = os.environ.get("IFDPG_ANNTHYROID")
    if env:
        return Path(env)
    local = Path(__file__).parent / "data" / "annthyroid.csv"
    return local if local.exists() else None


def test_annthyroid_sign_rank_stability():
    path = _annthyroid_path()
    if path is None:
        pytest.skip(
            "annthyroid.csv not supplied; place it at tests/data/annthyroid.csv "
            "or point IFDPG_ANNTHYROID at it"
        )
    start = time.monotonic()
    header = path.read_text(encoding="utf-8-sig").splitlines()[0].split(",")
    label = "label" if "label" in [h.strip().lower() for h in header] else None
    data = read_csv(path, label_column=label)
    names = data.feature_names
    tsh_gt = f"F{names.index('TSH')}_GT"
    t3_gt = f"F{names.index('T3')}_GT"

    hits = 0
    for seed in range(20):
        model = fit(
            data,
            ForestParams(n_trees=200, seed=seed, label_rule=Contamination(0.0361)),
        )
        report = score_graph(build_model_graph(model, data, model.labels == OUTLIER))
        by_id = {predicate_id(e.predicate): e.iop for e in report.entries}
        tsh = by_id.get(tsh_gt)
        negatives = {pid for pid, v in by_id.items() if v < 0}
        unique_min = tsh is not None and all(
            v > tsh for pid, v in by_id.items() if pid != tsh_gt
        )
        if unique_min and tsh < -0.15 and negatives == {tsh_gt, t3_gt}:
            hits += 1
    elapsed = time.monotonic() - start
    ok = hits >= 16 and elapsed < 300
    _verdict(
        "thyroid benchmark: TSH> unique minimum < -0.15, T3> only other negative",
        ok,
        f"{hits}/20 (>=16), {elapsed:.1f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# 9: determinism


def test_explain_determinism(tmp_path, capsys):
    start = time.monotonic()
    gen_dir = tmp_path / "data"
    assert main(["gen", "--fixture", "one", "--out", str(gen_dir)]) == 0
    csv_path = gen_dir / "data.csv"
    args = [
        "explain", str(csv_path),
        "--trees", "200",
        "--seed", "7",
        "--contamination", "0.005",
    ]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    capsys.readouterr()
    first = (tmp_path / "run1" / "graph.json").read_bytes()
    second = (tmp_path / "run2" / "graph.json").read_bytes()
    elapsed = time.monotonic() - start
    ok = first == second and json.loads(first)["schema_version"] == 1 and elapsed < 30
    _verdict(
        "same-seed explain runs produce byte-identical graph.json",
        ok,
        f"{len(first)} bytes, identical: {first == second}, {elapsed:.1f}s (<30s)",
    )
