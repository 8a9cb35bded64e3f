"""Walk one injected outlier through the whole pipeline.

Builds the single-outlier reference dataset (200 samples, 6 features, one
sample pushed 4-5 sigma away on F0/F3/F4/F5), trains a forest, then shows how
the predicate graph and IOP ranking expose which feature-side conditions the
outlier kept satisfying on its way to isolation.

Run:  python3 demos/single_outlier_walkthrough.py
"""

import numpy as np

from iforest_dpg import (
    Contamination,
    ForestParams,
    INLIER,
    OUTLIER,
    build_model_graph,
    fit,
    fixture_one,
    rank_report,
    score_graph,
)

SEED = 7


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("1. data: a Gaussian cluster with one altered sample")
    data, log = fixture_one(seed=SEED)
    print(f"{data.n_samples} samples x {data.n_features} features")
    for rec in log:
        print(
            f"  sample {rec.sample}: F{rec.feature} "
            f"{rec.initial:+.3f} -> {rec.final:+.3f} "
            f"({rec.alteration / rec.sigma:+.1f} sigma)"
        )

    section("2. forest: 200 trees, top 1/200 scorers labeled Outlier")
    params = ForestParams(n_trees=200, seed=SEED, label_rule=Contamination(1 / 200))
    model = fit(data, params)
    ranked = np.argsort(-model.scores)
    print(f"subsample {model.subsample_size}, depth cap {model.max_depth}")
    print("top anomaly scores:")
    for i in ranked[:3]:
        label = OUTLIER if model.is_outlier[i] else INLIER
        print(f"  sample {i:3d}: score {model.scores[i]:.4f} -> {label}")
    print(f"detected outlier is the injected sample: {ranked[0] == 0}")

    section("3. graph: collapse every root-to-leaf trace into predicate edges")
    graph = build_model_graph(model, data, model.is_outlier, model.train_visits)
    meta = graph.metadata
    print(
        f"{len(graph.predicates)} predicate nodes, {len(graph.edges)} edges; "
        f"{meta['traces_pruned']} of {meta['traces_total']} traces pruned at the depth cap"
    )
    print(
        f"class weights: w_o = {graph.weights.w_o:.2f} (x{meta['n_outliers']} outliers), "
        f"w_i = {graph.weights.w_i:.4f} (x{meta['n_inliers']} inliers)"
    )

    section("4. IOP ranking: negative = outlier-propagating")
    report = score_graph(graph)
    print(rank_report(report), end="")

    section("5. reading the result")
    tail = report.entries[-3:]
    labels = ", ".join(report.label(e) for e in tail)
    print(f"most negative predicates: {labels}")
    print("F0, F4 and F5 were pushed up, so the outlier keeps landing on the")
    print("'>' side of their splits; those are exactly the sides flagged above.")
    print("F3 was pushed down but only ends ~1.5 sigma out, too mild to rank.")


if __name__ == "__main__":
    main()
