"""File-based workflow: CSV in, trained model and explanation bundle out.

Everything the CLI does is plain library calls; this script runs the same
steps against a temp directory so you can inspect each artifact it leaves
behind: data.csv, model.json, and the six-file explanation bundle.

Run:  python3 demos/csv_workflow.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from iforest_dpg import (
    Contamination,
    Dataset,
    ForestParams,
    OUTLIER,
    ScoreThreshold,
    build_model_graph,
    fit,
    label_scores,
    load_model,
    read_csv,
    save_model,
    score_graph,
    score_samples,
    write_dataset_csv,
    write_explanation_bundle,
)


def main():
    work = Path(tempfile.mkdtemp(prefix="iforest-dpg-demo-"))
    print(f"working in {work}")

    # 1. write a dataset to disk, then load it back like any external CSV
    rng = np.random.default_rng(21)
    features = rng.normal(loc=5.0, scale=1.2, size=(300, 4))
    features[0] += (6.0, 0.0, -6.0, 6.0)  # one planted outlier
    csv_path = work / "data.csv"
    write_dataset_csv(
        csv_path,
        Dataset(features=features, feature_names=["temp", "flow", "ph", "rpm"]),
    )
    data = read_csv(csv_path)
    print(f"loaded {data.n_samples} x {data.n_features} from {csv_path.name}")

    # 2. train and persist the model
    params = ForestParams(n_trees=150, seed=3, label_rule=Contamination(1 / 300))
    model = fit(data, params)
    model_path = work / "model.json"
    save_model(model_path, model)
    print(
        f"trained {params.n_trees} trees; "
        f"{model.outlier_count()} outlier / {model.inlier_count()} inliers; "
        f"saved to {model_path.name}"
    )

    # 3. reload and score fresh samples with the saved model; the training
    #    score cutoff labels them, so each label holds in any batch
    reloaded = load_model(model_path)
    probes = np.array([[5.0, 5.0, 5.0, 5.0], [11.0, 5.0, -1.0, 11.0]])
    scores = score_samples(reloaded, probes)
    labels = label_scores(scores, ScoreThreshold(reloaded.cutoff))
    print(f"  score cutoff from training: {reloaded.cutoff:.4f} (Outlier iff score >= cutoff)")
    for row, s, l in zip(probes, scores, labels):
        print(f"  probe {row.tolist()} -> score {s:.4f} ({l})")

    # 4. explain the training data and write the full bundle
    graph = build_model_graph(model, data, model.labels == OUTLIER, model.train_visits)
    report = score_graph(graph)
    bundle_dir = work / "explanation"
    manifest = write_explanation_bundle(
        bundle_dir, model, graph, report, input_path=csv_path
    )
    print(f"bundle in {bundle_dir}:")
    for name in sorted(p.name for p in bundle_dir.iterdir()):
        print(f"  {name}")
    print("manifest pins the run:")
    print(
        json.dumps(
            {k: manifest[k] for k in ("seed", "versions", "input")}, indent=2
        )
    )

    # 5. the ranking names the planted directions: temp>, rpm> and ph<= low
    worst = report.entries[-1]
    print(f"most outlier-propagating predicate: {report.label(worst)} "
          f"(IOP {worst.iop:+.4f})")
    print(f"render the graph with: dot -Tsvg {bundle_dir / 'graph.dot'} -o dpg.svg")


if __name__ == "__main__":
    main()
