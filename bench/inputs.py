"""Generate one benchmark dataset from a workload seed.

    python3 bench/inputs.py OUT_DIR NAME SEED STREAM ROWS FEATURES INJECTED

Writes OUT_DIR/NAME.csv (features only, with a header row) and
OUT_DIR/NAME_injected.json (the sorted row indices of the injected rows).
It runs in its own interpreter with the checkout's `src` on PYTHONPATH, so
the data is drawn and written by the code under test: `synth.generate` and
`io.write_dataset_csv`. STREAM separates the training draw (0) from the
scoring batch (1) of one seed.

Recipe: a standard Gaussian cluster; the first INJECTED rows are each shifted
4-5 sigma, up or down, on 2-4 distinct features; then every row is shuffled.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from iforest_dpg.forest import OUTLIER, Dataset
from iforest_dpg.io import write_dataset_csv
from iforest_dpg.synth import InjectionSpec, SynthConfig, generate


def make_dataset(
    seed: int, stream: int, rows: int, features: int, injected: int
) -> tuple[Dataset, list[int]]:
    rng = np.random.default_rng([seed, stream])
    specs = []
    for sample in range(injected):
        k = int(rng.integers(2, min(4, features) + 1))
        specs.append(
            InjectionSpec(
                altered_features=tuple(int(f) for f in rng.choice(features, k, replace=False)),
                factors=tuple(float(x) for x in rng.uniform(4.0, 5.0, k)),
                directions=tuple(int(x) for x in rng.choice((-1, 1), k)),
                sample=sample,
            )
        )
    config = SynthConfig(
        n_samples=rows,
        n_features=features,
        injections=tuple(specs),
        seed=int(rng.integers(2**31)),
    )
    data, _ = generate(config)
    order = rng.permutation(rows)
    shuffled = Dataset(features=data.features[order], feature_names=data.feature_names)
    injected_rows = [int(i) for i in np.flatnonzero(data.labels[order] == OUTLIER)]
    return shuffled, injected_rows


def main(argv: list[str]) -> int:
    out_dir, name = Path(argv[0]), argv[1]
    seed, stream, rows, features, injected = (int(a) for a in argv[2:7])
    data, injected_rows = make_dataset(seed, stream, rows, features, injected)
    write_dataset_csv(out_dir / f"{name}.csv", data)
    (out_dir / f"{name}_injected.json").write_text(json.dumps(injected_rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
