"""Command-line driver: gen, train, score, explain, repro.

Exit codes: 0 success, 1 input or IO error (including bad flags), 2 pipeline
semantic error (labeling produced a single class). Warnings are printed to
stderr as `warning: <message>` lines and do not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .dpg import (
    GT,
    LE,
    DpGraph,
    Predicate,
    SingleClassError,
    build_model_graph,
    predicate_id,
    predicate_label,
)
from .forest import (
    Contamination,
    Dataset,
    ForestModel,
    ForestParams,
    OUTLIER,
    ScoreThreshold,
    fit,
    label_scores,
    score_samples,
)
from .io import (
    load_model,
    read_csv,
    save_model,
    write_dataset_csv,
    write_explanation_bundle,
    write_injection_log,
)
from .metrics import IopReport, rank_report, score_graph
from .synth import (
    DEFAULT_FIXTURE_SEED,
    InjectionSpec,
    SynthConfig,
    fixture_one,
    fixture_two,
    generate,
)

# Reference outlier fractions used by `repro`: 1/200 and 4/200 for the two
# synthetic fixtures, 3.61% for the thyroid benchmark layout.
FIXTURE_CONTAMINATION = {"one": 1 / 200, "two": 4 / 200}
DATASET_CONTAMINATION = 0.0361

# Predicates that must come out negative, per experiment.
FIXTURE_NEGATIVE_SET = {
    "one": (Predicate(4, GT), Predicate(5, GT), Predicate(0, GT)),
    "two": (Predicate(0, GT), Predicate(3, LE), Predicate(1, GT)),
}


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Route argparse failures (unknown flags, bad values) to exit code 1.
    def error(self, message: str):
        raise _ArgumentError(message)


def _parse_injection(text: str) -> InjectionSpec:
    """Grammar: [sample=IDX:]FEAT{+|-}K[,FEAT{+|-}K ...], e.g. 'sample=0:0+4,3-4'."""
    body = text.strip()
    sample = None
    if body.startswith("sample="):
        head, sep, body = body.partition(":")
        if not sep:
            raise ValueError(f"bad injection {text!r}: expected ':' after sample index")
        sample = int(head[len("sample="):])
    feats: list[int] = []
    facs: list[float] = []
    dirs: list[int] = []
    for token in body.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*([+-])\s*(\d+(?:\.\d+)?)\s*", token)
        if m is None:
            raise ValueError(
                f"bad injection token {token!r}: expected FEATURE+K or FEATURE-K"
            )
        feats.append(int(m.group(1)))
        dirs.append(1 if m.group(2) == "+" else -1)
        facs.append(float(m.group(3)))
    return InjectionSpec(
        altered_features=tuple(feats),
        factors=tuple(facs),
        directions=tuple(dirs),
        sample=sample,
    )


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _add_forest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trees", type=int, default=200, help="number of trees (default 200)")
    p.add_argument(
        "--subsample",
        type=int,
        default=256,
        help="max subsample per tree (default 256)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--no-leaf-adjustment",
        action="store_true",
        help="do not add c(size) for multi-sample leaves in path lengths",
    )
    rule = p.add_mutually_exclusive_group()
    rule.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="label Outlier when score >= this value (default rule, 0.5)",
    )
    rule.add_argument(
        "--contamination",
        type=float,
        default=None,
        help=(
            "label the top ceil(fraction*n) scorers Outlier instead; a product "
            "within float error of an integer counts as that integer (0.07 of "
            "100 rows is 7)"
        ),
    )


def _add_csv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--no-header", action="store_true", help="input CSV has no header row"
    )
    p.add_argument(
        "--label-column",
        default=None,
        help="name or 0-based index of a label column to exclude from features",
    )


def _params_from_args(args: argparse.Namespace) -> ForestParams:
    if args.contamination is not None:
        rule = Contamination(fraction=args.contamination)
    elif args.threshold is not None:
        rule = ScoreThreshold(threshold=args.threshold)
    else:
        rule = ScoreThreshold()
    return ForestParams(
        n_trees=args.trees,
        max_subsample=args.subsample,
        seed=args.seed,
        leaf_adjustment=not args.no_leaf_adjustment,
        label_rule=rule,
    )


def _read_input(args: argparse.Namespace) -> Dataset:
    label_column = args.label_column
    if isinstance(label_column, str) and re.fullmatch(r"\d+", label_column):
        label_column = int(label_column)
    return read_csv(
        args.data, has_header=not args.no_header, label_column=label_column
    )


def _run_explain(
    data: Dataset, params: ForestParams
) -> tuple[ForestModel, DpGraph, IopReport]:
    """fit -> label -> graph -> IOP.

    fit routes the training set once, for the scores and the leaf visits;
    the graph of the training labels reuses those visits and routes only
    the outlier rows again.
    """
    model = fit(data, params)
    graph = build_model_graph(model, data, model.labels == OUTLIER, model.train_visits)
    return model, graph, score_graph(graph)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def cmd_gen(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    if args.fixture is not None:
        if args.inject or args.means or args.stds:
            raise ValueError("--fixture cannot be combined with --inject/--means/--stds")
        make = fixture_one if args.fixture == "one" else fixture_two
        data, log = make(seed=args.seed)
    else:
        injections = tuple(_parse_injection(s) for s in args.inject or ())
        config = SynthConfig(
            n_samples=args.samples,
            n_features=args.features,
            cluster_means=_parse_float_list(args.means, "--means") if args.means else None,
            cluster_stds=_parse_float_list(args.stds, "--stds") if args.stds else None,
            injections=injections,
            seed=args.seed,
        )
        data, log = generate(config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.csv"
    log_path = out / "injections.csv"
    # Ground truth stays in the injection log; the data file is features only.
    write_dataset_csv(
        data_path,
        Dataset(features=data.features, feature_names=data.feature_names),
    )
    write_injection_log(log_path, log)

    if args.json:
        print(
            json.dumps(
                {
                    "data": str(data_path),
                    "injections": str(log_path),
                    "n_samples": data.n_samples,
                    "n_features": data.n_features,
                    "n_injected": len({r.sample for r in log}),
                },
                indent=2,
            )
        )
    else:
        print(f"wrote {data_path} ({data.n_samples} x {data.n_features})")
        print(f"wrote {log_path} ({len(log)} alterations, "
              f"{len({r.sample for r in log})} injected samples)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    data = _read_input(args)
    model = fit(data, _params_from_args(args))
    save_model(args.out, model)
    summary = {
        "model": str(args.out),
        "n_train": model.n_train,
        "n_trees": model.params.n_trees,
        "subsample_size": model.subsample_size,
        "max_depth": model.max_depth,
        "n_outliers": model.outlier_count(),
        "n_inliers": model.inlier_count(),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"wrote {args.out}")
        print(
            f"trained {summary['n_trees']} trees on {summary['n_train']} samples "
            f"(subsample {summary['subsample_size']}, depth cap {summary['max_depth']}); "
            f"{summary['n_outliers']} outliers / {summary['n_inliers']} inliers"
        )
    return 0


# Scored rows turned into Python values at a time: `tolist` is one C pass,
# and a chunk bounds the objects alive at once (a whole 50 000-row batch
# would add about 1.2 MB to the peak memory of `score`).
_SCORE_CHUNK = 1 << 12


def _scored_rows(scores: np.ndarray, labels: np.ndarray):
    """Yield (sample, score, label) as Python values, one chunk converted at a time."""
    for start in range(0, len(scores), _SCORE_CHUNK):
        stop = start + _SCORE_CHUNK
        yield from zip(
            range(start, stop), scores[start:stop].tolist(), labels[start:stop].tolist()
        )


def cmd_score(args: argparse.Namespace) -> int:
    data = _read_input(args)
    model = load_model(args.model)
    scores = score_samples(model, data)
    # The training-score cutoff, not the rule: a row's label must not depend
    # on the batch it is scored in.
    labels = label_scores(scores, ScoreThreshold(model.cutoff))
    rows = _scored_rows(scores, labels)
    if args.out is not None:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write("sample,score,label\n")
            fh.writelines(f"{i},{s!r},{l}\n" for i, s, l in rows)
        print(f"wrote {args.out}")
        return 0
    if args.json:
        print(
            json.dumps(
                [{"sample": i, "score": s, "label": l} for i, s, l in rows],
                indent=2,
            )
        )
    else:
        print("sample | score  | label")
        for i, s, l in rows:
            print(f"{i:6d} | {s:.4f} | {l}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    data = _read_input(args)
    model, graph, report = _run_explain(data, _params_from_args(args))
    write_explanation_bundle(args.out, model, graph, report, input_path=args.data)
    if args.json:
        print(rank_report(report, format="json"), end="")
    else:
        print(rank_report(report, format="table"), end="")
        print(f"bundle written to {args.out}")
    return 0


def _sign_stats(per_seed: list[dict[Predicate, float]]) -> dict[Predicate, dict]:
    """Mean IOP and sign-agreement rate per predicate across seeds.

    Agreement is the fraction of seeds (among those where the predicate
    appears) whose IOP sign matches the sign of the mean IOP.
    """
    predicates = sorted(
        {p for seed in per_seed for p in seed}, key=lambda p: (p.feature_index, p.sign != LE)
    )
    stats: dict[Predicate, dict] = {}
    for p in predicates:
        values = [seed[p] for seed in per_seed if p in seed]
        mean = sum(values) / len(values)
        ref = mean >= 0
        agree = sum(1 for v in values if (v >= 0) == ref) / len(values)
        stats[p] = {
            "mean_iop": mean,
            "sign_agreement": agree,
            "n_present": len(values),
        }
    return stats


def _print_repro(
    stats: dict[Predicate, dict],
    checks: list[dict],
    n_seeds: int,
    base_seed: int,
    names: list[str] | None,
    as_json: bool,
) -> None:
    overall = all(c["pass"] for c in checks)
    if as_json:
        print(
            json.dumps(
                {
                    "schema_version": 1,
                    "seeds": n_seeds,
                    "base_seed": base_seed,
                    "predicates": [
                        {"id": predicate_id(p), "label": predicate_label(p, names), **st}
                        for p, st in stats.items()
                    ],
                    "checks": checks,
                    "pass": overall,
                },
                indent=2,
            )
        )
        return
    print(f"seeds: {n_seeds} (base {base_seed})")
    label_width = max(len(predicate_label(p, names)) for p in stats)
    print(f"{'predicate'.ljust(label_width)} | mean IOP | sign agreement")
    for p, st in stats.items():
        print(
            f"{predicate_label(p, names).ljust(label_width)} | "
            f"{st['mean_iop']:+.4f}  | {st['sign_agreement']:.0%} "
            f"({st['n_present']}/{n_seeds} seeds)"
        )
    for c in checks:
        verdict = "PASS" if c["pass"] else "FAIL"
        print(
            f"check: {c['name']}: {c['hits']}/{n_seeds} "
            f"({c['hits'] / n_seeds:.0%}) [needs >= {c['threshold']:.0%}] {verdict}"
        )
    print(f"overall: {'PASS' if overall else 'FAIL'}")


def _most_negative(iops: dict[Predicate, float], k: int) -> set[Predicate]:
    order = sorted(iops.items(), key=lambda kv: (kv[1], predicate_id(kv[0])))
    return {p for p, _ in order[:k]}


def _repro_fixture(args: argparse.Namespace) -> int:
    which = args.fixture
    negative = FIXTURE_NEGATIVE_SET[which]
    rule = Contamination(FIXTURE_CONTAMINATION[which])
    injected = {0} if which == "one" else {0, 1, 2, 3}

    per_seed: list[dict[Predicate, float]] = []
    detect_top3 = 0
    all_negative = 0
    names: list[str] | None = None
    for seed in range(args.seed, args.seed + args.seeds):
        make = fixture_one if which == "one" else fixture_two
        data, _ = make(seed=seed)
        names = data.feature_names
        params = ForestParams(
            n_trees=args.trees, seed=seed, label_rule=rule
        )
        model, graph, report = _run_explain(data, params)
        iops = {e.predicate: e.iop for e in report.entries}
        per_seed.append(iops)

        detected = {int(i) for i in np.flatnonzero(model.labels == OUTLIER)}
        neg_ok = all(iops.get(p, 1.0) < 0 for p in negative)
        top3_ok = _most_negative(iops, 3) == set(negative)
        # Fixture one's check also demands the injected sample be the
        # labeled outlier; fixture two's is a pure sign/rank check.
        detect_ok = detected == injected if which == "one" else True
        if detect_ok and top3_ok and neg_ok:
            detect_top3 += 1
        if neg_ok:
            all_negative += 1

    neg_names = ", ".join(predicate_label(p, names) for p in negative)
    if which == "one":
        checks = [
            {
                "name": f"injected sample detected and {{{neg_names}}} are the "
                "three most negative",
                "hits": detect_top3,
                "threshold": 0.90,
                "pass": detect_top3 >= 0.90 * args.seeds,
            },
            {
                "name": f"all of {{{neg_names}}} negative",
                "hits": all_negative,
                "threshold": 0.95,
                "pass": all_negative >= 0.95 * args.seeds,
            },
        ]
    else:
        checks = [
            {
                "name": f"{{{neg_names}}} all negative and the three most negative",
                "hits": detect_top3,
                "threshold": 0.80,
                "pass": detect_top3 >= 0.80 * args.seeds,
            },
        ]
    _print_repro(_sign_stats(per_seed), checks, args.seeds, args.seed, names, args.json)
    return 0


def _repro_dataset(args: argparse.Namespace) -> int:
    data = _read_input(args)
    names = data.feature_names
    for required in ("TSH", "T3"):
        if required not in names:
            raise ValueError(
                f"dataset repro expects a {required!r} column; found {names}"
            )
    tsh_gt = Predicate(names.index("TSH"), GT)
    t3_gt = Predicate(names.index("T3"), GT)
    fraction = (
        args.contamination if args.contamination is not None else DATASET_CONTAMINATION
    )
    rule = Contamination(fraction)

    per_seed: list[dict[Predicate, float]] = []
    hits = 0
    for seed in range(args.seed, args.seed + args.seeds):
        params = ForestParams(n_trees=args.trees, seed=seed, label_rule=rule)
        _, _, report = _run_explain(data, params)
        iops = {e.predicate: e.iop for e in report.entries}
        per_seed.append(iops)

        negatives = {p for p, v in iops.items() if v < 0}
        tsh = iops.get(tsh_gt)
        unique_min = tsh is not None and all(
            v > tsh for p, v in iops.items() if p != tsh_gt
        )
        if (
            unique_min
            and tsh < -0.15
            and negatives == {tsh_gt, t3_gt}
        ):
            hits += 1

    checks = [
        {
            "name": "TSH > is the unique minimum IOP, < -0.15, and T3 > is the "
            "only other negative predicate",
            "hits": hits,
            "threshold": 0.80,
            "pass": hits >= 0.80 * args.seeds,
        }
    ]
    _print_repro(_sign_stats(per_seed), checks, args.seeds, args.seed, names, args.json)
    return 0


def cmd_repro(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    _check_seed(args.seed)
    if args.fixture is not None:
        return _repro_fixture(args)
    return _repro_dataset(args)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="iforest-dpg",
        description=(
            "Isolation-forest outlier detection explained through a decision "
            "predicate graph and per-predicate IOP scores."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic dataset with injected outliers")
    p.add_argument("--samples", type=int, default=200, help="sample count (default 200)")
    p.add_argument("--features", type=int, default=6, help="feature count (default 6)")
    p.add_argument("--means", default=None, help="comma-separated cluster means")
    p.add_argument("--stds", default=None, help="comma-separated cluster stds")
    p.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="SPEC",
        help="outlier spec '[sample=IDX:]FEAT{+|-}K,...' e.g. '0+4,3-4,4+5,5+5'; repeatable",
    )
    p.add_argument("--fixture", choices=("one", "two"), default=None,
                   help="emit a reference dataset instead of custom flags")
    p.add_argument("--seed", type=int, default=DEFAULT_FIXTURE_SEED,
                   help=f"RNG seed (default {DEFAULT_FIXTURE_SEED})")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit a forest on a CSV and save it as JSON")
    p.add_argument("data", help="input CSV path")
    _add_csv_flags(p)
    _add_forest_flags(p)
    p.add_argument("--out", default="model.json", help="model path (default model.json)")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score samples with a saved model")
    p.add_argument("data", help="input CSV path")
    _add_csv_flags(p)
    p.add_argument("--model", default="model.json", help="model path (default model.json)")
    p.add_argument("--out", default=None, help="write sample,score,label CSV here")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "explain", help="train, build the predicate graph, and write a bundle"
    )
    p.add_argument("data", help="input CSV path")
    _add_csv_flags(p)
    _add_forest_flags(p)
    p.add_argument("--out", default="explanation",
                   help="bundle directory (default explanation)")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "repro",
        help="rerun a reference experiment across seeds and report sign stability",
    )
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--fixture", choices=("one", "two"), default=None)
    target.add_argument("--dataset", dest="data", default=None, help="dataset CSV path")
    _add_csv_flags(p)
    p.add_argument("--trees", type=int, default=200, help="trees per run (default 200)")
    p.add_argument("--seeds", type=int, default=20, help="number of seeds (default 20)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument(
        "--contamination",
        type=float,
        default=None,
        help="override the per-dataset outlier fraction (default 0.0361 for --dataset)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except SingleClassError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
