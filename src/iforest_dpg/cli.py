"""Command-line driver: gen, train, score, explain, repro.

Exit codes: 0 success, 1 input or IO error (including bad flags), 2 pipeline
semantic error (labeling produced a single class). Warnings are printed to
stderr as `warning: <message>` lines and do not change the exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import warnings
from collections.abc import Callable
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
    INLIER,
    OUTLIER,
    ScoreThreshold,
    fit,
    label_scores,
    score_samples,
)
from .io import (
    load_model,
    read_csv,
    read_csv_blocks,
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

# The outlier fraction `repro --dataset` assumes for the thyroid benchmark
# layout; a fixture's is its injected share.
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
        index = head[len("sample="):]
        if re.fullmatch(r"\s*\d+\s*", index) is None:
            raise ValueError(
                f"bad injection {text!r}: sample index {index!r} is not an integer >= 0"
            )
        sample = int(index)
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


def _csv_options(args: argparse.Namespace) -> dict:
    """The CSV reader's header and label-column arguments of the CSV flags."""
    label_column = args.label_column
    if isinstance(label_column, str) and re.fullmatch(r"\d+", label_column):
        label_column = int(label_column)
    return {"has_header": not args.no_header, "label_column": label_column}


def _read_input(args: argparse.Namespace) -> Dataset:
    return read_csv(args.data, **_csv_options(args))


def _run_explain(
    data: Dataset, params: ForestParams
) -> tuple[ForestModel, DpGraph, IopReport]:
    """fit -> label -> graph -> IOP.

    fit routes the training set once, for the scores and the leaf visits;
    the graph of the training labels reuses those visits and routes only
    the outlier rows again.
    """
    model = fit(data, params)
    graph = build_model_graph(model, data, model.is_outlier, model.train_visits)
    return model, graph, score_graph(graph)


def _repro_seed(data: Dataset, params: ForestParams) -> tuple[dict[Predicate, float], set[int]]:
    """One repro seed's IOP per predicate and its detected rows; the model and
    graph are dropped before the next seed fits."""
    model, _, report = _run_explain(data, params)
    detected = {int(i) for i in np.flatnonzero(model.is_outlier)}
    return {e.predicate: e.iop for e in report.entries}, detected


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def cmd_gen(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    if args.fixture is not None:
        custom = (args.samples, args.features, args.inject, args.means, args.stds)
        if any(flag is not None for flag in custom):
            raise ValueError(
                "--fixture cannot be combined with --samples/--features/--inject/--means/--stds"
            )
        make = fixture_one if args.fixture == "one" else fixture_two
        data, log = make(seed=args.seed)
    else:
        injections = tuple(_parse_injection(s) for s in args.inject or ())
        config = SynthConfig(
            n_samples=200 if args.samples is None else args.samples,
            n_features=6 if args.features is None else args.features,
            cluster_means=None if args.means is None else _parse_float_list(args.means, "--means"),
            cluster_stds=None if args.stds is None else _parse_float_list(args.stds, "--stds"),
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
    n_outliers = int(np.count_nonzero(model.is_outlier))
    summary = {
        "model": str(args.out),
        "n_train": model.n_train,
        "n_trees": model.params.n_trees,
        "subsample_size": model.subsample_size,
        "max_depth": model.max_depth,
        "n_outliers": n_outliers,
        "n_inliers": model.n_train - n_outliers,
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


# Rows of a batch that `score` parses and routes at a time, and turns into
# Python values as it writes. Each row is scored on its own, so the block
# size changes no output, only the memory held: a 4096-row block of 20
# columns is 0.6 MB, where a whole 50 000-row batch is 8 MB.
_SCORE_BLOCK = 1 << 12


def _scored_blocks(scores: np.ndarray, is_outlier: np.ndarray):
    """Yield each block's (sample, score, label) rows as Python values, one
    block converted at a time."""
    for start in range(0, len(scores), _SCORE_BLOCK):
        stop = start + _SCORE_BLOCK
        yield zip(
            range(start, stop),
            scores[start:stop].tolist(),
            [(INLIER, OUTLIER)[o] for o in is_outlier[start:stop].tolist()],
        )


def _check_columns(data: Dataset, model: ForestModel, has_header: bool) -> None:
    """A ValueError naming the first feature column of `data` that is not the
    model's: compared by name with a header, by count without one. Columns
    are never reordered."""
    pairs = itertools.zip_longest(data.feature_names, model.feature_names)
    for i, (got, want) in enumerate(pairs):
        if got is None or want is None or (has_header and got != want):
            raise ValueError(
                f"feature column {i} is {'absent' if got is None else repr(got)} in "
                f"the CSV but {'absent' if want is None else repr(want)} in the model; "
                "score a CSV with the model's feature columns, in order"
            )


def cmd_score(args: argparse.Namespace) -> int:
    """Score the batch `_SCORE_BLOCK` rows at a time.

    The first block is read before the model and checked against it, so a
    batch of one block reports a fault in the CSV, then in the model, then
    in its columns; a later block's fault comes after the other two.
    Nothing is written until every block has been scored.
    """
    blocks = read_csv_blocks(args.data, rows=_SCORE_BLOCK, **_csv_options(args))
    first = next(blocks)
    model = load_model(args.model)
    _check_columns(first, model, has_header=not args.no_header)
    scores = np.concatenate(
        [score_samples(model, block) for block in itertools.chain([first], blocks)]
    )
    # The training-score cutoff, not the rule: a row's label must not depend
    # on the batch it is scored in.
    scored = _scored_blocks(scores, label_scores(scores, ScoreThreshold(model.cutoff)))
    if args.out is not None:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write("sample,score,label\n")
            # One string and one write a block; %r is the score's repr.
            fh.writelines("".join(["%d,%r,%s\n" % row for row in block]) for block in scored)
        print(f"wrote {args.out}")
        return 0
    rows = itertools.chain.from_iterable(scored)
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
    # No name here holds the training Dataset, so its matrix is freed
    # before the bundle write instead of adding to explain's peak memory.
    model, graph, report = _run_explain(_read_input(args), _params_from_args(args))
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
    label_width = max((len(predicate_label(p, names)) for p in stats), default=0)
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


def _repro(
    args: argparse.Namespace, draw: Callable[[int], Dataset], fraction: float, gates: list[tuple]
) -> int:
    """Explain `draw(seed)` for each seed, labelling the top `fraction` (or
    --contamination) Outlier, and count the seeds each (name, threshold,
    passes(iops, detected)) gate passes: it needs threshold * seeds hits."""
    rule = Contamination(fraction if args.contamination is None else args.contamination)
    per_seed: list[dict[Predicate, float]] = []
    hits = [0] * len(gates)
    for seed in range(args.seed, args.seed + args.seeds):
        data = draw(seed)
        iops, detected = _repro_seed(
            data, ForestParams(n_trees=args.trees, seed=seed, label_rule=rule)
        )
        per_seed.append(iops)
        hits = [n + passes(iops, detected) for n, (_, _, passes) in zip(hits, gates)]
    checks = [
        {"name": name, "hits": n, "threshold": threshold, "pass": n >= threshold * args.seeds}
        for n, (name, threshold, _) in zip(hits, gates)
    ]
    _print_repro(
        _sign_stats(per_seed), checks, args.seeds, args.seed, data.feature_names, args.json
    )
    return 0


def _fixture_experiment(which: str, base_seed: int):
    """A fixture's (draw, fraction, gates): the injected rows and the outlier
    fraction are the ground truth of its draw at the base seed (a fixture
    puts its injected rows first at every seed)."""
    make = fixture_one if which == "one" else fixture_two
    first, _ = make(seed=base_seed)
    injected = {int(i) for i in np.flatnonzero(first.labels == OUTLIER)}
    negative = FIXTURE_NEGATIVE_SET[which]
    neg_names = ", ".join(predicate_label(p, first.feature_names) for p in negative)

    def all_negative(iops, _):
        return all(iops.get(p, 1.0) < 0 for p in negative)

    def top3(iops, detected):
        order = sorted(iops, key=lambda p: (iops[p], predicate_id(p)))
        return all_negative(iops, detected) and set(order[:3]) == set(negative)

    if which == "one":
        gates = [
            (
                f"injected sample detected and {{{neg_names}}} are the three most negative",
                0.90,
                lambda iops, detected: detected == injected and top3(iops, detected),
            ),
            (f"all of {{{neg_names}}} negative", 0.95, all_negative),
        ]
    else:
        gates = [(f"{{{neg_names}}} all negative and the three most negative", 0.80, top3)]

    def draw(seed):
        # The base seed's fixture is the one drawn above, not drawn again.
        return first if seed == base_seed else make(seed=seed)[0]

    return draw, len(injected) / first.n_samples, gates


def _dataset_experiment(args: argparse.Namespace):
    """The thyroid layout's (draw, fraction, gates) on the --dataset CSV."""
    data = _read_input(args)
    names = data.feature_names
    for required in ("TSH", "T3"):
        if required not in names:
            raise ValueError(f"dataset repro expects a {required!r} column; found {names}")
    tsh_gt = Predicate(names.index("TSH"), GT)
    t3_gt = Predicate(names.index("T3"), GT)

    def thyroid(iops, _):
        tsh = iops.get(tsh_gt, 0.0)
        return (
            tsh < -0.15
            and all(v > tsh for p, v in iops.items() if p != tsh_gt)
            and {p for p, v in iops.items() if v < 0} == {tsh_gt, t3_gt}
        )

    name = (
        "TSH > is the unique minimum IOP, < -0.15, and T3 > is the only other "
        "negative predicate"
    )
    return lambda seed: data, DATASET_CONTAMINATION, [(name, 0.80, thyroid)]


def cmd_repro(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    _check_seed(args.seed)
    if args.fixture is None:
        return _repro(args, *_dataset_experiment(args))
    if args.no_header or args.label_column is not None:
        raise ValueError("--fixture cannot be combined with --no-header/--label-column")
    return _repro(args, *_fixture_experiment(args.fixture, args.seed))


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
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (default 200; not with --fixture)")
    p.add_argument("--features", type=int, default=None,
                   help="feature count (default 6; not with --fixture)")
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
        help=(
            "label the top ceil(fraction*n) scorers Outlier (default: the fixture's "
            "injected share, or 0.0361 for --dataset)"
        ),
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
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
