#!/usr/bin/env python3
"""Self-check of the benchmark; run from the root of a checkout.

    python3 bench/selfcheck.py

1. Runs every workload at a tiny size, untraced and traced, and confirms
   that the result line is well formed and names every metric of
   BENCHMARK.json with its unit, and that no operation failed.
2. Confirms that the output checks reject a bundle with one edge weight
   changed (with and without a re-signed manifest) and a truncated
   scores.csv.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import run

TINY = run.Sizes(rows=400, features=6, injected=4, trees=20, repro_seeds=1)


def run_tiny(workload: str, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            sizes=TINY,
        )
    lines = out.getvalue().splitlines()
    if code != 0 or not lines:
        return [f"{workload} trace {trace}: exit {code}"]
    result = json.loads(lines[-1])
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != wanted:
        problems.append(f"{workload} trace {trace}: metrics {got} != {wanted}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace {trace}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{workload} trace {trace}: a metric value is not a number")
    return problems


def mutation_checks(root: Path) -> list[str]:
    """Make a tiny bundle and scores.csv with the CLI, then damage them."""
    s = run.Session(root, "selfcheck", 0, TINY)
    s.open()
    problems = []
    try:
        run.make_inputs(s, "train", 0)
        flags = run.forest_flags(s)
        for argv in (
            ["explain", "train.csv", *flags, "--out", "bundle"],
            ["train", "train.csv", *flags, "--out", "model.json"],
            ["score", "train.csv", "--model", "model.json", "--out", "scores.csv"],
        ):
            if s.job(argv).get("exit_code") != 0:
                return [f"tiny job {argv} failed"]
        bundle, scores = s.work / "bundle", s.work / "scores.csv"
        if checks.check_bundle(bundle) or checks.check_scores(scores, TINY.rows):
            return ["the checks reject an undamaged bundle or scores.csv"]

        graph_path = bundle / "graph.json"
        graph = json.loads(graph_path.read_text())
        graph["edges"][len(graph["edges"]) // 2]["weight"] *= 1.001
        graph_path.write_text(json.dumps(graph, indent=2) + "\n")
        if not checks.check_bundle(bundle):
            problems.append("a changed edge weight passed the bundle check")
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["graph.json"] = checks.sha256(graph_path.read_bytes())
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        if not any("inflow" in p for p in checks.check_bundle(bundle)):
            problems.append("a changed edge weight under a re-signed manifest kept flow balance")

        lines = scores.read_text().splitlines(keepends=True)
        scores.write_text("".join(lines[:-1]))
        if not checks.check_scores(scores, TINY.rows):
            problems.append("a truncated scores.csv passed the scores check")
    finally:
        s.close()
    return problems


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            problems += run_tiny(workload, trace)
    problems += mutation_checks(Path.cwd())
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
