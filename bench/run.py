#!/usr/bin/env python3
"""Benchmark of the iforest-dpg command line, measured from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
`./src`, and inputs and outputs live under `./.bench_work` while it runs.
Each job is the argv a user would type, run by `bench/job.py` in a fresh
interpreter, one job at a time (a closed loop with one client), until S
seconds have passed. Every job's output is checked. The inputs come from the
workload seed N; the program receives only CSV and model files.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics (job_s, setup_s, peak_rss_mb). With `--trace 1` jobs
alternate between traced and untraced, and the last line carries the
per-layer metrics instead. The lines before it are a readable report that
also gives fail_share, topk_hit_share, output digests and an environment
record. A copy of the report goes to `./.bench_results/`, where a later run
of the same seed and the same source compares its output digests with it.

All three workloads in one command:

    for w in repro-fixture explain-large score-large; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

`python3 bench/selfcheck.py` checks the benchmark itself at a tiny size.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("repro-fixture", "explain-large", "score-large")


@dataclass(frozen=True)
class Sizes:
    rows: int
    features: int
    injected: int
    trees: int
    repro_seeds: int


# explain-large and score-large: 50 000 x 20 with 1% injected rows. On
# repro-fixture one job is `--seeds 2`, about 0.7 s, so a run holds dozens.
FULL = Sizes(rows=50_000, features=20, injected=500, trees=200, repro_seeds=2)
CONTAMINATION = "0.01"
IMPORT_PROBES = 10  # extra import-only interpreters per run, for setup_s
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends before this

END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SPANS = (
    "cli.main",
    "forest.fit",
    "forest.ForestModel.flat_trees",
    "forest.score_samples",
    "forest.label_scores",
    "dpg.build_model_graph",
    "io.read_csv",
    "io.load_model",
    "io.model_from_dict",
    "io.write_explanation_bundle",
    "io.model_to_dict",
    "io.graph_to_dict",
    "io.export_dot",
    "metrics.rank_report",
    "metrics.score_graph",
    "synth.fixture_one",
)
PER_LAYER = (
    *((f"{s}.{m}", u) for s in SPANS for m, u in (("self_s", "s"), ("calls", "count"))),
    ("cli.cpu_s", "s"),
    ("io.csv_in_bytes", "bytes"),
    ("io.model_json_bytes", "bytes"),
    ("io.bundle_bytes", "bytes"),
    ("io.scores_csv_bytes", "bytes"),
    ("dpg.traces_total", "count"),
    ("dpg.traces_pruned", "count"),
    ("dpg.trace_keep_ratio", "ratio"),
    ("dpg.edges", "count"),
    ("dpg.predicates", "count"),
    ("trace.overhead_s", "s"),
    ("trace.covered_share", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Session:
    """One run's checkout, scratch directory and child-process settings."""

    def __init__(self, root: Path, workload: str, seed: int, sizes: Sizes) -> None:
        self.root, self.workload, self.seed, self.sizes = root, workload, seed, sizes
        self.src = root / "src"
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.started = time.perf_counter()
        self.env = dict(
            os.environ,
            PYTHONPATH=str(self.src),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.n_jobs = 0

    def open(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()  # only when no other run is using it

    def remaining_s(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, script: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(BENCH_DIR / script), *args],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, self.remaining_s()),
        )

    def job(self, argv: list[str], trace: bool = False) -> dict:
        """Run one job in a fresh interpreter; return its record."""
        self.n_jobs += 1
        spec = self.work / f"job{self.n_jobs}.json"
        result = self.work / f"job{self.n_jobs}.result.json"
        spec.write_text(json.dumps({"argv": argv, "trace": trace, "result": str(result)}))
        try:
            proc = self.child("job.py", str(spec))
        except subprocess.TimeoutExpired:
            return {"error": f"job {argv} passed the {HARD_LIMIT_S:.0f} s limit"}
        if proc.returncode != 0 or not result.is_file():
            return {"error": f"job.py exited {proc.returncode}: {proc.stderr[-2000:]}"}
        record = json.loads(result.read_text())
        package = Path(record["package"]).resolve()
        if not package.is_relative_to(self.src.resolve()):
            raise BenchError(f"imported {package}, not the package under {self.src}")
        return record


# ---------------------------------------------------------------------------
# Workloads: inputs, the job's argv, and the check of one job's outputs.


def forest_flags(s: Session) -> list[str]:
    return ["--trees", str(s.sizes.trees), "--seed", str(s.seed), "--contamination", CONTAMINATION]


def make_inputs(s: Session, name: str, stream: int) -> list[int]:
    z = s.sizes
    proc = s.child(
        "inputs.py", ".", name, str(s.seed), str(stream),
        str(z.rows), str(z.features), str(z.injected),
    )
    if proc.returncode != 0:
        raise BenchError(f"generating {name}.csv failed: {proc.stderr[-2000:]}")
    return json.loads((s.work / f"{name}_injected.json").read_text())


def set_up(s: Session) -> tuple[list[str], list[int] | None]:
    """Make the workload's inputs (untimed); return the job argv and injected rows."""
    if s.workload == "repro-fixture":
        argv = ["repro", "--fixture", "one", "--trees", str(s.sizes.trees),
                "--seeds", str(s.sizes.repro_seeds), "--seed", str(s.seed), "--json"]
        return argv, None
    injected = make_inputs(s, "train", 0)
    if s.workload == "explain-large":
        return ["explain", "train.csv", *forest_flags(s), "--out", "bundle"], injected
    injected = make_inputs(s, "batch", 1)
    record = s.job(["train", "train.csv", *forest_flags(s), "--out", "model.json"])
    if record.get("exit_code") != 0:
        raise BenchError(f"training model.json failed: {record}")
    return ["score", "batch.csv", "--model", "model.json", "--out", "scores.csv"], injected


def clear_outputs(s: Session) -> None:
    shutil.rmtree(s.work / "bundle", ignore_errors=True)
    (s.work / "scores.csv").unlink(missing_ok=True)


def check_job(s: Session, record: dict) -> tuple[int, list[str], int, dict[str, str]]:
    """Return operations attempted, problems, fixture gate hits, output digests."""
    ops = s.sizes.repro_seeds if s.workload == "repro-fixture" else 1
    if "error" in record:
        return ops, [record["error"]], 0, {}
    if record["exit_code"] != 0:
        return ops, [f"exit code {record['exit_code']}: {record['stderr'][-2000:]}"], 0, {}
    hits = 0
    digests: dict[str, str] = {}
    try:
        if s.workload == "repro-fixture":
            problems, hits = checks.check_repro(record["stdout"], ops)
            digests["repro.json"] = checks.sha256(record["stdout"].encode())
        elif s.workload == "explain-large":
            bundle = s.work / "bundle"
            problems = checks.check_bundle(bundle)
            for name in ("graph.json", "iop_report.json"):
                digests[name] = checks.sha256((bundle / name).read_bytes())
            digests["training scores"] = checks.sha256(json.dumps(output_scores(s)).encode())
        else:
            problems = checks.check_scores(s.work / "scores.csv", s.sizes.rows)
            digests["scores.csv"] = checks.sha256((s.work / "scores.csv").read_bytes())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return ops, problems, hits, digests


def output_scores(s: Session) -> list[float]:
    """Training scores from the bundle's model.json, or the scores.csv column."""
    if s.workload == "explain-large":
        return json.loads((s.work / "bundle" / "model.json").read_text())["scores"]
    return checks.read_scores(s.work / "scores.csv")


def output_bytes(s: Session) -> dict[str, float]:
    def size(path: Path) -> int:
        return path.stat().st_size if path.is_file() else 0

    bundle = s.work / "bundle"
    csv_in = {"explain-large": "train.csv", "score-large": "batch.csv"}.get(s.workload)
    return {
        "io.csv_in_bytes": size(s.work / csv_in) if csv_in else 0,
        "io.model_json_bytes": size(bundle / "model.json") + size(s.work / "model.json"),
        "io.bundle_bytes": sum(size(bundle / n) for n in checks.BUNDLE_FILES),
        "io.scores_csv_bytes": size(s.work / "scores.csv"),
    }


# ---------------------------------------------------------------------------
# Measurement


def median(values) -> float:
    """Median, or 0 when a failed run left no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def high_percentile(values: list[float]) -> str:
    """The highest percentile at or above the median with ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "too few samples for a percentile above the median"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f} s of {n} samples"


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "workload_seed": seed,
        "controls": "no CPU pinning, frequency control or page-cache dropping is used",
    }


def source_sha(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_previous(results: Path, s: Session, code: str, digests: dict) -> str:
    for path in sorted(results.glob(f"{s.workload}-seed{s.seed}-trace*.json")):
        earlier = json.loads(path.read_text())
        if earlier.get("source_sha256") == code and earlier.get("digests"):
            return "same as an earlier run" if earlier["digests"] == digests else "DIFFER from an earlier run"
    return "no earlier run of this seed and source"


@dataclass
class Tally:
    """What a run's jobs produced and how their checks went."""

    jobs: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gate_hits: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    topk: float | None = None


def run_jobs(s: Session, argv: list[str], injected: list[int] | None,
             seconds: float, trace: bool) -> Tally:
    """Closed loop: run and check one job at a time until `seconds` have passed.

    Traced runs alternate traced and untraced jobs, starting with a traced
    one, and run at least one of each.
    """
    t = Tally()
    deadline = time.perf_counter() + seconds
    while len(t.jobs) < (2 if trace else 1) or time.perf_counter() < deadline:
        clear_outputs(s)
        record = s.job(argv, trace=trace and len(t.jobs) % 2 == 0)
        t.jobs.append(record)
        ops, problems, hits, digests = check_job(s, record)
        if not problems:
            t.digests = t.digests or digests
            if digests != t.digests:
                problems = ["outputs differ from the run's first job"]
        t.attempted += ops
        if problems:
            t.failed += ops
            t.problems += problems
        t.gate_hits += hits
        if t.topk is None and injected is not None and not problems:
            t.topk = checks.topk_hit_share(output_scores(s), injected)
        if "error" in record:
            break
    return t


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = FULL) -> dict:
    if not (root / "src" / "iforest_dpg" / "cli.py").is_file():
        raise BenchError(f"no iforest_dpg package under {root / 'src'}; run from a checkout root")
    env = environment(seed)
    s = Session(root, workload, seed, sizes)
    s.open()
    try:
        argv, injected = set_up(s)
        # The first import-only probe warms the disk cache and is not kept.
        probes = [s.job([]) for _ in range(IMPORT_PROBES + 1)][1:]
        for probe in probes:
            if "error" in probe:
                raise BenchError(probe["error"])
        env["numpy"] = probes[0]["numpy"]
        started = time.perf_counter()
        t = run_jobs(s, argv, injected, seconds, trace)
        measured_s = time.perf_counter() - started
        sizes_out = output_bytes(s)
    finally:
        s.close()

    ok = [j for j in t.jobs if j.get("exit_code") == 0]
    untraced = [j for j in ok if not j["spans"]]
    traced = [j for j in ok if j["spans"]]
    setup = [p["import_s"] for p in probes] + [j["import_s"] for j in ok]
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    code = source_sha(s.src)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "argv": argv,
        "measured_s": round(measured_s, 3),
        "jobs": len(t.jobs),
        "attempted": t.attempted,
        "failed": t.failed,
        "fail_share": f"{t.failed}/{t.attempted}",
        "problems": t.problems[:20],
        "fixture_gate_misses": (
            f"{t.attempted - t.failed - t.gate_hits}/{t.attempted - t.failed}"
            if workload == "repro-fixture" else None
        ),
        "topk_hit_share": t.topk,
        "injected_rows": len(injected) if injected is not None else None,
        "job_s_samples": [j["job_s"] for j in untraced],
        "cpu_s_samples": [j["cpu_s"] for j in untraced],
        "job_s_high": high_percentile([j["job_s"] for j in untraced]),
        "setup_s_samples": setup,
        "end_to_end": {
            "job_s": median(j["job_s"] for j in untraced),
            "setup_s": median(setup),
            "peak_rss_mb": median(j["peak_rss_mb"] for j in untraced),
        },
        "per_layer": layer_metrics(traced, untraced, sizes_out) if trace else {},
        "absent_spans": sorted({a for j in traced for a in j.get("absent", [])}),
        "unlisted_spans": sorted({sp["name"] for j in traced for sp in j["spans"]} - set(SPANS)),
        "digests": t.digests,
        "source_sha256": code,
        "environment": env,
    }
    report["digests_vs_earlier"] = compare_previous(results, s, code, t.digests)
    report["spans"] = [j["spans"] for j in traced]
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return report


def layer_metrics(traced: list[dict], untraced: list[dict], sizes_out: dict) -> dict[str, float]:
    per_job = [tracing.self_times(j["spans"]) for j in traced]
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.self_s"] = median(t.get(name, (0.0, 0))[0] for t in per_job)
        out[f"{name}.calls"] = median(t.get(name, (0.0, 0))[1] for t in per_job)
    out["cli.cpu_s"] = median(j["cpu_s"] for j in untraced)
    out.update(sizes_out)
    for key in ("dpg.traces_total", "dpg.traces_pruned", "dpg.edges", "dpg.predicates"):
        out[key] = median(j["counts"].get(key, 0) for j in traced)
    total = out["dpg.traces_total"]
    out["dpg.trace_keep_ratio"] = (total - out["dpg.traces_pruned"]) / total if total else 0.0
    out["trace.overhead_s"] = (
        median(j["job_s"] for j in traced)
        - median(j["job_s"] for j in untraced)
    )
    out["trace.covered_share"] = median(
        1.0 - t.get(tracing.ROOT, (0.0, 0))[0] / j["job_s"] for t, j in zip(per_job, traced)
    )
    return out


def print_report(report: dict) -> None:
    e2e, env = report["end_to_end"], report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"jobs {report['jobs']}  measured {report['measured_s']} s")
    print(f"  job       {' '.join(report['argv'])}")
    print(f"  job_s          {e2e['job_s']:.4f} s    median of {len(report['job_s_samples'])}; "
          f"{report['job_s_high']}")
    print(f"  setup_s        {e2e['setup_s']:.4f} s    median of {len(report['setup_s_samples'])} imports")
    print(f"  peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB")
    print(f"  fail_share     {report['fail_share']} operations")
    if report["fixture_gate_misses"] is not None:
        print(f"  gate misses    {report['fixture_gate_misses']} seeds miss the fixture-one gate "
              "(reported, not a failure)")
    if report["topk_hit_share"] is not None:
        print(f"  topk_hit_share {report['topk_hit_share']:.4f} share of the top "
              f"{report['injected_rows']} scores on injected rows")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    for name, digest in report["digests"].items():
        print(f"  sha256 {name:16s} {digest}")
    print(f"  digests        {report['digests_vs_earlier']}")
    for name in report["absent_spans"]:
        print(f"  absent span    {name}")
    for name in report["unlisted_spans"]:
        print(f"  unlisted span  {name}")
    for name, unit in PER_LAYER if report["per_layer"] else ():
        value = report["per_layer"][name]
        print(f"  {name:40s} {value:.6g} {unit}" if value % 1 else f"  {name:40s} {value:.0f} {unit}")
    print(f"  environment    nproc {env['nproc']}, {env['cpu']}, python {env['python']}, "
          f"numpy {env['numpy']}, load {env['loadavg_at_start']}, seed {env['workload_seed']}; "
          f"{env['controls']}")


def result_line(report: dict) -> str:
    values = report["per_layer"] if report["trace"] else report["end_to_end"]
    units = PER_LAYER if report["trace"] else END_TO_END
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    })


def main(argv: list[str] | None = None, sizes: Sizes = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        report = measure(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
