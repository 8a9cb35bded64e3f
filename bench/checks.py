"""Output checks, output digests and detection quality for benchmark jobs.

Every check returns a list of problems; an empty list means the output is
correct. Only the standard library is used, so the checks never run the code
under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

BUNDLE_FILES = (
    "model.json",
    "graph.json",
    "iop_report.json",
    "iop_table.txt",
    "graph.dot",
    "manifest.json",
)
FLOW_RTOL = 1e-9
# The paper's fixture-one gate as `repro --json` names it.
FIXTURE_ONE_GATE = "injected sample detected and {F4 >, F5 >, F0 >} are the three most negative"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_bundle(bundle: Path) -> list[str]:
    """Files, manifest hashes, flow conservation, IOP range, class weights."""
    missing = [name for name in BUNDLE_FILES if not (bundle / name).is_file()]
    if missing:
        return [f"bundle lacks {', '.join(missing)}"]
    problems = []
    manifest = json.loads((bundle / "manifest.json").read_text())
    listed = manifest.get("files", {})
    if set(listed) != set(BUNDLE_FILES) - {"manifest.json"}:
        problems.append(f"manifest lists {sorted(listed)}")
    for name, digest in listed.items():
        if (bundle / name).is_file() and sha256((bundle / name).read_bytes()) != digest:
            problems.append(f"manifest sha256 of {name} does not match its bytes")

    graph = json.loads((bundle / "graph.json").read_text())
    inflow: dict[str, float] = {}
    outflow: dict[str, float] = {}
    for edge in graph["edges"]:
        outflow[edge["src"]] = outflow.get(edge["src"], 0.0) + edge["weight"]
        inflow[edge["dst"]] = inflow.get(edge["dst"], 0.0) + edge["weight"]
    predicates = [node for node in graph["nodes"] if node["kind"] == "predicate"]
    for node in predicates:
        f_in, f_out = inflow.get(node["id"], 0.0), outflow.get(node["id"], 0.0)
        if abs(f_in - f_out) > FLOW_RTOL * max(f_in, f_out):
            problems.append(f"{node['id']}: inflow {f_in!r} != outflow {f_out!r}")

    report = json.loads((bundle / "iop_report.json").read_text())
    iops = [node["iop"] for node in predicates] + [e["iop"] for e in report["entries"]]
    if not predicates or any(not -1.0 <= v <= 1.0 for v in iops):
        problems.append("an IOP lies outside [-1, 1] or the graph has no predicates")

    w = graph["weights"]
    n_o, n_i = w["n_o"], w["n_i"]
    if w["w_o"] != (n_o + n_i) / n_o or w["w_i"] != (n_o + n_i) / n_i:
        problems.append(f"class weights {w} are not (n_o+n_i)/n_o and (n_o+n_i)/n_i")
    return problems


def read_scores(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(row[1]) for row in rows[1:]]


def check_scores(path: Path, n_rows: int) -> list[str]:
    """One `sample,score,label` row per input row, every score in (0, 1]."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["sample", "score", "label"]:
        return [f"{path.name} header is {rows[:1]}"]
    body = rows[1:]
    if len(body) != n_rows:
        return [f"{path.name} has {len(body)} rows for {n_rows} input rows"]
    for i, row in enumerate(body):
        try:
            ok = len(row) == 3 and row[0] == str(i) and 0.0 < float(row[1]) <= 1.0
        except ValueError:
            ok = False
        if not ok:
            return [f"{path.name} row {i + 1} is {row}"]
    return []


def check_repro(stdout: str, n_seeds: int) -> tuple[list[str], int]:
    """Well-formed `repro --json` output; returns the seeds that met the gate."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return ["repro stdout is not JSON"], 0
    gate = [c for c in doc.get("checks", []) if c.get("name") == FIXTURE_ONE_GATE]
    if doc.get("seeds") != n_seeds or len(gate) != 1:
        return [f"repro reports {doc.get('seeds')} seeds and {len(gate)} fixture-one gates"], 0
    hits = gate[0]["hits"]
    problems = []
    if not 0 <= hits <= n_seeds:
        problems.append(f"gate hits {hits} outside 0..{n_seeds}")
    for p in doc.get("predicates", []):
        if not (-1.0 <= p["mean_iop"] <= 1.0 and 0.0 <= p["sign_agreement"] <= 1.0):
            problems.append(f"predicate {p.get('id')} has {p}")
    if not doc.get("predicates"):
        problems.append("repro reports no predicates")
    return problems, hits


def topk_hit_share(scores: list[float], injected: list[int]) -> float:
    """Share of the k highest-scored rows that are injected, k = len(injected).

    Ties go to the lower row index.
    """
    k = len(injected)
    top = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
    return len(set(top) & set(injected)) / k
