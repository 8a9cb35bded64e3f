import csv
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iforest_dpg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixture_csv(tmp_path, capsys):
    out = tmp_path / "gen"
    code, _, _ = run(capsys, "gen", "--fixture", "one", "--out", str(out))
    assert code == 0
    return out / "data.csv"


# ---------------------------------------------------------------------------
# gen


def test_gen_fixture_writes_features_and_log(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, _ = run(capsys, "gen", "--fixture", "one", "--out", str(out))
    assert code == 0
    assert "wrote" in stdout
    with open(out / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["F0", "F1", "F2", "F3", "F4", "F5"]  # no label column
    assert len(rows) == 201
    with open(out / "injections.csv", newline="") as fh:
        log = list(csv.DictReader(fh))
    assert len(log) == 4
    assert {r["sample"] for r in log} == {"0"}


def test_gen_custom_injection_json(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, _ = run(
        capsys,
        "gen",
        "--samples", "50",
        "--features", "3",
        "--means", "1.0,2.0,3.0",
        "--stds", "0.5,0.5,0.5",
        "--inject", "sample=4:0+4,2-5",
        "--seed", "3",
        "--out", str(out),
        "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n_samples"] == 50
    assert doc["n_features"] == 3
    assert doc["n_injected"] == 1
    with open(out / "injections.csv", newline="") as fh:
        log = list(csv.DictReader(fh))
    assert [(r["sample"], r["feature"]) for r in log] == [("4", "0"), ("4", "2")]
    assert float(log[1]["alteration"]) < 0


def test_gen_rejects_tiny_sample_count(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--samples", "1", "--out", str(tmp_path))
    assert code == 1
    assert "error:" in err


def test_gen_rejects_bad_injection_grammar(tmp_path, capsys):
    for spec in ("0*4", "sample=3 0+4", "0+", "x+4"):
        code, _, err = run(capsys, "gen", "--inject", spec, "--out", str(tmp_path))
        assert code == 1, spec
        assert "injection" in err


def test_gen_fixture_conflicts_with_custom_flags(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--fixture", "one", "--inject", "0+4", "--out", str(tmp_path)
    )
    assert code == 1
    assert "--fixture" in err


# ---------------------------------------------------------------------------
# train / score


def test_train_writes_model_and_summary(tmp_path, capsys, fixture_csv):
    model_path = tmp_path / "model.json"
    code, stdout, _ = run(
        capsys,
        "train", str(fixture_csv),
        "--trees", "20",
        "--seed", "7",
        "--contamination", "0.005",
        "--out", str(model_path),
        "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n_train"] == 200
    assert doc["n_trees"] == 20
    assert doc["subsample_size"] == 200
    assert doc["n_outliers"] == 1
    assert model_path.is_file()


def test_score_json_and_csv_agree(tmp_path, capsys, fixture_csv):
    model_path = tmp_path / "model.json"
    assert run(
        capsys,
        "train", str(fixture_csv),
        "--trees", "20", "--seed", "7", "--out", str(model_path),
    )[0] == 0

    code, stdout, _ = run(
        capsys, "score", str(fixture_csv), "--model", str(model_path), "--json"
    )
    assert code == 0
    records = json.loads(stdout)
    assert len(records) == 200
    assert all(0.0 < r["score"] <= 1.0 for r in records)
    assert all(r["label"] in ("Outlier", "Inlier") for r in records)

    out_csv = tmp_path / "scores.csv"
    code, stdout, _ = run(
        capsys,
        "score", str(fixture_csv), "--model", str(model_path), "--out", str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    for rec, row in zip(records, rows):
        assert float(row["score"]) == rec["score"]
        assert row["label"] == rec["label"]


def test_score_table_output(tmp_path, capsys, fixture_csv):
    model_path = tmp_path / "model.json"
    run(capsys, "train", str(fixture_csv), "--trees", "10", "--out", str(model_path))
    code, stdout, _ = run(capsys, "score", str(fixture_csv), "--model", str(model_path))
    assert code == 0
    assert stdout.splitlines()[0] == "sample | score  | label"
    assert len(stdout.splitlines()) == 201


def _trained_model(tmp_path, capsys, fixture_csv):
    model_path = tmp_path / "model.json"
    code, _, _ = run(
        capsys,
        "train", str(fixture_csv),
        "--trees", "20", "--seed", "7", "--out", str(model_path),
    )
    assert code == 0
    return model_path


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_score_rejects_narrower_csv(tmp_path, capsys, fixture_csv):
    # Three of the model's six columns: an error, never a silent score.
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    narrow = tmp_path / "narrow.csv"
    _write_rows(narrow, [row[:3] for row in rows])
    code, stdout, err = run(capsys, "score", str(narrow), "--model", str(model_path))
    assert code == 1
    assert "beyond the dataset width" in err
    assert stdout == ""


def test_score_single_row_matches_batch(tmp_path, capsys, fixture_csv):
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    code, stdout, _ = run(
        capsys, "score", str(fixture_csv), "--model", str(model_path), "--json"
    )
    assert code == 0
    batch = json.loads(stdout)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    one = tmp_path / "one.csv"
    _write_rows(one, [rows[0], rows[6]])
    code, stdout, err = run(
        capsys, "score", str(one), "--model", str(model_path), "--json"
    )
    assert code == 0, err
    [record] = json.loads(stdout)
    assert record["score"] == batch[5]["score"]


def test_train_rejects_single_row(tmp_path, capsys, fixture_csv):
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    one = tmp_path / "one.csv"
    _write_rows(one, rows[:2])
    code, _, err = run(capsys, "train", str(one), "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "need at least 2 samples" in err


def test_score_labels_a_lone_row_with_the_training_cutoff(tmp_path, capsys, fixture_csv):
    # Contamination picks the outliers among the training rows; a row scored
    # on its own keeps the label the training-score cutoff gives it.
    model_path = tmp_path / "model.json"
    code, _, _ = run(
        capsys,
        "train", str(fixture_csv),
        "--trees", "20", "--seed", "7", "--contamination", "0.01",
        "--out", str(model_path),
    )
    assert code == 0
    saved = json.loads(model_path.read_text())
    assert saved["labels"][5] == "Inlier"
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    one = tmp_path / "one.csv"
    _write_rows(one, [rows[0], rows[6]])
    code, stdout, err = run(capsys, "score", str(one), "--model", str(model_path), "--json")
    assert code == 0, err
    assert json.loads(stdout) == [
        {"sample": 0, "score": saved["scores"][5], "label": "Inlier"}
    ]
    # Scored as one batch, the training rows keep fit's labels.
    code, stdout, _ = run(
        capsys, "score", str(fixture_csv), "--model", str(model_path), "--json"
    )
    assert [r["label"] for r in json.loads(stdout)] == saved["labels"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["trees"][0].pop("feature"),
        lambda doc: doc.pop("params"),
        lambda doc: doc.__setitem__("trees", 3),
        lambda doc: doc["params"].__setitem__("label_rule", []),
    ],
)
def test_score_rejects_malformed_model(tmp_path, capsys, fixture_csv, mutate):
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    doc = json.loads(model_path.read_text())
    mutate(doc)
    model_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "score", str(fixture_csv), "--model", str(model_path))
    assert code == 1
    assert "malformed model file" in err


def test_score_rejects_deeply_nested_model(tmp_path, capsys, fixture_csv):
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    doc = json.loads(model_path.read_text())
    depth = 5000
    deep = '{"feature": 0, "split": 0.0, "left": ' * depth + '{"size": 1}'
    deep += ', "right": {"size": 1}}' * depth
    doc["trees"] = ["TREE"]
    model_path.write_text(json.dumps(doc).replace('"TREE"', deep))
    code, _, err = run(capsys, "score", str(fixture_csv), "--model", str(model_path))
    assert code == 1
    assert "malformed model file" in err


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """(data CSV, model.json document) of a small contamination model."""
    work = tmp_path_factory.mktemp("saved")
    with redirect_stdout(StringIO()):
        assert main(["gen", "--samples", "40", "--features", "3", "--out", str(work)]) == 0
        assert main([
            "train", str(work / "data.csv"), "--trees", "4", "--seed", "3",
            "--contamination", "0.05", "--out", str(work / "model.json"),
        ]) == 0
    return work / "data.csv", json.loads((work / "model.json").read_text())


def _paths(doc, prefix=()):
    """(path, value) of every value nested in a JSON document."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*prefix, key), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*prefix, key))


def _parent(doc, path):
    return reduce(lambda node, key: node[key], path[:-1], doc)


# A value of each JSON type; a float is never replaced by an int, a valid float.
_OTHER_TYPES = (7, 1.5, "x", True, None, [], {})


def _mutate(doc, data):
    paths = list(_paths(doc))
    action = data.draw(st.sampled_from(["drop", "truncate", "index", "type"]))
    if action == "drop":
        path = data.draw(st.sampled_from([p for p, _ in paths if isinstance(p[-1], str)]))
        del _parent(doc, path)[path[-1]]
    elif action == "truncate":
        path, value = data.draw(
            st.sampled_from([(p, v) for p, v in paths if isinstance(v, list) and v])
        )
        _parent(doc, path)[path[-1]] = value[: data.draw(st.integers(0, len(value) - 1))]
    elif action == "index":
        tree = data.draw(st.sampled_from(doc["trees"]))
        inner = [i for i, f in enumerate(tree["feature"]) if f >= 0]
        i = data.draw(st.sampled_from(inner))
        n = len(tree["feature"])
        tree["right"][i] = data.draw(st.integers(max_value=i + 1) | st.integers(min_value=n))
    else:
        path, value = data.draw(st.sampled_from(paths))
        other = [
            v for v in _OTHER_TYPES
            if type(v) is not type(value) and not (type(value) is float and type(v) is int)
        ]
        _parent(doc, path)[path[-1]] = data.draw(st.sampled_from(other))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_score_rejects_every_mutated_model(saved_model, data):
    # Drop a key, truncate an array, point a child index backward or out of
    # its tree, or change a type: loading must fail with exit 1, no traceback.
    csv_path, doc = saved_model
    doc = json.loads(json.dumps(doc))
    _mutate(doc, data)
    model_path = csv_path.parent / "mutated.json"
    model_path.write_text(json.dumps(doc))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["score", str(csv_path), "--model", str(model_path)])
    assert code == 1
    assert err.getvalue().startswith("error: ")
    assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# explain


def test_explain_writes_bundle_and_ranking(tmp_path, capsys, fixture_csv):
    out = tmp_path / "bundle"
    code, stdout, _ = run(
        capsys,
        "explain", str(fixture_csv),
        "--trees", "40",
        "--seed", "7",
        "--contamination", "0.005",
        "--out", str(out),
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("Predicate")
    assert lines[-1] == f"bundle written to {out}"
    for name in (
        "model.json",
        "graph.json",
        "iop_report.json",
        "graph.dot",
        "iop_table.txt",
        "manifest.json",
    ):
        assert (out / name).is_file(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input"]["path"] == str(fixture_csv)


def test_explain_json_ranking(tmp_path, capsys, fixture_csv):
    code, stdout, _ = run(
        capsys,
        "explain", str(fixture_csv),
        "--trees", "40", "--seed", "7", "--contamination", "0.005",
        "--out", str(tmp_path / "b"),
        "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    iops = [e["iop"] for e in doc["entries"]]
    assert iops == sorted(iops, reverse=True)


# ---------------------------------------------------------------------------
# exit codes


def test_single_class_exits_two(tmp_path, capsys, fixture_csv):
    code, _, err = run(
        capsys,
        "explain", str(fixture_csv),
        "--trees", "10", "--threshold", "0.99",
        "--out", str(tmp_path / "b"),
    )
    assert code == 2
    assert "error:" in err


def test_warning_is_one_line_and_keeps_the_exit_code(tmp_path, capsys):
    same = tmp_path / "same.csv"
    _write_rows(same, [["a", "b"], ["1", "2"], ["1", "2"]])
    code, stdout, err = run(
        capsys, "explain", str(same), "--contamination", "0.3", "--out", str(tmp_path / "b")
    )
    assert code == 0
    assert err == "warning: all samples are identical; every tree is a single leaf\n"
    assert "bundle written to" in stdout


def test_model_of_values_an_ulp_apart_can_be_scored(tmp_path, capsys):
    # 1.0 and the next double: a split value drawn between them can round up
    # to the larger, which must not leave an empty leaf in model.json.
    data = tmp_path / "ulp.csv"
    _write_rows(data, [["a"], *([["1.0"], ["1.0000000000000002"]] * 4)])
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "train", str(data), "--trees", "20", "--seed", "0", "--out", str(model))
    assert (code, err) == (0, "")
    code, stdout, err = run(capsys, "score", str(data), "--model", str(model), "--json")
    assert (code, err) == (0, "")
    assert len(json.loads(stdout)) == 8


def test_missing_input_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "train", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error:" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "train", "x.csv", "--bogus")
    assert code == 1
    assert "error:" in err


def test_missing_subcommand_exits_one(capsys):
    assert run(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "explain", "--help")[0] == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "iforest_dpg.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "iforest-dpg" in proc.stdout


# ---------------------------------------------------------------------------
# repro


def test_repro_fixture_one_small(capsys):
    code, stdout, _ = run(
        capsys, "repro", "--fixture", "one", "--seeds", "2", "--trees", "30"
    )
    assert code == 0
    assert "seeds: 2 (base 0)" in stdout
    assert "check:" in stdout
    assert stdout.rstrip().splitlines()[-1].startswith("overall:")


def test_repro_fixture_json_shape(capsys):
    code, stdout, _ = run(
        capsys,
        "repro", "--fixture", "two", "--seeds", "2", "--trees", "30", "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["schema_version"] == 1
    assert doc["seeds"] == 2
    assert isinstance(doc["pass"], bool)
    assert doc["checks"] and all("hits" in c for c in doc["checks"])
    for entry in doc["predicates"]:
        assert set(entry) >= {"id", "label", "mean_iop", "sign_agreement"}


def test_repro_requires_exactly_one_target(capsys, tmp_path):
    assert run(capsys, "repro")[0] == 1
    assert run(
        capsys, "repro", "--fixture", "one", "--dataset", str(tmp_path / "d.csv")
    )[0] == 1


@pytest.mark.parametrize("seeds", ["0", "-3"])
@pytest.mark.parametrize("target", [["--fixture", "one"], ["--dataset", "missing.csv"]])
@pytest.mark.parametrize("form", [[], ["--json"]])
def test_repro_rejects_fewer_than_one_seed(capsys, seeds, target, form):
    code, stdout, err = run(capsys, "repro", *target, "--seeds", seeds, *form)
    assert code == 1
    assert stdout == ""
    assert err == "error: --seeds must be >= 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["gen", "--fixture", "one", "--out", "out", "--seed", "-1"],
            "--seed must be >= 0, got -1",
        ),
        (["gen", "--samples", "5", "--out", "out", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["train", "tiny.csv", "--out", "out", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["explain", "tiny.csv", "--out", "out", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["repro", "--fixture", "one", "--seed", "-3"], "--seed must be >= 0, got -3"),
        (
            ["repro", "--dataset", "tiny.csv", "--json", "--seed", "-3"],
            "--seed must be >= 0, got -3",
        ),
    ],
    ids=["gen fixture", "gen", "train", "explain", "repro fixture", "repro dataset"],
)
def test_negative_seed_is_an_input_error(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.csv").write_text("a,b\n1,2\n3,4\n5,7\n")
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_repro_dataset_demands_expected_columns(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    code, _, err = run(capsys, "repro", "--dataset", str(path), "--seeds", "1")
    assert code == 1
    assert "TSH" in err


def test_repro_dataset_runs_with_expected_columns(tmp_path, capsys, fixture_csv):
    # Rename two columns so the thyroid-layout checks can run on fixture data.
    text = (fixture_csv.read_text().splitlines())
    text[0] = "Age,TSH,T3,TT4,FTI,T4U"
    path = tmp_path / "thyroidish.csv"
    path.write_text("\n".join(text) + "\n")
    code, stdout, _ = run(
        capsys,
        "repro", "--dataset", str(path), "--seeds", "1", "--trees", "30", "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert any("TSH" in p["label"] for p in doc["predicates"])
    assert isinstance(doc["pass"], bool)


def test_repro_dataset_label_column_by_index(tmp_path, capsys, fixture_csv):
    # A digit string selects the label column by position, as on explain.
    lines = fixture_csv.read_text().splitlines()
    lines[0] = "label,Age,TSH,T3,TT4,FTI,T4U"
    lines[1:] = [f"{int(i == 0)},{row}" for i, row in enumerate(lines[1:])]
    path = tmp_path / "labelled.csv"
    path.write_text("\n".join(lines) + "\n")
    code, stdout, err = run(
        capsys,
        "repro", "--dataset", str(path), "--label-column", "0",
        "--seeds", "1", "--trees", "30", "--json",
    )
    assert code == 0, err
    doc = json.loads(stdout)
    assert doc["predicates"]
    assert not any("label" in p["label"] for p in doc["predicates"])
