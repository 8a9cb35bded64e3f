import csv
import json
import os
import subprocess
import sys
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iforest_dpg import cli
from iforest_dpg.cli import main
from iforest_dpg.dpg import GT, LE, Predicate, build_model_graph, predicate_id
from iforest_dpg.forest import (
    OUTLIER,
    Contamination,
    Dataset,
    ForestParams,
    fit,
    label_scores,
    max_tree_depth,
)
from iforest_dpg.io import (
    load_model,
    read_csv,
    read_csv_blocks,
    save_model,
    write_dataset_csv,
    write_explanation_bundle,
)
from iforest_dpg.metrics import score_graph
from iforest_dpg.synth import fixture_one, fixture_two


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
    specs = ("0*4", "sample=3 0+4", "0+", "x+4", "sample=x:0+4", "sample=-1:0+4", "sample=:0+4")
    for spec in specs:
        code, _, err = run(capsys, "gen", "--inject", spec, "--out", str(tmp_path))
        assert code == 1, spec
        assert err.startswith("error: bad injection") and repr(spec) in err, err


def test_gen_fixture_conflicts_with_custom_flags(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--fixture", "one", "--inject", "0+4", "--out", str(tmp_path)
    )
    assert code == 1
    assert "--fixture" in err


@pytest.mark.parametrize(
    "flag", [["--samples", "500"], ["--features", "9"], ["--samples", "0"]]
)
def test_gen_fixture_rejects_size_flags(tmp_path, capsys, flag):
    # A fixture is always 200 x 6: a size flag beside it is an input error,
    # and nothing is written.
    out = tmp_path / "g"
    code, stdout, err = run(capsys, "gen", "--fixture", "one", *flag, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == (
        "error: --fixture cannot be combined with "
        "--samples/--features/--inject/--means/--stds\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--means", "--stds"])
def test_gen_rejects_an_empty_list(tmp_path, capsys, flag):
    code, stdout, err = run(capsys, "gen", flag, "", "--out", str(tmp_path / "g"))
    assert (code, stdout) == (1, "")
    assert err == f"error: {flag} expects comma-separated numbers, got ''\n"
    assert not (tmp_path / "g").exists()


def test_gen_defaults_to_200_by_6(tmp_path, capsys):
    code, stdout, _ = run(capsys, "gen", "--out", str(tmp_path), "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert (doc["n_samples"], doc["n_features"], doc["n_injected"]) == (200, 6, 0)


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
    assert err.startswith("error: feature column 3 is absent in the CSV but 'F3' in the model")
    assert stdout == ""


def test_score_rejects_reversed_columns(tmp_path, capsys, fixture_csv):
    # The model's columns in reverse order: the names tell, and nothing is
    # reordered or scored.
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    reversed_csv = tmp_path / "reversed.csv"
    _write_rows(reversed_csv, [row[::-1] for row in rows])
    code, stdout, err = run(capsys, "score", str(reversed_csv), "--model", str(model_path))
    assert code == 1
    assert stdout == ""
    assert err == (
        "error: feature column 0 is 'F5' in the CSV but 'F0' in the model; "
        "score a CSV with the model's feature columns, in order\n"
    )


def test_score_rejects_wider_csv(tmp_path, capsys, fixture_csv):
    # One column more than the model's: an error with a header and without.
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    wide = tmp_path / "wide.csv"
    _write_rows(wide, [rows[0] + ["F6"]] + [row + ["0.0"] for row in rows[1:]])
    code, stdout, err = run(capsys, "score", str(wide), "--model", str(model_path))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: feature column 6 is 'F6' in the CSV but absent in the model")
    for columns, expected in ((7, 1), (6, 0)):
        bare = tmp_path / f"bare{columns}.csv"
        _write_rows(bare, [(row + ["0.0"])[:columns] for row in rows[1:]])
        code, _, err = run(
            capsys, "score", str(bare), "--no-header", "--model", str(model_path)
        )
        assert code == expected, err
    assert err == ""


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


@pytest.fixture()
def forks(monkeypatch):
    """The pids `os.fork` returns to this process, kept as it forks."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _assert_no_child():
    # Neither a running nor an exited child is left to this process.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_score_in_blocks_writes_the_same_bytes(
    tmp_path, capsys, fixture_csv, monkeypatch, forks
):
    # 200 rows in blocks of 7 (the last one of 4 rows) score, label and
    # print as the one block of the default size does, both through the
    # forked reader and, without os.fork, in process.
    model_path = tmp_path / "model.json"
    code, _, _ = run(
        capsys,
        "train", str(fixture_csv),
        "--trees", "20", "--seed", "7", "--contamination", "0.01",
        "--out", str(model_path),
    )
    assert code == 0

    def outputs(block):
        monkeypatch.setattr(cli, "_SCORE_BLOCK", block)
        out_csv = tmp_path / f"scores_{block}.csv"
        argv = ("score", str(fixture_csv), "--model", str(model_path))
        assert run(capsys, *argv, "--out", str(out_csv))[0] == 0
        return out_csv.read_bytes(), run(capsys, *argv, "--json")[1]

    whole = outputs(cli._SCORE_BLOCK)
    assert forks == []
    forked = outputs(7)
    assert len(forks) == 2
    monkeypatch.delattr(os, "fork")
    assert whole == forked == outputs(7)
    assert whole[0].count(b"\n") == 201


def test_score_reader_sends_blocks_larger_than_a_pipe_buffer(
    tmp_path, capsys, fixture_csv, monkeypatch, forks
):
    # 45 copies of the fixture's rows are two full blocks and one of 808
    # rows. The reader sends the second, 4096 rows of 6 columns, 196 KB:
    # three times the default buffer of a Linux pipe, so the parent reads
    # it in pieces. Through the reader the batch scores the same bytes as
    # in process, and every copy of a row the same score.
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    tiled = tmp_path / "tiled.csv"
    _write_rows(tiled, rows[:1] + rows[1:] * 45)
    out_csv = tmp_path / "scores.csv"
    argv = ("score", str(tiled), "--model", str(model_path), "--out", str(out_csv))
    assert run(capsys, *argv)[0] == 0
    assert len(forks) == 1
    forked = out_csv.read_bytes()
    monkeypatch.delattr(os, "fork")
    assert run(capsys, *argv)[0] == 0
    assert out_csv.read_bytes() == forked
    scores = [row[1] for row in csv.reader(forked.decode().splitlines()[1:])]
    assert len(scores) == 9000 and scores == scores[:200] * 45


def test_score_loads_no_hashing_or_random_modules(tmp_path, capsys, fixture_csv):
    # In a fresh interpreter, importing the CLI and scoring loads neither
    # hashlib (which maps OpenSSL's libcrypto) nor numpy.random beyond what
    # `import numpy` loads itself: only the bundle writer hashes, and only
    # growing trees draws random numbers. numpy 1.x imports numpy.random,
    # and through it hashlib, eagerly; numpy 2.x loads it on first use.
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    script = (
        "import sys\n"
        "import numpy\n"
        "watched = {'hashlib', 'numpy.random'}\n"
        "before = watched & set(sys.modules)\n"
        "import iforest_dpg.cli as cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(watched & set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [
            sys.executable, "-c", script,
            "score", str(fixture_csv), "--model", str(model_path),
            "--out", str(tmp_path / "scores.csv"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_score_fault_after_the_first_block(tmp_path, capsys, fixture_csv, monkeypatch):
    # A bad cell in the third block of 7 rows exits 1 naming its file row,
    # and leaves no --out file. It is read after the model, so a malformed
    # model is reported first; a bad cell in the first block still comes
    # before the model.
    monkeypatch.setattr(cli, "_SCORE_BLOCK", 7)
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    out_csv = tmp_path / "scores.csv"
    bad = tmp_path / "bad.csv"
    rows[16][2] = "oops"  # file row 17, data row 16
    _write_rows(bad, rows)
    code, stdout, err = run(
        capsys, "score", str(bad), "--model", str(model_path), "--out", str(out_csv)
    )
    assert (code, stdout) == (1, "")
    assert err == "error: non-numeric value 'oops' at row 17, column 'F2'\n"
    assert not out_csv.exists()
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    code, _, err = run(capsys, "score", str(bad), "--model", str(broken))
    assert code == 1 and err.startswith("error: unsupported model schema_version")
    rows[3][2] = "early"
    _write_rows(bad, rows)
    code, _, err = run(capsys, "score", str(bad), "--model", str(broken))
    assert (code, err) == (1, "error: non-numeric value 'early' at row 4, column 'F2'\n")


@pytest.mark.parametrize("fault", ["non-numeric", "non-finite", "ragged", "label token"])
def test_score_reader_reports_a_later_block_fault_as_read_csv(
    tmp_path, capsys, fixture_csv, monkeypatch, forks, fault
):
    # Data row 16, file row 17, is in the third block of 7 rows, which the
    # forked reader parses: its fault is read_csv's error line, exit 1, and
    # no --out file is written.
    monkeypatch.setattr(cli, "_SCORE_BLOCK", 7)
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    label_column = None
    if fault == "non-numeric":
        rows[16][2] = "oops"
    elif fault == "non-finite":
        rows[16][2] = "inf"
    elif fault == "ragged":
        del rows[16][4:]
    else:
        label_column = "label"
        tokens = ["label"] + ["n"] * 15 + ["maybe"] + ["n"] * (len(rows) - 17)
        rows = [row + [token] for row, token in zip(rows, tokens)]
    bad = tmp_path / "bad.csv"
    _write_rows(bad, rows)
    with pytest.raises(ValueError) as expected:
        read_csv(bad, label_column=label_column)
    assert "at row 17" in str(expected.value)
    out_csv = tmp_path / "scores.csv"
    flags = [] if label_column is None else ["--label-column", label_column]
    code, stdout, err = run(
        capsys, "score", str(bad), *flags, "--model", str(model_path), "--out", str(out_csv)
    )
    assert (code, stdout, err) == (1, "", f"error: {expected.value}\n")
    assert not out_csv.exists()
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize(
    "fault, line",
    [
        (
            PermissionError(13, "Permission denied", "batch.csv"),
            "error: [Errno 13] Permission denied: 'batch.csv'\n",
        ),
        (
            MemoryError("Unable to allocate 4.00 MiB for an array"),
            "error: out of memory: Unable to allocate 4.00 MiB for an array\n",
        ),
    ],
    ids=["OSError", "MemoryError"],
)
def test_score_reader_reports_a_reader_fault_as_in_process(
    tmp_path, capsys, fixture_csv, monkeypatch, forks, fault, line
):
    # A stand-in reader fails at the third block of 7 rows: sent on by the
    # forked reader, the fault prints the line the in-process loop prints.
    def blocks(path, **kwargs):
        real = read_csv_blocks(path, **kwargs)
        yield next(real)
        yield next(real)
        raise fault

    monkeypatch.setattr(cli, "read_csv_blocks", blocks)
    monkeypatch.setattr(cli, "_SCORE_BLOCK", 7)
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    out_csv = tmp_path / "scores.csv"
    argv = ("score", str(fixture_csv), "--model", str(model_path), "--out", str(out_csv))
    forked = run(capsys, *argv)
    assert len(forks) == 1
    _assert_no_child()
    monkeypatch.delattr(os, "fork")
    assert run(capsys, *argv) == forked == (1, "", line)
    assert not out_csv.exists()


def test_score_reports_a_reader_that_ends_early(
    tmp_path, capsys, fixture_csv, monkeypatch, forks
):
    # A reader that stops without sending the end of the batch, here on a
    # fault `score` does not report, is an error naming the file, exit 1.
    def blocks(path, **kwargs):
        real = read_csv_blocks(path, **kwargs)
        yield next(real)
        yield next(real)
        raise TypeError("not a reader fault")

    monkeypatch.setattr(cli, "read_csv_blocks", blocks)
    monkeypatch.setattr(cli, "_SCORE_BLOCK", 7)
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    code, stdout, err = run(capsys, "score", str(fixture_csv), "--model", str(model_path))
    assert (code, stdout) == (1, "")
    assert err == f"error: CSV reader process for {fixture_csv} ended before the end of the file\n"
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize("exit_path", ["success", "later block", "model", "columns", "memory"])
def test_no_process_outlives_score(
    tmp_path, capsys, fixture_csv, monkeypatch, forks, exit_path
):
    # The reader is forked before the model loads; whichever way `score`
    # ends, it has waited for its reader.
    monkeypatch.setattr(cli, "_SCORE_BLOCK", 7)
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    if exit_path == "later block":
        rows[16][2] = "oops"
    elif exit_path == "columns":
        rows[0][0] = "G0"
    elif exit_path == "model":
        model_path = tmp_path / "broken.json"
        model_path.write_text("{}")
    elif exit_path == "memory":
        calls = []

        def score_samples(model, data):
            calls.append(data)
            if len(calls) == 2:
                raise MemoryError("Unable to allocate 1.00 MiB for an array")
            return cli_score_samples(model, data)

        cli_score_samples = cli.score_samples
        monkeypatch.setattr(cli, "score_samples", score_samples)
    batch = tmp_path / "batch.csv"
    _write_rows(batch, rows)
    code, _, err = run(capsys, "score", str(batch), "--model", str(model_path))
    assert code == (0 if exit_path == "success" else 1), err
    assert len(forks) == 1
    _assert_no_child()


def test_score_kills_a_stalled_reader(tmp_path, capsys, fixture_csv, monkeypatch, forks):
    # A reader blocked on input that does not come, as on a stalled pipe,
    # does not hold `score` up after a model fault: it is killed and reaped.
    def blocks(path, **kwargs):
        real = read_csv_blocks(path, **kwargs)
        yield next(real)
        time.sleep(60)
        yield from real

    monkeypatch.setattr(cli, "read_csv_blocks", blocks)
    monkeypatch.setattr(cli, "_SCORE_BLOCK", 7)
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    started = time.monotonic()
    code, _, err = run(capsys, "score", str(fixture_csv), "--model", str(broken))
    assert code == 1 and err.startswith("error: unsupported model schema_version")
    assert time.monotonic() - started < 30
    assert len(forks) == 1
    _assert_no_child()


def test_train_rejects_single_row(tmp_path, capsys, fixture_csv):
    with open(fixture_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    one = tmp_path / "one.csv"
    _write_rows(one, rows[:2])
    code, _, err = run(capsys, "train", str(one), "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "need at least 2 samples" in err


def test_out_of_memory_is_one_error_line(tmp_path, capsys, fixture_csv, monkeypatch):
    # A fit too large to allocate, e.g. --trees 100000000000, fails in numpy;
    # the stand-in raises at once, so the test allocates nothing.
    def fit(data, params):
        raise MemoryError("Unable to allocate 149. TiB for an array")

    monkeypatch.setattr(cli, "fit", fit)
    code, _, err = run(capsys, "train", str(fixture_csv), "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert err == "error: out of memory: Unable to allocate 149. TiB for an array\n"


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
    is_outlier = label_scores(np.array(saved["scores"]), Contamination(0.01))
    assert not is_outlier[5]
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
    assert [r["label"] == "Outlier" for r in json.loads(stdout)] == is_outlier.tolist()


def test_tied_training_rows_keep_the_rule_labels_after_loading(tmp_path, capsys):
    # Two identical far rows tie at the top score and Contamination keeps one
    # outlier: the lower index is Outlier and its twin, at the cutoff, an
    # Inlier. The loaded model must say the same (the rule, not score >=
    # cutoff), while `score` labels both Outlier by the cutoff.
    rng = np.random.default_rng(5)
    X = rng.standard_normal((52, 2))
    X[[10, 30]] = (8.0, -8.0)
    data = Dataset(features=X, feature_names=["a", "b"])
    model = fit(data, ForestParams(n_trees=20, seed=1, label_rule=Contamination(1 / 52)))
    top = np.argsort(-model.scores, kind="stable")[:3].tolist()
    assert top[:2] == [10, 30] and model.scores[10] == model.scores[30] > model.scores[top[2]]
    assert np.flatnonzero(model.is_outlier).tolist() == [10]
    assert model.cutoff == model.scores[30]
    model_path = tmp_path / "model.json"
    save_model(model_path, model)
    loaded = load_model(model_path)
    assert np.array_equal(loaded.is_outlier, model.is_outlier)
    csv_path = tmp_path / "data.csv"
    write_dataset_csv(csv_path, data)
    code, stdout, err = run(capsys, "score", str(csv_path), "--model", str(model_path), "--json")
    assert code == 0, err
    labels = [r["label"] for r in json.loads(stdout)]
    assert labels[10] == labels[30] == "Outlier"
    assert labels.count("Outlier") == 2


def test_score_rejects_an_edited_cutoff(tmp_path, capsys, fixture_csv):
    # Fixture one's contamination model saves the lowest training outlier
    # score as its cutoff; edited to 0.99 it would label no row Outlier.
    model_path = tmp_path / "model.json"
    code, _, _ = run(
        capsys,
        "train", str(fixture_csv),
        "--trees", "20", "--seed", "7", "--contamination", "0.01",
        "--out", str(model_path),
    )
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["cutoff"] == min(sorted(doc["scores"])[-2:])
    doc["cutoff"] = 0.99
    model_path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "score", str(fixture_csv), "--model", str(model_path))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: malformed model file: 'cutoff' is 0.99, but its scores")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["trees"][0].pop("feature"),
        lambda doc: doc.pop("params"),
        lambda doc: doc.__setitem__("trees", 3),
        lambda doc: doc["params"].__setitem__("label_rule", []),
        # Training labels follow from the rule, and this one labels no row.
        lambda doc: doc["params"].__setitem__(
            "label_rule", {"kind": "contamination", "fraction": 1e-12}
        ),
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


def _set_param(key, value):
    return lambda doc: doc["params"].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_param("max_subsample", 1), "'params': max_subsample must be >= 2, got 1"),
        (_set_param("n_trees", 0), "'params': n_trees must be >= 1, got 0"),
        (_set_param("seed", -1), "'params': seed must be >= 0, got -1"),
        (
            _set_param("label_rule", {"kind": "contamination", "fraction": 0.7}),
            "'params': contamination fraction must be in (0, 0.5), got 0.7",
        ),
        (_set_param("label_rule", {"kind": "top"}), "unknown label rule kind: 'top'"),
        (
            lambda doc: doc.update(n_train=1, scores=doc["scores"][:1]),
            "'n_train' is 1, but fit needs 2 rows or more",
        ),
    ],
    ids=["max_subsample", "n_trees", "seed", "fraction", "rule kind", "n_train"],
)
def test_score_names_a_params_fault_as_the_model_files(
    tmp_path, capsys, fixture_csv, mutate, message
):
    # A value no flag gave reads as a fault of the model file, worded once.
    model_path = _trained_model(tmp_path, capsys, fixture_csv)
    doc = json.loads(model_path.read_text())
    mutate(doc)
    model_path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "score", str(fixture_csv), "--model", str(model_path))
    assert (code, stdout) == (1, "")
    assert err == f"error: malformed model file: {message}\n"


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


@pytest.mark.parametrize(
    "content, reason",
    [
        (b'{"schema_version": 4', "not JSON: Expecting ',' delimiter"),
        (b"", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe", "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0"),
    ],
)
def test_score_names_a_model_file_that_is_not_json(tmp_path, capsys, fixture_csv, content, reason):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    code, _, err = run(capsys, "score", str(fixture_csv), "--model", str(model_path))
    assert code == 1
    assert err.startswith(f"error: malformed model file: {model_path}: {reason}")


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
    action = data.draw(
        st.sampled_from(["drop", "truncate", "index", "type", "names", "cutoff"])
    )
    if action == "drop":
        path = data.draw(st.sampled_from([p for p, _ in paths if isinstance(p[-1], str)]))
        del _parent(doc, path)[path[-1]]
    elif action == "truncate":
        path, value = data.draw(
            st.sampled_from([(p, v) for p, v in paths if isinstance(v, list) and v])
        )
        _parent(doc, path)[path[-1]] = value[: data.draw(st.integers(0, len(value) - 1))]
    elif action == "index":
        # Only an index that no valid tree can have: one at or before the
        # node before it, or at or below the depth cap.
        tree = data.draw(st.sampled_from([t for t in doc["trees"] if t["node"]]))
        i = data.draw(st.integers(0, len(tree["node"]) - 1))
        previous = tree["node"][i - 1] if i else -1
        cap = max_tree_depth(min(doc["params"]["max_subsample"], doc["n_train"]))
        tree["node"][i] = data.draw(
            st.integers(max_value=previous) | st.integers(min_value=(1 << cap) - 1)
        )
    elif action == "cutoff":
        # Any other finite cutoff than the one the scores and rule give.
        doc["cutoff"] = data.draw(
            st.floats(allow_nan=False, allow_infinity=False).filter(
                lambda c: c != doc["cutoff"]
            )
        )
    elif action == "names":
        # Names a loader accepts but the data's header does not match: one
        # renamed, or all reversed.
        names = doc["feature_names"]
        if data.draw(st.booleans()):
            names.reverse()
        else:
            i = data.draw(st.integers(0, len(names) - 1))
            names[i] = data.draw(st.text(max_size=3).filter(lambda n: n != names[i]))
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
    # Drop a key, truncate an array, move a split's heap index back or past
    # the depth cap, change a type, edit the cutoff, or rename or reorder the
    # feature names:
    # loading or the column check must fail with exit 1, no traceback.
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


def test_explain_drops_its_dataset_before_the_bundle(tmp_path, capsys, fixture_csv, monkeypatch):
    # The training matrix must be freed before the bundle write, or it adds
    # to explain's peak memory: no name in explain may still hold the Dataset.
    refs = []

    def read_csv_tracked(*args, **kwargs):
        data = read_csv(*args, **kwargs)
        refs.append(weakref.ref(data))
        return data

    def write_bundle_checked(*args, **kwargs):
        assert [ref() for ref in refs] == [None]
        return write_explanation_bundle(*args, **kwargs)

    monkeypatch.setattr(cli, "read_csv", read_csv_tracked)
    monkeypatch.setattr(cli, "write_explanation_bundle", write_bundle_checked)
    code, _, err = run(
        capsys,
        "explain", str(fixture_csv),
        "--trees", "20", "--seed", "7", "--contamination", "0.005",
        "--out", str(tmp_path / "b"),
    )
    assert code == 0, err
    assert (tmp_path / "b" / "manifest.json").is_file()


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


@pytest.mark.parametrize(
    "flag", [["--no-header"], ["--label-column", "F0"], ["--label-column", "0"]]
)
def test_repro_fixture_rejects_csv_flags(capsys, flag):
    # A fixture is not read from a CSV, so the CSV flags have nothing to act on.
    code, stdout, err = run(
        capsys, "repro", "--fixture", "one", "--seeds", "1", "--trees", "20", *flag, "--json"
    )
    assert (code, stdout) == (1, "")
    assert err == "error: --fixture cannot be combined with --no-header/--label-column\n"


def test_repro_fixture_checks_its_contamination(capsys):
    code, stdout, err = run(
        capsys, "repro", "--fixture", "two", "--seeds", "1", "--trees", "20",
        "--contamination", "0.7",
    )
    assert (code, stdout) == (1, "")
    assert err == "error: contamination fraction must be in (0, 0.5), got 0.7\n"


# The paper's repro gates, restated here rather than taken from the CLI: each
# is passes(iops, injected rows, detected rows) for one seed.
_FIXTURE_ONE_NEGATIVE = {Predicate(4, GT), Predicate(5, GT), Predicate(0, GT)}
_FIXTURE_TWO_NEGATIVE = {Predicate(0, GT), Predicate(3, LE), Predicate(1, GT)}


def _all_negative(negative):
    return lambda iops, injected, detected: all(iops.get(p, 1.0) < 0 for p in negative)


def _three_most_negative(negative):
    def passes(iops, injected, detected):
        ranked = sorted(iops, key=lambda p: (iops[p], predicate_id(p)))
        return _all_negative(negative)(iops, injected, detected) and set(ranked[:3]) == negative
    return passes


def _detected_and_three_most_negative(negative):
    return lambda iops, injected, detected: (
        detected == injected and _three_most_negative(negative)(iops, injected, detected)
    )


def _thyroid(iops, injected, detected):
    # TSH and T3 are columns 1 and 2 of both thyroid-layout CSVs below.
    tsh, t3 = Predicate(1, GT), Predicate(2, GT)
    return (
        tsh in iops
        and iops[tsh] < -0.15
        and all(v > iops[tsh] for p, v in iops.items() if p != tsh)
        and {p for p, v in iops.items() if v < 0} == {tsh, t3}
    )


def _renamed_fixture_csv(tmp_path, capsys, fixture_csv):
    lines = fixture_csv.read_text().splitlines()
    lines[0] = "Age,TSH,T3,TT4,FTI,T4U"
    path = tmp_path / "thyroidish.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _one_outlier_csv(spec):
    """A thyroid-layout CSV whose row 0 is pushed out by the injection `spec`."""
    def make(tmp_path, capsys, fixture_csv):
        out = tmp_path / "gen_one"
        code, _, _ = run(capsys, "gen", "--features", "4", "--inject", spec, "--out", str(out))
        assert code == 0
        lines = (out / "data.csv").read_text().splitlines()
        lines[0] = "Age,TSH,T3,FTI"
        path = tmp_path / "one_outlier.csv"
        path.write_text("\n".join(lines) + "\n")
        return path
    return make


# id: (target, seeds, extra flags, outlier fraction, [(gate, threshold)])
_REPRO_CASES = {
    "fixture one": (
        "one", 4, [], 1 / 200,
        [
            (_detected_and_three_most_negative(_FIXTURE_ONE_NEGATIVE), 0.90),
            (_all_negative(_FIXTURE_ONE_NEGATIVE), 0.95),
        ],
    ),
    "fixture two": (
        "two", 3, [], 4 / 200, [(_three_most_negative(_FIXTURE_TWO_NEGATIVE), 0.80)]
    ),
    "fixture one --contamination": (
        "one", 4, ["--contamination", "0.02"], 0.02,
        [
            (_detected_and_three_most_negative(_FIXTURE_ONE_NEGATIVE), 0.90),
            (_all_negative(_FIXTURE_ONE_NEGATIVE), 0.95),
        ],
    ),
    "renamed fixture CSV": (_renamed_fixture_csv, 3, [], 0.0361, [(_thyroid, 0.80)]),
    # With one outlier labelled, TSH > comes out the most negative predicate
    # and T3 > the only other negative one: the gate passes every seed.
    "TSH and T3 outlier CSV --contamination": (
        _one_outlier_csv("sample=0:1+6,2+4"), 3, ["--contamination", "0.005"], 0.005,
        [(_thyroid, 0.80)],
    ),
    # T3 > comes out more negative than TSH >, which is below -0.15 in every
    # seed: the gate passes no seed.
    "T3 beyond TSH outlier CSV --contamination": (
        _one_outlier_csv("sample=0:1+5,2+8"), 3, ["--contamination", "0.005"], 0.005,
        [(_thyroid, 0.80)],
    ),
    # FTI > is negative in place of T3 >: the gate passes no seed.
    "TSH and FTI outlier CSV --contamination": (
        _one_outlier_csv("sample=0:1+6,3+4"), 3, ["--contamination", "0.005"], 0.005,
        [(_thyroid, 0.80)],
    ),
}


@pytest.mark.parametrize("case", list(_REPRO_CASES))
def test_repro_gates_count_the_seeds_they_pass(tmp_path, capsys, fixture_csv, case):
    # Each gate's hits are counted again here from fit, build_model_graph and
    # score_graph, with the fixture's own ground truth for its injected rows.
    target, n_seeds, extra, fraction, gates = _REPRO_CASES[case]
    seeds = range(5, 5 + n_seeds)
    if isinstance(target, str):
        make = fixture_one if target == "one" else fixture_two
        datasets = [make(seed=seed)[0] for seed in seeds]
        argv = ["--fixture", target]
    else:
        path = target(tmp_path, capsys, fixture_csv)
        datasets = [read_csv(path)] * n_seeds
        argv = ["--dataset", str(path)]
    hits = [0] * len(gates)
    for seed, data in zip(seeds, datasets):
        params = ForestParams(n_trees=40, seed=seed, label_rule=Contamination(fraction))
        model = fit(data, params)
        graph = build_model_graph(model, data, model.is_outlier, model.train_visits)
        iops = {e.predicate: e.iop for e in score_graph(graph).entries}
        detected = set(np.flatnonzero(model.is_outlier).tolist())
        injected = None if data.labels is None else set(
            np.flatnonzero(data.labels == OUTLIER).tolist()
        )
        hits = [n + bool(gate(iops, injected, detected)) for n, (gate, _) in zip(hits, gates)]

    code, stdout, err = run(
        capsys, "repro", *argv, "--seeds", str(n_seeds), "--trees", "40", "--seed", "5",
        *extra, "--json",
    )
    assert code == 0, err
    checks = json.loads(stdout)["checks"]
    expected = [(n, t, n >= t * n_seeds) for n, (_, t) in zip(hits, gates)]
    assert [(c["hits"], c["threshold"], c["pass"]) for c in checks] == expected
    # No two gates of a case pass the same number of seeds, so two gates'
    # tests swapped fail the comparison above, as swapped thresholds do.
    assert len({n for n, _, _ in expected}) == len(expected)


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


def test_repro_text_without_predicates_prints_its_checks(tmp_path, capsys):
    # Identical rows grow single-leaf trees, so no seed has a predicate; the
    # text report still prints its header and its check, as --json does.
    path = tmp_path / "same.csv"
    path.write_text("TSH,T3\n" + "1,2\n" * 4)
    code, stdout, err = run(
        capsys,
        "repro", "--dataset", str(path), "--seeds", "2", "--trees", "5",
        "--contamination", "0.3",
    )
    assert code == 0, err
    lines = stdout.splitlines()
    assert lines[:2] == ["seeds: 2 (base 0)", "predicate | mean IOP | sign agreement"]
    assert lines[2].startswith("check: TSH > is the unique minimum IOP")
    assert lines[2].endswith("0/2 (0%) [needs >= 80%] FAIL")
    assert lines[3:] == ["overall: FAIL"]


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
