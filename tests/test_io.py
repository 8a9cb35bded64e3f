import csv
import hashlib
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import csv_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iforest_dpg.dpg import (
    INLIER_ID,
    LE,
    OUTLIER_ID,
    SOURCE_ID,
    ClassWeights,
    Predicate,
    build_model_graph,
    predicate_id,
)
from iforest_dpg.forest import (
    Contamination,
    Dataset,
    ForestParams,
    ScoreThreshold,
    fit,
    score_samples,
)
from iforest_dpg.io import (
    IOP_PALETTE,
    export_dot,
    graph_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    read_csv,
    read_csv_blocks,
    save_model,
    write_dataset_csv,
    write_explanation_bundle,
    write_graph_json,
    write_injection_log,
)
from iforest_dpg.metrics import IopEntry, IopReport, score_graph
from iforest_dpg.synth import InjectionSpec, SynthConfig, generate
from graph_reference import graph_of


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    labels = np.array(["Outlier"] * 3 + ["Inlier"] * 7)
    data = Dataset(
        features=rng.normal(size=(10, 4)) * 1e-7,
        feature_names=["alpha", "beta", "gamma", "delta"],
        labels=labels,
    )
    path = tmp_path / "d.csv"
    write_dataset_csv(path, data)
    back = read_csv(path, label_column="label")
    assert np.array_equal(back.features, data.features)
    assert back.feature_names == data.feature_names
    assert np.array_equal(back.labels, labels)


def test_csv_label_tokens_case_insensitive(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1.0,O\n2.0,inlier\n3.0,1\n4.0,N\n5.0,0\n")
    data = read_csv(path, label_column="y")
    assert list(data.labels) == ["Outlier", "Inlier", "Outlier", "Inlier", "Inlier"]
    assert data.feature_names == ["x"]


def test_csv_no_header_default_names(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,2.5\n3.5,4.5\n")
    data = read_csv(path, has_header=False)
    assert data.feature_names == ["F0", "F1"]
    assert data.features.shape == (2, 2)


def test_csv_label_column_by_index_without_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("o,1.0,2.0\nn,3.0,4.0\n")
    data = read_csv(path, has_header=False, label_column=0)
    assert list(data.labels) == ["Outlier", "Inlier"]
    assert data.feature_names == ["F0", "F1"]
    assert data.features[0, 0] == 1.0


def test_csv_skips_blank_lines_and_bom(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n\n3,4\n")
    data = read_csv(path)
    assert data.feature_names == ["x", "y"]
    assert data.n_samples == 2


def test_csv_error_rows_count_the_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="row 3"):
        read_csv(path)


@pytest.mark.parametrize(
    "content,kwargs,pattern",
    [
        ("", {}, "empty CSV file"),
        ("x,y\n", {}, "no data rows"),
        ("x,y\n1,2\n3\n", {}, "ragged CSV row at row 3"),
        ("x,y,z\n1,2\n", {}, "header has 3 fields"),
        ("1,2\n3,4\n", {"has_header": False, "label_column": "x"}, "requires has_header"),
        ("x,y\n1,2\n", {"label_column": "z"}, "not found in header"),
        ("x,y\n1,2\n", {"label_column": 5}, "out of range"),
        ("label\no\nn\n", {"label_column": "label"}, "no numeric columns"),
        ("x\n1\ninf\n", {}, "non-finite value"),
        ("x\nnan\n", {}, "non-finite value"),
        ("x,lab\n1,maybe\n", {"label_column": "lab"}, "unknown label token"),
        # A blank line still counts as a file row; '#' starts no comment.
        ("x,y\n1,2\n\n\n3,oops\n", {}, "^non-numeric value 'oops' at row 5, column 'y'$"),
        ("x,y\n1,2\n3,# note\n", {}, "^non-numeric value '# note' at row 3, column 'y'$"),
    ],
)
def test_csv_errors(tmp_path, content, kwargs, pattern):
    path = tmp_path / "d.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=pattern):
        read_csv(path, **kwargs)


def test_csv_header_only_raises_without_warning(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(path)


def test_csv_label_column_in_the_middle(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('a,lab,b\n1.5,o,-2\n"3",Inlier,4e1\n')
    for label_column in ("lab", 1):
        data = read_csv(path, label_column=label_column)
        assert data.feature_names == ["a", "b"]
        assert data.features.tolist() == [[1.5, -2.0], [3.0, 40.0]]
        assert list(data.labels) == ["Outlier", "Inlier"]


def test_csv_extreme_floats_round_trip_bit_exactly(tmp_path):
    values = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
        1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
    ]
    data = Dataset(
        features=np.array(values).reshape(-1, 2), feature_names=["p", "q"]
    )
    path = tmp_path / "d.csv"
    write_dataset_csv(path, data)
    back = read_csv(path)
    assert back.features.tobytes() == data.features.tobytes()


@pytest.mark.parametrize("cell", ["1_000", "\u0661", "\uff11"])
def test_csv_only_ascii_numbers_without_separators(tmp_path, cell):
    # Python's float() takes these; np.loadtxt and so read_csv do not.
    path = tmp_path / "d.csv"
    path.write_text(f"x\n1\n{cell}\n", encoding="utf-8")
    assert csv_reference.read_csv(path).n_samples == 2
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == f"non-numeric value {cell!r} at row 3, column 'x'"


_LABEL_TOKENS = ["o", "O", " outlier ", "1", "n", "Inlier", "0", '"n"']
_BAD_LABELS = ["maybe", "", "2"]
_JUNK = ["", " ", "abc", "#", "# 1", "1e", "--1", "0x10", "1.2.3", '"1,5"', "1 2", '"', "nan(1)"]
_SPECIAL = ["nan", "NaN", "inf", "-Infinity", "1e999", "-1e400", "+0", "-0.0", ".5", "5."]


@st.composite
def _number_cell(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-999, 999))
    text = draw(
        st.sampled_from([repr(float(x)), f"{x:e}", f"{x:.3E}", f"{x:.17g}", str(x)])
    )
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    text = pad + text + draw(st.sampled_from(["", " ", "\t"]))
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def _csv_case(draw):
    """(file bytes, has_header, label_column) covering valid and faulty files."""
    width = draw(st.integers(1, 4))
    label_idx = draw(st.none() | st.integers(0, width - 1))
    has_header = draw(st.booleans())
    names = [f"c{j}" for j in range(width)]
    lines = []
    if has_header:
        lines.append(",".join(f" {n}" if draw(st.booleans()) else n for n in names))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 39))
        if kind <= 1:
            lines.append(["", " \t"][kind])
            continue
        cells = []
        for j in range(width + (kind == 2) - (kind == 3)):
            pick = draw(st.integers(0, 19))
            if j == label_idx:
                cells.append(draw(st.sampled_from(_BAD_LABELS if pick == 0 else _LABEL_TOKENS)))
                continue
            if pick == 0:
                cells.append(draw(st.sampled_from(_JUNK)))
            elif pick == 1:
                cells.append(draw(st.sampled_from(_SPECIAL)))
            else:
                cells.append(draw(_number_cell()))
        lines.append(",".join(cells))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    label_column = None
    if label_idx is not None:
        # Mostly a valid column; else past the end, the label's index counted
        # from the end (which numpy would take), or no such name.
        pick = draw(st.integers(0, 9))
        valid = names[label_idx] if has_header and pick % 2 else label_idx
        label_column = valid if pick < 7 else [width, label_idx - width, "c9"][pick - 7]
    return bom + text.encode("utf-8"), has_header, label_column


def _csv_outcome(reader, path, has_header, label_column):
    try:
        data = reader(path, has_header=has_header, label_column=label_column)
    except ValueError as exc:
        return "error", str(exc)
    labels = None if data.labels is None else data.labels.tolist()
    return (
        data.features.shape,
        data.features.tobytes(),
        data.feature_names,
        labels,
    )


@settings(max_examples=400, deadline=None)
@given(case=_csv_case())
def test_csv_matches_reference_parser(tmp_path_factory, case):
    # Same features bit for bit, names and labels, or the same error message.
    content, has_header, label_column = case
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(content)
    expected = _csv_outcome(csv_reference.read_csv, path, has_header, label_column)
    assert _csv_outcome(read_csv, path, has_header, label_column) == expected


def _joined(blocks) -> Dataset:
    """One dataset of `read_csv_blocks`' blocks, which must share their names."""
    blocks = list(blocks)
    assert len({tuple(b.feature_names) for b in blocks}) == 1
    labels = [b.labels for b in blocks]
    return Dataset(
        features=np.concatenate([b.features for b in blocks]),
        feature_names=blocks[0].feature_names,
        labels=None if labels[0] is None else np.concatenate(labels),
    )


@settings(max_examples=300, deadline=None)
@given(case=_csv_case(), rows=st.integers(1, 4))
def test_csv_blocks_join_to_read_csv(tmp_path_factory, case, rows):
    # Blocks of a few rows, joined: read_csv's features bit for bit, names
    # and labels, or its error message.
    content, has_header, label_column = case
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    path.write_bytes(content)

    def joined(path, **kwargs):
        return _joined(read_csv_blocks(path, rows=rows, **kwargs))

    expected = _csv_outcome(read_csv, path, has_header, label_column)
    assert _csv_outcome(joined, path, has_header, label_column) == expected


def _numbered_rows(n, width=2):
    return [",".join(str(10 * i + j) for j in range(width)) for i in range(n)]


_BLOCK_FILES = {
    # rows=3 throughout.
    "bom": b"\xef\xbb\xbfx,y\n" + "\n".join(_numbered_rows(7)).encode() + b"\n",
    # A run of blank lines from the end of the first block into the second,
    # and blank lines and CRLF endings elsewhere.
    "blank lines": "x,y\r\n\r\n1,2\r\n3,4\r\n5,6\r\n\r\n\r\n\r\n7,8\r\n\r\n9,10\r\n\r\n".encode(),
    "label column": b"a,lab,b\n1,o,2\n3,n,4\n5,Inlier,6\n7, outlier ,8\n9,0,10\n",
    "quoted cells": b'x,y\n"1.5"," 2 "\n3,"-4e1"\n" 5\t",6\n"7","8"\n',
    "2 blocks": ("x,y\n" + "\n".join(_numbered_rows(6)) + "\n").encode(),
    "2 blocks and a row": ("x,y\n" + "\n".join(_numbered_rows(7))).encode(),
    "1 block": ("x,y\n" + "\n".join(_numbered_rows(3)) + "\n\n").encode(),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_FILES))
def test_csv_blocks_of_known_files(tmp_path, name):
    path = tmp_path / "d.csv"
    path.write_bytes(_BLOCK_FILES[name])
    label_column = "lab" if name == "label column" else None
    whole = read_csv(path, label_column=label_column)
    with warnings.catch_warnings():
        # numpy warns of each blank line a block skips; the reader does not.
        warnings.simplefilter("error")
        blocks = list(read_csv_blocks(path, label_column=label_column, rows=3))
    # Every block but the last is full, and the last is not empty.
    assert [b.n_samples for b in blocks[:-1]] == [3] * (len(blocks) - 1)
    assert 1 <= blocks[-1].n_samples <= 3
    assert sum(b.n_samples for b in blocks) == whole.n_samples
    back = _joined(blocks)
    assert back.features.tobytes() == whole.features.tobytes()
    assert back.feature_names == whole.feature_names
    if label_column is None:
        assert back.labels is None and whole.labels is None
    else:
        assert back.labels.tolist() == whole.labels.tolist()
    # rows=None is read_csv's one block.
    [one] = read_csv_blocks(path, label_column=label_column)
    assert one.features.tobytes() == whole.features.tobytes()


@pytest.mark.parametrize(
    "late_row,kwargs",
    [
        ("7,oops", {}),
        ("7,inf", {}),
        ("7,8,9", {}),
        ("7", {}),
        ("7,maybe", {"label_column": "y"}),
    ],
)
@pytest.mark.parametrize("rows_after", [0, 3])
def test_csv_block_fault_after_the_first_block(tmp_path, late_row, kwargs, rows_after):
    # The first block is yielded; the block holding the fault raises
    # read_csv's message, which names the fault's file row. With rows after
    # it, a ragged row is one row of its block; without, its block's width.
    good = ["1,1", "2,0", "3,1", "4,0"]
    lines = ["x,y", *good, "", late_row, *good[:rows_after]]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as whole:
        read_csv(path, **kwargs)
    assert "at row 7" in str(whole.value)
    blocks = read_csv_blocks(path, rows=2, **kwargs)
    assert next(blocks).features.tolist() == ([[1], [2]] if kwargs else [[1, 1], [2, 0]])
    next(blocks)
    with pytest.raises(ValueError) as late:
        next(blocks)
    assert str(late.value) == str(whole.value)


def test_injection_log_round_trips_floats(tmp_path):
    cfg = SynthConfig(
        n_samples=20,
        n_features=2,
        injections=(
            InjectionSpec(
                altered_features=(1,), factors=(4.0,), directions=(-1,), sample=3
            ),
        ),
        seed=2,
    )
    _, log = generate(cfg)
    path = tmp_path / "inj.csv"
    write_injection_log(path, log)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["sample"] == "3"
    assert rows[0]["feature"] == "1"
    assert float(rows[0]["initial"]) == log[0].initial
    assert float(rows[0]["final"]) == log[0].final
    assert float(rows[0]["alteration"]) == log[0].alteration


# ---------------------------------------------------------------------------
# model persistence


def test_model_save_load_round_trip(tmp_path, small_model):
    data, model = small_model
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(model)
    assert np.array_equal(loaded.scores, model.scores)
    assert np.array_equal(loaded.is_outlier, model.is_outlier)
    assert loaded.feature_names == model.feature_names == data.feature_names
    assert np.array_equal(
        score_samples(loaded, data.features), score_samples(model, data.features)
    )


def test_model_json_is_one_compact_line(tmp_path, small_model):
    # save_model and the bundle write the same bytes; other documents stay indented.
    data, model = small_model
    path = tmp_path / "model.json"
    save_model(path, model)
    text = path.read_text()
    assert text == json.dumps(model_to_dict(model), separators=(",", ":")) + "\n"
    g = build_model_graph(model, data, model.is_outlier)
    write_explanation_bundle(tmp_path / "bundle", model, g, score_graph(g))
    assert (tmp_path / "bundle" / "model.json").read_text() == text
    assert (tmp_path / "bundle" / "graph.json").read_text().startswith("{\n  ")
    loaded = load_model(tmp_path / "bundle" / "model.json")
    assert np.array_equal(
        score_samples(loaded, data.features), score_samples(model, data.features)
    )


_PARAMS = {
    "n_trees": 1,
    "max_subsample": 256,
    "seed": 0,
    "leaf_adjustment": True,
    "label_rule": {"kind": "score_threshold", "threshold": 0.5},
}
# A version-1 model.json: one nested object per tree.
_V1_MODEL = {
    "schema_version": 1,
    "params": _PARAMS,
    "n_train": 2,
    "trees": [
        {"feature": 0, "split": 0.5, "left": {"size": 1}, "right": {"size": 1}}
    ],
    "scores": [0.5, 0.5],
    "labels": ["Outlier", "Outlier"],
}
# A version-2 model.json: per-tree preorder arrays.
_V2_MODEL = {
    "schema_version": 2,
    "params": _PARAMS,
    "n_train": 2,
    "cutoff": 0.5,
    "trees": [
        {"feature": [0, -1, -1], "split": [0.5, 0.0, 0.0], "right": [2, -1, -1], "size": [0, 1, 1]}
    ],
    "scores": [0.5, 0.5],
    "labels": ["Outlier", "Outlier"],
}
# A version-3 model.json: trees by heap index, training labels, no feature names.
_V3_MODEL = {
    "schema_version": 3,
    "params": _PARAMS,
    "n_train": 2,
    "cutoff": 0.5,
    "trees": [{"node": [0], "feature": [0], "split": [0.5], "size": [1, 1]}],
    "scores": [0.5, 0.5],
    "labels": ["Outlier", "Outlier"],
}


def test_model_rejects_wrong_schema_version(small_model):
    _, model = small_model
    wrong = {**model_to_dict(model), "schema_version": 99}
    # Each old document loads once it is a version-4 one: only its version is refused.
    v3_as_v4 = {**_V3_MODEL, "schema_version": 4, "feature_names": ["a"]}
    del v3_as_v4["labels"]
    assert model_from_dict(v3_as_v4).is_outlier.tolist() == [True, True]
    for version, doc in ((99, wrong), (1, _V1_MODEL), (2, _V2_MODEL), (3, _V3_MODEL)):
        with pytest.raises(ValueError, match=f"schema_version: {version}.*train the model again"):
            model_from_dict(doc)


def test_model_rejects_a_cutoff_its_rule_does_not_give(small_data):
    # The cutoff is the threshold of a ScoreThreshold rule, and the lowest
    # score of a training outlier for Contamination; any other is malformed.
    for rule, other in ((ScoreThreshold(0.55), 0.5), (Contamination(0.05), 0.55)):
        model = fit(small_data, ForestParams(n_trees=5, seed=1, label_rule=rule))
        doc = model_to_dict(model)
        assert model_from_dict(doc).cutoff == model.cutoff
        with pytest.raises(ValueError, match="malformed model file: 'cutoff' is"):
            model_from_dict({**doc, "cutoff": other})


def test_model_feature_names_are_strings_covering_the_split_features(small_model):
    # Names may repeat, as CSV headers may; there must be one for each column
    # up to the highest one a tree splits on.
    _, model = small_model
    doc = model_to_dict(model)
    width = model.forest.width
    assert doc["feature_names"] == ["F0", "F1", "F2"] and width == 3
    for names in (["x"] * width, ["a", "b", "c", "extra"]):
        assert model_from_dict({**doc, "feature_names": names}).feature_names == names
    for names, message in (
        (["F0", "F1"], "is not 3 or more strings"),
        ([], "is not 3 or more strings"),
        (["F0", "F1", 2], "is not 3 or more strings"),
        ("F0F1F2", "is a str"),
        (None, "is a NoneType"),
    ):
        with pytest.raises(ValueError, match=f"malformed model file: 'feature_names' {message}"):
            model_from_dict({**doc, "feature_names": names})


def test_model_rejects_documents_that_are_not_objects():
    for doc in ([1, 2], "model", None):
        with pytest.raises(ValueError, match="malformed model file"):
            model_from_dict(doc)


def _with_tree(model, **arrays):
    """model.json of `model` with its first tree replaced by a root split
    whose right child splits, then by `arrays`; the tree as first built
    loads and saves as itself."""
    doc = model_to_dict(model)
    tree = {"node": [0, 2], "feature": [0, 1], "split": [0.0, 1.0], "size": [1, 1, 0]}
    tree["size"][-1] = model.subsample_size - 2
    doc["trees"][0] = tree
    assert model_to_dict(model_from_dict(doc))["trees"][0] == tree
    doc["trees"][0] = {**tree, **arrays}
    return doc


def test_model_rejects_a_split_whose_parent_does_not_split(small_model):
    # Node 4's parent 1 is a leaf; every other check of the tree passes.
    _, model = small_model
    with pytest.raises(ValueError, match="a split's parent is not a split"):
        model_from_dict(_with_tree(model, node=[0, 4]))


def test_model_rejects_nodes_that_do_not_increase_from_0(small_model):
    # Sorted, the first two lists are a valid tree; the last one has no root.
    _, model = small_model
    three = {"feature": [0, 1, 1], "split": [0.0, 1.0, 2.0], "size": [1, 1, 1, 0]}
    three["size"][-1] = model.subsample_size - 3
    for node in ([0, 2, 1], [0, 2, 2], [1, 3, 4]):
        with pytest.raises(ValueError, match="nodes do not increase from 0"):
            model_from_dict(_with_tree(model, node=node, **three))


def test_model_rejects_trees_deeper_than_the_cap(small_model):
    # A chain down the left spine, one split deeper than the depth cap; every
    # other check of the tree passes, and the chain one split shorter loads.
    _, model = small_model
    cap, rows = model.max_depth, model.subsample_size
    for depth in (cap, cap + 1):
        doc = _with_tree(
            model,
            node=[(1 << k) - 1 for k in range(depth)],
            feature=[0] * depth,
            split=[-float(k) for k in range(depth)],
            size=[*[1] * depth, rows - depth],
        )
        if depth == cap:
            assert model_to_dict(model_from_dict(doc))["trees"][0] == doc["trees"][0]
            continue
        with pytest.raises(ValueError, match=f"deeper than the depth cap {cap}"):
            model_from_dict(doc)


def test_model_rejects_a_wrong_number_of_leaf_sizes(small_model):
    _, model = small_model
    rows = model.subsample_size
    for size in ([1, rows - 1], [1, 1, 1, rows - 3]):
        with pytest.raises(ValueError, match="one more size"):
            model_from_dict(_with_tree(model, size=size))


def test_model_rejects_leaf_sizes_that_miss_the_subsample_size(small_model):
    _, model = small_model
    rows = model.subsample_size
    with pytest.raises(ValueError, match=f"sum to {rows + 1}, not the subsample size {rows}"):
        model_from_dict(_with_tree(model, size=[1, 2, rows - 2]))


def test_model_rejects_out_of_range_features_splits_and_sizes(small_model):
    _, model = small_model
    rows = model.subsample_size
    for arrays, message in (
        ({"feature": [0, -1]}, "split feature is out of range"),
        ({"feature": [0, 2**31 - 1]}, "split feature is out of range"),
        ({"split": [0.0, math.nan]}, "split value is not finite"),
        ({"split": [0.0, math.inf]}, "split value is not finite"),
        ({"size": [0, 2, rows - 2]}, "leaf size is out of range"),
        # As int32 slot sizes, these would wrap around to a valid tree.
        ({"size": [1, 1, 2**32 + rows - 2]}, "leaf size is out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            model_from_dict(_with_tree(model, **arrays))


def test_model_json_preserves_label_rule_kinds(tmp_path, small_data):
    for rule in (Contamination(0.1), None):
        params = (
            ForestParams(n_trees=5, seed=1, label_rule=rule)
            if rule is not None
            else ForestParams(n_trees=5, seed=1)
        )
        model = fit(small_data, params)
        path = tmp_path / "m.json"
        save_model(path, model)
        assert type(load_model(path).params.label_rule) is type(params.label_rule)


# ---------------------------------------------------------------------------
# graph JSON


def _tiny_graph(outlier_traces=1):
    # Two inlier traces through F0 <= and outlier traces through F0 >.
    counts = {
        (SOURCE_ID, "F0_LE"): (2, 0),
        (SOURCE_ID, "F0_GT"): (0, outlier_traces),
        ("F0_LE", INLIER_ID): (2, 0),
        ("F0_GT", OUTLIER_ID): (0, outlier_traces),
    }
    weights = ClassWeights(w_o=2.0, w_i=2.0, n_o=1, n_i=1)
    return graph_of(counts, 1, weights, {"feature_names": ["Age"]})


def test_graph_to_dict_structure():
    g = _tiny_graph()
    report = score_graph(g)
    doc = graph_to_dict(g, report)
    assert doc["schema_version"] == 1
    kinds = [n["kind"] for n in doc["nodes"]]
    assert kinds[0] == "source"
    assert kinds[-2:] == ["class", "class"]
    by_id = {n["id"]: n for n in doc["nodes"]}
    assert by_id["F0_LE"]["iop"] == 1.0
    assert by_id["F0_GT"]["iop"] == -1.0
    assert by_id[SOURCE_ID]["iop"] is None
    assert len(doc["edges"]) == 4
    pairs = [(e["src"], e["dst"]) for e in doc["edges"]]
    assert pairs == [
        (SOURCE_ID, "F0_LE"),
        (SOURCE_ID, "F0_GT"),
        ("F0_LE", INLIER_ID),
        ("F0_GT", OUTLIER_ID),
    ]
    assert doc["weights"] == {"w_o": 2.0, "w_i": 2.0, "n_o": 1, "n_i": 1}
    assert doc["metadata"]["feature_names"] == ["Age"]


def test_graph_to_dict_without_report_leaves_iop_null():
    doc = graph_to_dict(_tiny_graph())
    assert all(n["iop"] is None for n in doc["nodes"])


def test_write_graph_json(tmp_path):
    g = _tiny_graph()
    path = tmp_path / "g.json"
    write_graph_json(path, g, score_graph(g))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert {e["src"] for e in doc["edges"]} == {SOURCE_ID, "F0_LE", "F0_GT"}


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_structure():
    g = _tiny_graph()
    text = export_dot(g, score_graph(g))
    lines = text.splitlines()
    assert lines[0] == "digraph dpg {"
    assert lines[1] == "  rankdir=LR;"
    assert lines[-1] == "}"
    assert text.endswith("}\n")
    for line in lines[1:-1]:
        assert line.endswith(";")
    body = "\n".join(lines)
    assert '"F0_LE" [label="Age <="' in body
    assert '"INLIER" [label="Inliers", shape=box];' in body
    assert '"OUTLIER" [label="Outliers", shape=box];' in body
    # source hidden by default
    assert '"SOURCE" ->' not in body
    assert "[label=\"Source\"" not in body


def test_export_dot_dark_fills_get_white_text():
    # IOP +1 and -1 take the palette's dark endpoints, IOP 0 (one trace of
    # each class at equal weights) its light midpoint.
    even = graph_of(
        {
            (SOURCE_ID, "F0_LE"): (1, 1),
            ("F0_LE", INLIER_ID): (1, 0),
            ("F0_LE", OUTLIER_ID): (0, 1),
        },
        1,
        ClassWeights(w_o=2.0, w_i=2.0, n_o=1, n_i=1),
    )
    for g, fills in (
        (_tiny_graph(), {"F0_LE": "#053061", "F0_GT": "#67001f"}),
        (even, {"F0_LE": "#f7f7f7"}),
    ):
        nodes = [line for line in export_dot(g, score_graph(g)).splitlines() if "fillcolor" in line]
        assert len(nodes) == len(fills)
        for line in nodes:
            fill = fills[line.split('"')[1]]
            assert f'fillcolor="{fill}"' in line
            assert ('fontcolor="#ffffff"' in line) == (fill != "#f7f7f7")


def test_export_dot_penwidths_bounded_and_monotone(small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.is_outlier)
    text = export_dot(g, score_graph(g))
    widths = {}
    for line in text.splitlines():
        if "->" in line:
            src = line.split('"')[1]
            dst = line.split('"')[3]
            w = float(line.split("penwidth=")[1].rstrip("];"))
            widths[(src, dst)] = w
    assert widths
    for w in widths.values():
        assert 0.5 <= w <= 6.0 + 1e-9
    shown = {k: v for k, v in g.edges.items() if k[0] != SOURCE_ID}
    ordered = sorted(shown, key=shown.get)
    for a, b in zip(ordered, ordered[1:]):
        assert widths[a] <= widths[b] + 1e-9


def test_export_dot_equal_weights_use_midpoint_width():
    # Two traces of each class: the two non-source edges weigh the same.
    g = _tiny_graph(outlier_traces=2)
    text = export_dot(g, score_graph(g))
    for line in text.splitlines():
        if "->" in line:
            assert line.endswith("penwidth=3.25];")


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_export_dot_escapes_quotes_and_backslashes_in_labels():
    for name in ('a"b', "back\\slash", 'x\\"y', '"', "\\"):
        g = replace(_tiny_graph(), metadata={"feature_names": [name]})
        text = export_dot(g, score_graph(g))
        labels = re.findall(r"label=(\S.*?)(?:, |\];)", text)
        assert len(labels) == 4
        for label in labels:
            assert DOT_STRING.fullmatch(label), label
        escaped = name.replace("\\", "\\\\").replace('"', '\\"')
        assert f'"F0_LE" [label="{escaped} <=", ' in text


def test_export_dot_requires_full_report_coverage():
    g = _tiny_graph()
    partial = IopReport(
        entries=(IopEntry(predicate=Predicate(0, LE), iop=1.0, f_i=4.0, f_o=0.0, f_in=4.0),)
    )
    with pytest.raises(ValueError, match="does not cover"):
        export_dot(g, partial)


def test_export_dot_deterministic(small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.is_outlier)
    report = score_graph(g)
    assert export_dot(g, report) == export_dot(g, report)


# ---------------------------------------------------------------------------
# explanation bundle

BUNDLE_FILES = [
    "model.json",
    "graph.json",
    "iop_report.json",
    "graph.dot",
    "iop_table.txt",
    "manifest.json",
]


def test_bundle_writes_all_files_with_matching_hashes(tmp_path, small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.is_outlier)
    report = score_graph(g)

    input_csv = tmp_path / "input.csv"
    write_dataset_csv(input_csv, data)

    out = tmp_path / "bundle"
    manifest = write_explanation_bundle(out, model, g, report, input_path=input_csv)

    for name in BUNDLE_FILES:
        assert (out / name).is_file(), name
    disk = json.loads((out / "manifest.json").read_text())
    assert disk == manifest
    assert manifest["schema_version"] == 1
    assert manifest["seed"] == model.params.seed
    assert manifest["params"]["n_trees"] == model.params.n_trees
    assert manifest["input"]["path"] == str(input_csv)
    assert (
        manifest["input"]["sha256"]
        == hashlib.sha256(input_csv.read_bytes()).hexdigest()
    )
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert set(manifest["files"]) == set(BUNDLE_FILES) - {"manifest.json"}


def test_bundle_rerun_is_byte_identical(tmp_path, small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.is_outlier)
    report = score_graph(g)
    a, b = tmp_path / "a", tmp_path / "b"
    write_explanation_bundle(a, model, g, report)
    write_explanation_bundle(b, model, g, report)
    for name in BUNDLE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_bundle_write_streams_model_json(tmp_path):
    # The bundle write holds no whole copy of model.json, as text or as
    # Python lists: its traced peak stays below the file's size. 20 000
    # training rows make the scores several pieces long.
    rng = np.random.default_rng(3)
    data = Dataset(features=rng.normal(size=(20_000, 3)), feature_names=["a", "b", "c"])
    model = fit(data, ForestParams(n_trees=10, seed=3, label_rule=Contamination(0.01)))
    g = build_model_graph(model, data, model.is_outlier)
    report = score_graph(g)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_explanation_bundle(tmp_path / "bundle", model, g, report)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    text = (tmp_path / "bundle" / "model.json").read_bytes()
    assert text == (json.dumps(model_to_dict(model), separators=(",", ":")) + "\n").encode()
    assert peak < len(text)


def test_bundle_unwritable_target_raises_oserror(tmp_path, small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.is_outlier)
    report = score_graph(g)
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    with pytest.raises(OSError, match="cannot write explanation bundle"):
        write_explanation_bundle(blocker, model, g, report)
