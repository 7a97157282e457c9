"""End-to-end checks for the command-line interface.

Commands run in-process through main(argv) so exit codes are return
values and output is captured with capsys.  Heavy artifacts (datasets,
trained models) build once per module in a shared tmp directory.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrefine.cli import (
    GEN_PF_DEFAULTS,
    GEN_TABULAR_DEFAULTS,
    TRAIN_DEFAULTS,
    derive_seed,
    main,
    refine_defaults,
)
from diffrefine.model_store import load_model
from diffrefine.powerflow.data import MANIFEST_KEYS as PF_MANIFEST_KEYS


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def pf_data(workdir) -> Path:
    cfg = write_json(workdir / "pf_gen.json", {"n_train": 60, "n_val": 20, "n_test": 30})
    out = workdir / "pfdata"
    assert run_cli("gen-data", "pf", "--case", "ieee14", "--config", cfg, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def pf_models(workdir, pf_data):
    base_cfg = write_json(workdir / "pf_base.json", {"epochs": 8})
    eps_cfg = write_json(workdir / "pf_eps.json", {"epochs": 10})
    base = workdir / "base.npz"
    eps = workdir / "eps.npz"
    assert run_cli("train", "base", "--data", pf_data, "--config", base_cfg, "--out", base) == 0
    assert run_cli("train", "eps", "--data", pf_data, "--config", eps_cfg, "--out", eps) == 0
    return base, eps


@pytest.fixture(scope="module")
def tab_data(workdir) -> Path:
    cfg = write_json(
        workdir / "tab_gen.json", {"n_train": 400, "n_val": 100, "n_test": 200}
    )
    out = workdir / "tabdata"
    assert run_cli("gen-data", "tabular", "--config", cfg, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def tab_models(workdir, tab_data):
    clf_cfg = write_json(workdir / "tab_clf.json", {"epochs": 40})
    eps_cfg = write_json(workdir / "tab_eps.json", {"epochs": 12})
    clf = workdir / "clf.npz"
    eps = workdir / "tab_eps.npz"
    assert run_cli("train", "classifier", "--data", tab_data, "--config", clf_cfg, "--out", clf) == 0
    assert run_cli("train", "eps", "--data", tab_data, "--config", eps_cfg, "--out", eps) == 0
    return clf, eps


def read_tsv(path: Path) -> list:
    lines = path.read_text().strip().split("\n")
    return [line.split("\t") for line in lines]


class TestSeedDerivation:
    def test_purpose_streams_differ(self):
        seeds = {derive_seed(0, p) for p in ("gen-data-pf", "train-base", "attack")}
        assert len(seeds) == 3

    def test_frozen_value(self):
        # pinned so artifacts regenerated elsewhere stay comparable
        assert derive_seed(0, "gen-data-pf") == 2022186264

    def test_master_changes_stream(self):
        assert derive_seed(0, "attack") != derive_seed(1, "attack")


class TestPrintConfig:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-data", "pf", "--print-config"),
            ("gen-data", "tabular", "--print-config"),
            ("train", "base", "--print-config"),
            ("train", "pinn", "--print-config"),
            ("train", "eps", "--print-config"),
            ("train", "classifier", "--print-config"),
            ("refine", "--model", "x", "--eps", "y", "--data", "z", "--print-config"),
            ("attack", "--kind", "cyclic", "--print-config"),
        ],
    )
    def test_prints_json_defaults(self, capsys, argv):
        assert run_cli(*argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, dict) and doc


class TestGenData:
    def test_pf_dataset_loads_with_requested_counts(self, pf_data):
        from diffrefine.powerflow import load_dataset

        ds = load_dataset(pf_data)
        assert ds.train.features.shape[0] == 60
        assert ds.val.features.shape[0] == 20
        assert ds.test.features.shape[0] == 30

    def test_pf_manifest_carries_run_provenance(self, pf_data):
        doc = json.loads((pf_data / "manifest.json").read_text())
        assert doc["kind"] == "powerflow-dataset"
        cli = doc["cli"]
        assert cli["command"] == "gen-data pf"
        assert cli["seeds"]["master"] == 0
        assert cli["seeds"]["derived"]["dataset"] == derive_seed(0, "gen-data-pf")
        assert cli["config"]["n_train"] == 60

    def test_pf_workers_match_sequential_bytes(self, workdir, pf_data, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"n_train": 60, "n_val": 20, "n_test": 30})
        out = tmp_path / "par"
        assert (
            run_cli("gen-data", "pf", "--config", cfg, "--out", out, "--workers", 3) == 0
        )
        for name in ("train.tsv", "val.tsv", "test.tsv", "manifest.json"):
            assert (out / name).read_bytes() == (pf_data / name).read_bytes()

    def test_config_seed_overrides_derived(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"n_train": 4, "n_val": 2, "n_test": 2, "seed": 5},
        )
        out = tmp_path / "seeded"
        assert run_cli("gen-data", "pf", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["seed"] == 5
        assert doc["cli"]["seeds"]["derived"]["dataset"] == 5

    def test_empty_tabular_split_trains(self, tmp_path):
        from diffrefine.adversarial import (
            generate_tabular_dataset,
            load_schema,
            load_tabular_dataset,
        )

        cfg = write_json(tmp_path / "gen.json", {"n_train": 60, "n_val": 0, "n_test": 20})
        data = tmp_path / "tab"
        assert _quiet_cli("gen-data", "tabular", "--config", cfg, "--out", data) == (0, [""])
        clf_cfg = write_json(tmp_path / "clf.json", {"epochs": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _quiet_cli("train", "classifier", "--data", data, "--config", clf_cfg,
                             "--out", tmp_path / "clf.npz")
        assert got == (0, [""])

        def no_constant(token):
            raise AssertionError(f"model header holds the non-standard JSON token {token}")

        with np.load(tmp_path / "clf.npz") as arrays:
            json.loads(bytes(arrays["header"]).decode("utf-8"), parse_constant=no_constant)
        in_memory = generate_tabular_dataset(load_schema(), 60, 0, 20).val
        assert (in_memory.features.shape, in_memory.labels.shape) == ((0, 12), (0,))
        val = load_tabular_dataset(data).val
        assert (val.features.shape, val.labels.shape) == ((0, 12), (0,))

    def test_tabular_dataset_loads(self, tab_data):
        from diffrefine.adversarial import load_tabular_dataset

        ds = load_tabular_dataset(tab_data)
        assert ds.train.features.shape[0] == 400
        assert ds.test.features.shape[0] == 200
        assert json.loads((tab_data / "manifest.json").read_text())["cli"][
            "command"
        ] == "gen-data tabular"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"n_scenarios": 10})
        assert run_cli("gen-data", "pf", "--config", cfg, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error\tConfigError\t")
        assert "\n" not in err

    def test_infeasible_draws_leave_incomplete_marker(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"n_train": 5, "n_val": 0, "n_test": 0, "train_spread": 50.0},
        )
        out = tmp_path / "bad"
        assert run_cli("gen-data", "pf", "--config", cfg, "--out", out) == 3
        marker = out / "INCOMPLETE"
        assert marker.exists()
        assert marker.read_text().startswith("error\t")
        assert capsys.readouterr().err.startswith("error\tDatasetInfeasibleError\t")

    @pytest.mark.parametrize("key", ["n_train", "n_val", "n_test"])
    def test_negative_tabular_split_size(self, tmp_path, capsys, key):
        cfg = write_json(tmp_path / "cfg.json", {"n_train": 5, "n_val": 5, "n_test": 5, key: -1})
        out = tmp_path / "bad"
        assert run_cli("gen-data", "tabular", "--config", cfg, "--out", out) == 3
        err = capsys.readouterr().err
        assert err == "error\tDataError\tsplit sizes must be non-negative\n"
        assert (out / "INCOMPLETE").read_text() == err


class TestTrain:
    def test_base_model_and_manifest(self, workdir, pf_models):
        base, _ = pf_models
        model = load_model(base)
        assert model.kind == "estimator"
        doc = json.loads((workdir / "base.manifest.json").read_text())
        assert doc["command"] == "train base"
        assert doc["model"] == "base.npz"
        assert doc["config"]["epochs"] == 8
        assert "data" in doc["inputs"]

    def test_eps_dispatches_on_dataset_kind(self, pf_models, tab_models):
        assert load_model(pf_models[1]).kind == "noise"
        assert load_model(tab_models[1]).kind == "noise"

    def test_classifier_kind(self, tab_models):
        assert load_model(tab_models[0]).kind == "classifier"

    def test_kind_dataset_mismatch(self, pf_data, tab_data, tmp_path, capsys):
        assert run_cli("train", "classifier", "--data", pf_data, "--out", tmp_path / "m") == 3
        assert run_cli("train", "base", "--data", tab_data, "--out", tmp_path / "m") == 3
        err = capsys.readouterr().err
        assert err.count("error\tDataError\t") == 2

    def test_retrain_is_byte_identical(self, workdir, pf_data, pf_models, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"epochs": 8})
        out = tmp_path / "again.npz"
        assert run_cli("train", "base", "--data", pf_data, "--config", cfg, "--out", out) == 0
        assert out.read_bytes() == pf_models[0].read_bytes()

    def test_grid_eps_time_dim_takes_effect(self, workdir, pf_data, tmp_path):
        cfg = write_json(tmp_path / "eps.json", {"epochs": 2, "time_dim": 4})
        out = tmp_path / "eps.npz"
        assert run_cli("train", "eps", "--data", pf_data, "--config", cfg, "--out", out) == 0
        assert load_model(out).net.spec.time_dim == 4

    def test_missing_data_dir(self, tmp_path):
        assert run_cli("train", "base", "--data", tmp_path / "nope", "--out", tmp_path / "m") == 3

    @pytest.mark.parametrize("kind", ["base", "pinn", "eps"])
    def test_missing_out_fails_before_loading_or_training(self, pf_data, monkeypatch, kind):
        def never(*args, **kwargs):
            raise AssertionError("train ran without --out")

        import diffrefine.baselines
        import diffrefine.powerflow

        for module, name in [
            (diffrefine.powerflow, "load_dataset"),
            (diffrefine.baselines, "train_power_estimator"),
            (diffrefine.baselines, "train_power_pinn"),
            (diffrefine.baselines, "train_power_prior"),
        ]:
            monkeypatch.setattr(module, name, never)
        _assert_one_error(*_quiet_cli("train", kind, "--data", pf_data), 2, "ConfigError")


def _one_error_line(capsys, cls: str) -> None:
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith(f"error\t{cls}\t"), lines


def _corrupt_cell(src: Path, dst: Path, split: str, cell: str = "abc") -> Path:
    """Copy a dataset directory and overwrite the first cell of a split's
    first data row with ``cell``."""
    shutil.copytree(src, dst)
    path = dst / f"{split}.tsv"
    lines = path.read_text().split("\n")
    lines[1] = "\t".join([cell] + lines[1].split("\t")[1:])
    path.write_text("\n".join(lines))
    return dst


def _model_parts(path: Path):
    """A model file's JSON header and its arrays."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    return json.loads(bytes(arrays.pop("header")).decode()), arrays


def _write_model(path: Path, header: dict, arrays: dict) -> Path:
    np.savez(path, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)
    return path


def _refine_with(model: Path, eps: Path, data: Path, tmp_path: Path) -> int:
    return run_cli("refine", "--model", model, "--eps", eps, "--data", data, "--out", tmp_path / "r")


class TestMalformedInputs:
    def test_non_numeric_pf_cell(self, pf_data, tmp_path, capsys):
        data = _corrupt_cell(pf_data, tmp_path / "pf", "train")
        assert run_cli("train", "base", "--data", data, "--out", tmp_path / "m") == 3
        _one_error_line(capsys, "DataError")

    def test_non_numeric_tabular_cell(self, tab_data, tmp_path, capsys):
        data = _corrupt_cell(tab_data, tmp_path / "tab", "val")
        assert run_cli("train", "classifier", "--data", data, "--out", tmp_path / "m") == 3
        _one_error_line(capsys, "DataError")

    def test_malformed_model_header(self, pf_data, pf_models, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, header=np.frombuffer(b'{"kind": ', dtype=np.uint8))
        code = run_cli(
            "refine", "--model", bad, "--eps", pf_models[1], "--data", pf_data,
            "--out", tmp_path / "r",
        )
        assert code == 3
        _one_error_line(capsys, "DataError")

    @pytest.mark.parametrize(
        "edit",
        [
            {"drop": "spec"}, {"drop": "kind"}, {"drop": "seed"},
            {"spec": "abc"}, {"spec": {"x_dim": 4}}, {"spec": {"x_dim": -1, "hidden": [], "out_dim": 1}},
            {"kind": 7}, {"seed": "one"}, {"seed": None},
        ],
        ids=lambda e: json.dumps(e),
    )
    def test_malformed_model_header_fields(self, pf_data, pf_models, tmp_path, capsys, edit):
        header, arrays = _model_parts(pf_models[0])
        header.pop(edit.pop("drop", None), None)
        header.update(edit)
        bad = _write_model(tmp_path / "bad.npz", header, arrays)
        assert _refine_with(bad, pf_models[1], pf_data, tmp_path) == 3
        _one_error_line(capsys, "DataError")

    @pytest.mark.parametrize("name", ["params", "x_mean", "x_std", "y_mean", "y_std"])
    def test_model_missing_array(self, pf_data, pf_models, tmp_path, capsys, name):
        header, arrays = _model_parts(pf_models[0])
        del arrays[name]
        bad = _write_model(tmp_path / "bad.npz", header, arrays)
        assert _refine_with(bad, pf_models[1], pf_data, tmp_path) == 3
        _one_error_line(capsys, "DataError")

    def test_model_params_do_not_fit_spec(self, pf_data, pf_models, tmp_path, capsys):
        header, arrays = _model_parts(pf_models[0])
        arrays["params"] = arrays["params"][:-1]
        bad = _write_model(tmp_path / "bad.npz", header, arrays)
        assert _refine_with(bad, pf_models[1], pf_data, tmp_path) == 3
        _one_error_line(capsys, "DataError")

    @pytest.mark.parametrize("which", [0, 1], ids=["base", "eps"])
    @pytest.mark.parametrize("name", ["x_mean", "x_std", "y_mean", "y_std"])
    @pytest.mark.parametrize("fix", ["drop", "add"])
    def test_model_normalizer_does_not_fit_spec(
        self, pf_data, pf_models, tmp_path, capsys, which, name, fix
    ):
        header, arrays = _model_parts(pf_models[which])
        arr = arrays[name]
        arrays[name] = arr[:-1] if fix == "drop" else np.append(arr, 1.0)
        models = list(pf_models)
        models[which] = _write_model(tmp_path / "bad.npz", header, arrays)
        assert _refine_with(models[0], models[1], pf_data, tmp_path) == 3
        _one_error_line(capsys, "DataError")

    @pytest.mark.parametrize("command, workers", [("gen-data", 0), ("refine", -1), ("attack", 0)])
    def test_workers_below_one_rejected(self, tmp_path, command, workers):
        argv = {
            "gen-data": ["gen-data", "pf"],
            "refine": ["refine", "--model", "m", "--eps", "e", "--data", "d"],
            "attack": ["attack", "--kind", "pgd", "--data", "d", "--model", "m"],
        }[command]
        got = _quiet_cli(*argv, "--out", tmp_path / "out", "--workers", workers)
        _assert_one_error(*got, 2, "ConfigError")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["base", "classifier"])
    def test_blank_line_is_a_row_width_error(self, pf_data, tab_data, tmp_path, capsys, kind):
        # Neither dataset writer emits a blank line.
        data = tmp_path / "ds"
        shutil.copytree(pf_data if kind == "base" else tab_data, data)
        lines = (data / "val.tsv").read_text().split("\n")
        (data / "val.tsv").write_text("\n".join(lines[:2] + [""] + lines[2:]))
        assert run_cli("train", kind, "--data", data, "--out", tmp_path / "m") == 3
        err = capsys.readouterr().err
        assert err.startswith("error\tDataError\tval.tsv line 3: row width does not match")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_pf_cell(self, pf_data, tmp_path, capsys, cell):
        data = _corrupt_cell(pf_data, tmp_path / "pf", "train", cell)
        assert run_cli("train", "eps", "--data", data, "--out", tmp_path / "m") == 3
        _one_error_line(capsys, "DataError")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_tabular_cell(self, tab_data, tmp_path, capsys, cell):
        data = _corrupt_cell(tab_data, tmp_path / "tab", "val", cell)
        assert run_cli("train", "classifier", "--data", data, "--out", tmp_path / "m") == 3
        _one_error_line(capsys, "DataError")

    @pytest.mark.parametrize(
        "cfg",
        [{"hidden": "abc"}, {"hidden": [64, "x"]}, {"epochs": 2.5}, {"lr": "fast"},
         {"seed": "one"}, {"batch_size": True}],
        ids=lambda c: json.dumps(c),
    )
    def test_wrongly_typed_config(self, pf_data, tmp_path, capsys, cfg):
        path = write_json(tmp_path / "cfg.json", cfg)
        code = run_cli("train", "base", "--data", pf_data, "--config", path,
                       "--out", tmp_path / "m")
        assert code == 2
        _one_error_line(capsys, "ConfigError")

    def test_wrongly_typed_nested_config(self, pf_data, tmp_path, capsys):
        path = write_json(tmp_path / "cfg.json", {"schedule": {"T": "100"}})
        code = run_cli("train", "eps", "--data", pf_data, "--config", path,
                       "--out", tmp_path / "m")
        assert code == 2
        _one_error_line(capsys, "ConfigError")


# Hypothesis drafts of malformed inputs.  Each draft is malformed by
# construction, so a command that accepts it has a validation gap.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)
# Cell text: no line breaks (a file read splits lines on them), and never
# a finite number.
CELL_CHARS = st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
)


def _finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _not_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


def _quiet_cli(*argv):
    """Exit code and stderr lines of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*argv)
    return code, err.getvalue().strip().split("\n")


def _assert_one_error(code, lines, want_code, cls):
    assert code == want_code, lines
    assert len(lines) == 1 and lines[0].startswith(f"error\t{cls}\t"), lines


def _draw_bad_config(data, defaults: dict) -> str:
    form = data.draw(st.sampled_from(["text", "not-object", "unknown-key", "wrong-type"]))
    if form == "text":
        return data.draw(st.text(max_size=20).filter(_not_json))
    if form == "not-object":
        return json.dumps(data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict))))
    if form == "unknown-key":
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in defaults))
        return json.dumps({key: data.draw(JSON_VALUES)})
    key = data.draw(st.sampled_from(sorted(defaults)))
    # A string never stands for a number, list, object or null, and a
    # number never for a string.
    wrong = st.integers() if isinstance(defaults[key], str) else st.text(max_size=5)
    return json.dumps({key: data.draw(wrong)})


def _damage_tsv(data, path: Path) -> None:
    lines = path.read_text().split("\n")
    form = data.draw(
        st.sampled_from(["cell", "drop", "extra", "header", "bytes", "empty", "missing"])
    )
    if form == "missing":
        path.unlink()
        return
    if form == "empty":
        path.write_text("")
        return
    if form == "bytes":
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw)))
        path.write_bytes(raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80\x80"])) + raw[at:])
        return
    row = data.draw(st.integers(0 if form == "header" else 1, len(lines) - 2))
    cells = lines[row].split("\t")
    col = data.draw(st.integers(0, len(cells) - 1))
    if form == "cell":
        cells[col] = data.draw(st.text(CELL_CHARS, max_size=6).filter(lambda s: not _finite_number(s)))
    elif form == "drop":
        del cells[col]
    elif form == "extra":
        cells.insert(col, "0.5")
    else:
        # The suffix must damage the cell: "0.5" + "0" is still a number.
        suffix = st.text(CELL_CHARS, min_size=1, max_size=4)
        cells[col] += data.draw(suffix.filter(lambda t: not _finite_number(cells[col] + t)))
    lines[row] = "\t".join(cells)
    path.write_text("\n".join(lines))


def _damage_model(data, src: Path, dst: Path) -> None:
    form = data.draw(st.sampled_from(["bytes", "truncate", "npy", "header", "array"]))
    if form == "bytes":
        dst.write_bytes(data.draw(st.binary(max_size=64)))
        return
    if form == "truncate":
        raw = src.read_bytes()
        dst.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        return
    if form == "npy":
        with dst.open("wb") as fh:
            np.save(fh, np.zeros(data.draw(st.integers(0, 4))))
        return
    header, arrays = _model_parts(src)
    if form == "header":
        key = data.draw(st.sampled_from(["format_version", "kind", "spec", "seed"]))
        if data.draw(st.booleans()):
            del header[key]
        elif key == "format_version":
            header[key] = data.draw(JSON_VALUES.filter(lambda v: v != 1))
        elif key == "kind":
            header[key] = data.draw(st.integers() | st.lists(st.integers(), max_size=2))
        elif key == "spec":
            header[key] = data.draw(st.integers() | st.text(max_size=5) | st.lists(st.integers(), max_size=2))
        else:
            header[key] = data.draw(
                st.text("abcxyz", min_size=1, max_size=4) | st.lists(st.integers(), max_size=2)
            )
    else:
        name = data.draw(st.sampled_from(["params", "x_mean", "x_std", "y_mean", "y_std"]))
        change = data.draw(st.sampled_from(["drop", "shorter", "longer", "row"]))
        if change == "drop":
            del arrays[name]
        elif change == "shorter":
            arrays[name] = arrays[name][: data.draw(st.integers(0, arrays[name].size - 1))]
        elif change == "longer":
            arrays[name] = np.concatenate([arrays[name], np.ones(data.draw(st.integers(1, 3)))])
        else:
            arrays[name] = arrays[name][None, :]
    _write_model(dst, header, arrays)


# The manifest keys each dataset loader reads.
PF_KEYS = ("kind", "format_version", *sorted(PF_MANIFEST_KEYS))
TABULAR_KEYS = ("kind", "schema", "seed", "label_noise", "ground_truth_seed")


def _damage_manifest(data, path: Path, keys) -> None:
    form = data.draw(st.sampled_from(["text", "not-object", "drop", "wrong-type"]))
    if form == "text":
        path.write_text(data.draw(st.text(max_size=20).filter(_not_json)))
        return
    if form == "not-object":
        path.write_text(json.dumps(data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))))
        return
    doc = json.loads(path.read_text())
    key = data.draw(st.sampled_from(keys))
    if form == "drop":
        del doc[key]
    else:
        # A string never stands for a number, list or object, and a
        # number never for a string.
        wrong = st.integers() if isinstance(doc[key], str) else st.text(max_size=5)
        doc[key] = data.draw(wrong)
    path.write_text(json.dumps(doc))


class TestMalformedInputsFuzzed:
    """Malformed config JSON, dataset TSVs and model files through main():
    exactly one error line, the documented exit code, never a traceback."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_config(self, pf_data, pf_models, data):
        command = data.draw(st.sampled_from(["gen-pf", "gen-tabular", "train-base", "refine"]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            out = tmp / "out"
            if command == "gen-pf":
                defaults, argv = GEN_PF_DEFAULTS, ["gen-data", "pf", "--out", out]
            elif command == "gen-tabular":
                defaults, argv = GEN_TABULAR_DEFAULTS, ["gen-data", "tabular", "--out", out]
            elif command == "train-base":
                defaults = TRAIN_DEFAULTS["base"]
                argv = ["train", "base", "--data", pf_data, "--out", out]
            else:
                defaults = refine_defaults()
                argv = ["refine", "--model", pf_models[0], "--eps", pf_models[1],
                        "--data", pf_data, "--out", out]
            cfg = tmp / "cfg.json"
            cfg.write_text(_draw_bad_config(data, defaults))
            _assert_one_error(*_quiet_cli(*argv, "--config", cfg), 2, "ConfigError")

    @settings(max_examples=40)
    @given(data=st.data())
    def test_dataset_tsv(self, pf_data, tab_data, data):
        kind = data.draw(st.sampled_from(["base", "classifier"]))
        split = data.draw(st.sampled_from(["train", "val", "test"]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copytree(pf_data if kind == "base" else tab_data, tmp / "ds")
            _damage_tsv(data, tmp / "ds" / f"{split}.tsv")
            cfg = write_json(tmp / "cfg.json", {"epochs": 1})
            got = _quiet_cli("train", kind, "--data", tmp / "ds", "--config", cfg,
                             "--out", tmp / "m")
            _assert_one_error(*got, 3, "DataError")

    @settings(max_examples=40)
    @given(data=st.data())
    def test_model_file(self, pf_data, pf_models, data):
        which = data.draw(st.sampled_from([0, 1]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            models = list(pf_models)
            models[which] = tmp / "bad.npz"
            _damage_model(data, pf_models[which], models[which])
            got = _quiet_cli("refine", "--model", models[0], "--eps", models[1],
                             "--data", pf_data, "--out", tmp / "r")
            _assert_one_error(*got, 3, "DataError")

    @settings(max_examples=40)
    @given(data=st.data())
    def test_dataset_manifest(self, pf_data, pf_models, tab_data, tab_models, data):
        command = data.draw(st.sampled_from(["train-base", "train-classifier", "refine", "attack"]))
        grid = command in ("train-base", "refine")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            ds = tmp / "ds"
            shutil.copytree(pf_data if grid else tab_data, ds)
            _damage_manifest(data, ds / "manifest.json", PF_KEYS if grid else TABULAR_KEYS)
            cfg = write_json(tmp / "cfg.json", {"epochs": 1})
            if command == "train-base":
                argv = ["train", "base", "--data", ds, "--config", cfg, "--out", tmp / "m"]
            elif command == "train-classifier":
                argv = ["train", "classifier", "--data", ds, "--config", cfg, "--out", tmp / "m"]
            elif command == "refine":
                argv = ["refine", "--model", pf_models[0], "--eps", pf_models[1],
                        "--data", ds, "--out", tmp / "r"]
            else:
                argv = ["attack", "--kind", "pgd", "--data", ds, "--model", tab_models[0],
                        "--out", tmp / "a"]
            _assert_one_error(*_quiet_cli(*argv), 3, "DataError")

    @settings(max_examples=20)
    @given(data=st.data())
    def test_schema_file(self, data):
        form = data.draw(st.sampled_from(["missing", "directory", "text", "bytes"]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            schema = tmp / "schema.json"
            if form == "directory":
                schema.mkdir()
            elif form == "text":
                schema.write_text(data.draw(st.text(max_size=20).filter(_not_json)))
            elif form == "bytes":
                schema.write_bytes(b'{"features": ' + data.draw(
                    st.sampled_from([b"\xff", b"\xc3\x28", b"\x80\x80"])))
            out = tmp / "out"
            got = _quiet_cli("gen-data", "tabular", "--schema", schema, "--out", out)
            _assert_one_error(*got, 3, "DataError")
            assert not out.exists()


@pytest.mark.parametrize("version", [None, 2])
@pytest.mark.parametrize("command", ["train-classifier", "attack"])
def test_tabular_manifest_format_version(tab_data, tab_models, tmp_path, version, command):
    ds = tmp_path / "ds"
    shutil.copytree(tab_data, ds)
    doc = json.loads((ds / "manifest.json").read_text())
    if version is None:
        del doc["format_version"]
    else:
        doc["format_version"] = version
    (ds / "manifest.json").write_text(json.dumps(doc))
    if command == "train-classifier":
        argv = ["train", "classifier", "--data", ds, "--out", tmp_path / "m"]
    else:
        argv = ["attack", "--kind", "pgd", "--data", ds, "--model", tab_models[0],
                "--out", tmp_path / "a"]
    _assert_one_error(*_quiet_cli(*argv), 3, "DataError")


@pytest.fixture(scope="module")
def refined(workdir, pf_data, pf_models):
    base, eps = pf_models
    cfg = write_json(workdir / "refine.json", {"steps": 6, "start_step": 6, "lam": 1e6})
    out = workdir / "refined"
    code = run_cli(
        "refine", "--model", base, "--eps", eps, "--data", pf_data,
        "--config", cfg, "--out", out, "--dump", 2,
    )
    assert code == 0
    return out


class TestRefine:
    def test_report_shows_improvement(self, refined):
        rows = read_tsv(refined / "report.tsv")
        assert rows[0] == ["method", "mse", "mapm_mw", "mrpm_mvar"]
        by_method = {r[0]: [float(v) for v in r[1:]] for r in rows[1:]}
        assert by_method["refined"][1] < by_method["base"][1]

    def test_per_sample_rows_cover_split(self, refined):
        rows = read_tsv(refined / "per_sample.tsv")
        assert len(rows) == 1 + 30
        assert all(len(r) == 7 for r in rows)

    def test_refined_predictions_table(self, refined, pf_data):
        from diffrefine.powerflow import load_dataset

        rows = read_tsv(refined / "refined.tsv")
        ds = load_dataset(pf_data)
        assert rows[0] == ds.target_names
        assert len(rows) == 1 + 30

    def test_trajectory_dumps(self, refined):
        files = sorted((refined / "trajectories").iterdir())
        assert [f.name for f in files] == ["sample_000.tsv", "sample_001.tsv"]
        header = files[0].read_text().split("\n")[0]
        assert header == "t\tphi\tgamma\tcos_angle\tdist"

    def test_trajectory_dumps_equal_one_row_refines(self, refined, workdir, pf_data, pf_models):
        from diffrefine.guidance import RefineConfig, refine
        from diffrefine.powerflow import (
            KirchhoffPotential,
            build_ybus,
            injections_from_features,
            load_case,
            load_dataset,
        )

        ds = load_dataset(pf_data)
        case = load_case(ds.case_name)
        ybus = build_ybus(case)
        base, prior = load_model(pf_models[0]), load_model(pf_models[1])
        cfg = RefineConfig.from_config(json.loads((workdir / "refine.json").read_text()))
        feats = ds.test.features
        pred = base.predict(feats)
        for i in range(2):
            pot = KirchhoffPotential(case, ybus, injections_from_features(case, feats[i]))
            lines = refine(pred[i], pot, prior, cfg, condition=feats[i]).trajectory.to_lines()
            got = (refined / "trajectories" / f"sample_{i:03d}.tsv").read_text()
            assert got == "\n".join(lines) + "\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_gradient_in_one_row_exits_4(self, pf_data, pf_models, tmp_path):
        # A load 250 orders of magnitude too large in test row 3 carries
        # that row's prediction to where the calculated power overflows;
        # the scaled row also overflows numpy arithmetic on the way.
        data = tmp_path / "data"
        shutil.copytree(pf_data, data)
        lines = (data / "test.tsv").read_text().split("\n")
        cells = lines[4].split("\t")
        cells[0] = "1e250"
        lines[4] = "\t".join(cells)
        (data / "test.tsv").write_text("\n".join(lines))
        base, eps = pf_models
        got = _quiet_cli("refine", "--model", base, "--eps", eps, "--data", data,
                         "--out", tmp_path / "out", "--dump", 0)
        _assert_one_error(*got, 4, "NonFiniteGradientError")

    def test_non_finite_gradient_row_raises_no_numpy_warning(self, pf_data, pf_models, tmp_path):
        # The row of test_non_finite_gradient_in_one_row_exits_4: its
        # overflow shows as the one error line and nothing else.
        data = tmp_path / "data"
        shutil.copytree(pf_data, data)
        lines = (data / "test.tsv").read_text().split("\n")
        cells = lines[4].split("\t")
        cells[0] = "1e250"
        lines[4] = "\t".join(cells)
        (data / "test.tsv").write_text("\n".join(lines))
        base, eps = pf_models
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _quiet_cli("refine", "--model", base, "--eps", eps, "--data", data,
                             "--out", tmp_path / "out", "--dump", 0)
        _assert_one_error(*got, 4, "NonFiniteGradientError")
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    def test_zero_steps_equals_base(self, pf_data, pf_models, tmp_path):
        base, eps = pf_models
        cfg = write_json(tmp_path / "cfg.json", {"steps": 0})
        out = tmp_path / "noop"
        assert (
            run_cli("refine", "--model", base, "--eps", eps, "--data", pf_data,
                    "--config", cfg, "--out", out) == 0
        )
        rows = read_tsv(out / "report.tsv")
        assert rows[1][1:] == rows[2][1:]
        assert not (out / "trajectories").exists()

    def test_workers_match_reference_bytes(self, refined, workdir, pf_data, pf_models, tmp_path):
        base, eps = pf_models
        out = tmp_path / "par"
        code = run_cli(
            "refine", "--model", base, "--eps", eps, "--data", pf_data,
            "--config", workdir / "refine.json", "--out", out, "--dump", 2,
            "--workers", 2,
        )
        assert code == 0
        for name in ("report.tsv", "per_sample.tsv", "refined.tsv",
                     "trajectories/sample_000.tsv", "trajectories/sample_001.tsv"):
            assert (out / name).read_bytes() == (refined / name).read_bytes()

    def test_unknown_split_rejected(self, pf_data, pf_models, tmp_path):
        base, eps = pf_models
        assert (
            run_cli("refine", "--model", base, "--eps", eps, "--data", pf_data,
                    "--out", tmp_path / "x", "--split", "holdout") == 2
        )

    def test_print_config_lists_the_three_knobs(self, capsys):
        assert run_cli("refine", "--model", "x", "--eps", "y", "--data", "z", "--print-config") == 0
        assert set(json.loads(capsys.readouterr().out)) == {"steps", "start_step", "lam"}

    @pytest.mark.parametrize(
        "key, value",
        [("mode", "standard"), ("eta", 0.0), ("noised_start", False), ("gamma_clip", None),
         ("grad_floor", 1e-10)],
    )
    def test_removed_key_rejected(self, pf_data, pf_models, tmp_path, key, value):
        base, eps = pf_models
        cfg = write_json(tmp_path / "cfg.json", {"steps": 6, key: value})
        out = tmp_path / "r"
        got = _quiet_cli("refine", "--model", base, "--eps", eps, "--data", pf_data,
                         "--config", cfg, "--out", out)
        _assert_one_error(*got, 2, "ConfigError")
        assert not out.exists()


class TestSolvePf:
    def test_nominal_table(self, capsys):
        assert run_cli("solve-pf", "--case", "ieee14") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        kv = dict(line.split("\t") for line in lines[:6])
        assert kv["case"] == "ieee14"
        assert kv["converged"] == "true"
        assert int(kv["iterations"]) <= 10
        assert float(kv["max_mismatch_pu"]) < 1e-8
        bus_rows = lines[7:]
        assert len(bus_rows) == 14
        vm = [float(r.split("\t")[1]) for r in bus_rows]
        assert all(0.9 < v < 1.1 for v in vm)

    def test_injection_override_shifts_angles(self, tmp_path, capsys):
        assert run_cli("solve-pf", "--case", "ieee14") == 0
        nominal = capsys.readouterr().out.strip().split("\n")
        inj = write_json(tmp_path / "inj.json", {"pd_mw": {"3": 140.0}})
        assert run_cli("solve-pf", "--case", "ieee14", "--injections", inj) == 0
        heavier = capsys.readouterr().out.strip().split("\n")
        va_nom = float(nominal[9].split("\t")[2])
        va_heavy = float(heavier[9].split("\t")[2])
        assert va_heavy < va_nom  # more load at bus 3 pulls its angle down

    def test_unknown_injection_key(self, tmp_path):
        inj = write_json(tmp_path / "inj.json", {"pd": [0.0] * 14})
        assert run_cli("solve-pf", "--case", "ieee14", "--injections", inj) == 3

    @pytest.mark.parametrize("doc", [
        {"pd_mw": 5},
        {"pd_mw": {"2": None}},
        {"qd_mvar": {"2": [1.0]}},
        {"pd_mw": ["a"] * 14},
        {"pg_mw": [None] * 14},
        {"pd_mw": "a" * 14},
        [{"a": 1}],
        5,
    ])
    def test_malformed_injection_values(self, tmp_path, doc):
        inj = write_json(tmp_path / "inj.json", doc)
        code, lines = _quiet_cli("solve-pf", "--case", "ieee14", "--injections", inj)
        _assert_one_error(code, lines, 3, "DataError")

    def test_unknown_case_is_data_error(self, capsys):
        assert run_cli("solve-pf", "--case", "ieee99") == 3
        assert capsys.readouterr().err.startswith("error\t")


@pytest.fixture(scope="module")
def attack_cfg(workdir):
    return write_json(workdir / "attack.json", {"max_samples": 40, "cycles": 2, "tau": 8})


class TestAttack:
    def test_pgd_artifacts(self, workdir, tab_data, tab_models, attack_cfg):
        clf, _ = tab_models
        out = workdir / "atk_pgd"
        code = run_cli(
            "attack", "--kind", "pgd", "--data", tab_data, "--model", clf,
            "--config", attack_cfg, "--out", out,
        )
        assert code == 0
        rows = read_tsv(out / "report.tsv")
        assert rows[0][0] == "attack"
        assert rows[1][0] == "pgd"
        assert int(rows[1][1]) == 40
        assert 0.0 <= float(rows[1][3]) <= 100.0
        assert len((out / "samples.jsonl").read_text().strip().split("\n")) == 40
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "attack pgd"
        assert doc["config"]["max_samples"] == 40

    def test_cyclic_lowers_violation(self, workdir, tab_data, tab_models, attack_cfg, tmp_path):
        clf, eps = tab_models
        out_pgd = workdir / "atk_pgd"
        if not (out_pgd / "report.tsv").exists():
            pytest.skip("pgd artifacts missing")
        out = tmp_path / "atk_cyc"
        code = run_cli(
            "attack", "--kind", "cyclic", "--data", tab_data, "--model", clf,
            "--eps-model", eps, "--config", attack_cfg, "--out", out, "--workers", 2,
        )
        assert code == 0
        phi_pgd = float(read_tsv(out_pgd / "report.tsv")[1][4])
        phi_cyc = float(read_tsv(out / "report.tsv")[1][4])
        assert phi_cyc < phi_pgd

    def test_cyclic_requires_prior(self, tab_data, tab_models, tmp_path):
        clf, _ = tab_models
        assert (
            run_cli("attack", "--kind", "cyclic", "--data", tab_data,
                    "--model", clf, "--out", tmp_path / "x") == 2
        )

    def test_unknown_kind_rejected(self, tab_data, tab_models, tmp_path):
        clf, _ = tab_models
        assert (
            run_cli("attack", "--kind", "fgsm", "--data", tab_data,
                    "--model", clf, "--out", tmp_path / "x") == 2
        )

    @pytest.mark.parametrize("cap", [0, -3])
    def test_sample_cap_below_one_rejected(self, tab_data, tab_models, tmp_path, capsys, cap):
        clf, _ = tab_models
        cfg = write_json(tmp_path / "cfg.json", {"max_samples": cap})
        code = run_cli("attack", "--kind", "pgd", "--data", tab_data, "--model", clf,
                       "--config", cfg, "--out", tmp_path / "x")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error\tConfigError\tmax_samples must be at least 1, got {cap}\n"
        )


class TestToy:
    def test_single_start_artifacts(self, tmp_path, capsys):
        starts = write_json(tmp_path / "starts.json", {"figure_like": [[0.3, 0.25]]})
        out = tmp_path / "toy"
        assert run_cli("toy", "--starts", starts, "--out", out) == 0
        rows = read_tsv(out / "outcome.tsv")
        assert len(rows) == 1 + 3  # one start, three methods
        methods = {r[2]: r[6] for r in rows[1:]}
        assert set(methods) == {"gd", "nr", "refine"}
        assert methods["refine"] == "global"
        groups = read_tsv(out / "groups.tsv")
        assert groups[1:] == [["0", "figure_like"], ["1", "figure_like"], ["2", "figure_like"]]
        names = sorted(p.name for p in (out / "trajectories").iterdir())
        assert names == ["row_000_gd.tsv", "row_001_nr.tsv", "row_002_refine.tsv"]
        assert (out / "manifest.json").exists()
        assert "refine: global" in capsys.readouterr().out

    def test_bad_starts_file(self, tmp_path):
        bad = tmp_path / "starts.json"
        bad.write_text("{not json")
        assert run_cli("toy", "--starts", bad, "--out", tmp_path / "toy") == 3

    @pytest.mark.parametrize("doc", [
        [[0.3, 0.25]],
        {"starts": [[0.3, 0.25]]},
        {"g": [[0.3, "x"]]},
        {"g": [[0.3]]},
        {"g": [[0.3, 0.25, 1.0]]},
        {"g": [0.3, 0.25]},
        {"g": [[0.3, None]]},
        {"starts": {"g": 5}},
    ])
    def test_malformed_starts_fail_before_training(self, tmp_path, monkeypatch, doc):
        def never(*args, **kwargs):
            raise AssertionError("the toy prior trained on malformed starts")

        import diffrefine.diffusion

        monkeypatch.setattr(diffrefine.diffusion, "train_noise_model", never)
        starts = write_json(tmp_path / "starts.json", doc)
        code, lines = _quiet_cli("toy", "--starts", starts, "--out", tmp_path / "toy")
        _assert_one_error(code, lines, 3, "DataError")


class TestBenchRemoved:
    def test_bench_is_not_a_subcommand(self):
        # perfbench/run.py is the one timing harness.
        _assert_one_error(*_quiet_cli("bench", "--track", "pf"), 2, "ConfigError")


def _checkout_env() -> dict:
    """This environment with the checkout's sources first on the import
    path, so a child process runs the code under test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return os.environ | {"PYTHONPATH": path}


class TestEntryPoint:
    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diffrefine.cli", "solve-pf", "--case", "ieee14"],
            capture_output=True, text=True, timeout=120, env=_checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("key\tvalue")

    def test_error_exit_code_crosses_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diffrefine.cli", "train", "base",
             "--data", "/nonexistent", "--out", "/tmp/never"],
            capture_output=True, text=True, timeout=120, env=_checkout_env(),
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error\tDataError\t")
