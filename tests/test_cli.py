import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimasr import cli, corpus, encoding, ensemble, trainer
from dimasr.corpus import VA_MAX, VA_MIN, PairID, ParseError, parse_va
from dimasr.encoding import EncoderSpec
from dimasr.trainer import CHECKPOINT_MAGIC
from synth import SYNTH_PAIRS, make_instances, write_raw_dir

VA_2DP = re.compile(r"^-?\d+\.\d{2}#-?\d+\.\d{2}$")

RUN_CONFIG = {
    "encoder": {"backend": "toy-deterministic", "template": "bert-style",
                "max_len": 32, "hidden_size": 16, "vocab_size": 50000,
                "seed": 0, "trainable_layer": True, "model_name": None},
    "seed": 42,
    "patience": 2,
    "validation_fraction": 0.1,
}


def tree_hashes(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run(argv) -> int:
    return cli.main(argv)


SRC_ROOT = Path(cli.__file__).resolve().parents[1]
TINY_GRID = [{"batch_size": 8, "learning_rate": 0.01, "max_epochs": 2,
              "bounded": bounded} for bounded in (True, False)]


def python_env(**overrides) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this dimasr."""
    path = os.pathsep.join(filter(None, [str(SRC_ROOT),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


@pytest.fixture(scope="module")
def raw_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    write_raw_dir(root / "train", n_records=14, seed=42)
    write_raw_dir(root / "dev", n_records=6, seed=7)
    write_raw_dir(root / "test", n_records=6, seed=9, with_gold=False,
                  anomalies=False)
    return root


def run_pipeline(raw: Path, work: Path, config_path: Path) -> None:
    assert run(["preprocess", "--input", str(raw / "train"),
                "--out", str(work / "insts/train")]) == 0
    assert run(["preprocess", "--input", str(raw / "dev"),
                "--out", str(work / "insts/dev")]) == 0
    assert run(["preprocess", "--input", str(raw / "test"),
                "--out", str(work / "insts/test")]) == 0
    assert run(["train", "--data", str(work / "insts/train"),
                "--out", str(work / "ckpts"),
                "--config", str(config_path), "--seed", "42"]) == 0
    assert run(["predict", "--ckpts", str(work / "ckpts"),
                "--data", str(work / "insts/dev"),
                "--out", str(work / "preds/dev")]) == 0
    assert run(["predict", "--ckpts", str(work / "ckpts"),
                "--data", str(work / "insts/test"),
                "--out", str(work / "preds/test")]) == 0
    assert run(["ensemble", "--dev-preds", str(work / "preds/dev"),
                "--test-preds", str(work / "preds/test"),
                "--dev-gold", str(work / "insts/dev"),
                "--out", str(work / "ens")]) == 0
    assert run(["evaluate", "--pred", str(work / "ens/dev"),
                "--gold", str(work / "insts/dev"),
                "--out", str(work / "eval")]) == 0
    assert run(["submit", "--pred", str(work / "ens/test"),
                "--out", str(work / "submission")]) == 0


def gold_with_duplicate(src: Path, dest: Path) -> str:
    """Copy the instance dir src to dest with one file's first record appended
    again; returns the error line that file must raise."""
    shutil.copytree(src, dest)
    path = dest / f"{SYNTH_PAIRS[0]}.json"
    rows = json.loads(path.read_text())
    path.write_text(json.dumps(rows + rows[:1]), encoding="utf-8")
    return (f"error: {path}: record {len(rows)}: field 'ID, Aspect': duplicate "
            f"key, first at record 0")


def single_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def copy_without_field(src: Path, dest: Path, field: str,
                       record: int = 1) -> Path:
    """Copy the per-pair dir src to dest with `field` deleted from one
    record of its first pair's file; returns that file."""
    shutil.copytree(src, dest)
    path = dest / f"{SYNTH_PAIRS[0]}.json"
    rows = json.loads(path.read_text())
    del rows[record][field]
    path.write_text(json.dumps(rows), encoding="utf-8")
    return path


PIPELINE_SECONDS = {}


@pytest.fixture(scope="module")
def pipeline(raw_data, tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    config_path = work / "run.json"
    config_path.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
    start = time.perf_counter()
    run_pipeline(raw_data, work, config_path)
    PIPELINE_SECONDS["toy"] = time.perf_counter() - start
    return work


class TestPipelineTiming:
    def test_toy_pipeline_well_under_five_minutes(self, pipeline):
        assert PIPELINE_SECONDS["toy"] < 300.0


class TestPreprocessStage:
    def test_instance_file_per_pair_plus_report(self, pipeline):
        names = {p.name for p in (pipeline / "insts/train").glob("*.json")}
        expected = {f"{pair}.json" for pair in SYNTH_PAIRS}
        assert expected <= names
        report = json.loads((pipeline / "insts/train/report.json").read_text())
        assert set(report["pairs"]) == set(SYNTH_PAIRS)
        total = report["total"]
        dropped = (total["null_aspect_drops"] + total["out_of_range_drops"]
                   + total["duplicate_aspect_drops"])
        assert total["quadruplets_in"] == dropped + total["instances_out"]

    def test_rerun_is_byte_identical(self, raw_data, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["preprocess", "--input", str(raw_data / "train"),
                        "--out", str(out)]) == 0
        assert tree_hashes(out_a) == tree_hashes(out_b)

    def test_null_only_file_yields_empty_instances(self, tmp_path):
        rows = [{"ID": "r0", "Text": "implicit only",
                 "Quadruplets": [{"Aspect": "NULL", "VA": "5.0#5.0"}]}]
        src = tmp_path / "in"
        src.mkdir()
        (src / "zzz-res.json").write_text(json.dumps(rows), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["preprocess", "--input", str(src), "--out", str(out)]) == 0
        assert json.loads((out / "zzz-res.json").read_text()) == []
        report = json.loads((out / "report.json").read_text())
        assert report["pairs"]["zzz-res"]["null_aspect_drops"] == 1

    def test_parse_failure_nonzero_exit_with_diagnostics(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        (src / "zzz-res.json").write_text('[{"ID": "a"}]', encoding="utf-8")
        out = tmp_path / "out"
        assert run(["preprocess", "--input", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "record 0" in err and "Text" in err
        assert not out.exists()   # every file is parsed before any is written

    @pytest.mark.parametrize("damage", ["not UTF-8", "directory"])
    def test_unreadable_raw_file_names_path(self, raw_data, tmp_path, capsys,
                                            damage):
        src = tmp_path / "in"
        shutil.copytree(raw_data / "train", src)
        if damage == "directory":
            bad = src / "fr-res.json"
            bad.mkdir()
        else:
            bad = src / "eng-res.json"
            bad.write_bytes('[{"ID": "r0", "Text": "café"}]'.encode("latin-1"))
        out = tmp_path / "out"
        assert run(["preprocess", "--input", str(src), "--out", str(out)]) == 1
        assert single_error_line(capsys).startswith(f"error: {bad}: ")
        assert not out.exists()

    def test_pairs_filter(self, raw_data, tmp_path):
        out = tmp_path / "filtered"
        assert run(["preprocess", "--input", str(raw_data / "train"),
                    "--out", str(out), "--pairs", SYNTH_PAIRS[0]]) == 0
        files = {p.name for p in out.glob("*.json")}
        assert files == {f"{SYNTH_PAIRS[0]}.json", "report.json",
                         "manifest.json"}


class TestTrainStage:
    def test_default_grid_emits_seven_checkpoints(self, pipeline):
        ckpts = sorted(p.name for p in (pipeline / "ckpts").glob("*.ckpt"))
        assert ckpts == [f"M{i}.ckpt" for i in range(1, 8)]

    def test_training_logs_written(self, pipeline):
        log = (pipeline / "ckpts/M1.log").read_text()
        assert re.search(r"epoch 1 train_mse \d+\.\d+ val_rmse \d+\.\d+", log)

    def test_flag_pattern_five_bounded_two_raw(self, pipeline):
        from dimasr.trainer import Checkpoint
        flags = {}
        for path in sorted((pipeline / "ckpts").glob("*.ckpt")):
            ckpt = Checkpoint.load(path)
            flags[ckpt.id] = ckpt.config.bounded
        assert flags == {"M1": True, "M2": False, "M3": True, "M4": True,
                         "M5": True, "M6": True, "M7": False}

    def test_separate_regime_emits_per_pair_checkpoints(self, raw_data,
                                                        tmp_path, pipeline):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(
            {**RUN_CONFIG, "grid": [{"batch_size": 8, "learning_rate": 0.01,
                                     "max_epochs": 2, "bounded": True}]}),
            encoding="utf-8")
        out = tmp_path / "sep"
        assert run(["train", "--data", str(pipeline / "insts/train"),
                    "--out", str(out), "--config", str(config_path),
                    "--regime", "separate"]) == 0
        names = sorted(p.stem for p in out.glob("*.ckpt"))
        assert names == sorted(SYNTH_PAIRS)
        for name in names:
            ckpt = trainer.Checkpoint.load(out / f"{name}.ckpt")
            assert ckpt.id == name
            assert ckpt.config.regime == "separate"

    def test_seed_flag_wins_over_grid_entry_seeds(self, pipeline, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(
            {**RUN_CONFIG, "grid": [{**entry, "seed": 7} for entry in TINY_GRID]}),
            encoding="utf-8")
        _, grid, _ = cli.load_run_config(str(config_path), 5, "joint")
        assert [c.seed for c in grid] == [5, 5]
        out = tmp_path / "ckpts"
        assert run(["train", "--data", str(pipeline / "insts/train"),
                    "--out", str(out), "--config", str(config_path),
                    "--seed", "5"]) == 0
        for path in sorted(out.glob("*.ckpt")):
            header = json.loads(path.read_bytes().split(b"\n", 1)[0])
            assert header["seed"] == header["config"]["seed"] == 5

    def test_integer_spelling_of_a_float_writes_the_same_bytes(self, pipeline,
                                                                tmp_path):
        outs = []
        for rate, dropout in (("1", "0"), ("1.0", "0.0")):
            config_path = tmp_path / rate / "run.json"
            config_path.parent.mkdir()
            entry = {**TINY_GRID[0], "learning_rate": "@", "dropout_rate": "#"}
            config_path.write_text(json.dumps({**RUN_CONFIG, "grid": [entry]})
                                   .replace('"@"', rate).replace('"#"', dropout),
                                   encoding="utf-8")
            outs.append(tmp_path / rate / "ckpts")
            assert run(["train", "--data", str(pipeline / "insts/train"),
                        "--out", str(outs[-1]), "--config", str(config_path)]) == 0
        assert (outs[0] / "M1.ckpt").read_bytes() == (outs[1] / "M1.ckpt").read_bytes()
        # The manifest hashes the run.json file itself, whose bytes differ;
        # everything else in it must be byte-identical.
        manifests = []
        for out in outs:
            body = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            del body["run_id"], body["inputs"]["config/run.json"]
            manifests.append(json.dumps(body, sort_keys=True))
        assert manifests[0] == manifests[1]

    def test_grid_entry_wins_over_file_wide_values(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(
            {"seed": 3, "patience": 4, "dropout_rate": 0.2,
             "grid": [TINY_GRID[0], {**TINY_GRID[1], "seed": 7, "patience": 1}]}),
            encoding="utf-8")
        _, grid, _ = cli.load_run_config(str(config_path), None, "joint")
        assert [(c.seed, c.patience, c.dropout_rate) for c in grid] == \
            [(3, 4, 0.2), (7, 1, 0.2)]

    def test_width_one_encoder_trains_and_predicts(self, pipeline, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(
            {**RUN_CONFIG, "encoder": {**RUN_CONFIG["encoder"], "hidden_size": 1},
             "grid": TINY_GRID}), encoding="utf-8")
        assert run(["train", "--data", str(pipeline / "insts/train"),
                    "--out", str(tmp_path / "ckpts"),
                    "--config", str(config_path)]) == 0
        assert run(["predict", "--ckpts", str(tmp_path / "ckpts"),
                    "--data", str(pipeline / "insts/dev"),
                    "--out", str(tmp_path / "preds")]) == 0
        for pair in SYNTH_PAIRS:
            gold = json.loads((pipeline / "insts/dev" / f"{pair}.json").read_text())
            for mid in ("M1", "M2"):
                assert trainer.Checkpoint.load(
                    tmp_path / "ckpts" / f"{mid}.ckpt").encoder_spec.hidden_size == 1
                rows = json.loads((tmp_path / "preds" / mid / f"{pair}.json").read_text())
                assert [(r["ID"], r["Aspect"]) for r in rows] == \
                    [(g["ID"], g["Aspect"]) for g in gold]
            bounded = json.loads((tmp_path / "preds/M1" / f"{pair}.json").read_text())
            assert all(VA_MIN < x < VA_MAX
                       for r in bounded for x in parse_va(r["VA"]))

    @pytest.mark.parametrize("key,entry", [
        ("patiense", {"patiense": 3}),
        ("bogus", {"grid": [{"batch_size": 8, "learning_rate": 0.01,
                             "max_epochs": 1, "bounded": True, "bogus": 1}]}),
    ])
    def test_unknown_config_key_rejected(self, pipeline, tmp_path, capsys,
                                         key, entry):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({**RUN_CONFIG, **entry}),
                               encoding="utf-8")
        with pytest.raises(ValueError, match=key):
            cli.load_run_config(str(config_path), None, "joint")
        out = tmp_path / "ckpts"
        assert run(["train", "--data", str(pipeline / "insts/train"),
                    "--out", str(out), "--config", str(config_path)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body,message", [
        ([RUN_CONFIG], "run.json: not a JSON object"),
        ({"grid": {"batch_size": 8}}, "run.json: key 'grid': no entries"),
        ({"patience": 0}, "run.json: patience must be >= 1, got 0"),
        ({"dropout_rate": 1.5}, "run.json: dropout_rate must be in [0, 1), got 1.5"),
        ({"validation_fraction": 2},
         "run.json: key 'validation_fraction': must be in (0, 1), got 2"),
    ])
    def test_config_shape_and_values_rejected(self, tmp_path, body, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(body), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            cli.load_run_config(str(config_path), None, "joint")
        assert str(exc.value) == f"{tmp_path}/{message}"


def count_feature_calls(monkeypatch) -> list[tuple]:
    """Record each `instance_features` call as (instances per pair, spec)."""
    calls = []
    real = encoding.instance_features

    def counting(instances, spec):
        calls.append((Counter(str(inst.pair) for inst in instances), spec))
        return real(instances, spec)

    monkeypatch.setattr(encoding, "instance_features", counting)
    return calls


def instances_per_pair(data: Path) -> Counter:
    return Counter({pair: len(json.loads((data / f"{pair}.json").read_text()))
                    for pair in SYNTH_PAIRS})


class TestPredictStage:
    def test_each_pair_encoded_once_for_shared_spec(self, pipeline, tmp_path,
                                                     monkeypatch):
        # One call encodes every instance of every pair.
        calls = count_feature_calls(monkeypatch)
        out = tmp_path / "preds"
        assert run(["predict", "--ckpts", str(pipeline / "ckpts"),
                    "--data", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 0
        assert [per_pair for per_pair, _ in calls] == [
            instances_per_pair(pipeline / "insts/dev")]
        assert tree_hashes(out) == tree_hashes(pipeline / "preds/dev")

    def test_each_pair_encoded_once_per_distinct_spec(self, pipeline, tmp_path,
                                                      monkeypatch):
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        for mid in ("M1", "M2"):
            (ckpts / f"{mid}.ckpt").write_bytes(
                (pipeline / "ckpts" / f"{mid}.ckpt").read_bytes())
        other = EncoderSpec(**{**RUN_CONFIG["encoder"], "seed": 1})
        trainer.train(make_instances("aaa-res", 12, seed=0),
                      make_instances("aaa-res", 4, seed=1),
                      trainer.TrainConfig(batch_size=4, learning_rate=0.01,
                                          max_epochs=1, bounded=True),
                      other, ckpt_id="X1").save(ckpts / "X1.ckpt")
        calls = count_feature_calls(monkeypatch)
        out = tmp_path / "preds"
        assert run(["predict", "--ckpts", str(ckpts),
                    "--data", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 0
        every_pair = instances_per_pair(pipeline / "insts/dev")
        assert calls == [(every_pair, EncoderSpec(**RUN_CONFIG["encoder"])),
                         (every_pair, other)]
        for mid in ("M1", "M2"):
            for pair in SYNTH_PAIRS:
                rel = f"{mid}/{pair}.json"
                assert ((out / rel).read_bytes()
                        == (pipeline / "preds/dev" / rel).read_bytes())

    def test_prediction_files_per_checkpoint_and_pair(self, pipeline):
        for mid in (f"M{i}" for i in range(1, 8)):
            for pair in SYNTH_PAIRS:
                path = pipeline / "preds/dev" / mid / f"{pair}.json"
                assert path.exists()

    def test_one_prediction_per_instance(self, pipeline):
        for pair in SYNTH_PAIRS:
            instances = json.loads(
                (pipeline / "insts/dev" / f"{pair}.json").read_text())
            preds = json.loads(
                (pipeline / "preds/dev/M1" / f"{pair}.json").read_text())
            assert len(preds) == len(instances)
            assert {(p["ID"], p["Aspect"]) for p in preds} == \
                   {(i["ID"], i["Aspect"]) for i in instances}

    def test_stray_file_in_data_dir_names_path(self, pipeline, tmp_path,
                                               capsys):
        data = tmp_path / "insts"
        shutil.copytree(pipeline / "insts/dev", data)
        stray = data / "notes.json"
        stray.write_text("[]", encoding="utf-8")
        out = tmp_path / "preds"
        assert run(["predict", "--ckpts", str(pipeline / "ckpts"),
                    "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(stray) in err[0]
        assert not out.exists()


    @pytest.mark.parametrize("field", ["ID", "Text", "Aspect"])
    def test_instance_record_without_field_names_record(self, pipeline,
                                                        tmp_path, capsys, field):
        bad = copy_without_field(pipeline / "insts/dev", tmp_path / "data", field)
        out = tmp_path / "preds"
        assert run(["predict", "--ckpts", str(pipeline / "ckpts"),
                    "--data", str(tmp_path / "data"), "--out", str(out)]) == 1
        assert single_error_line(capsys) == \
            f"error: {bad}: record 1: field {field!r}: missing"
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["cut-header", "short-payload",
                                        "bad-magic"])
    def test_damaged_checkpoint_names_path(self, pipeline, tmp_path, capsys,
                                           damage):
        ckpts = tmp_path / "ckpts"
        shutil.copytree(pipeline / "ckpts", ckpts)
        damaged = ckpts / "M3.ckpt"
        blob = damaged.read_bytes()
        damaged.write_bytes({
            "cut-header": blob[:blob.index(b"\n") // 2],
            "short-payload": blob[:-12],
            "bad-magic": blob.replace(CHECKPOINT_MAGIC.encode(),
                                      b"dimasr-checkpoint-v0", 1),
        }[damage])
        out = tmp_path / "preds"
        assert run(["predict", "--ckpts", str(ckpts),
                    "--data", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(damaged) in err[0]
        assert not out.exists()


class TestEvaluateStage:
    def test_perfect_predictions_score_zero(self, pipeline, tmp_path):
        pred_dir = tmp_path / "perfect"
        pred_dir.mkdir()
        for pair in SYNTH_PAIRS:
            rows = json.loads(
                (pipeline / "insts/dev" / f"{pair}.json").read_text())
            preds = [{"ID": r["ID"], "Aspect": r["Aspect"], "VA": r["VA"]}
                     for r in rows]
            (pred_dir / f"{pair}.json").write_text(json.dumps(preds),
                                                   encoding="utf-8")
        out = tmp_path / "eval"
        assert run(["evaluate", "--pred", str(pred_dir),
                    "--gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["average"] == 0.0
        assert all(v == 0.0 for v in report["per_pair"].values())

    @pytest.mark.parametrize("damage", ["cut", "duplicate"])
    def test_misaligned_prediction_names_file_and_key(self, pipeline, tmp_path,
                                                      capsys, damage):
        pred_dir = tmp_path / "preds"
        shutil.copytree(pipeline / "preds/dev/M1", pred_dir)
        bad = pred_dir / f"{SYNTH_PAIRS[0]}.json"
        rows = json.loads(bad.read_text())
        key = (rows[-1]["ID"], rows[-1]["Aspect"])
        rows = rows[:-1] if damage == "cut" else rows + rows[-1:]
        bad.write_text(json.dumps(rows), encoding="utf-8")
        out = tmp_path / "eval"
        gold = pipeline / "insts/dev"
        assert run(["evaluate", "--pred", str(pred_dir), "--gold", str(gold),
                    "--out", str(out)]) == 1
        err = single_error_line(capsys)
        if damage == "cut":   # alignment names both files
            assert err.startswith(f"error: {bad}: ")
            assert str(gold / bad.name) in err and f"missing key {key}" in err
        else:   # the file's own read refuses a repeated key
            assert err == (f"error: {bad}: record {len(rows) - 1}: field 'ID, "
                           f"Aspect': duplicate key, first at record {len(rows) - 2}")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["ID", "Aspect", "VA"])
    def test_prediction_record_without_field_names_record(self, pipeline,
                                                          tmp_path, capsys,
                                                          field):
        bad = copy_without_field(pipeline / "ens/dev", tmp_path / "preds", field)
        out = tmp_path / "eval"
        assert run(["evaluate", "--pred", str(tmp_path / "preds"),
                    "--gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        assert single_error_line(capsys) == \
            f"error: {bad}: record 1: field {field!r}: missing"
        assert not out.exists()

    def test_gold_without_va_names_file_and_record(self, pipeline, tmp_path,
                                                   capsys):
        # A test split carries no VA; passing it as gold is a one-line error.
        gold = pipeline / "insts/test"
        out = tmp_path / "eval"
        assert run(["evaluate", "--pred", str(pipeline / "ens/test"),
                    "--gold", str(gold), "--out", str(out)]) == 1
        assert single_error_line(capsys) == \
            f"error: {gold / SYNTH_PAIRS[0]}.json: record 0: field 'VA': missing"
        assert not out.exists()

    def test_duplicate_gold_record_names_file(self, pipeline, tmp_path, capsys):
        expected = gold_with_duplicate(pipeline / "insts/dev", tmp_path / "gold")
        out = tmp_path / "eval"
        assert run(["evaluate", "--pred", str(pipeline / "ens/dev"),
                    "--gold", str(tmp_path / "gold"), "--out", str(out)]) == 1
        assert single_error_line(capsys) == expected
        assert not out.exists()

    def test_report_files_written(self, pipeline):
        report = json.loads((pipeline / "eval/report.json").read_text())
        assert set(report["per_pair"]) == set(SYNTH_PAIRS)
        table = (pipeline / "eval/report.txt").read_text()
        assert "Avg." in table


class TestEnsembleStage:
    def test_selection_and_matrix_written(self, pipeline):
        selection = json.loads((pipeline / "ens/selection.json").read_text())
        assert selection["member_ids"] == [f"M{i}" for i in range(1, 8)]
        for pair in SYNTH_PAIRS:
            entry = selection["per_pair"][pair]
            assert 2 <= len(entry["subset"]) <= 7
            assert entry["n_scored"] == 120
        matrix = (pipeline / "ens/membership.txt").read_text()
        assert "✓" in matrix and "Number" in matrix

    def test_selection_beats_every_single_model_on_dev(self, pipeline):
        selection = json.loads((pipeline / "ens/selection.json").read_text())
        report = json.loads((pipeline / "ens/dev_report.json").read_text())
        for pair in SYNTH_PAIRS:
            assert report["per_pair"][pair] == pytest.approx(
                selection["per_pair"][pair]["dev_rmse"], abs=1e-12)

    def copy_members(self, pipeline, root, pairs=SYNTH_PAIRS):
        """Copy the dev predictions of M1 and M2 into a fresh member root."""
        for mid in ("M1", "M2"):
            for pair in pairs:
                dest = root / mid / f"{pair}.json"
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(
                    (pipeline / "preds/dev" / mid / f"{pair}.json").read_bytes())

    def pick_member(self, pipeline, selected: bool) -> tuple[str, str]:
        """A (pair, member) whose member is, or is not, in the pair's subset."""
        selection = json.loads((pipeline / "ens/selection.json").read_text())
        return next(
            (pair, mid) for pair in SYNTH_PAIRS for mid in selection["member_ids"]
            if (mid in selection["per_pair"][pair]["subset"]) == selected)

    def test_two_member_pool_forced_selection(self, pipeline, tmp_path):
        root = tmp_path / "two"
        self.copy_members(pipeline, root)
        out = tmp_path / "ens2"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 0
        selection = json.loads((out / "selection.json").read_text())
        for pair in SYNTH_PAIRS:
            assert selection["per_pair"][pair]["subset"] == ["M1", "M2"]

    def test_non_finite_member_prediction_fails(self, pipeline, tmp_path,
                                                capsys):
        root = tmp_path / "preds"
        self.copy_members(pipeline, root)
        poisoned = root / "M1" / f"{SYNTH_PAIRS[0]}.json"
        rows = json.loads(poisoned.read_text())
        rows[0]["VA"] = "nan#5.0"
        poisoned.write_text(json.dumps(rows), encoding="utf-8")
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(poisoned) in err and "nan#5.0" in err
        assert not out.exists()

    def test_pair_coverage_checked_before_writing(self, pipeline, tmp_path,
                                                  capsys):
        root = tmp_path / "preds"
        self.copy_members(pipeline, root, pairs=SYNTH_PAIRS[:1])
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert all(pair in err[0] for pair in SYNTH_PAIRS[1:])
        assert not out.exists()

    def test_stray_file_in_member_dir_names_path(self, pipeline, tmp_path,
                                                 capsys):
        root = tmp_path / "preds"
        self.copy_members(pipeline, root)
        stray = root / "M1" / "notes.json"
        stray.write_text("[]", encoding="utf-8")
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(stray) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("selected", [True, False])
    def test_test_coverage_checked_before_writing(self, pipeline, tmp_path,
                                                  capsys, selected):
        pair, member = self.pick_member(pipeline, selected)
        preds = tmp_path / "preds"
        shutil.copytree(pipeline / "preds", preds)
        (preds / "test" / member / f"{pair}.json").unlink()
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(preds / "dev"),
                    "--test-preds", str(preds / "test"),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{member} [{pair}]" in err[0]
        assert not out.exists()

    def test_misaligned_dev_member_names_file_and_key(self, pipeline, tmp_path,
                                                      capsys):
        root = tmp_path / "preds"
        self.copy_members(pipeline, root)
        cut = root / "M2" / f"{SYNTH_PAIRS[0]}.json"
        rows = json.loads(cut.read_text())
        cut.write_text(json.dumps(rows[:-1]), encoding="utf-8")
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cut}: ")
        assert f"missing key {(rows[-1]['ID'], rows[-1]['Aspect'])}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("selected", [True, False])
    def test_misaligned_test_member_names_file_and_key(self, pipeline, tmp_path,
                                                       capsys, selected):
        pair, member = self.pick_member(pipeline, selected)
        preds = tmp_path / "preds"
        shutil.copytree(pipeline / "preds", preds)
        cut = preds / "test" / member / f"{pair}.json"
        rows = json.loads(cut.read_text())
        cut.write_text(json.dumps(rows[:-1]), encoding="utf-8")
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(preds / "dev"),
                    "--test-preds", str(preds / "test"),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        # The first member's file is the reference, so a cut in it shows up
        # as an extra key in the next member; the line names both files.
        assert str(cut) in err[0]
        assert str((rows[-1]["ID"], rows[-1]["Aspect"])) in err[0]
        assert not out.exists()

    def test_duplicate_in_first_test_member_names_file(self, pipeline, tmp_path,
                                                       capsys):
        # The first member's test file is the test reference; reading it
        # refuses the repeat.
        preds = tmp_path / "preds"
        shutil.copytree(pipeline / "preds", preds)
        path = preds / "test" / "M1" / f"{SYNTH_PAIRS[0]}.json"
        rows = json.loads(path.read_text())
        path.write_text(json.dumps(rows + rows[:1]), encoding="utf-8")
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(preds / "dev"),
                    "--test-preds", str(preds / "test"),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = single_error_line(capsys)
        assert err.startswith(f"error: {path}: ") and "duplicate key" in err
        assert not out.exists()

    def test_shuffled_dev_member_leaves_every_output(self, pipeline, tmp_path):
        # Each dev member file is aligned to the gold keys as it is read, so
        # its own record order moves no output byte.
        outs = []
        for name, order in (("kept", 1), ("reversed", -1)):
            root = tmp_path / name
            self.copy_members(pipeline, root)
            path = root / "M1" / f"{SYNTH_PAIRS[0]}.json"
            path.write_text(json.dumps(json.loads(path.read_text())[::order]),
                            encoding="utf-8")
            outs.append(tmp_path / f"ens-{name}")
            assert run(["ensemble", "--dev-preds", str(root),
                        "--dev-gold", str(pipeline / "insts/dev"),
                        "--out", str(outs[-1])]) == 0
        kept, moved = (tree_hashes(out) for out in outs)
        del kept["manifest.json"], moved["manifest.json"]   # input hashes differ
        assert kept == moved
        gold = json.loads((pipeline / "insts/dev" / f"{SYNTH_PAIRS[0]}.json").read_text())
        rows = json.loads((outs[1] / "dev" / f"{SYNTH_PAIRS[0]}.json").read_text())
        assert [(r["ID"], r["Aspect"]) for r in rows] == \
            [(g["ID"], g["Aspect"]) for g in gold]

    def test_first_member_missing_a_gold_key_names_both_files(self, pipeline,
                                                              tmp_path, capsys):
        root = tmp_path / "preds"
        self.copy_members(pipeline, root)
        cut = root / "M1" / f"{SYNTH_PAIRS[0]}.json"
        rows = json.loads(cut.read_text())
        cut.write_text(json.dumps(rows[1:]), encoding="utf-8")
        gold = pipeline / "insts/dev" / f"{SYNTH_PAIRS[0]}.json"
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        assert single_error_line(capsys) == (
            f"error: {cut}: (ID, Aspect) keys differ from {gold}: first missing "
            f"key {(rows[0]['ID'], rows[0]['Aspect'])}")
        assert not out.exists()

    def test_peak_memory_grows_less_than_a_key_list_per_member(self, tmp_path):
        """Traced peak of an in-process `ensemble` on pools of 2 and 12
        members over the same gold: each extra member may add its aligned
        values and its share of the search, but not its own key lists."""
        rng = random.Random(3)
        pairs, n = SYNTH_PAIRS[:2], 2000

        def va():
            return f"{rng.uniform(1, 9)!r}#{rng.uniform(1, 9)!r}"
        for pair in pairs:
            keys = [(f"{pair}-{i:05d}", f"aspect {i % 7}") for i in range(n)]
            gold = tmp_path / "gold" / f"{pair}.json"
            gold.parent.mkdir(parents=True, exist_ok=True)
            gold.write_text(json.dumps([{"ID": rid, "Aspect": aspect, "VA": va()}
                                        for rid, aspect in keys]))
            for size in (2, 12):
                for m in range(size):
                    rows = [{"ID": rid, "Aspect": aspect, "VA": va()}
                            for rid, aspect in keys]
                    rng.shuffle(rows)
                    path = tmp_path / f"pool{size}" / f"M{m:02d}" / f"{pair}.json"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(json.dumps(rows))

        def traced(step):
            """(size, peak) traced while `step` runs, its result still held."""
            tracemalloc.start()
            try:
                result = step()   # noqa: F841
                return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        key_bytes = traced(lambda: [
            cli.load_predictions(tmp_path / "pool2/M00" / f"{pair}.json")[0]
            for pair in pairs])[0]
        peaks = {size: traced(lambda: run([
                     "ensemble", "--dev-preds", str(tmp_path / f"pool{size}"),
                     "--dev-gold", str(tmp_path / "gold"),
                     "--out", str(tmp_path / f"ens{size}")]))[1]
                 for size in (2, 12)}
        per_member = (peaks[12] - peaks[2]) / 10
        assert per_member < 0.5 * key_bytes, (per_member, key_bytes)

    def test_pool_over_max_size_rejected(self, pipeline, tmp_path, capsys):
        root = tmp_path / "preds"
        n = ensemble.MAX_POOL_SIZE + 1
        for i in range(1, n + 1):
            shutil.copytree(pipeline / "preds/dev/M1", root / f"M{i:02d}")
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out)]) == 1
        err = single_error_line(capsys)
        assert str(root) in err and f"holds {n} member" in err
        assert not out.exists()

    def test_duplicate_gold_record_names_file(self, pipeline, tmp_path, capsys):
        root = tmp_path / "preds"
        self.copy_members(pipeline, root)
        expected = gold_with_duplicate(pipeline / "insts/dev", tmp_path / "gold")
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(tmp_path / "gold"), "--out", str(out)]) == 1
        assert single_error_line(capsys) == expected
        assert not out.exists()

    def test_test_split_as_dev_gold_names_file_and_record(self, pipeline,
                                                          tmp_path, capsys):
        gold = pipeline / "insts/test"
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(pipeline / "preds/test"),
                    "--dev-gold", str(gold), "--out", str(out)]) == 1
        assert single_error_line(capsys) == \
            f"error: {gold / SYNTH_PAIRS[0]}.json: record 0: field 'VA': missing"
        assert not out.exists()

    def test_min_size_above_pool_rejected(self, pipeline, tmp_path, capsys):
        root = tmp_path / "preds"
        self.copy_members(pipeline, root)
        out = tmp_path / "ens"
        assert run(["ensemble", "--dev-preds", str(root),
                    "--dev-gold", str(pipeline / "insts/dev"),
                    "--out", str(out), "--min-size", "3"]) == 1
        err = single_error_line(capsys)
        assert str(root) in err and "holds 2 member" in err and "need 3" in err
        assert not out.exists()

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            cli.canonical_json({"dev_rmse": float("nan")})


class TestSubmitStage:
    def test_submission_grammar_and_coverage(self, pipeline):
        for pair in SYNTH_PAIRS:
            rows = json.loads(
                (pipeline / "submission" / f"{pair}.json").read_text())
            instances = json.loads(
                (pipeline / "insts/test" / f"{pair}.json").read_text())
            assert len(rows) == len(instances)
            for row in rows:
                assert VA_2DP.match(row["VA"])
                score = parse_va(row["VA"])
                assert VA_MIN <= score.valence <= VA_MAX
                assert VA_MIN <= score.arousal <= VA_MAX

    def test_no_clamp_flag_preserves_raw_values(self, tmp_path):
        pred_dir = tmp_path / "p"
        pred_dir.mkdir()
        rows = [{"ID": "r0", "Aspect": "x", "VA": "11.5#0.25"}]
        (pred_dir / "zzz-res.json").write_text(json.dumps(rows))
        clamped, raw = tmp_path / "clamped", tmp_path / "raw"
        assert run(["submit", "--pred", str(pred_dir), "--out", str(clamped)]) == 0
        assert run(["submit", "--pred", str(pred_dir), "--out", str(raw),
                    "--no-clamp"]) == 0
        got_clamped = json.loads((clamped / "zzz-res.json").read_text())[0]["VA"]
        got_raw = json.loads((raw / "zzz-res.json").read_text())[0]["VA"]
        assert got_clamped == "9.00#1.00"
        assert got_raw == "11.50#0.25"

    def test_precision_flag(self, tmp_path):
        pred_dir = tmp_path / "p"
        pred_dir.mkdir()
        (pred_dir / "zzz-res.json").write_text(
            json.dumps([{"ID": "r0", "Aspect": "x", "VA": "5.12345#4.0"}]))
        out = tmp_path / "sub"
        assert run(["submit", "--pred", str(pred_dir), "--out", str(out),
                    "--precision", "4"]) == 0
        assert json.loads((out / "zzz-res.json").read_text())[0]["VA"] == \
            "5.1235#4.0000"


    def test_repeated_key_rejected_before_writing(self, tmp_path, capsys):
        pred_dir = tmp_path / "p"
        pred_dir.mkdir()
        rows = [{"ID": "r0", "Aspect": "x", "VA": "5.0#4.0"},
                {"ID": "r1", "Aspect": "x", "VA": "6.0#4.0"},
                {"ID": "r0", "Aspect": "x", "VA": "5.5#4.5"}]
        (pred_dir / "aaa-res.json").write_text(json.dumps(rows[:2]))
        bad = pred_dir / "zzz-res.json"
        bad.write_text(json.dumps(rows))
        out = tmp_path / "sub"
        assert run(["submit", "--pred", str(pred_dir), "--out", str(out)]) == 1
        assert single_error_line(capsys) == (
            f"error: {bad}: record 2: field 'ID, Aspect': duplicate key, "
            f"first at record 0")
        assert not out.exists()


class TestOutIsNotAnInput:
    """A stage never writes into its own input directory: an --out that
    resolves to an input flag's directory stops the stage with one line
    naming both flags, before any input file is read."""

    @pytest.mark.parametrize("stage, flag, make", [
        ("preprocess", "--input",
         lambda root: write_raw_dir(root, n_records=4, seed=1)),
        ("submit", "--pred",
         lambda root: (root / "aaa-res.json").write_text(json.dumps(
             [{"ID": "r0", "Aspect": "x", "VA": "4.985338330886608#5.124473579040969"}]))),
    ], ids=["preprocess", "submit"])
    def test_out_into_input_rejected(self, tmp_path, capsys, stage, flag, make):
        root = tmp_path / "in"
        root.mkdir()
        make(root)
        before = tree_hashes(root)
        # The same directory under another spelling.
        out = str(root / ".." / "in")
        assert run([stage, flag, str(root), "--out", out]) == 1
        assert single_error_line(capsys) == (
            f"error: --out {out} is the {flag} directory: a stage never "
            f"writes into its own input")
        assert tree_hashes(root) == before


class TestFlagValidation:
    """Out-of-range flags stop in argparse: exit 2 and its usage line."""

    @pytest.mark.parametrize("argv, message", [
        (["submit", "--precision", "-1"], "argument --precision: must be >= 0"),
        (["ensemble", "--min-size", "0"], "argument --min-size: must be >= 1"),
        (["ensemble", "--max-size", "0"], "argument --max-size: must be >= 1"),
        (["ensemble", "--min-size", "3", "--max-size", "2"],
         "argument --max-size: 2 is below --min-size 3"),
        (["ensemble", "--min-size", "13"],
         "argument --min-size: 13 is above MAX_POOL_SIZE 12"),
        (["train", "--seed", "-1"], "argument --seed: must be >= 0"),
    ])
    def test_bad_flag_exits_2_with_usage(self, tmp_path, capsys, argv, message):
        paths = {"train": ["--data", "d", "--out", str(tmp_path / "out")],
                 "submit": ["--pred", "p", "--out", str(tmp_path / "out")],
                 "ensemble": ["--dev-preds", "d", "--dev-gold", "g",
                              "--out", str(tmp_path / "out")]}[argv[0]]
        with pytest.raises(SystemExit) as exc:
            run(argv[:1] + paths + argv[1:])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: dimasr {argv[0]} ")
        assert f"dimasr {argv[0]}: error: {message}" in err
        assert not (tmp_path / "out").exists()


finite = st.floats(allow_nan=False, allow_infinity=False)
unblank = st.text().filter(str.strip)   # a blank ID or Aspect is refused


def _record_kinds():
    """Two records per file kind, the first fault-free, and the reader of
    each kind; raw records carry their VA in a quadruplet entry."""
    row = {"ID": "r0", "Text": "t", "Aspect": "x", "VA": "5#5", "Pair": "aaa-res"}
    return {
        "raw": ({"ID": "r0", "Text": "t", "Quadruplets": [{"Aspect": "x", "VA": "5#5"}]},
                lambda path: corpus.parse_quadruplet_file(path, PairID("aaa", "res"))),
        "instance": (row, cli.load_instances),
        "prediction": ({"ID": "r0", "Aspect": "x", "VA": "5#5"}, cli.load_predictions),
        "gold": (row, lambda path: cli._check_gold({None: cli.load_predictions(path)})),
    }


class TestSameFaultSameLine:
    """Every record file kind is read by one walk, so one fault gives one
    line, `record 1: field 'X': <detail>`, in every kind that has the field."""

    FAULTS = {   # field, the value it takes (None deletes it), the line's end
        "record not an object": (None, 5, "not an object"),
        "ID missing": ("ID", None, "field 'ID': missing"),
        "ID not a string": ("ID", 7, "field 'ID': not a string"),
        "ID blank": ("ID", " ", "field 'ID': blank"),
        "VA without #": ("VA", "5.0", "field 'VA': not a 'v#a' string: '5.0'"),
        "VA nan#5": ("VA", "nan#5", "field 'VA': non-finite VA value: 'nan#5'"),
        "VA 5": ("VA", 5, "field 'VA': not a 'v#a' string: 5"),
        "repeated key": ("ID", "r0", "duplicate key, first at record 0"),
    }

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("kind", ["raw", "instance", "prediction", "gold"])
    def test_same_fault_gives_same_line(self, tmp_path, kind, fault):
        record, read = _record_kinds()[kind]
        field, value, end = self.FAULTS[fault]
        second = {**json.loads(json.dumps(record)), "ID": "r1"}
        holder = second["Quadruplets"][0] if kind == "raw" and field == "VA" else second
        entry = ": entry 0" if holder is not second else ""
        if field is None:
            second = value
        elif value is None:
            del holder[field]
        else:
            holder[field] = value
        if fault == "repeated key":   # the key is ID in raw files, else (ID, Aspect)
            end = f"field {'ID' if kind == 'raw' else 'ID, Aspect'!r}: {end}"
        path = tmp_path / "aaa-res.json"
        path.write_text(json.dumps([record, second]), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: record 1{entry}: {end}"


class TestPredictionFiles:
    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(st.tuples(unblank, unblank, finite, finite),
                            max_size=20, unique_by=lambda r: r[:2]))
    def test_write_then_load_round_trips(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("rt") / "aaa-res.json"
        keys = [(rid, aspect) for rid, aspect, _, _ in records]
        rows = [(v, a) for _, _, v, a in records]
        cli.write_predictions(path, keys, rows)
        got = cli.load_predictions(path)
        # The record walk is the reference the one-pass read must equal.
        with mock.patch.object(cli, "_fast_columns", lambda rows, pair: None):
            walked = cli.load_predictions(path)
        for cols in (got, walked):
            assert cols.keys == keys and cols.source == str(path)
            assert all(type(row) is tuple and len(row) == 2 for row in cols.values)
            assert [tuple(map(float.hex, row)) for row in cols.values] == \
                   [tuple(map(float.hex, row)) for row in rows]

    @pytest.mark.parametrize("va, detail", [
        ("5.0", "not a 'v#a' string: '5.0'"),
        ("5.0#x", "not a 'v#a' string: '5.0#x'"),
        (7.5, "not a 'v#a' string: 7.5"),
        ("5.0#inf", "non-finite VA value: '5.0#inf'"),
    ])
    def test_bad_va_names_record_and_field(self, tmp_path, va, detail):
        path = tmp_path / "aaa-res.json"
        path.write_text(json.dumps([{"ID": "r0", "Aspect": "x", "VA": "5#5"},
                                    {"ID": "r1", "Aspect": "x", "VA": va}]))
        with pytest.raises(cli.ParseError) as exc:
            cli.load_predictions(path)
        assert str(exc.value) == f"{path}: record 1: field 'VA': {detail}"


# Any text, plus the characters JSON must escape and non-ASCII it must not.
json_text = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\x00\x1f\n\t\r", "屏幕 é", "\u2028\x7f"]))


class TestCanonicalJson:
    @settings(max_examples=200, deadline=None)
    @given(obj=st.one_of(
        st.lists(st.dictionaries(json_text, json_text)),
        st.lists(st.dictionaries(json_text, st.one_of(json_text, st.integers(),
                                                      st.none())))))
    @example(obj=[])
    @example(obj=[{}])
    @example(obj=[{"ID": "r0", "VA": "5.00#4.25"}, {}])
    def test_equals_json_dumps(self, obj):
        assert cli.canonical_json(obj) == json.dumps(
            obj, sort_keys=True, indent=2, ensure_ascii=False,
            allow_nan=False) + "\n"


class TestManifests:
    def test_every_stage_writes_manifest(self, pipeline):
        for stage_dir in ("insts/train", "ckpts", "preds/dev", "ens",
                          "submission", "eval"):
            manifest = json.loads(
                (pipeline / stage_dir / "manifest.json").read_text())
            assert manifest["run_id"]
            assert manifest["tool_version"]
            assert manifest["outputs"]

    def test_outputs_hashes_verify(self, pipeline):
        manifest = json.loads((pipeline / "ckpts/manifest.json").read_text())
        for rel, digest in manifest["outputs"].items():
            blob = (pipeline / "ckpts" / rel).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest

    # Per stage directory of the pipeline: each flag's directory, under the
    # raw data ("raw") or the work directory ("work").
    STAGE_FLAGS = {
        "insts/train": {"input": ("raw", "train")},
        "insts/dev": {"input": ("raw", "dev")},
        "insts/test": {"input": ("raw", "test")},
        "ckpts": {"data": ("work", "insts/train"), "config": ("work", ".")},
        "preds/dev": {"ckpts": ("work", "ckpts"), "data": ("work", "insts/dev")},
        "preds/test": {"ckpts": ("work", "ckpts"), "data": ("work", "insts/test")},
        "ens": {"dev-preds": ("work", "preds/dev"),
                "test-preds": ("work", "preds/test"),
                "dev-gold": ("work", "insts/dev")},
        "eval": {"pred": ("work", "ens/dev"), "gold": ("work", "insts/dev")},
        "submission": {"pred": ("work", "ens/test")},
    }

    @pytest.mark.parametrize("stage_dir", sorted(STAGE_FLAGS))
    def test_inputs_resolve_under_their_flag_and_verify(self, pipeline,
                                                         raw_data, stage_dir):
        roots = {"raw": raw_data, "work": pipeline}
        flags = self.STAGE_FLAGS[stage_dir]
        manifest = json.loads((pipeline / stage_dir / "manifest.json").read_text())
        assert {key.split("/")[0] for key in manifest["inputs"]} == set(flags)
        for key, digest in manifest["inputs"].items():
            flag, rel = key.split("/", 1)
            where, sub = flags[flag]
            path = roots[where] / sub / rel
            assert path.is_file(), key
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_ensemble_lists_every_test_prediction(self, pipeline):
        inputs = json.loads((pipeline / "ens/manifest.json").read_text())["inputs"]
        test_root = pipeline / "preds/test"
        files = sorted(test_root.glob("*/*.json"))
        assert len(files) == 7 * len(SYNTH_PAIRS)
        for path in files:
            assert f"test-preds/{path.relative_to(test_root).as_posix()}" in inputs


class TestStageImports:
    """preprocess, submit and evaluate never touch an array, a dataclass or
    a logger, so they run without loading numpy, dataclasses (and with it
    inspect) or logging; train imports the layers it needs when it runs,
    and not numpy.ma, and no stage loads numpy.random.  Modules count only when the stage added them, so a
    site hook that imports one of them at start-up changes nothing."""

    SCRIPT = """
import json, sys
before = set(sys.modules)
from dimasr import cli
START_UP = ("numpy", "logging", "dataclasses", "inspect")
def added():
    return [name for name in START_UP if name in sys.modules and name not in before]
raw, preds, config, work = sys.argv[1:]
loaded = {"import": added()}
codes = {"preprocess": cli.main(["preprocess", "--input", raw,
                                 "--out", work + "/insts"])}
loaded["preprocess"] = added()
codes["submit"] = cli.main(["submit", "--pred", preds, "--out", work + "/sub"])
loaded["submit"] = added()
codes["evaluate"] = cli.main(["evaluate", "--pred", preds, "--gold", preds,
                              "--out", work + "/eval"])
loaded["evaluate"] = added()
codes["train"] = cli.main(["train", "--data", work + "/insts",
                           "--out", work + "/ckpts", "--config", config])
loaded["train"] = "numpy" in sys.modules
loaded["train numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps({"loaded": loaded, "codes": codes}))
"""

    def test_numpy_loaded_only_by_stages_that_use_it(self, tmp_path):
        raw = write_raw_dir(tmp_path / "raw", n_records=6, seed=3)
        preds = tmp_path / "preds"
        preds.mkdir()
        (preds / "zzz-res.json").write_text(
            json.dumps([{"ID": "r0", "Aspect": "x", "VA": "5.5#4.25"}]),
            encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN_CONFIG, "grid": TINY_GRID[:1]}),
                          encoding="utf-8")
        work = tmp_path / "work"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(raw), str(preds),
             str(config), str(work)],
            env=python_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == {"preprocess": 0, "submit": 0, "evaluate": 0,
                                   "train": 0}
        assert result["loaded"] == {"import": [], "preprocess": [],
                                    "submit": [], "evaluate": [],
                                    "train": True, "train numpy.ma": False}
        assert sorted(p.name for p in (work / "ckpts").glob("*.ckpt")) == ["M1.ckpt"]

    NUMPY_STAGES = """
import json, sys
import numpy
eager = "numpy.random" in sys.modules   # numpy before 1.25 loads it on import
from dimasr import cli
raw, config, work = sys.argv[1:]
codes = [cli.main(argv) for argv in (
    ["preprocess", "--input", raw, "--out", work + "/insts"],
    ["train", "--data", work + "/insts", "--out", work + "/ckpts", "--config", config],
    ["predict", "--ckpts", work + "/ckpts", "--data", work + "/insts",
     "--out", work + "/preds"],
    ["ensemble", "--dev-preds", work + "/preds", "--dev-gold", work + "/insts",
     "--out", work + "/ens"])]
print(json.dumps({"codes": codes, "eager": eager,
                  "loaded": "numpy.random" in sys.modules}))
"""

    def test_no_stage_loads_numpy_random(self, tmp_path):
        # Every draw is encoding.draw's; numpy's Generator is never needed.
        raw = write_raw_dir(tmp_path / "raw", n_records=6, seed=3)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN_CONFIG, "grid": TINY_GRID}),
                          encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", self.NUMPY_STAGES, str(raw), str(config),
             str(tmp_path / "work")],
            env=python_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0, 0, 0, 0]
        assert result["loaded"] == result["eager"]


class TestStderrLines:
    """A stage's progress lines are `LEVEL name: message`, one per line,
    as a user's scripts may read them."""

    def stderr(self, argv: list[str]) -> list[str]:
        proc = subprocess.run([sys.executable, "-m", "dimasr.cli", *argv],
                              env=python_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.splitlines()

    def test_submit_clamp_lines_and_summary(self, tmp_path):
        pred_dir = tmp_path / "p"
        pred_dir.mkdir()
        (pred_dir / "zzz-res.json").write_text(json.dumps(
            [{"ID": "r0", "Aspect": "x", "VA": "11.5#0.25"},
             {"ID": "r1", "Aspect": "x", "VA": "5.0#4.0"},
             {"ID": "r2", "Aspect": "y z", "VA": "0.5#5"}]), encoding="utf-8")
        assert self.stderr(["submit", "--pred", str(pred_dir),
                            "--out", str(tmp_path / "sub")]) == [
            "INFO dimasr.cli: clamped r0/x: 11.5#0.25 -> 9.0#1.0",
            "INFO dimasr.cli: clamped r2/y z: 0.5#5.0 -> 1.0#5.0",
            "INFO dimasr.cli: submit: wrote 1 files (2 values clamped)",
        ]

    def test_preprocess_warns_when_no_instance_survives(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        quad = {"Aspect": "NULL", "Category": "X#Y", "Opinion": "o", "VA": "5#5"}
        (raw / "aaa-res.json").write_text(json.dumps(
            [{"ID": "r0", "Text": "t", "Quadruplets": [quad]}]), encoding="utf-8")
        (raw / "bbb-res.json").write_text(json.dumps(
            [{"ID": "r0", "Text": "t", "Quadruplets": [{**quad, "Aspect": "x"}]}]),
            encoding="utf-8")
        out = tmp_path / "insts"
        assert self.stderr(["preprocess", "--input", str(raw),
                            "--out", str(out)]) == [
            "WARNING dimasr.cli: aaa-res.json: no instances survive preprocessing "
            "({'records_in': 1, 'quadruplets_in': 1, 'null_aspect_drops': 1, "
            "'out_of_range_drops': 0, 'duplicate_aspect_drops': 0, "
            "'expanded_records': 0, 'instances_out': 0})",
            f"INFO dimasr.cli: preprocess: 2 files, 1 instances out, "
            f"report at {out / 'report.json'}",
        ]


class TestModuleExit:
    """`python -m dimasr.cli` and the `dimasr` command both run `cli.run`,
    which leaves through os._exit once `main` returns.  With output piped
    and block-buffered it must print what a normal exit from `cli.main`
    prints, and exit with the same code."""

    def test_console_script_runs_run(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        assert 'dimasr = "dimasr.cli:run"' in pyproject.read_text(encoding="utf-8")

    MAIN = "import sys; from dimasr import cli; sys.exit(cli.main(sys.argv[1:]))"

    @pytest.mark.parametrize("argv, code", [
        (["evaluate", "--pred", "{work}/ens/dev", "--gold", "{work}/insts/dev"], 0),
        (["submit", "--pred", "{work}/ens/test", "--no-clamp"], 0),
        (["evaluate", "--pred", "{work}/ens/dev", "--gold", "{work}/nope"], 1),
        (["submit", "--pred", "{work}/ens/test", "--precision", "-1"], 2),
    ])
    def test_same_output_as_main(self, pipeline, tmp_path, argv, code):
        env = python_env()
        env.pop("PYTHONUNBUFFERED", None)
        runs = []
        for how, entry in (("module", ["-m", "dimasr.cli"]), ("main", ["-c", self.MAIN])):
            out = tmp_path / how
            proc = subprocess.run(
                [sys.executable, *entry,
                 *(arg.format(work=pipeline) for arg in argv), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            runs.append((proc.returncode, proc.stdout,
                         proc.stderr.replace(str(out), "<out>")))
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        assert runs[0][1] + runs[0][2]   # there was output to lose


class TestBlasThreads:
    """Importing the CLI pins OpenBLAS to one thread unless the user chose a
    count, and the count never changes a checkpoint byte."""

    def env(self, threads: str | None) -> dict[str, str]:
        env = python_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        return env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}

    @pytest.mark.parametrize("threads,expected", [(None, "1"), ("3", "3")])
    def test_import_sets_default_only(self, threads, expected):
        proc = subprocess.run(
            [sys.executable, "-c", "import os, dimasr.cli; "
             "print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=self.env(threads), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    def test_thread_count_leaves_checkpoints_unchanged(self, pipeline, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN_CONFIG, "grid": TINY_GRID}),
                          encoding="utf-8")
        for threads in (None, "2"):
            out = tmp_path / f"ckpts-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "dimasr.cli", "train", "--data",
                 str(pipeline / "insts/train"), "--config", str(config),
                 "--out", str(out)],
                env=self.env(threads), capture_output=True, text=True,
                timeout=120)
            assert proc.returncode == 0, proc.stderr
        default, two = (tree_hashes(tmp_path / f"ckpts-{t}") for t in (None, "2"))
        assert len(default) == 5 and default == two


class TestCrossProcessDeterminism:
    """The whole chain, one cold process per stage as a user runs it, twice
    under a different hash seed and BLAS thread count: every manifest, and
    so every output hash, must match byte for byte."""

    def run_chain(self, raw: Path, work: Path, env: dict) -> None:
        config = work / "run.json"
        work.mkdir()
        config.write_text(json.dumps({**RUN_CONFIG, "grid": TINY_GRID}),
                          encoding="utf-8")
        stages = [
            ["preprocess", "--input", raw / "train", "--out", work / "insts/train"],
            ["preprocess", "--input", raw / "dev", "--out", work / "insts/dev"],
            ["preprocess", "--input", raw / "test", "--out", work / "insts/test"],
            ["train", "--data", work / "insts/train", "--out", work / "ckpts",
             "--config", config],
            ["predict", "--ckpts", work / "ckpts", "--data", work / "insts/dev",
             "--out", work / "preds/dev"],
            ["predict", "--ckpts", work / "ckpts", "--data", work / "insts/test",
             "--out", work / "preds/test"],
            ["ensemble", "--dev-preds", work / "preds/dev",
             "--test-preds", work / "preds/test",
             "--dev-gold", work / "insts/dev", "--out", work / "ens"],
            ["submit", "--pred", work / "ens/test", "--out", work / "submission"],
        ]
        for argv in stages:
            proc = subprocess.run(
                [sys.executable, "-m", "dimasr.cli", *map(str, argv)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, (argv[0], proc.stderr)

    def test_manifests_identical_across_processes(self, tmp_path):
        raw = tmp_path / "raw"
        write_raw_dir(raw / "train", n_records=10, seed=42)
        write_raw_dir(raw / "dev", n_records=4, seed=7)
        write_raw_dir(raw / "test", n_records=4, seed=9, with_gold=False,
                      anomalies=False)
        works = [tmp_path / "run0", tmp_path / "run1"]
        envs = [python_env(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1"),
                python_env(PYTHONHASHSEED="4242", OPENBLAS_NUM_THREADS="2")]
        # The two chains are independent; run them side by side.
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(self.run_chain, [raw, raw], works, envs))
        runs = [{str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("manifest.json"))} for work in works]
        assert len(runs[0]) == 8
        assert runs[0] == runs[1]
