"""One failure contract for every stage, as a table of (stage argv,
corruption) rows.  Each row runs the stage as a user does, in a fresh
`python -m dimasr.cli` process, and must end with a non-zero exit, exactly
one non-INFO stderr line (an `error:` line naming the file, flag or entry
at fault) and `--out` as it was before: no directory, or, for a row that
places `--out` around one of its inputs, the same files."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dimasr import cli
from synth import SYNTH_PAIRS, write_raw_dir

SRC_ROOT = Path(cli.__file__).resolve().parents[1]
ENCODER = {"backend": "toy-deterministic", "template": "bert-style",
           "max_len": 16, "hidden_size": 8, "vocab_size": 50000, "seed": 0,
           "trainable_layer": True, "model_name": None}
ENTRY = {"batch_size": 8, "learning_rate": 0.01, "max_epochs": 1,
         "bounded": True}

# name: the stage's argv, and the texts its error line must hold; "{root}"
# stands for the inputs fixture's directory.  A row without --out writes to
# a fresh directory.
ROWS = {
    "preprocess --pairs without file": (
        ["preprocess", "--input", "{root}/raw", "--pairs", "aaa-res,zzz-res"],
        ["--pairs", "'zzz-res'", "{root}/raw/zzz-res.json"]),
    "train --pairs without file": (
        ["train", "--data", "{root}/insts", "--config", "{root}/one.json",
         "--pairs", "aaa-res,zzz-res"],
        ["--pairs", "'zzz-res'", "{root}/insts/zzz-res.json"]),
    "predict --pairs without file": (
        ["predict", "--ckpts", "{root}/ckpts", "--data", "{root}/insts",
         "--pairs", "aaa-res,zzz-res"],
        ["--pairs", "'zzz-res'", "{root}/insts/zzz-res.json"]),
    "submit --pairs without file": (
        ["submit", "--pred", "{root}/preds/M1", "--pairs", "aaa-res,zzz-res"],
        ["--pairs", "'zzz-res'", "{root}/preds/M1/zzz-res.json"]),
    "evaluate extra prediction file": (
        ["evaluate", "--pred", "{root}/extra", "--gold", "{root}/insts"],
        ["{root}/insts", "{root}/extra [xxx-res]"]),
    "train empty data directory": (
        ["train", "--data", "{root}/empty", "--config", "{root}/one.json"],
        ["{root}/empty"]),
    "train grid entry without key": (
        ["train", "--data", "{root}/insts", "--config", "{root}/no-rate.json"],
        ["{root}/no-rate.json", "grid entry 0", "'learning_rate'"]),
    "train empty grid": (
        ["train", "--data", "{root}/insts", "--config", "{root}/no-grid.json"],
        ["{root}/no-grid.json", "'grid'"]),
    "train separate with two grid entries": (
        ["train", "--data", "{root}/insts", "--config", "{root}/two.json",
         "--regime", "separate"],
        ["{root}/two.json", "'grid'", "2 entries", "separate"]),
    "train truncated instance file": (
        ["train", "--data", "{root}/cut-insts", "--config", "{root}/one.json"],
        [f"{{root}}/cut-insts/{SYNTH_PAIRS[0]}.json", "invalid JSON"]),
    "submit truncated prediction file": (
        ["submit", "--pred", "{root}/cut-preds"],
        [f"{{root}}/cut-preds/{SYNTH_PAIRS[0]}.json", "invalid JSON"]),
    "train truncated run.json": (
        ["train", "--data", "{root}/insts", "--config", "{root}/cut.json"],
        ["{root}/cut.json", "invalid JSON"]),
    "train missing run.json": (
        ["train", "--data", "{root}/insts", "--config", "{root}/nope.json"],
        ["{root}/nope.json", "No such file"]),
    "train grid entry not an object": (
        ["train", "--data", "{root}/insts", "--config", "{root}/int-entry.json"],
        ["{root}/int-entry.json", "grid entry 0", "not an object"]),
    "train grid entry with batch_size 0": (
        ["train", "--data", "{root}/insts", "--config", "{root}/batch-0.json"],
        ["{root}/batch-0.json", "grid entry 0", "batch_size"]),
    "train encoder with max_len 4": (
        ["train", "--data", "{root}/insts", "--config", "{root}/len-4.json"],
        ["{root}/len-4.json", "'encoder'", "max_len"]),
    "train encoder with hidden_size 8.0": (
        ["train", "--data", "{root}/insts", "--config", "{root}/width-float.json"],
        ["{root}/width-float.json", "'encoder'", "hidden_size must be an int"]),
    "train grid entry with batch_size 8.5": (
        ["train", "--data", "{root}/insts", "--config", "{root}/batch-float.json"],
        ["{root}/batch-float.json", "grid entry 0", "batch_size must be an int"]),
    "train encoder with unknown key": (
        ["train", "--data", "{root}/insts", "--config", "{root}/colour.json"],
        ["{root}/colour.json", "'encoder'", "'colour'"]),
    "train instance ID not a string": (
        ["train", "--data", "{root}/int-id", "--config", "{root}/one.json"],
        [f"{{root}}/int-id/{SYNTH_PAIRS[0]}.json", "record 1", "'ID'"]),
    "train instance Text null": (
        ["train", "--data", "{root}/null-text", "--config", "{root}/one.json"],
        [f"{{root}}/null-text/{SYNTH_PAIRS[0]}.json", "record 1", "'Text'"]),
    "train instance Aspect not a string": (
        ["train", "--data", "{root}/list-aspect", "--config", "{root}/one.json"],
        [f"{{root}}/list-aspect/{SYNTH_PAIRS[0]}.json", "record 1", "'Aspect'"]),
    "train blank instance Aspect": (
        ["train", "--data", "{root}/blank-aspect", "--config", "{root}/one.json"],
        [f"{{root}}/blank-aspect/{SYNTH_PAIRS[0]}.json", "record 1", "'Aspect'",
         "blank"]),
    "preprocess blank raw Aspect": (
        ["preprocess", "--input", "{root}/blank-raw"],
        [f"{{root}}/blank-raw/{SYNTH_PAIRS[0]}.json", "record 1", "'Aspect'",
         "blank"]),
    "train data without VA": (
        ["train", "--data", "{root}/no-va", "--config", "{root}/one.json"],
        [f"{{root}}/no-va/{SYNTH_PAIRS[0]}.json", "record 0", "'VA'"]),
    "train data with one record": (
        ["train", "--data", "{root}/one-record", "--config", "{root}/one.json"],
        ["{root}/one-record", "fewer than two records"]),
    "submit prediction ID not a string": (
        ["submit", "--pred", "{root}/int-id-preds"],
        [f"{{root}}/int-id-preds/{SYNTH_PAIRS[0]}.json", "record 1", "'ID'",
         "not a string"]),
    "evaluate gold Aspect a list": (
        ["evaluate", "--pred", "{root}/preds/M1", "--gold", "{root}/list-aspect"],
        [f"{{root}}/list-aspect/{SYNTH_PAIRS[0]}.json", "record 1", "'Aspect'",
         "not a string"]),
    "preprocess raw ID not a string": (
        ["preprocess", "--input", "{root}/int-id-raw"],
        [f"{{root}}/int-id-raw/{SYNTH_PAIRS[0]}.json", "record 1", "'ID'",
         "not a string"]),
    "preprocess raw Aspect a list": (
        ["preprocess", "--input", "{root}/list-raw"],
        [f"{{root}}/list-raw/{SYNTH_PAIRS[0]}.json", "record 1", "'Aspect'",
         "not a string"]),
    "train 200-word aspect": (
        ["train", "--data", "{root}/long-aspect", "--config", "{root}/one.json"],
        [f"{{root}}/long-aspect/{SYNTH_PAIRS[0]}.json", "record 1", "'Aspect'",
         "aspect spans 200 tokens"]),
    "train separate 200-word aspect": (
        ["train", "--data", "{root}/long-aspect", "--config", "{root}/one.json",
         "--regime", "separate"],
        [f"{{root}}/long-aspect/{SYNTH_PAIRS[0]}.json", "record 1", "'Aspect'",
         "aspect spans 200 tokens"]),
    "predict 200-word aspect in the second pair": (
        ["predict", "--ckpts", "{root}/ckpts", "--data", "{root}/long-aspect-2"],
        [f"{{root}}/long-aspect-2/{SYNTH_PAIRS[1]}.json", "record 1", "'Aspect'",
         "aspect spans 200 tokens"]),
    "train learning_rate 1e12": (
        ["train", "--data", "{root}/insts", "--config", "{root}/huge-rate.json"],
        ["{root}/insts", "M1: non-finite"]),
    "train repeated grid entry": (
        ["train", "--data", "{root}/insts", "--config", "{root}/repeat.json"],
        ["{root}/repeat.json", "grid entry 1", "same as entry 0"]),
    "train pretrained backend without model_name": (
        ["train", "--data", "{root}/insts", "--config", "{root}/no-model.json"],
        ["{root}/no-model.json", "'encoder'", "model_name"]),
    "predict checkpoint encoder with max_len 4": (
        ["predict", "--ckpts", "{root}/ckpt-len-4", "--data", "{root}/insts"],
        ["{root}/ckpt-len-4/M1.ckpt", "'encoder'", "max_len"]),
    "predict checkpoint without key": (
        ["predict", "--ckpts", "{root}/ckpt-no-epoch", "--data", "{root}/insts"],
        ["{root}/ckpt-no-epoch/M1.ckpt", "'epoch_of_best'"]),
    "predict checkpoint config with batch_size 0": (
        ["predict", "--ckpts", "{root}/ckpt-batch-0", "--data", "{root}/insts"],
        ["{root}/ckpt-batch-0/M1.ckpt", "'config'", "batch_size"]),
    "predict checkpoint hidden_size not W's width": (
        ["predict", "--ckpts", "{root}/ckpt-wide", "--data", "{root}/insts"],
        ["{root}/ckpt-wide/M1.ckpt", "'arrays'"]),
    "predict trainable checkpoint without A": (
        ["predict", "--ckpts", "{root}/ckpt-no-a", "--data", "{root}/insts"],
        ["{root}/ckpt-no-a/M1.ckpt", "'arrays'"]),
    "predict checkpoint bounded differs from config": (
        ["predict", "--ckpts", "{root}/ckpt-raw", "--data", "{root}/insts"],
        ["{root}/ckpt-raw/M1.ckpt", "'bounded'"]),
    "predict checkpoint id ../escaped": (
        ["predict", "--ckpts", "{root}/ckpt-escaped", "--data", "{root}/insts"],
        ["{root}/ckpt-escaped/M1.ckpt", "'../escaped'"]),
    "predict checkpoint id not its file name": (
        ["predict", "--ckpts", "{root}/ckpt-copied", "--data", "{root}/insts"],
        ["{root}/ckpt-copied/M2.ckpt", "'M1'"]),
    "evaluate empty gold and prediction files": (
        ["evaluate", "--pred", "{root}/empty-preds/M1", "--gold", "{root}/empty-gold"],
        [f"{{root}}/empty-gold/{SYNTH_PAIRS[0]}.json", "no records"]),
    "ensemble empty dev gold and member files": (
        ["ensemble", "--dev-preds", "{root}/empty-preds", "--dev-gold",
         "{root}/empty-gold"],
        [f"{{root}}/empty-gold/{SYNTH_PAIRS[0]}.json", "no records"]),
    "submit prediction file not an array": (
        ["submit", "--pred", "{root}/object-preds"],
        [f"{{root}}/object-preds/{SYNTH_PAIRS[0]}.json", "not a JSON array"]),
    "evaluate gold file not an array": (
        ["evaluate", "--pred", "{root}/preds/M1", "--gold", "{root}/object-gold"],
        [f"{{root}}/object-gold/{SYNTH_PAIRS[0]}.json", "not a JSON array"]),
    "train grid entry with bounded 'false'": (
        ["train", "--data", "{root}/insts", "--config", "{root}/bounded-str.json"],
        ["{root}/bounded-str.json", "grid entry 0", "bounded must be a bool"]),
    "train encoder with trainable_layer 'false'": (
        ["train", "--data", "{root}/insts", "--config", "{root}/layer-str.json"],
        ["{root}/layer-str.json", "'encoder'", "trainable_layer must be a bool"]),
    "train grid entry with learning_rate true": (
        ["train", "--data", "{root}/insts", "--config", "{root}/rate-true.json"],
        ["{root}/rate-true.json", "grid entry 0", "learning_rate", "True"]),
    "train grid entry with learning_rate NaN": (
        ["train", "--data", "{root}/insts", "--config", "{root}/rate-nan.json"],
        ["{root}/rate-nan.json", "grid entry 0", "learning_rate", "nan"]),
    "predict checkpoint config with bounded 'false'": (
        ["predict", "--ckpts", "{root}/ckpt-bounded-str", "--data", "{root}/insts"],
        ["{root}/ckpt-bounded-str/M1.ckpt", "'config'", "bounded must be a bool"]),
    "predict checkpoint encoder with trainable_layer 'false'": (
        ["predict", "--ckpts", "{root}/ckpt-layer-str", "--data", "{root}/insts"],
        ["{root}/ckpt-layer-str/M1.ckpt", "'encoder'",
         "trainable_layer must be a bool"]),
    "predict checkpoint config with learning_rate true": (
        ["predict", "--ckpts", "{root}/ckpt-rate-true", "--data", "{root}/insts"],
        ["{root}/ckpt-rate-true/M1.ckpt", "'config'", "learning_rate", "True"]),
    "train grid entry with dropout_rate false": (
        ["train", "--data", "{root}/insts", "--config", "{root}/dropout-false.json"],
        ["{root}/dropout-false.json", "grid entry 0", "dropout_rate", "False"]),
    "predict checkpoint with dropout_rate false": (
        ["predict", "--ckpts", "{root}/ckpt-dropout-false", "--data", "{root}/insts"],
        ["{root}/ckpt-dropout-false/M1.ckpt", "'config'", "dropout_rate", "False"]),
    "predict checkpoint bounded 1 where config says true": (
        ["predict", "--ckpts", "{root}/ckpt-bounded-int", "--data", "{root}/insts"],
        ["{root}/ckpt-bounded-int/M1.ckpt", "'bounded'", "1 differs"]),
    "predict checkpoint best_val_rmse 'abc'": (
        ["predict", "--ckpts", "{root}/ckpt-rmse-str", "--data", "{root}/insts"],
        ["{root}/ckpt-rmse-str/M1.ckpt", "best_val_rmse", "'abc'"]),
    "predict checkpoint best_val_rmse null": (
        ["predict", "--ckpts", "{root}/ckpt-rmse-null", "--data", "{root}/insts"],
        ["{root}/ckpt-rmse-null/M1.ckpt", "best_val_rmse", "None"]),
    "predict checkpoint epoch_of_best -5": (
        ["predict", "--ckpts", "{root}/ckpt-epoch-neg", "--data", "{root}/insts"],
        ["{root}/ckpt-epoch-neg/M1.ckpt", "epoch_of_best", "-5"]),
    "predict checkpoint epoch_of_best above max_epochs": (
        ["predict", "--ckpts", "{root}/ckpt-epoch-late", "--data", "{root}/insts"],
        ["{root}/ckpt-epoch-late/M1.ckpt", "epoch_of_best", "max_epochs"]),
    "predict checkpoint optimizer eps 'x'": (
        ["predict", "--ckpts", "{root}/ckpt-eps-str", "--data", "{root}/insts"],
        ["{root}/ckpt-eps-str/M1.ckpt", "'optimizer'", "'x'"]),
    "train instance Pair of another pair": (
        ["train", "--data", "{root}/other-pair", "--config", "{root}/one.json"],
        [f"{{root}}/other-pair/{SYNTH_PAIRS[0]}.json", "record 1", "'Pair'",
         f"'{SYNTH_PAIRS[1]}'"]),
    "evaluate gold Pair of another pair": (
        ["evaluate", "--pred", "{root}/preds/M1", "--gold", "{root}/other-pair"],
        [f"{{root}}/other-pair/{SYNTH_PAIRS[0]}.json", "record 1", "'Pair'",
         f"'{SYNTH_PAIRS[1]}'"]),
    "evaluate gold VA 0.5#5": (
        ["evaluate", "--pred", "{root}/preds/M1", "--gold", "{root}/low-gold"],
        [f"{{root}}/low-gold/{SYNTH_PAIRS[0]}.json", "record 1", "'VA'",
         "0.5#5.0"]),
    "evaluate blank gold ID": (
        ["evaluate", "--pred", "{root}/preds/M1", "--gold", "{root}/blank-id"],
        [f"{{root}}/blank-id/{SYNTH_PAIRS[0]}.json", "record 1", "'ID'", "blank"]),
    "ensemble blank gold ID": (
        ["ensemble", "--dev-preds", "{root}/pool/dev", "--dev-gold", "{root}/blank-id"],
        [f"{{root}}/blank-id/{SYNTH_PAIRS[0]}.json", "record 1", "'ID'", "blank"]),
    "train blank instance ID": (
        ["train", "--data", "{root}/blank-id", "--config", "{root}/one.json"],
        [f"{{root}}/blank-id/{SYNTH_PAIRS[0]}.json", "record 1", "'ID'", "blank"]),
    "preprocess blank raw ID": (
        ["preprocess", "--input", "{root}/blank-id-raw"],
        [f"{{root}}/blank-id-raw/{SYNTH_PAIRS[0]}.json", "record 1", "'ID'",
         "blank"]),
    "train toy encoder with model_name": (
        ["train", "--data", "{root}/insts", "--config", "{root}/toy-model.json"],
        ["{root}/toy-model.json", "'encoder'", "model_name", "'bert-base'"]),
    "preprocess raw VA Valence true": (
        ["preprocess", "--input", "{root}/true-va-raw"],
        [f"{{root}}/true-va-raw/{SYNTH_PAIRS[0]}.json", "record 1", "'VA'",
         "'Valence': True"]),
    "evaluate gold VA with spaces and Arabic-Indic digits": (
        ["evaluate", "--pred", "{root}/preds/M1", "--gold", "{root}/spaced-gold"],
        [f"{{root}}/spaced-gold/{SYNTH_PAIRS[0]}.json", "record 1", "'VA'",
         "' 6.5 # \u0665 '"]),
    "ensemble member VA 5_0#5": (
        ["ensemble", "--dev-preds", "{root}/underscore-pool", "--dev-gold",
         "{root}/insts"],
        [f"{{root}}/underscore-pool/M1/{SYNTH_PAIRS[0]}.json", "record 1", "'VA'",
         "'5_0#5'"]),
    "submit prediction VA 5_0#5": (
        ["submit", "--pred", "{root}/underscore-pool/M1"],
        [f"{{root}}/underscore-pool/M1/{SYNTH_PAIRS[0]}.json", "record 1", "'VA'",
         "'5_0#5'"]),
    "evaluate prediction VA 1e200#5.0": (
        ["evaluate", "--pred", "{root}/huge-pool/M3", "--gold", "{root}/insts"],
        [f"{{root}}/huge-pool/M3/{SYNTH_PAIRS[0]}.json", f"pair {SYNTH_PAIRS[0]}",
         "rmse_va overflows"]),
    "ensemble member VA 1e200#5.0": (
        ["ensemble", "--dev-preds", "{root}/huge-pool", "--dev-gold", "{root}/insts"],
        [f"{{root}}/huge-pool/M3/{SYNTH_PAIRS[0]}.json", f"pair {SYNTH_PAIRS[0]}",
         "float range"]),
    "ensemble test member without a dev member": (
        ["ensemble", "--dev-preds", "{root}/pool/dev", "--test-preds",
         "{root}/pool/test", "--dev-gold", "{root}/insts"],
        ["{root}/pool/test/M99", "{root}/pool/dev"]),
    "ensemble --out inside --dev-preds": (
        ["ensemble", "--dev-preds", "{root}/nest-pool", "--dev-gold", "{root}/insts",
         "--out", "{root}/nest-pool/ens"],
        ["--out {root}/nest-pool/ens", "--dev-preds directory {root}/nest-pool"]),
    "evaluate --pred inside --out": (
        ["evaluate", "--pred", "{root}/nest/preds", "--gold", "{root}/insts",
         "--out", "{root}/nest"],
        ["--pred {root}/nest/preds", "--out {root}/nest"]),
    "train --config inside --out": (
        ["train", "--data", "{root}/insts", "--config", "{root}/nest-config/run/one.json",
         "--out", "{root}/nest-config"],
        ["--config {root}/nest-config/run/one.json", "--out {root}/nest-config"]),
    "ensemble test average 1.5e308#5.0": (
        ["ensemble", "--dev-preds", "{root}/big-pool/dev", "--test-preds",
         "{root}/big-pool/test", "--dev-gold", "{root}/insts"],
        [f"pair {SYNTH_PAIRS[0]}: record 1",
         f"{{root}}/big-pool/test/M1/{SYNTH_PAIRS[0]}.json",
         f"{{root}}/big-pool/test/M2/{SYNTH_PAIRS[0]}.json", "float range"]),
}


def config(path: Path, grid: list, **encoder) -> None:
    path.write_text(json.dumps({"encoder": {**ENCODER, **encoder}, "grid": grid}),
                    encoding="utf-8")


def truncate(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 2], encoding="utf-8")


def rewrite(src: Path, dest: Path, change, pair: str = SYNTH_PAIRS[0]) -> None:
    """Copy the per-pair directory `src` to `dest`, passing the records of
    `pair`'s file through `change`."""
    shutil.copytree(src, dest)
    path = dest / f"{pair}.json"
    rows = change(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(json.dumps(rows), encoding="utf-8")


def edit_checkpoint(src: Path, dest: Path, change) -> None:
    """Copy the checkpoint directory `src` to `dest`, passing M1.ckpt's header
    through `change`, which returns how many payload bytes to cut."""
    shutil.copytree(src, dest)
    path = dest / "M1.ckpt"
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    cut = change(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n"
                     + payload[:len(payload) - cut])


def set_key(*keys, value):
    """An `edit_checkpoint` change setting header[keys[0]]...[keys[-1]]."""
    def change(header):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
        return 0
    return change


def set_field(field, value, index=1):
    """A `rewrite` change that sets record `index`'s `field` to `value`."""
    def change(rows):
        rows[index][field] = value
        return rows
    return change


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    write_raw_dir(root / "raw", n_records=6, seed=5)
    config(root / "one.json", [ENTRY])
    config(root / "two.json", [ENTRY, {**ENTRY, "bounded": False}])
    config(root / "no-grid.json", [])
    config(root / "no-rate.json",
           [{k: v for k, v in ENTRY.items() if k != "learning_rate"}])
    config(root / "int-entry.json", [1])
    config(root / "batch-0.json", [{**ENTRY, "batch_size": 0}])
    config(root / "len-4.json", [ENTRY], max_len=4)
    config(root / "width-float.json", [ENTRY], hidden_size=8.0)
    config(root / "batch-float.json", [{**ENTRY, "batch_size": 8.5}])
    config(root / "colour.json", [ENTRY], colour="red")
    config(root / "huge-rate.json", [{**ENTRY, "learning_rate": 1e12,
                                      "max_epochs": 3, "bounded": False}])
    config(root / "no-model.json", [ENTRY], backend="pretrained-multilingual")
    config(root / "toy-model.json", [ENTRY], model_name="bert-base")
    config(root / "repeat.json", [ENTRY, {**ENTRY, "seed": 42}])
    config(root / "bounded-str.json", [{**ENTRY, "bounded": "false"}])
    config(root / "layer-str.json", [ENTRY], trainable_layer="false")
    config(root / "rate-true.json", [{**ENTRY, "learning_rate": True}])
    config(root / "rate-nan.json", [{**ENTRY, "learning_rate": float("nan")}])
    config(root / "dropout-false.json", [{**ENTRY, "dropout_rate": False}])
    shutil.copy(root / "one.json", root / "cut.json")
    truncate(root / "cut.json")
    (root / "empty").mkdir()
    for argv in (["preprocess", "--input", root / "raw", "--out", root / "insts"],
                 ["train", "--data", root / "insts", "--out", root / "ckpts",
                  "--config", root / "one.json"],
                 ["predict", "--ckpts", root / "ckpts", "--data", root / "insts",
                  "--out", root / "preds"]):
        assert cli.main(list(map(str, argv))) == 0
    shutil.copytree(root / "preds/M1", root / "extra")
    shutil.copy(root / "extra" / f"{SYNTH_PAIRS[0]}.json",
                root / "extra" / "xxx-res.json")
    for src, cut in (("insts", "cut-insts"), ("preds/M1", "cut-preds")):
        shutil.copytree(root / src, root / cut)
        truncate(root / cut / f"{SYNTH_PAIRS[0]}.json")
    for name, change in (("int-id", set_field("ID", 5)),
                         ("null-text", set_field("Text", None)),
                         ("list-aspect", set_field("Aspect", ["battery"])),
                         ("blank-aspect", set_field("Aspect", " \t")),
                         ("other-pair", set_field("Pair", SYNTH_PAIRS[1])),
                         ("low-gold", set_field("VA", "0.5#5")),
                         ("spaced-gold", set_field("VA", " 6.5 # \u0665 ")),
                         ("blank-id", set_field("ID", " \t"))):
        rewrite(root / "insts", root / name, change)
    long_aspect = set_field("Aspect", " ".join(["word"] * 200))
    rewrite(root / "insts", root / "long-aspect", long_aspect)
    rewrite(root / "insts", root / "long-aspect-2", long_aspect, SYNTH_PAIRS[1])
    rewrite(root / "preds/M1", root / "int-id-preds", set_field("ID", 5))
    rewrite(root / "preds/M1", root / "object-preds", lambda rows: rows[0])
    rewrite(root / "insts", root / "object-gold", lambda rows: rows[0])
    rewrite(root / "insts", root / "empty-gold", lambda rows: [])
    for member in ("M1", "M2"):   # a pool of two, both empty where the gold is
        rewrite(root / "preds/M1", root / "empty-preds" / member, lambda rows: [])
    for member in ("dev/M1", "dev/M2", "test/M1", "test/M2", "test/M99"):
        shutil.copytree(root / "preds/M1", root / "pool" / member)
    rewrite(root / "preds/M1", root / "underscore-pool/M1", set_field("VA", "5_0#5"))
    shutil.copytree(root / "preds/M1", root / "underscore-pool/M2")
    for member in ("M1", "M2"):   # subsets without M3 multiply its inf by 0
        shutil.copytree(root / "preds/M1", root / "huge-pool" / member)
    rewrite(root / "preds/M1", root / "huge-pool/M3", set_field("VA", "1e200#5.0"))
    for member in ("M1", "M2"):   # finite apart, their sum passes the float range
        shutil.copytree(root / "preds/M1", root / "nest-pool" / member)
        shutil.copytree(root / "preds/M1", root / "big-pool/dev" / member)
        rewrite(root / "preds/M1", root / "big-pool/test" / member,
                set_field("VA", "1.5e308#5.0"))
    shutil.copytree(root / "preds/M1", root / "nest/preds")
    (root / "nest-config/run").mkdir(parents=True)
    shutil.copy(root / "one.json", root / "nest-config/run/one.json")
    rewrite(root / "insts", root / "no-va",
            lambda rows: [{k: v for k, v in r.items() if k != "VA"} for r in rows])
    rewrite(root / "insts", root / "one-record",
            lambda rows: [r for r in rows if r["ID"] == rows[0]["ID"]])
    for pair in SYNTH_PAIRS[1:]:
        (root / "one-record" / f"{pair}.json").unlink()

    d = ENCODER["hidden_size"]

    def no_epoch(header):
        del header["epoch_of_best"]
        return 0

    def no_projection(header):   # A's table entry and its d * d float64s
        header["arrays"].pop()
        return 8 * d * d

    def dropout_false(header):   # both copies, as a run.json with false wrote them
        header["dropout_rate"] = header["config"]["dropout_rate"] = False
        return 0
    for name, change in (("ckpt-len-4", set_key("encoder", "max_len", value=4)),
                         ("ckpt-no-epoch", no_epoch),
                         ("ckpt-batch-0", set_key("config", "batch_size", value=0)),
                         ("ckpt-wide", set_key("encoder", "hidden_size", value=2 * d)),
                         ("ckpt-no-a", no_projection),
                         ("ckpt-raw", set_key("bounded", value=False)),
                         ("ckpt-escaped", set_key("id", value="../escaped")),
                         ("ckpt-bounded-str",
                          set_key("config", "bounded", value="false")),
                         ("ckpt-layer-str",
                          set_key("encoder", "trainable_layer", value="false")),
                         ("ckpt-rate-true",
                          set_key("config", "learning_rate", value=True)),
                         ("ckpt-dropout-false", dropout_false),
                         ("ckpt-bounded-int", set_key("bounded", value=1)),
                         ("ckpt-rmse-str", set_key("best_val_rmse", value="abc")),
                         ("ckpt-rmse-null", set_key("best_val_rmse", value=None)),
                         ("ckpt-epoch-neg", set_key("epoch_of_best", value=-5)),
                         ("ckpt-epoch-late", set_key("epoch_of_best", value=2)),
                         ("ckpt-eps-str", set_key("optimizer", "eps", value="x"))):
        edit_checkpoint(root / "ckpts", root / name, change)
    shutil.copytree(root / "ckpts", root / "ckpt-copied")
    shutil.copy(root / "ckpt-copied/M1.ckpt", root / "ckpt-copied/M2.ckpt")

    def raw_quad(key, value):
        def change(rows):
            rows[1]["Quadruplets"][0][key] = value
            return rows
        return change
    rewrite(root / "raw", root / "blank-raw", raw_quad("Aspect", "  "))
    rewrite(root / "raw", root / "list-raw", raw_quad("Aspect", ["battery"]))
    rewrite(root / "raw", root / "true-va-raw",
            raw_quad("VA", {"Valence": True, "Arousal": 5.0}))
    rewrite(root / "raw", root / "int-id-raw", set_field("ID", 7))
    rewrite(root / "raw", root / "blank-id-raw", set_field("ID", "  "))
    return root


@pytest.mark.parametrize("name", list(ROWS))
def test_bad_input_stops_with_one_line(inputs, tmp_path, name):
    argv, expected = ROWS[name]
    argv = [arg.format(root=inputs) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    out = Path(argv[argv.index("--out") + 1])
    before = files_under(out)
    path = os.pathsep.join(filter(None, [str(SRC_ROOT),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dimasr.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode != 0
    lines = [line for line in proc.stderr.splitlines()
             if not line.startswith("INFO ")]
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    for text in expected:
        assert text.format(root=inputs) in lines[0]
    assert files_under(out) == before


def files_under(out: Path) -> list[Path] | None:
    """The paths under `out`, or None when there is no such directory."""
    return sorted(out.rglob("*")) if out.exists() else None
