"""Batch pipeline: preprocess -> train -> predict -> evaluate -> ensemble -> submit.

Stages communicate only through files, so each is independently runnable and
a rerun on unchanged inputs is byte-identical.  Each stage runs inside one
`Stage`, which resolves the files it reads, records the files it writes and
finishes with a manifest of both by content hash; the run id is derived from
those hashes, never from wall-clock time.

Only corpus is imported at module level: the numpy-backed layers (encoding,
trainer, ensemble) and metrics are imported by the stages that run them, so
preprocess, evaluate and submit start without loading numpy, and none of
them loads `dataclasses` or `logging`: corpus records are NamedTuples and
progress lines go to stderr through `dimasr.log`.  Run as the
`dimasr` command or `python -m dimasr.cli` (both `run`), a stage that returns
flushes stdout and stderr and leaves with `os._exit`, skipping interpreter
teardown; an uncaught exception takes the normal path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, corpus, log
from .corpus import (REGIMES, Instance, PairID, ParseError, build, format_va,
                     pair_sort_key, parse_va, read_json, record_error)

if TYPE_CHECKING:
    from . import encoding, metrics, trainer

# Stages multiply small arrays: an OpenBLAS thread pool costs start-up, saves nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# Named, not __name__: run with -m, the module is __main__.
LOG_NAME = "dimasr.cli"

MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# canonical file I/O

def canonical_json(obj) -> str:
    # With indent set, json.dumps runs the pure-Python encoder.  Instance,
    # prediction and submission files are lists of str-to-str rows, so lay
    # those out here, quoting each string with the C encoder: same bytes.
    if obj and isinstance(obj, list) and all(
            row and isinstance(row, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in row.items())
            for row in obj):
        quote = json.encoder.encode_basestring
        return "[\n" + ",\n".join(
            "  {\n" + ",\n".join(f"    {quote(k)}: {quote(v)}"
                                 for k, v in sorted(row.items())) + "\n  }"
            for row in obj) + "\n]\n"
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def write_json(path: Path, obj) -> None:
    path.write_text(canonical_json(obj), encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# instance / prediction files

def instance_rows(instances: list[Instance]) -> list[dict]:
    rows = []
    for inst in instances:
        row = {"ID": inst.id, "Text": inst.text, "Aspect": inst.aspect,
               "Pair": str(inst.pair)}
        if inst.gold is not None:
            row["VA"] = format_va(*inst.gold)
        rows.append(row)
    return rows


def _file_pair(path: Path) -> PairID:
    """The pair a per-pair file is named after; any other name is a ParseError."""
    try:
        return PairID.parse(path.stem)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _check_unique(path: Path, keys: list[tuple[str, str]]) -> None:
    """A ParseError naming the record that repeats an earlier (ID, Aspect) key."""
    first_at = {}
    for i, key in enumerate(keys):
        if first_at.setdefault(key, i) != i:
            raise ParseError(f"{path}: record {i}: duplicate (ID, Aspect) key "
                             f"{key}, first at record {first_at[key]}")


def _check_pair(path: Path, rows: list[dict]) -> None:
    """A ParseError naming the first record whose "Pair" is not the file's."""
    pair = path.stem
    for i, row in enumerate(rows):
        if row.get("Pair", pair) != pair:
            raise record_error(path, i, "Pair", f"{row['Pair']!r} in a file "
                                                f"named for {pair!r}")


def load_instances(path: Path) -> list[Instance]:
    """Instances of a per-pair file.  A record that is not an object, an ID,
    Text or Aspect that is missing or not a string, a blank ID or Aspect, a
    bad VA or Pair or a repeated (ID, Aspect) key is a ParseError naming the
    record."""
    pair = _file_pair(path)
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ParseError(f"{path}: not a JSON array")
    instances = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ParseError(f"{path}: record {i}: not an object")
        for name in ("ID", "Text", "Aspect"):
            if not isinstance(row.get(name), str):
                detail = "not a string" if name in row else "missing"
                raise record_error(path, i, name, detail)
        for name in ("ID", "Aspect"):   # a blank Aspect has no token to encode
            if not row[name].strip():
                raise record_error(path, i, name, "blank")
        try:
            gold = parse_va(row["VA"]) if "VA" in row else None
        except ParseError as exc:
            raise record_error(path, i, "VA", str(exc)) from None
        instances.append(Instance(id=row["ID"], text=row["Text"],
                                  aspect=row["Aspect"], gold=gold, pair=pair))
    _check_pair(path, rows)
    _check_unique(path, [inst.key for inst in instances])
    return instances


def write_predictions(path: Path, keys: list[tuple[str, str]],
                      values: list[list[float]]) -> None:
    """One {ID, Aspect, VA} record per key and (valence, arousal) row, each
    value at full precision."""
    write_json(path, [{"ID": rid, "Aspect": aspect, "VA": format_va(v, a)}
                      for (rid, aspect), (v, a) in zip(keys, values)])


def load_predictions(path: Path) -> metrics.Columns:
    """A prediction (or gold instance) file as columns: its (ID, Aspect) keys
    in file order and their (valence, arousal) float rows, read without
    numpy.  A top level that is not an array, or a record without a string
    ID and Aspect or a finite "v#a" VA in ASCII decimals, or with a bad
    Pair, is a ParseError naming the path, the record and the field."""
    from .metrics import Columns
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ParseError(f"{path}: not a JSON array")
    keys, vas, values, i = [], [], [], 0
    try:
        for i, row in enumerate(rows):
            keys.append((row["ID"], row["Aspect"]))
            vas.append(row["VA"])
            valence, _, arousal = vas[i].partition("#")
            values.append((float(valence), float(arousal)))
        if not corpus.decimal_text("".join(vas)):   # one pass for the file
            i = next(j for j, va in enumerate(vas) if not corpus.decimal_text(va))
            raise ValueError
    except KeyError as exc:
        raise record_error(path, i, exc.args[0], "missing") from None
    except TypeError:
        raise ParseError(f"{path}: record {i}: not an object") from None
    except (AttributeError, ValueError):
        raise record_error(path, i, "VA", f"not a 'v#a' string: {rows[i]['VA']!r}") from None
    for i, (rid, aspect) in enumerate(keys):
        if not (isinstance(rid, str) and isinstance(aspect, str)):
            raise record_error(path, i, "Aspect" if isinstance(rid, str) else "ID",
                               "not a string")
    if not all(map(math.isfinite, chain.from_iterable(values))):
        i = next(j for j, va in enumerate(values) if not all(map(math.isfinite, va)))
        raise record_error(path, i, "VA", f"non-finite VA value {rows[i]['VA']!r}")
    _check_pair(path, rows)
    return Columns(keys, values, str(path))


# ---------------------------------------------------------------------------
# stage runs

class Stage:
    """One run of a stage: the files it read, the files it wrote, and the
    manifest that records both by content hash.

    Inputs are keyed `<flag>/<path relative to the flag's directory>`,
    outputs by their path under `out`.  Nothing under `out` is created
    before the first output, so a stage stopped by bad input leaves no
    `--out` directory behind.
    """

    def __init__(self, name: str, out: str):
        self.name, self.out = name, Path(out)
        self.inputs: dict[str, Path] = {}
        self.outputs: dict[str, Path] = {}

    def read(self, flag: str, root: Path, paths: list[Path],
             listed: bool = True) -> list[Path]:
        """Record `paths`, files under the `--flag` directory `root`, as
        inputs.  A stage never writes into its own input, nor where a later
        run reads it as input: an `--out` at or inside a listed `root`, or
        an input at or inside `--out`, is a ParseError naming both flags.  A
        file given by name, as `--config`, is not `listed`: only it counts."""
        out = self.out.resolve()
        for given in [root] if listed else paths:
            where = given.resolve()
            if listed and out == where:
                raise ParseError(f"--out {self.out} is the --{flag} directory: a "
                                 f"stage never writes into its own input")
            if listed and where in out.parents:
                raise ParseError(f"--out {self.out} is inside the --{flag} directory "
                                 f"{given}: a stage never writes into its own input")
            if out == where or out in where.parents:
                raise ParseError(f"--{flag} {given} is inside --out {self.out}: a "
                                 f"stage never reads its own output")
        for path in paths:
            self.inputs[f"{flag}/{path.relative_to(root).as_posix()}"] = path
        return paths

    def pair_files(self, flag: str, root: str, sub: str = "",
                   pairs: str | None = None) -> dict[PairID, Path]:
        """The per-pair files of `root/sub` by pair, in path order, recorded
        as inputs; `pairs` is a comma-separated `--pairs` filter.  A file
        name that is not a pair id, a `--pairs` entry without a file or a
        directory without pair files is a ParseError naming it."""
        root = Path(root)
        where = root / sub
        found = {_file_pair(f): f for f in sorted(where.glob("*.json"))
                 if f.name not in (MANIFEST_NAME, "report.json")}
        if pairs is not None:
            wanted = pairs.split(",")
            for name in wanted:
                if name not in map(str, found):
                    raise ParseError(f"--pairs entry {name!r}: no file "
                                     f"{where / name}.json")
            found = {p: f for p, f in found.items() if str(p) in wanted}
        if not found:
            raise ParseError(f"{where}: no per-pair files")
        self.read(flag, root, list(found.values()))
        return found

    def output(self, rel: str) -> Path:
        """The path of output `rel` under `out`, recorded, its parent created."""
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.outputs[rel] = path
        return path

    def finish(self, params: dict) -> None:
        """Write the manifest: relative paths only, so reruns into fresh
        directories match."""
        body = {"stage": self.name, "tool_version": __version__, "params": params,
                "inputs": {k: sha256_file(p) for k, p in self.inputs.items()},
                "outputs": {k: sha256_file(p) for k, p in self.outputs.items()}}
        digest = hashlib.sha256(
            canonical_json(body).encode("utf-8")).hexdigest()[:16]
        write_json(self.out / MANIFEST_NAME, {"run_id": digest, **body})


def _match_gold(gold_dir: str, gold: dict[PairID, Path],
                found: dict[Path, dict[PairID, Path]]) -> None:
    """A ParseError unless every directory in `found` holds exactly the gold
    pairs; the one line lists each directory's missing and extra pairs."""
    gaps = [f"{what} {where} [{', '.join(map(str, sorted(diff, key=pair_sort_key)))}]"
            for where, files in found.items()
            for what, diff in (("no predictions in", set(gold) - set(files)),
                               ("no gold for", set(files) - set(gold))) if diff]
    if gaps:
        raise ParseError(f"pair sets differ from the gold under {gold_dir}: "
                         f"{'; '.join(gaps)}")


def _encoding_error(exc: encoding.EncodingError, where, files: dict[PairID, Path],
                    per_pair: dict[PairID, list[Instance]],
                    spec: encoding.EncoderSpec) -> ParseError:
    """`exc`, raised encoding `per_pair` under `spec`, as a ParseError naming
    the file, record and field 'Aspect' of the first aspect the toy template
    rejects on its own, or else naming `where`.  Searched only after a
    failure, so a good run encodes each set once."""
    from . import encoding
    if spec.backend == encoding.BACKEND_TOY:
        for pair, instances in per_pair.items():
            for i, inst in enumerate(instances):
                try:
                    encoding.format_pair(inst.aspect, "", spec)
                except encoding.EncodingError as own:
                    return record_error(files[pair], i, "Aspect", str(own))
    return ParseError(f"{where}: {exc}")


# ---------------------------------------------------------------------------
# run configuration

RUN_CONFIG_KEYS = frozenset({"encoder", "validation_fraction", "grid"})


def _reject_unknown_keys(obj: dict, known: frozenset, where: str) -> None:
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r} "
                         f"(known: {', '.join(sorted(known))})")


def _check_grid(grid: list, path: str, regime: str, known: frozenset,
                required: list[str]) -> None:
    """A ParseError naming the file, entry and key of an empty grid, a grid
    entry that is not an object, has a key not `known` or lacks a `required`
    one, or a grid of several entries under --regime separate (trains one)."""
    if not isinstance(grid, list) or not grid:
        raise ParseError(f"{path}: key 'grid': no entries")
    if regime == "separate" and len(grid) > 1:
        raise ParseError(f"{path}: key 'grid': {len(grid)} entries, but "
                         f"--regime separate trains one")
    for i, entry in enumerate(grid):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: grid entry {i}: not an object")
        _reject_unknown_keys(entry, known, f"{path}: grid entry {i}")
        for key in required:
            if key not in entry:
                raise ParseError(f"{path}: grid entry {i}: missing key {key!r}")


def load_run_config(path: str | None, seed: int | None, regime: str
                    ) -> tuple[encoding.EncoderSpec, list[trainer.TrainConfig], float]:
    """Resolve encoder spec, training grid and validation fraction.

    A grid entry sets TrainConfig's fields but `regime`, at least those
    without a default; without a grid the entries are the default grid's, or
    its first under --regime separate.  An entry's values win over the
    file-wide ones, --seed wins over both, and --regime sets the regime.  A file
    that is missing, is not a JSON object, or has an unknown key, a
    validation fraction outside (0, 1), a grid that `_check_grid` rejects,
    a value that EncoderSpec or TrainConfig rejects, or two grid entries
    that resolve to one config raise ParseError.
    """
    from dataclasses import MISSING, fields

    from . import encoding, trainer
    known = frozenset(f.name for f in fields(trainer.TrainConfig)) - {"regime"}
    required = [f.name for f in fields(trainer.TrainConfig) if f.default is MISSING]
    raw = read_json(path) if path else {}
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: not a JSON object")
    _reject_unknown_keys(raw, RUN_CONFIG_KEYS | known.difference(required), str(path))
    fraction = raw.get("validation_fraction", 0.10)
    if not isinstance(fraction, (int, float)) or not 0.0 < fraction < 1.0:
        raise ParseError(f"{path}: key 'validation_fraction': must be in (0, 1), "
                         f"got {fraction!r}")
    spec = build(encoding.EncoderSpec, raw.get("encoder", {}), f"{path}: key 'encoder'")
    if "grid" in raw:
        _check_grid(raw["grid"], path, regime, known, required)
        entries = raw["grid"]
    else:
        entries = [{key: getattr(c, key) for key in required}
                   for c in trainer.default_grid()[:1 if regime == "separate" else None]]
    file_wide = {key: value for key, value in raw.items() if key in known}
    flags = {"regime": regime} if seed is None else {"regime": regime, "seed": seed}
    grid = [build(trainer.TrainConfig, {**file_wide, **entry, **flags},
                  f"{path}: grid entry {i}" if "grid" in raw else str(path))
            for i, entry in enumerate(entries)]
    for i, config in enumerate(grid):
        if config in grid[:i]:
            raise ParseError(f"{path}: grid entry {i}: same as entry {grid.index(config)}")
    return spec, grid, fraction


# ---------------------------------------------------------------------------
# stages

def cmd_preprocess(args) -> int:
    stage = Stage("preprocess", args.out)
    files = stage.pair_files("input", args.input, pairs=args.pairs)
    # Every file is parsed before any is written: a bad one stops the stage.
    parsed = {pair: corpus.parse_quadruplet_file(f, pair) for pair, f in files.items()}
    total = corpus.PreprocessReport()
    per_pair = {}
    for pair, records in parsed.items():
        instances, report = corpus.preprocess(records)
        if not instances:
            log(LOG_NAME, f"{files[pair].name}: no instances survive "
                          f"preprocessing ({report.as_dict()})", "WARNING")
        write_json(stage.output(f"{pair}.json"), instance_rows(instances))
        per_pair[str(pair)] = report.as_dict()
        total = total.merged(report)
    report_path = stage.output("report.json")
    write_json(report_path, {"pairs": per_pair, "total": total.as_dict()})
    stage.finish({"pairs": args.pairs})
    log(LOG_NAME, f"preprocess: {len(files)} files, {total.instances_out} "
                  f"instances out, report at {report_path}")
    return 0


def cmd_train(args) -> int:
    from . import encoding, trainer
    stage = Stage("train", args.out)
    if args.config:
        stage.read("config", Path(args.config).parent, [Path(args.config)],
                   listed=False)
    spec, grid, fraction = load_run_config(args.config, args.seed, args.regime)
    files = stage.pair_files("data", args.data, pairs=args.pairs)
    per_pair = {pair: load_instances(f) for pair, f in files.items()}
    unlabelled = [(f, i) for pair, f in files.items()
                  for i, inst in enumerate(per_pair[pair]) if inst.gold is None]
    if unlabelled:
        raise record_error(*unlabelled[0], "VA", "missing; training needs gold VA")
    # Joint: the grid, as M1..Mk, on the pooled pairs; separate: its one config per pair.
    groups = ([(args.data, corpus.pool_pairs(per_pair),
                [f"M{i}" for i in range(1, len(grid) + 1)])]
              if args.regime == "joint" else
              [(files[pair], insts, [str(pair)]) for pair, insts in per_pair.items()])
    checkpoints = []
    for where, instances, ids in groups:
        if len({inst.id for inst in instances}) < 2:
            raise ParseError(f"{where}: fewer than two records to split for validation")
        train_set, val_set = corpus.split_train_validation(
            instances, fraction, grid[0].seed)
        try:
            checkpoints += trainer.train_grid(train_set, val_set, grid, spec, ids)
        except encoding.EncodingError as exc:
            raise _encoding_error(exc, where, files, per_pair, spec) from None
        except trainer.TrainingError as exc:
            raise ParseError(f"{where}: {exc}") from None

    for ckpt in checkpoints:
        ckpt.save(stage.output(f"{ckpt.id}.ckpt"))
        stage.output(f"{ckpt.id}.log").write_text(
            "".join(f"epoch {h['epoch']} train_mse {h['train_mse']:.6f} "
                    f"val_rmse {h['val_rmse']:.6f}\n" for h in ckpt.history),
            encoding="utf-8")
    stage.finish({"regime": args.regime, "seed": args.seed,
                  "grid": [c.to_dict() for c in grid], "encoder": spec.to_dict(),
                  "validation_fraction": fraction})
    log(LOG_NAME, f"train: wrote {len(checkpoints)} checkpoints to {stage.out}")
    return 0


def cmd_predict(args) -> int:
    from . import encoding, trainer
    stage = Stage("predict", args.out)
    ckpt_dir = Path(args.ckpts)
    ckpt_files = stage.read("ckpts", ckpt_dir, sorted(ckpt_dir.glob("*.ckpt")))
    if not ckpt_files:
        raise ParseError(f"{ckpt_dir}: no checkpoint files")
    files = stage.pair_files("data", args.data, pairs=args.pairs)
    per_pair = {pair: load_instances(f) for pair, f in files.items()}
    checkpoints = [trainer.Checkpoint.load(f) for f in ckpt_files]
    for f, ckpt in zip(ckpt_files, checkpoints):   # the id names a member directory
        if ckpt.id != f.stem or ckpt.id in (".", ".."):
            raise ParseError(f"{f}: checkpoint id {ckpt.id!r} cannot name a member "
                             f"directory: it must be the file name {f.stem!r}, "
                             f"and neither '.' nor '..'")
    # Features depend on the encoder spec and the instance only: encode all
    # pairs' instances in one call per distinct spec, before any file is
    # written, and split the rows back per pair.
    pooled = [inst for instances in per_pair.values() for inst in instances]
    features = {}
    for spec in dict.fromkeys(ckpt.encoder_spec for ckpt in checkpoints):
        try:
            rows = encoding.instance_features(pooled, spec)
        except encoding.EncodingError as exc:
            raise _encoding_error(exc, args.data, files, per_pair, spec) from None
        at = 0
        for pair, instances in per_pair.items():
            features[pair, spec] = rows[at:at + len(instances)]
            at += len(instances)
    for pair, instances in per_pair.items():
        keys = [inst.key for inst in instances]
        for ckpt in checkpoints:
            write_predictions(stage.output(f"{ckpt.id}/{pair}.json"), keys,
                              ckpt.predict(features[pair, ckpt.encoder_spec]).tolist())
    stage.finish({"pairs": args.pairs})
    log(LOG_NAME, f"predict: {len(ckpt_files)} checkpoints x {len(per_pair)} "
                  f"pairs -> {stage.out}")
    return 0


def _load_columns(files: dict[PairID, Path], gold: dict[PairID, metrics.Columns]
                  ) -> dict[PairID, metrics.Columns]:
    """The columns of per-pair dev prediction files, by pair, each aligned to
    its gold file's keys as soon as it is read, so it keeps the gold key
    list instead of its own and a file whose keys differ is a ParseError
    naming it and the gold file."""
    from .metrics import align_columns
    out = {}
    for pair, path in files.items():
        cols = load_predictions(path)
        out[pair] = cols._replace(keys=gold[pair].keys,
                                  values=align_columns(cols, gold[pair]))
    return out


def _check_gold(gold: dict[PairID, metrics.Columns]) -> dict[PairID, metrics.Columns]:
    """Gold columns per pair, read like prediction files: a file without
    records, a record without VA, as in a test split, a blank ID, a VA
    preprocessing drops or a repeated (ID, Aspect) key is a ParseError."""
    for g in gold.values():
        if not g.keys:
            raise ParseError(f"{g.source}: no records to score against")
        for i, (rid, _) in enumerate(g.keys):
            if not rid.strip():
                raise record_error(g.source, i, "ID", "blank")
        for i, va in enumerate(g.values):
            if not corpus.VAScore(*va).in_range():
                raise record_error(g.source, i, "VA", f"{format_va(*va)} outside "
                                   f"[{corpus.VA_MIN}, {corpus.VA_MAX}]")
        _check_unique(g.source, g.keys)
    return gold


def cmd_evaluate(args) -> int:
    from . import metrics
    stage = Stage("evaluate", args.out)
    gold_files = stage.pair_files("gold", args.gold)
    pred_files = stage.pair_files("pred", args.pred)
    _match_gold(args.gold, gold_files, {Path(args.pred): pred_files})
    gold = _check_gold({pair: load_predictions(f) for pair, f in gold_files.items()})
    preds = {pair: metrics.align_columns(load_predictions(f), gold[pair])
             for pair, f in pred_files.items()}
    report = metrics.evaluate(preds, {p: g.values for p, g in gold.items()})
    for pair, rmse in report.per_pair.items():   # the report must be valid JSON
        if not math.isfinite(rmse):
            raise ParseError(f"{pred_files[pair]}: pair {pair}: rmse_va overflows: "
                             f"a squared error passes the float range")

    write_json(stage.output("report.json"), report.as_dict())
    stage.output("report.txt").write_text(report.render_table() + "\n",
                                          encoding="utf-8")
    stage.finish({})
    print(report.render_table())
    return 0


def cmd_ensemble(args) -> int:
    from . import ensemble, metrics
    if args.min_size > ensemble.MAX_POOL_SIZE:
        args.parser.error(f"argument --min-size: {args.min_size} is above "
                          f"MAX_POOL_SIZE {ensemble.MAX_POOL_SIZE}")
    if args.max_size is not None and args.max_size < args.min_size:
        args.parser.error(f"argument --max-size: {args.max_size} is below "
                          f"--min-size {args.min_size}")
    stage = Stage("ensemble", args.out)
    dev_root = Path(args.dev_preds)
    member_ids = [p.name for p in sorted(dev_root.glob("*")) if p.is_dir()]
    least = max(2, args.min_size)
    if not least <= len(member_ids) <= ensemble.MAX_POOL_SIZE:
        raise ParseError(f"{dev_root} holds {len(member_ids)} member directories; "
                         f"need {least} to {ensemble.MAX_POOL_SIZE}")
    if args.test_preds:
        extra = next((p for p in sorted(Path(args.test_preds).glob("*"))
                      if p.is_dir() and p.name not in member_ids), None)
        if extra is not None:
            raise ParseError(f"{extra}: member directory without a match "
                             f"under {dev_root}")
    roots = {"dev": args.dev_preds, "test": args.test_preds}
    files = {split: {mid: stage.pair_files(f"{split}-preds", root, mid)
                     for mid in member_ids}
             for split, root in roots.items() if root}
    gold_files = stage.pair_files("dev-gold", args.dev_gold)
    _match_gold(args.dev_gold, gold_files,
                {Path(roots[split]) / mid: found
                 for split, by_member in files.items()
                 for mid, found in by_member.items()})
    gold = _check_gold({pair: load_predictions(f) for pair, f in gold_files.items()})
    # One key list per pair and split: the gold file's on dev, which the
    # pool then finds as its first member's, and the first member's on test.
    # Passed as a generator, the members are read one at a time, each file
    # aligned to that list and freed once the pool holds it as an array.
    pool = ensemble.CandidatePool(ensemble.Member(
                   id=mid, dev=_load_columns(files["dev"][mid], gold),
                   test={pair: load_predictions(f)
                         for pair, f in files.get("test", {}).get(mid, {}).items()})
               for mid in member_ids)
    selection = ensemble.search(pool, gold, min_size=args.min_size,
                                max_size=args.max_size)
    combined = {split: ensemble.apply(selection, pool, split) for split in files}
    dev_report = metrics.evaluate(combined["dev"],
                                  {p: g.values for p, g in gold.items()})

    write_json(stage.output("selection.json"), selection.to_dict())
    stage.output("membership.txt").write_text(
        selection.render_membership_matrix() + "\n", encoding="utf-8")
    for split, by_pair in combined.items():
        for pair, values in by_pair.items():
            write_predictions(stage.output(f"{split}/{pair}.json"),
                              pool.reference[split][pair].keys, values)
    write_json(stage.output("dev_report.json"), dev_report.as_dict())
    for pair, values in combined.get("test", {}).items():
        write_submission(stage.output(f"submission/{pair}.json"),
                         pool.reference["test"][pair].keys, values)
    stage.finish({"min_size": args.min_size, "max_size": args.max_size})
    print(selection.render_membership_matrix())
    return 0


def write_submission(path: Path, keys: list[tuple[str, str]], values,
                     clamp: bool = True, precision: int = 2) -> int:
    """Write a leaderboard-format file from (valence, arousal) rows of
    floats, each value to `precision` decimals; returns how many rows were
    clamped into [VA_MIN, VA_MAX]."""
    lo, hi = corpus.VA_MIN, corpus.VA_MAX
    rows = []
    n_clamped = 0
    for (rid, aspect), (v, a) in zip(keys, values):
        if clamp:
            cv, ca = min(max(v, lo), hi), min(max(a, lo), hi)
            if (cv, ca) != (v, a):
                n_clamped += 1
                log(LOG_NAME, f"clamped {rid}/{aspect}: {format_va(v, a)} -> "
                              f"{format_va(cv, ca)}")
                v, a = cv, ca
        rows.append({"ID": rid, "Aspect": aspect, "VA": format_va(v, a, precision)})
    write_json(path, rows)
    return n_clamped


def cmd_submit(args) -> int:
    stage = Stage("submit", args.out)
    files = stage.pair_files("pred", args.pred, pairs=args.pairs)
    read = {f: load_predictions(f) for f in files.values()}   # all before writing any
    for f, cols in read.items():
        _check_unique(f, cols.keys)
    total_clamped = 0
    for f, cols in read.items():
        total_clamped += write_submission(stage.output(f.name), cols.keys, cols.values,
                                          clamp=args.clamp, precision=args.precision)
    stage.finish({"clamp": args.clamp, "precision": args.precision,
                  "pairs": args.pairs})
    log(LOG_NAME, f"submit: wrote {len(files)} files ({total_clamped} values clamped)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _at_least(low: int):
    """An argparse type: an int no smaller than `low`."""
    def check(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    check.__name__ = "int"   # argparse's "invalid int value" for non-numbers
    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimasr",
        description="Aspect-level valence-arousal regression pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean raw quadruplet files")
    p.add_argument("--input", required=True, help="dir of per-pair raw files")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", help="comma-separated pair filter, e.g. zho-res,eng-lap")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the candidate grid")
    p.add_argument("--data", required=True, help="dir of per-pair instance files")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON run config (encoder, grid, seed, ...)")
    p.add_argument("--regime", choices=REGIMES, default="joint")
    p.add_argument("--seed", type=_at_least(0), help="override the configured seed")
    p.add_argument("--pairs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict with trained checkpoints")
    p.add_argument("--ckpts", required=True, help="dir of .ckpt files")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score one prediction dir against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="per-pair subset search over candidates")
    p.add_argument("--dev-preds", required=True,
                   help="root dir with <member>/<pair>.json dev predictions")
    p.add_argument("--test-preds", help="matching root for test predictions")
    p.add_argument("--dev-gold", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-size", type=_at_least(1), default=2)
    p.add_argument("--max-size", type=_at_least(1), default=None)
    p.set_defaults(func=cmd_ensemble, parser=p)

    p = sub.add_parser("submit", help="export leaderboard-format files")
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs")
    p.add_argument("--no-clamp", dest="clamp", action="store_false")
    p.add_argument("--precision", type=_at_least(0), default=2)
    p.set_defaults(func=cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The `dimasr` command and `python -m dimasr.cli`: once `main` has
    returned, its manifest written, flush stdout and stderr and leave with
    `os._exit`, skipping interpreter teardown (unloading numpy alone costs
    tens of ms).  An uncaught exception, or argparse's exit, takes the
    normal path."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
