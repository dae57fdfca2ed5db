"""Batch pipeline: preprocess -> train -> predict -> evaluate -> ensemble -> submit.

Stages communicate only through files, so each is independently runnable and
a rerun on unchanged inputs is byte-identical.  Every stage writes a manifest
listing its inputs and outputs with content hashes; the run id is derived
from those hashes, never from wall-clock time.

Only corpus is imported at module level: the numpy-backed layers (encoding,
trainer, metrics, ensemble) are imported by the stages that run them, so
preprocess and submit start without loading numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, corpus
from .corpus import (REGIMES, Instance, PairID, ParseError, VAScore, format_va,
                     pair_sort_key, parse_va)

if TYPE_CHECKING:
    import numpy as np

    from . import encoding, metrics, trainer

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# canonical file I/O

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj), encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, stage: str, params: dict,
                   inputs: dict[str, str], outputs: list[Path]) -> None:
    """Manifest with relative paths only, so reruns into fresh dirs match."""
    out_hashes = {str(p.relative_to(out_dir)): sha256_file(p)
                  for p in sorted(outputs)}
    body = {"stage": stage, "tool_version": __version__, "params": params,
            "inputs": inputs, "outputs": out_hashes}
    digest = hashlib.sha256(
        canonical_json(body).encode("utf-8")).hexdigest()[:16]
    write_json(out_dir / MANIFEST_NAME, {"run_id": digest, **body})


# ---------------------------------------------------------------------------
# instance / prediction files

def instance_rows(instances: list[Instance]) -> list[dict]:
    rows = []
    for inst in instances:
        row = {"ID": inst.id, "Text": inst.text, "Aspect": inst.aspect,
               "Pair": str(inst.pair)}
        if inst.gold is not None:
            row["VA"] = format_va(inst.gold)
        rows.append(row)
    return rows


def _file_pair(path: Path) -> PairID:
    """The pair a per-pair file is named after; any other name is a ParseError."""
    try:
        return PairID.parse(path.stem)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _record_error(path: Path, i: int, problem: Exception | str) -> ParseError:
    """One line naming record i of `path`: a KeyError names the missing field,
    a TypeError a record that is not an object, any other problem the VA."""
    if isinstance(problem, KeyError):
        return ParseError(f"{path}: record {i}: field {problem.args[0]!r}: missing")
    if isinstance(problem, TypeError):
        return ParseError(f"{path}: record {i}: not an object")
    return ParseError(f"{path}: record {i}: field 'VA': {problem}")


def _check_unique(path: Path, keys: list[tuple[str, str]]) -> None:
    """A ParseError naming the record that repeats an earlier (ID, Aspect) key."""
    first_at = {}
    for i, key in enumerate(keys):
        if first_at.setdefault(key, i) != i:
            raise ParseError(f"{path}: record {i}: duplicate (ID, Aspect) key "
                             f"{key}, first at record {first_at[key]}")


def load_instances(path: Path) -> list[Instance]:
    """Instances of a per-pair file.  A record without ID, Text or Aspect, a
    bad VA or a repeated (ID, Aspect) key is a ParseError naming the record."""
    pair = _file_pair(path)
    rows = json.loads(path.read_text(encoding="utf-8"))
    instances = []
    try:
        for row in rows:
            gold = parse_va(row["VA"]) if "VA" in row else None
            instances.append(Instance(id=row["ID"], text=row["Text"],
                                      aspect=row["Aspect"], gold=gold, pair=pair))
    except (KeyError, TypeError, ParseError) as exc:
        raise _record_error(path, len(instances), exc) from None
    _check_unique(path, [inst.key for inst in instances])
    return instances


def write_predictions(path: Path, keys: list[tuple[str, str]],
                      values: list[list[float]]) -> None:
    """One {ID, Aspect, VA} record per key and (valence, arousal) row."""
    write_json(path, [{"ID": rid, "Aspect": aspect, "VA": format_va(VAScore(*va))}
                      for (rid, aspect), va in zip(keys, values)])


def _prediction_rows(path: Path) -> tuple[list[tuple[str, str]], list[float]]:
    """A prediction file's keys and its VA values flat as [v0, a0, v1, ...],
    read without numpy; a record without ID, Aspect or a finite "v#a" VA is
    a ParseError naming the path, the record and the field."""
    rows = json.loads(path.read_text(encoding="utf-8"))
    keys, flat, i = [], [], 0
    try:
        for i, row in enumerate(rows):
            keys.append((row["ID"], row["Aspect"]))
            valence, _, arousal = row["VA"].partition("#")
            flat += (float(valence), float(arousal))
    except (KeyError, TypeError) as exc:
        raise _record_error(path, i, exc) from None
    except (AttributeError, ValueError):
        raise _record_error(path, i, f"not a 'v#a' string: {rows[i]['VA']!r}") from None
    if not all(map(math.isfinite, flat)):
        i = next(j for j, x in enumerate(flat) if not math.isfinite(x)) // 2
        raise _record_error(path, i, f"non-finite VA value {rows[i]['VA']!r}")
    return keys, flat


def load_predictions(path: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    """The (ID, Aspect) keys of a prediction (or gold instance) file in file
    order and their (n, 2) float64 VA values; see `_prediction_rows`."""
    import numpy as np
    keys, flat = _prediction_rows(path)
    return keys, np.array(flat, dtype=np.float64).reshape(-1, 2)


def _pair_files(data_dir: Path, pairs_filter: set[str] | None) -> list[Path]:
    files = [p for p in sorted(data_dir.glob("*.json"))
             if p.name != MANIFEST_NAME and p.stem != "report"]
    if pairs_filter is not None:
        files = [p for p in files if p.stem in pairs_filter]
    return files


def _load_pair_map(data_dir: Path,
                   pairs_filter: set[str] | None = None) -> dict[PairID, list[Instance]]:
    out = {}
    for f in _pair_files(data_dir, pairs_filter):
        out[_file_pair(f)] = load_instances(f)
    if not out:
        raise FileNotFoundError(f"no per-pair instance files under {data_dir}")
    return out


# ---------------------------------------------------------------------------
# run configuration

RUN_CONFIG_KEYS = frozenset(
    {"encoder", "seed", "patience", "dropout_rate", "validation_fraction", "grid"})
GRID_ENTRY_KEYS = frozenset(
    {"batch_size", "learning_rate", "max_epochs", "bounded", "seed", "patience",
     "dropout_rate"})


def _reject_unknown_keys(obj: dict, known: frozenset, where: str) -> None:
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r} "
                         f"(known: {', '.join(sorted(known))})")


def load_run_config(path: str | None, seed: int | None, regime: str
                    ) -> tuple[encoding.EncoderSpec, list[trainer.TrainConfig], float]:
    """Resolve encoder spec, training grid and validation fraction.

    Without a config file the grid is the default seven-candidate grid; the
    --seed flag overrides any configured seed.  An unknown key, at the top
    level or in a grid entry, raises ParseError (a ValueError) naming it.
    """
    from . import encoding, trainer
    raw = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
    _reject_unknown_keys(raw, RUN_CONFIG_KEYS, str(path))
    for i, entry in enumerate(raw.get("grid", [])):
        _reject_unknown_keys(entry, GRID_ENTRY_KEYS, f"{path}: grid entry {i}")
    base_seed = seed if seed is not None else raw.get("seed", 42)
    patience = raw.get("patience", 2)
    dropout = raw.get("dropout_rate", 0.1)
    fraction = raw.get("validation_fraction", 0.10)
    spec = (encoding.EncoderSpec.from_dict(raw["encoder"]) if "encoder" in raw
            else encoding.EncoderSpec())
    if "grid" in raw:
        grid = [trainer.TrainConfig(
                    batch_size=entry["batch_size"],
                    learning_rate=entry["learning_rate"],
                    max_epochs=entry["max_epochs"],
                    bounded=entry["bounded"],
                    seed=entry.get("seed", base_seed),
                    patience=entry.get("patience", patience),
                    regime=regime,
                    dropout_rate=entry.get("dropout_rate", dropout))
                for entry in raw["grid"]]
    else:
        grid = [trainer.TrainConfig(**{**c.to_dict(),
                                       "seed": base_seed, "patience": patience,
                                       "regime": regime, "dropout_rate": dropout})
                for c in trainer.default_grid()]
    return spec, grid, fraction


# ---------------------------------------------------------------------------
# stages

def cmd_preprocess(args) -> int:
    in_dir, out_dir = Path(args.input), Path(args.out)
    pairs_filter = set(args.pairs.split(",")) if args.pairs else None
    files = _pair_files(in_dir, pairs_filter)
    if not files:
        print(f"error: no input files under {in_dir}", file=sys.stderr)
        return 1

    failures = 0
    total = corpus.PreprocessReport()
    per_pair = {}
    inputs, outputs = {}, []
    for f in files:
        inputs[f.name] = sha256_file(f)
        try:
            pair = _file_pair(f)
            records = corpus.parse_quadruplet_file(f, pair)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
            continue
        instances, report = corpus.preprocess(records)
        if not instances:
            logger.warning("%s: no instances survive preprocessing (%s)",
                           f.name, report.as_dict())
        dest = out_dir / f"{pair}.json"
        write_json(dest, instance_rows(instances))
        outputs.append(dest)
        per_pair[str(pair)] = report.as_dict()
        total = total.merged(report)

    report_path = out_dir / "report.json"
    write_json(report_path, {"pairs": per_pair, "total": total.as_dict()})
    outputs.append(report_path)
    write_manifest(out_dir, "preprocess", {"pairs": args.pairs}, inputs, outputs)
    logger.info("preprocess: %d files, %d instances out, report at %s",
                len(files), total.instances_out, report_path)
    return 1 if failures else 0


def cmd_train(args) -> int:
    from . import trainer
    data_dir, out_dir = Path(args.data), Path(args.out)
    spec, grid, fraction = load_run_config(args.config, args.seed, args.regime)
    pairs_filter = set(args.pairs.split(",")) if args.pairs else None
    per_pair = _load_pair_map(data_dir, pairs_filter)
    inputs = {f.name: sha256_file(f) for f in _pair_files(data_dir, pairs_filter)}

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if args.regime == "joint":
        pooled = corpus.pool_pairs(per_pair)
        train_set, val_set = corpus.split_train_validation(
            pooled, fraction, grid[0].seed)
        checkpoints = trainer.train_grid(train_set, val_set, grid, spec)
    else:
        # Separate regime trains the first grid config independently per pair.
        checkpoints = list(trainer.train_separate(per_pair, grid[0], spec,
                                                  fraction).values())

    for ckpt in checkpoints:
        path = out_dir / f"{ckpt.id}.ckpt"
        ckpt.save(path)
        outputs.append(path)
        log_path = out_dir / f"{ckpt.id}.log"
        log_path.write_text(
            "".join(f"epoch {h['epoch']} train_mse {h['train_mse']:.6f} "
                    f"val_rmse {h['val_rmse']:.6f}\n" for h in ckpt.history),
            encoding="utf-8")
        outputs.append(log_path)

    params = {"regime": args.regime, "seed": args.seed,
              "grid": [c.to_dict() for c in grid], "encoder": spec.to_dict(),
              "validation_fraction": fraction}
    write_manifest(out_dir, "train", params, inputs, outputs)
    logger.info("train: wrote %d checkpoints to %s", len(checkpoints), out_dir)
    return 0


def cmd_predict(args) -> int:
    from . import encoding, trainer
    ckpt_dir, data_dir, out_dir = Path(args.ckpts), Path(args.data), Path(args.out)
    ckpt_files = sorted(ckpt_dir.glob("*.ckpt"))
    if not ckpt_files:
        print(f"error: no checkpoints under {ckpt_dir}", file=sys.stderr)
        return 1
    pairs_filter = set(args.pairs.split(",")) if args.pairs else None
    per_pair = _load_pair_map(data_dir, pairs_filter)

    inputs = {f.name: sha256_file(f) for f in ckpt_files}
    inputs.update({f.name: sha256_file(f) for f in _pair_files(data_dir, pairs_filter)})
    outputs = []
    checkpoints = [trainer.Checkpoint.load(f) for f in ckpt_files]
    for pair, instances in per_pair.items():
        # Features depend on the encoder spec only: encode each pair once
        # per distinct spec and share them across checkpoints.
        features = {}
        for ckpt in checkpoints:
            spec = ckpt.encoder_spec
            if spec not in features:
                features[spec] = encoding.instance_features(instances, spec)
            preds = ckpt.predict(instances, features=features[spec])
            dest = out_dir / ckpt.id / f"{pair}.json"
            write_predictions(dest, [p.key for p in preds],
                              [p.va.as_tuple() for p in preds])
            outputs.append(dest)
    write_manifest(out_dir, "predict", {"pairs": args.pairs}, inputs, outputs)
    logger.info("predict: %d checkpoints x %d pairs -> %s",
                len(ckpt_files), len(per_pair), out_dir)
    return 0


def _load_columns(files: list[Path]) -> dict[PairID, metrics.Columns]:
    """The columns of per-pair prediction (or gold) files, by pair."""
    from .metrics import Columns
    return {_file_pair(f): Columns(*load_predictions(f), str(f)) for f in files}


def _load_gold(gold_dir: Path) -> dict[PairID, metrics.Columns]:
    """Gold columns per pair, read like prediction files: a record without
    VA, as in a test split, or a repeated (ID, Aspect) key is a ParseError."""
    gold = _load_columns(_pair_files(gold_dir, None))
    if not gold:
        raise ParseError(f"{gold_dir}: no per-pair gold files")
    for g in gold.values():
        _check_unique(g.source, g.keys)
    return gold


def cmd_evaluate(args) -> int:
    from . import metrics
    pred_dir, gold_dir, out_dir = Path(args.pred), Path(args.gold), Path(args.out)
    gold = _load_gold(gold_dir)
    preds = {}
    for pair, ref in gold.items():
        path = pred_dir / f"{pair}.json"
        if not path.exists():
            print(f"error: missing prediction file {path}", file=sys.stderr)
            return 1
        preds[pair] = metrics.align_columns(
            metrics.Columns(*load_predictions(path), str(path)), ref)
    report = metrics.evaluate(preds, {p: g.values for p, g in gold.items()})

    inputs = {f"gold/{p}.json": sha256_file(gold_dir / f"{p}.json") for p in gold}
    inputs.update({f"pred/{p}.json": sha256_file(pred_dir / f"{p}.json")
                   for p in gold})
    report_json = out_dir / "report.json"
    write_json(report_json, report.as_dict())
    table_path = out_dir / "report.txt"
    table_path.parent.mkdir(parents=True, exist_ok=True)
    table_path.write_text(report.render_table() + "\n", encoding="utf-8")
    write_manifest(out_dir, "evaluate", {}, inputs, [report_json, table_path])
    print(report.render_table())
    return 0


def cmd_ensemble(args) -> int:
    from . import ensemble, metrics
    dev_root, gold_dir, out_dir = Path(args.dev_preds), Path(args.dev_gold), Path(args.out)
    test_root = Path(args.test_preds) if args.test_preds else None
    member_ids = sorted(p.name for p in dev_root.iterdir() if p.is_dir())
    least = max(2, args.min_size)
    if not least <= len(member_ids) <= ensemble.MAX_POOL_SIZE:
        print(f"error: {dev_root} holds {len(member_ids)} member directories; "
              f"need {least} to {ensemble.MAX_POOL_SIZE}", file=sys.stderr)
        return 1

    members = []
    inputs = {}
    for mid in member_ids:
        dev = _load_columns(sorted((dev_root / mid).glob("*.json")))
        test = (_load_columns(sorted((test_root / mid).glob("*.json")))
                if test_root else {})
        members.append(ensemble.Member(id=mid, dev=dev, test=test))
        for pair in dev:
            inputs[f"dev/{mid}/{pair}.json"] = sha256_file(
                dev_root / mid / f"{pair}.json")
    gold = _load_gold(gold_dir)
    for pair in gold:
        inputs[f"gold/{pair}.json"] = sha256_file(gold_dir / f"{pair}.json")

    no_preds = sorted({p for m in members for p in gold if p not in m.dev},
                      key=pair_sort_key)
    no_gold = sorted({p for m in members for p in m.dev if p not in gold},
                     key=pair_sort_key)
    if no_preds or no_gold:
        print(f"error: pair sets differ: no predictions under {dev_root} for "
              f"[{', '.join(map(str, no_preds))}], no gold under {gold_dir} "
              f"for [{', '.join(map(str, no_gold))}]", file=sys.stderr)
        return 1
    if test_root is not None:
        gaps = []
        for m in members:
            missing = sorted(set(gold) - set(m.test), key=pair_sort_key)
            if missing:
                gaps.append(f"{m.id} [{', '.join(map(str, missing))}]")
        if gaps:
            print(f"error: no test predictions under {test_root} for "
                  f"{'; '.join(gaps)}", file=sys.stderr)
            return 1
    # Aligns every member file; one whose keys differ is a ParseError naming it.
    pool = ensemble.CandidatePool(members, dev_gold=gold)
    selection = ensemble.search(pool, gold, min_size=args.min_size,
                                max_size=args.max_size)
    combined = {"dev": ensemble.apply(selection, pool, "dev")}
    if test_root is not None:
        combined["test"] = ensemble.apply(selection, pool, "test")
    dev_report = metrics.evaluate(combined["dev"],
                                  {p: g.values for p, g in gold.items()})

    outputs = []
    sel_path = out_dir / "selection.json"
    write_json(sel_path, selection.to_dict())
    outputs.append(sel_path)
    matrix_path = out_dir / "membership.txt"
    matrix_path.parent.mkdir(parents=True, exist_ok=True)
    matrix_path.write_text(selection.render_membership_matrix() + "\n",
                           encoding="utf-8")
    outputs.append(matrix_path)

    for split, by_pair in combined.items():
        for pair, values in by_pair.items():
            dest = out_dir / split / f"{pair}.json"
            write_predictions(dest, pool.reference[split][pair].keys,
                              values.tolist())
            outputs.append(dest)

    report_path = out_dir / "dev_report.json"
    write_json(report_path, dev_report.as_dict())
    outputs.append(report_path)

    if test_root is not None:
        sub_dir = out_dir / "submission"
        for pair, values in combined["test"].items():
            dest = sub_dir / f"{pair}.json"
            write_submission(dest, pool.reference["test"][pair].keys,
                             values.tolist())
            outputs.append(dest)

    params = {"min_size": args.min_size, "max_size": args.max_size}
    write_manifest(out_dir, "ensemble", params, inputs, outputs)
    print(selection.render_membership_matrix())
    return 0


def write_submission(path: Path, keys: list[tuple[str, str]], values,
                     clamp: bool = True, precision: int = 2) -> int:
    """Write a leaderboard-format file from (valence, arousal) rows of
    floats; returns how many values were clamped."""
    lo, hi = corpus.VA_MIN, corpus.VA_MAX
    rows = []
    n_clamped = 0
    for (rid, aspect), (valence, arousal) in zip(keys, values):
        va = VAScore(valence, arousal)
        if clamp:
            clamped = VAScore(min(max(valence, lo), hi), min(max(arousal, lo), hi))
            if clamped != va:
                n_clamped += 1
                logger.info("clamped %s/%s: %s -> %s", rid, aspect,
                            format_va(va), format_va(clamped))
            va = clamped
        rows.append({"ID": rid, "Aspect": aspect,
                     "VA": format_va(va, precision)})
    write_json(path, rows)
    return n_clamped


def cmd_submit(args) -> int:
    pred_dir, out_dir = Path(args.pred), Path(args.out)
    files = _pair_files(pred_dir, set(args.pairs.split(",")) if args.pairs else None)
    if not files:
        print(f"error: no prediction files under {pred_dir}", file=sys.stderr)
        return 1
    read = {f: _prediction_rows(f) for f in files}   # all before writing any
    for f, (keys, _) in read.items():
        _check_unique(f, keys)
    inputs, outputs = {}, []
    total_clamped = 0
    for f, (keys, flat) in read.items():
        inputs[f.name] = sha256_file(f)
        dest = out_dir / f.name
        total_clamped += write_submission(dest, keys, zip(flat[0::2], flat[1::2]),
                                          clamp=args.clamp, precision=args.precision)
        outputs.append(dest)
    write_manifest(out_dir, "submit",
                   {"clamp": args.clamp, "precision": args.precision,
                    "pairs": args.pairs}, inputs, outputs)
    logger.info("submit: wrote %d files (%d values clamped)",
                len(files), total_clamped)
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
    p.add_argument("--seed", type=int, help="override the configured seed")
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
    p.add_argument("--clamp", dest="clamp", action="store_true", default=True)
    p.add_argument("--no-clamp", dest="clamp", action="store_false")
    p.add_argument("--precision", type=_at_least(0), default=2)
    p.set_defaults(func=cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if (args.command == "ensemble" and args.max_size is not None
            and args.max_size < args.min_size):
        args.parser.error(f"argument --max-size: {args.max_size} is below "
                          f"--min-size {args.min_size}")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
