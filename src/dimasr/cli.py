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
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, corpus
from .corpus import (REGIMES, Instance, PairID, ParseError, Prediction, VAScore,
                     format_va, pair_sort_key, parse_va)

if TYPE_CHECKING:
    from . import encoding, ensemble, trainer

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


def load_instances(path: Path) -> list[Instance]:
    """Instances of a per-pair file; a repeated (ID, Aspect) key is a ParseError."""
    pair = _file_pair(path)
    rows = json.loads(path.read_text(encoding="utf-8"))
    instances = [Instance(id=row["ID"], text=row["Text"], aspect=row["Aspect"],
                          gold=parse_va(row["VA"]) if "VA" in row else None,
                          pair=pair)
                 for row in rows]
    first_at = {}
    for i, inst in enumerate(instances):
        if first_at.setdefault(inst.key, i) != i:
            raise ParseError(f"{path}: record {i}: duplicate (ID, Aspect) key "
                             f"{inst.key}, first at record {first_at[inst.key]}")
    return instances


def write_predictions(path: Path, preds: list[Prediction]) -> None:
    write_json(path, [{"ID": p.id, "Aspect": p.aspect, "VA": format_va(p.va)}
                      for p in preds])


def load_predictions(path: Path) -> list[Prediction]:
    rows = json.loads(path.read_text(encoding="utf-8"))
    preds = []
    try:
        for row in rows:
            preds.append(Prediction(id=row["ID"], aspect=row["Aspect"],
                                    va=parse_va(row["VA"])))
    except ParseError as exc:
        raise ParseError(f"{path}: record {len(preds)}: field 'VA': {exc}") from None
    return preds


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
            write_predictions(dest, preds)
            outputs.append(dest)
    write_manifest(out_dir, "predict", {"pairs": args.pairs}, inputs, outputs)
    logger.info("predict: %d checkpoints x %d pairs -> %s",
                len(ckpt_files), len(per_pair), out_dir)
    return 0


def cmd_evaluate(args) -> int:
    from . import metrics
    pred_dir, gold_dir, out_dir = Path(args.pred), Path(args.gold), Path(args.out)
    gold = _load_pair_map(gold_dir)
    preds = {}
    for pair in gold:
        path = pred_dir / f"{pair}.json"
        if not path.exists():
            print(f"error: missing prediction file {path}", file=sys.stderr)
            return 1
        preds[pair] = load_predictions(path)
        problem = _key_mismatch(path, preds[pair], gold_dir / f"{pair}.json",
                                [inst.key for inst in gold[pair]])
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 1
    report = metrics.evaluate(preds, gold)

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


def _load_member(root: Path, member_id: str) -> dict[PairID, list[Prediction]]:
    out = {}
    for f in sorted((root / member_id).glob("*.json")):
        out[_file_pair(f)] = load_predictions(f)
    return out


def _key_mismatch(path: Path, preds: list[Prediction], ref_path: Path,
                  ref: list[tuple[str, str]]) -> str | None:
    """One line naming `path` when its predictions fail to hold each
    (ID, Aspect) key of the reference file `ref_path` exactly once."""
    where = f"{path}: (ID, Aspect) keys differ from {ref_path}"
    seen = set()
    for p in preds:
        if p.key in seen:
            return f"{where}: duplicate key {p.key}"
        seen.add(p.key)
    missing = next((k for k in ref if k not in seen), None)
    if missing is not None:
        return f"{where}: first missing key {missing}"
    ref_keys = set(ref)
    extra = next((p.key for p in preds if p.key not in ref_keys), None)
    return None if extra is None else f"{where}: first extra key {extra}"


def _misaligned_file(members: list[ensemble.Member],
                     gold: dict[PairID, list[Instance]], dev_root: Path,
                     gold_dir: Path, test_root: Path | None) -> str | None:
    """The first member file whose keys differ from its reference, described
    in one line: the gold file on dev, the first member's file on test."""
    pairs = sorted(gold, key=pair_sort_key)
    refs = [("dev", dev_root, pair, gold_dir / f"{pair}.json",
             [inst.key for inst in gold[pair]]) for pair in pairs]
    if test_root is not None:
        first = members[0]
        refs += [("test", test_root, pair, test_root / first.id / f"{pair}.json",
                  [p.key for p in first.test[pair]]) for pair in pairs]
    for split, root, pair, ref_path, ref in refs:
        for m in members:
            problem = _key_mismatch(root / m.id / f"{pair}.json",
                                    m.predictions(pair, split), ref_path, ref)
            if problem:
                return problem
    return None


def cmd_ensemble(args) -> int:
    from . import ensemble, metrics
    dev_root, gold_dir, out_dir = Path(args.dev_preds), Path(args.dev_gold), Path(args.out)
    test_root = Path(args.test_preds) if args.test_preds else None
    member_ids = sorted(p.name for p in dev_root.iterdir() if p.is_dir())
    if not 2 <= len(member_ids) <= ensemble.MAX_POOL_SIZE:
        print(f"error: {dev_root} holds {len(member_ids)} member directories; "
              f"need 2 to {ensemble.MAX_POOL_SIZE}", file=sys.stderr)
        return 1

    members = []
    inputs = {}
    for mid in member_ids:
        dev = _load_member(dev_root, mid)
        test = _load_member(test_root, mid) if test_root else {}
        members.append(ensemble.Member(id=mid, dev=dev, test=test))
        for pair in dev:
            inputs[f"dev/{mid}/{pair}.json"] = sha256_file(
                dev_root / mid / f"{pair}.json")
    gold = _load_pair_map(gold_dir)
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
    misaligned = _misaligned_file(members, gold, dev_root, gold_dir, test_root)
    if misaligned:
        print(f"error: {misaligned}", file=sys.stderr)
        return 1
    pool = ensemble.CandidatePool(members)
    selection = ensemble.search(pool, gold, min_size=args.min_size,
                                max_size=args.max_size)
    combined = {"dev": ensemble.apply(selection, pool, "dev")}
    if test_root is not None:
        combined["test"] = ensemble.apply(selection, pool, "test")
    dev_report = metrics.evaluate(combined["dev"], gold)

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
        for pair, preds in by_pair.items():
            dest = out_dir / split / f"{pair}.json"
            write_predictions(dest, preds)
            outputs.append(dest)

    report_path = out_dir / "dev_report.json"
    write_json(report_path, dev_report.as_dict())
    outputs.append(report_path)

    if test_root is not None:
        sub_dir = out_dir / "submission"
        for pair, preds in combined["test"].items():
            dest = sub_dir / f"{pair}.json"
            write_submission(dest, preds)
            outputs.append(dest)

    params = {"min_size": args.min_size, "max_size": args.max_size}
    write_manifest(out_dir, "ensemble", params, inputs, outputs)
    print(selection.render_membership_matrix())
    return 0


def clamp_score(va: VAScore, lo: float = corpus.VA_MIN,
                hi: float = corpus.VA_MAX) -> VAScore:
    return VAScore(min(max(va.valence, lo), hi), min(max(va.arousal, lo), hi))


def write_submission(path: Path, preds: list[Prediction], clamp: bool = True,
                     precision: int = 2) -> int:
    """Write a leaderboard-format file; returns how many values were clamped."""
    rows = []
    n_clamped = 0
    for p in preds:
        va = p.va
        if clamp:
            clamped = clamp_score(va)
            if clamped != va:
                n_clamped += 1
                logger.info("clamped %s/%s: %s -> %s", p.id, p.aspect,
                            format_va(va), format_va(clamped))
            va = clamped
        rows.append({"ID": p.id, "Aspect": p.aspect,
                     "VA": format_va(va, precision)})
    write_json(path, rows)
    return n_clamped


def cmd_submit(args) -> int:
    pred_dir, out_dir = Path(args.pred), Path(args.out)
    files = _pair_files(pred_dir, set(args.pairs.split(",")) if args.pairs else None)
    if not files:
        print(f"error: no prediction files under {pred_dir}", file=sys.stderr)
        return 1
    inputs, outputs = {}, []
    total_clamped = 0
    for f in files:
        inputs[f.name] = sha256_file(f)
        preds = load_predictions(f)
        dest = out_dir / f.name
        total_clamped += write_submission(dest, preds, clamp=args.clamp,
                                          precision=args.precision)
        outputs.append(dest)
    write_manifest(out_dir, "submit",
                   {"clamp": args.clamp, "precision": args.precision,
                    "pairs": args.pairs}, inputs, outputs)
    logger.info("submit: wrote %d files (%d values clamped)",
                len(files), total_clamped)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

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
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("submit", help="export leaderboard-format files")
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs")
    p.add_argument("--clamp", dest="clamp", action="store_true", default=True)
    p.add_argument("--no-clamp", dest="clamp", action="store_false")
    p.add_argument("--precision", type=int, default=2)
    p.set_defaults(func=cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
