"""Quadruplet corpus ingestion and preprocessing.

Raw annotation files carry one record per review text, each with a list of
(Aspect, Category, Opinion, VA) quadruplets.  This module parses those files,
flattens them into per-aspect regression instances, and provides the
record-disjoint train/validation split and the multilingual training pool.

Record files are JSON arrays (raw files may be JSONL) of objects.  Each
kind declares its fields once below, and `walk` reads every record file
(README, "Data format", defines the terms):

    field        raw                 instance            prediction, gold
    ID           required, nonblank  required, nonblank  required, nonblank
    Text         required, string    required, string    -
    Quadruplets  optional, list      -                   -
    Aspect       entry: optional,    required, nonblank  required, nonblank
                 nonblank or null
    VA           entry: optional,    optional, v#a       required, v#a
                 v#a, object, null
    Pair         -                   optional, the file  optional, the file
    unique key   ID                  (ID, Aspect)        (ID, Aspect)

Preprocessing applies four rules, in order, per record:
  a. drop quadruplets whose aspect is the implicit NULL marker;
  b. drop quadruplets whose VA has any component outside [1, 9] (or non-finite);
  c. emit one instance per surviving quadruplet, paired with the full text;
  d. if an aspect string occurs in several quadruplets of one record, keep
     only the first surviving occurrence's VA.
"""

from __future__ import annotations

import json
import math
import random
import sys
import types
from pathlib import Path
from typing import NamedTuple

VA_MIN = 1.0
VA_MAX = 9.0
NULL_ASPECT = "NULL"
_KINDS = {kind.__name__: kind for kind in (int, float, bool, str)}   # check_fields checks

# The ten official language-domain pairs, in leaderboard column order.
OFFICIAL_PAIRS = (
    "eng-res", "eng-lap", "jpn-hot", "jpn-fin", "rus-res",
    "tat-res", "ukr-res", "zho-res", "zho-lap", "zho-fin",
)

class ParseError(ValueError):
    """Raised when an input file or one of its records cannot be decoded."""


class PairID(NamedTuple):
    """A language-domain pair such as zho-res, canonically "<lang>-<dom>"."""

    language: str
    domain: str

    @classmethod
    def parse(cls, value: str) -> "PairID":
        lang, sep, dom = value.partition("-")
        if not sep or not lang or not dom:
            raise ValueError(f"not a '<lang>-<dom>' pair id: {value!r}")
        return cls(lang, dom)

    def __str__(self) -> str:
        return f"{self.language}-{self.domain}"


def pair_sort_key(pair: PairID) -> tuple:
    """Official pairs in leaderboard order first, then others alphabetically."""
    name = str(pair)
    if name in OFFICIAL_PAIRS:
        return (0, OFFICIAL_PAIRS.index(name))
    return (1, name)


class VAScore(NamedTuple):
    """A (valence, arousal) pair on the 1-9 scale."""

    valence: float
    arousal: float

    def in_range(self) -> bool:
        # nan and infinities fail the comparisons with finite bounds
        return VA_MIN <= self.valence <= VA_MAX and VA_MIN <= self.arousal <= VA_MAX


# ASCII decimal syntax, '#' and the letters of inf and nan, which then fail
# as non-finite.  float() alone would also read '_', whitespace and the
# digits of other scripts: "5_0#5" as valence 50.
_DECIMAL_CHARS = b"0123456789+-.eE#infatyINFATY"


def decimal_text(text: str) -> bool:
    """Whether `text`, one "v#a" value or a whole file's joined, holds only
    characters of ASCII decimal syntax."""
    return text.isascii() and not text.encode().translate(None, _DECIMAL_CHARS)


def _number(value) -> float:
    """A decimal string or a JSON number (not a bool) as a float."""
    if isinstance(value, str) and decimal_text(value) or type(value) in (int, float):
        return float(value)
    raise ValueError(value)


def parse_va(value, objects: bool = True) -> VAScore:
    """Decode a VA wire value: the "v#a" string in ASCII decimals or, where
    `objects`, a {Valence, Arousal} object of those or JSON numbers.

    Non-finite values (nan, inf) are rejected: they never compare below
    anything, so they would silently win a minimum search downstream.
    """
    if objects and isinstance(value, dict):
        try:
            valence, arousal = _number(value["Valence"]), _number(value["Arousal"])
        except (KeyError, OverflowError, ValueError):
            raise ParseError(f"unparseable VA object: {value!r}") from None
    else:
        try:   # without '#', the arousal is "" and fails
            valence, _, arousal = value.partition("#")
            valence, arousal = _number(valence), _number(arousal)
        except (AttributeError, ValueError):
            raise ParseError(f"not a 'v#a' string: {value!r}") from None
    if not (math.isfinite(valence) and math.isfinite(arousal)):
        raise ParseError(f"non-finite VA value: {value!r}")
    return VAScore(valence, arousal)


def format_va(valence: float, arousal: float, precision: int | None = None) -> str:
    """Serialize a (valence, arousal) pair to the "v#a" wire form.

    precision=None keeps full float precision (round-trips exactly);
    an integer gives fixed decimal places, as used in submission files.
    """
    if precision is None:
        return f"{valence!r}#{arousal!r}"
    return f"{valence:.{precision}f}#{arousal:.{precision}f}"


class Quadruplet(NamedTuple):
    aspect: str | None
    va: VAScore | None


class RawRecord(NamedTuple):
    id: str
    text: str
    quadruplets: list[Quadruplet]
    pair: PairID


class Instance(NamedTuple):
    """One flattened (text, aspect, VA) sample tagged with its pair."""

    id: str
    text: str
    aspect: str
    gold: VAScore | None
    pair: PairID

    @property
    def key(self) -> tuple[str, str]:
        return (self.id, self.aspect)


class Prediction(NamedTuple):
    """A predicted VA score keyed by (record id, aspect) for alignment."""

    id: str
    aspect: str
    va: VAScore

    @property
    def key(self) -> tuple[str, str]:
        return (self.id, self.aspect)


class PreprocessReport(NamedTuple):
    """Per-rule drop counts; reconciles exactly with the emitted instances."""

    records_in: int = 0
    quadruplets_in: int = 0
    null_aspect_drops: int = 0
    out_of_range_drops: int = 0
    duplicate_aspect_drops: int = 0
    expanded_records: int = 0
    instances_out: int = 0

    def reconciles(self) -> bool:
        dropped = (self.null_aspect_drops + self.out_of_range_drops
                   + self.duplicate_aspect_drops)
        return self.quadruplets_in == dropped + self.instances_out

    def as_dict(self) -> dict:
        return self._asdict()

    def merged(self, other: "PreprocessReport") -> "PreprocessReport":
        return PreprocessReport(*(a + b for a, b in zip(self, other)))


def read_text(path) -> str:
    """The text of `path`; an unreadable or non-UTF-8 file is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None


def read_json(path):
    """The JSON value in `path` (see read_text); invalid JSON is a ParseError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def record_error(path, index: int | str, field_name: str, detail: str) -> ParseError:
    """One line naming the file, the record and the field at fault."""
    return ParseError(f"{path}: record {index}: field {field_name!r}: {detail}")


def build(cls, kwargs, where: str):
    """cls(**kwargs); arguments it rejects are a ParseError naming `where`."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _field_kind(annotation) -> tuple[type | None, bool]:
    """The kind `check_fields` checks for a field's annotation (a class, an
    `X | None` union, or the name of either), None for any other, and
    whether the annotation admits None."""
    if isinstance(annotation, types.UnionType):
        names = [t.__name__ for t in annotation.__args__]
    else:
        names = (annotation if isinstance(annotation, str)
                 else getattr(annotation, "__name__", "")).split(" | ")
    kinds = [name for name in names if name not in ("None", "NoneType")]
    return _KINDS.get(kinds[0]) if len(kinds) == 1 else None, len(kinds) < len(names)


def check_fields(obj, error=ValueError) -> None:
    """Check dataclass `obj` against its fields' annotations, read as a class,
    an `X | None` union or the name of either: exactly an int, bool or str;
    for float, a finite int or float, stored back as a float; None where the
    annotation admits it.  `metadata` may bound a field by `min`, `below`
    (with `min`), `gt` or `choices`.  The first failure raises `error`."""
    from dataclasses import fields   # only the stages with dataclass schemas load it
    for f in fields(obj):
        kind, optional = _field_kind(f.type)
        value, rules, must = getattr(obj, f.name), f.metadata, f"{f.name} must be"
        if value is None and optional:
            continue
        if kind is float:
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise error(f"{must} a finite number, got {value!r}")
            object.__setattr__(obj, f.name, value := float(value))
        elif kind and type(value) is not kind:
            raise error(f"{must} {'an' if kind is int else 'a'} {kind.__name__}"
                        f"{' or None' if optional else ''}, got {value!r}")
        low, below, gt = rules.get("min"), rules.get("below"), rules.get("gt")
        if below is not None and not low <= value < below:
            raise error(f"{must} in [{low}, {below}), got {value!r}")
        if low is not None and value < low:
            raise error(f"{must} >= {low}, got {value!r}")
        if gt is not None and not value > gt:
            raise error(f"{must} > {gt}, got {value!r}")
        if "choices" in rules and value not in rules["choices"]:
            raise error(f"{must} one of {rules['choices']}, got {value!r}")


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError("not a string")
    return value


def _nonblank(value) -> str:
    if not _string(value).strip():
        raise ValueError("blank")
    return value


def _va(value) -> VAScore:
    return parse_va(value, objects=False)


def _null_or(parse):
    """`parse`, taking a JSON null as the field being absent."""
    return lambda value: None if value is None else parse(value)


class Field(NamedTuple):
    """`parse` turns the value into the record's or raises a ValueError
    naming the fault; a RecordKind `parse` takes a list of its entries."""

    name: str
    parse: object
    required: bool = True


class RecordKind(NamedTuple):
    """Fields in the order `record` takes them, the fields no two records
    may share values of, and whether a "Pair" must name the file's pair."""

    fields: tuple[Field, ...]
    record: type
    key: tuple[str, ...] = ()
    pair: bool = False


_ID, _TEXT, _ASPECT = (Field("ID", _nonblank), Field("Text", _string),
                       Field("Aspect", _nonblank))
QUADRUPLET = RecordKind((Field("Aspect", _null_or(_nonblank), False),
                         Field("VA", _null_or(parse_va), False)), Quadruplet)
RAW = RecordKind((_ID, _TEXT, Field("Quadruplets", QUADRUPLET, False)), RawRecord,
                 key=("ID",))
INSTANCE = RecordKind((_ID, _TEXT, _ASPECT, Field("VA", _va, False)), Instance,
                      key=("ID", "Aspect"), pair=True)
PREDICTION = RecordKind((_ID, _ASPECT, Field("VA", _va)), Prediction,
                        key=("ID", "Aspect"), pair=True)


def walk(path, objs, kind: RecordKind, *extra, at: str = "") -> list:
    """`kind.record(*field values, *extra)` per record of `objs`, read from
    `path`; an absent optional field is None, or [] for entries.  The first
    fault is a ParseError naming the path, the record (`record <i>: entry
    <j>` for an entry) and the field; the same fault reads the same in
    every kind."""
    if not isinstance(objs, list):
        raise ParseError(f"{path}: not a JSON array")
    records, first_at, pair = [], {}, Path(path).stem
    for i, obj in enumerate(objs):
        where = f"{at}{i}"
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: record {where}: not an object")
        values = []
        for name, parse, required in kind.fields:
            if name not in obj:
                if required:
                    raise record_error(path, where, name, "missing")
                values.append([] if isinstance(parse, RecordKind) else None)
            elif isinstance(parse, RecordKind):
                if not isinstance(obj[name], list):
                    raise record_error(path, where, name, "not a list")
                values.append(walk(path, obj[name], parse, at=f"{where}: entry "))
            else:
                try:
                    values.append(parse(obj[name]))
                except ValueError as exc:
                    raise record_error(path, where, name, str(exc)) from None
        if kind.pair and obj.get("Pair", pair) != pair:
            raise record_error(path, where, "Pair", f"{obj['Pair']!r} in a file "
                                                    f"named for {pair!r}")
        key = tuple(obj[name] for name in kind.key)
        if kind.key and first_at.setdefault(key, i) != i:
            raise record_error(path, where, ", ".join(kind.key),
                               f"duplicate key, first at record {first_at[key]}")
        records.append(kind.record(*values, *extra))
    return records


def parse_quadruplet_file(path, pair: PairID) -> list[RawRecord]:
    """Parse one raw annotation file into RawRecords, preserving order.

    Accepts a JSON array of record objects or JSONL (one object per line).
    An unreadable file or a record `walk` rejects under RAW raises
    ParseError naming the file and, for a record, its index and field.
    """
    raw = read_text(path)
    try:
        if raw.lstrip().startswith("["):
            objs = json.loads(raw)
        else:
            objs = [json.loads(line) for line in raw.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return walk(path, objs, RAW, pair)


def preprocess(records: list[RawRecord]) -> tuple[list[Instance], PreprocessReport]:
    """Apply the four cleaning rules and flatten records into instances.

    Anomalies never raise; every dropped quadruplet is counted in the report
    and quadruplets_in == drops + instances_out holds exactly.
    """
    instances: list[Instance] = []
    quadruplets_in = null_aspect = out_of_range = duplicate = expanded = 0
    for rec in records:
        quadruplets_in += len(rec.quadruplets)
        emitted_aspects: set[str] = set()
        for quad in rec.quadruplets:
            if quad.aspect is None or quad.aspect == NULL_ASPECT:
                null_aspect += 1
                continue
            if quad.va is not None and not quad.va.in_range():
                out_of_range += 1
                continue
            if quad.aspect in emitted_aspects:
                duplicate += 1
                continue
            emitted_aspects.add(quad.aspect)
            instances.append(Instance(rec.id, rec.text, quad.aspect, quad.va, rec.pair))
        if len(emitted_aspects) >= 2:
            expanded += 1
    report = PreprocessReport(len(records), quadruplets_in, null_aspect, out_of_range,
                              duplicate, expanded, len(instances))
    return instances, report


def split_train_validation(instances: list[Instance], fraction: float,
                           seed: int) -> tuple[list[Instance], list[Instance]]:
    """Hold out ~`fraction` of the instances as validation, record-disjointly.

    Records are shuffled deterministically under `seed`; records from the
    tail of the shuffle are held out until the validation side reaches
    floor(fraction * n) instances (at least 1).  All instances expanded from
    one record land on the same side, so the exact fraction is honored only
    up to whole records.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if not instances:
        raise ValueError("cannot split an empty instance list")

    by_record: dict[str, int] = {}
    for inst in instances:
        by_record[inst.id] = by_record.get(inst.id, 0) + 1
    record_ids = list(by_record)
    if len(record_ids) < 2:
        raise ValueError("cannot split record-disjointly: only one record")

    random.Random(seed).shuffle(record_ids)
    target = max(1, math.floor(fraction * len(instances)))
    held_out: set[str] = set()
    count = 0
    for rid in reversed(record_ids):
        if count >= target:
            break
        if len(held_out) == len(record_ids) - 1:
            break  # never empty the training side
        held_out.add(rid)
        count += by_record[rid]

    train = [inst for inst in instances if inst.id not in held_out]
    validation = [inst for inst in instances if inst.id in held_out]
    return train, validation


# Training regimes: one joint model over the pooled pairs, or one per pair.
REGIMES = ("joint", "separate")


def pool_pairs(per_pair: dict[PairID, list[Instance]]) -> list[Instance]:
    """Concatenate all pairs' instances into one joint training pool.

    Instances keep their PairID tag for evaluation, but nothing about the
    pair is surfaced to the encoder input.  Pool order is deterministic
    (official pair order, then alphabetical) regardless of map order.
    """
    pooled: list[Instance] = []
    for pair in sorted(per_pair, key=pair_sort_key):
        pooled.extend(per_pair[pair])
    return pooled
