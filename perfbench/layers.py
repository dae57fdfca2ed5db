"""Per-layer metrics of one traced pass, derived from the tracer's span files.

A layer is a dimasr module; a span's layer is the part of its name before
the dot.  `<span>_s` is the summed duration of that span name over the
pass's stage processes (spans of one name never nest).  `<layer>.self_s` is
the layer's self time: each span's duration minus the time its direct
children cover, summed over the layer's spans.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "corpus", "encoding", "regressor", "trainer", "metrics",
          "ensemble")
STAGES = ("preprocess", "train", "predict", "ensemble", "evaluate", "submit")
TIMED_SPANS = (
    "cli.json_read", "cli.json_write", "cli.hash",
    "corpus.parse", "corpus.preprocess",
    "encoding.features", "encoding.format_pair", "encoding.toy_encode",
    "regressor.forward_cached", "regressor.backward", "regressor.predict",
    "trainer.train", "trainer.optimizer_step", "trainer.validation",
    "metrics.evaluate", "metrics.rmse_va",
    "ensemble.pool", "ensemble.search", "ensemble.apply",
)

# (name, unit, better): the per_layer list of BENCHMARK.json, in order.
PER_LAYER = (
    *[(f"cli.{s}_s", "s", "lower") for s in STAGES],
    ("cli.import_s", "s", "lower"),
    ("cli.json_read_s", "s", "lower"),
    ("cli.json_write_s", "s", "lower"),
    ("cli.hash_s", "s", "lower"),
    ("cli.files_written", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("corpus.parse_s", "s", "lower"),
    ("corpus.preprocess_s", "s", "lower"),
    ("corpus.records", "count", "higher"),
    ("corpus.instances_out", "count", "higher"),
    ("encoding.features_s", "s", "lower"),
    ("encoding.format_pair_s", "s", "lower"),
    ("encoding.toy_encode_s", "s", "lower"),
    ("encoding.instances_encoded", "count", "lower"),
    ("encoding.instances_per_s", "1/s", "higher"),
    ("encoding.tokens_encoded", "count", "lower"),
    ("encoding.distinct_ratio", "fraction", "higher"),
    ("encoding.token_cache_hit_ratio", "fraction", "higher"),
    ("regressor.forward_cached_s", "s", "lower"),
    ("regressor.backward_s", "s", "lower"),
    ("regressor.predict_s", "s", "lower"),
    ("regressor.calls", "count", "lower"),
    ("trainer.train_s", "s", "lower"),
    ("trainer.optimizer_step_s", "s", "lower"),
    ("trainer.steps", "count", "higher"),
    ("trainer.epochs", "count", "higher"),
    ("trainer.steps_per_s", "1/s", "higher"),
    ("trainer.encode_share", "fraction", "lower"),
    ("trainer.validation_s", "s", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.rmse_va_s", "s", "lower"),
    ("metrics.rmse_va_calls", "count", "lower"),
    ("ensemble.pool_s", "s", "lower"),
    ("ensemble.search_s", "s", "lower"),
    ("ensemble.subsets_scored", "count", "higher"),
    ("ensemble.subsets_per_s", "1/s", "higher"),
    ("ensemble.apply_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(span_files: list[Path], files_written: int,
                 bytes_written: int) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, for one traced pass."""
    total: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    import_s = encode_in_train = 0.0
    for path in span_files:
        dump = json.loads(path.read_text(encoding="utf-8"))
        import_s += dump["import_s"]
        counters.update(dump["counters"])
        spans = dump["spans"]
        child = [0.0] * len(spans)
        in_train = [False] * len(spans)
        # A parent's index is always lower than its children's: spans are
        # numbered on entry.
        for i, (name, t0, t1, parent) in enumerate(spans):
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
                in_train[i] = in_train[parent]
            if name == "trainer.train":
                in_train[i] = True
            elif name == "encoding.features" and in_train[i]:
                encode_in_train += t1 - t0
        for i, (name, t0, t1, _) in enumerate(spans):
            self_s[name.partition(".")[0]] += t1 - t0 - child[i]

    m = {f"cli.{s}_s": total[f"cli.{s}"] for s in STAGES}
    m.update({f"{name}_s": total[name] for name in TIMED_SPANS})
    m.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    encoded = counters["encoding.instances_encoded"]
    cache_lookups = (counters["encoding.token_cache_hits"]
                     + counters["encoding.token_cache_misses"])
    m.update({
        "cli.import_s": import_s,
        "cli.files_written": files_written,
        "cli.bytes_written": bytes_written,
        "corpus.records": counters["corpus.records"],
        "corpus.instances_out": counters["corpus.instances_out"],
        "encoding.instances_encoded": encoded,
        "encoding.instances_per_s": _ratio(encoded, total["encoding.features"]),
        "encoding.tokens_encoded": counters["encoding.tokens_encoded"],
        "encoding.distinct_ratio": _ratio(counters["encoding.distinct"], encoded),
        "encoding.token_cache_hit_ratio": _ratio(
            counters["encoding.token_cache_hits"], cache_lookups),
        "regressor.calls": sum(n for name, n in calls.items()
                               if name.startswith("regressor.")),
        "trainer.steps": calls["trainer.optimizer_step"],
        "trainer.epochs": counters["trainer.epochs"],
        "trainer.steps_per_s": _ratio(calls["trainer.optimizer_step"],
                                      total["trainer.train"]),
        "trainer.encode_share": _ratio(encode_in_train, total["trainer.train"]),
        "metrics.rmse_va_calls": calls["metrics.rmse_va"],
        "ensemble.subsets_scored": counters["ensemble.subsets_scored"],
        "ensemble.subsets_per_s": _ratio(counters["ensemble.subsets_scored"],
                                         total["ensemble.search"]),
        "trace.spans": sum(calls.values()),
    })
    return m
