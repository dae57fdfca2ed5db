"""Traced `dimasr` entry point for the benchmark's per-layer run.

    PERFBENCH_SPANS=spans.json PERFBENCH_T0=<time.monotonic() at spawn> \
        python3 perfbench/tracer.py <dimasr arguments>

Runs `dimasr.cli.main` like `python -m dimasr.cli` does, after replacing the
public functions of each module with timing wrappers at the place the caller
looks them up: a module attribute (`encoding.instance_features`, read by
`trainer` at call time), a name imported into another module
(`ensemble.rmse_va`), or a class attribute (`AdamW.step`).  Per-token
functions such as `token_id` are left alone; token counts are derived from
the formatted sequences instead.  Spans (name, start, end, parent index) and
counters stay in memory and are written once, when the stage exits.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.distinct: set = set()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i] = (name, t0, clock(), stack[-2])
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def install(self) -> None:
        from dimasr import cli, corpus, encoding, ensemble, metrics, regressor, trainer

        count = self.counters

        def on_preprocess(args, out):
            count["corpus.records"] += len(args[0])
            count["corpus.instances_out"] += len(out[0])

        def on_features(args, out):
            spec = args[1]
            count["encoding.instances_encoded"] += len(args[0])
            self.distinct.update((spec, i.aspect, i.text) for i in args[0])

        def on_format(args, out):
            count["encoding.tokens_encoded"] += (len(out.tokens)
                                                 - out.tokens.count(encoding.PAD_ID))

        def on_train(args, out):
            count["trainer.epochs"] += len(out.history)

        def on_search(args, out):
            count["ensemble.subsets_scored"] += sum(
                e.n_scored for e in out.per_pair.values())

        for stage in ("preprocess", "train", "predict", "ensemble",
                      "evaluate", "submit"):
            self.wrap(cli, f"cmd_{stage}", f"cli.{stage}")
        self.wrap(cli, "load_instances", "cli.json_read")
        self.wrap(cli, "load_predictions", "cli.json_read")
        self.wrap(cli, "write_json", "cli.json_write")
        self.wrap(cli, "sha256_file", "cli.hash")
        self.wrap(corpus, "parse_quadruplet_file", "corpus.parse")
        self.wrap(corpus, "preprocess", "corpus.preprocess", on_preprocess)
        self.wrap(corpus, "pool_pairs", "corpus.pool_pairs")
        self.wrap(corpus, "split_train_validation", "corpus.split")
        self.wrap(encoding, "instance_features", "encoding.features", on_features)
        self.wrap(encoding, "format_pair", "encoding.format_pair", on_format)
        self.wrap(encoding, "toy_encode", "encoding.toy_encode")
        for fn in ("forward_cached", "backward", "predict"):
            self.wrap(regressor, fn, f"regressor.{fn}")
        self.wrap(trainer, "train_grid", "trainer.train_grid")
        self.wrap(trainer, "train", "trainer.train", on_train)
        self.wrap(trainer.AdamW, "step", "trainer.optimizer_step")
        self.wrap(trainer, "_validation_rmse", "trainer.validation")
        self.wrap(trainer.Checkpoint, "predict", "trainer.predict")
        self.wrap(metrics, "evaluate", "metrics.evaluate")
        self.wrap(metrics, "rmse_va", "metrics.rmse_va")
        self.wrap(ensemble, "rmse_va", "metrics.rmse_va")
        self.wrap(ensemble.CandidatePool, "__init__", "ensemble.pool")
        self.wrap(ensemble, "search", "ensemble.search", on_search)
        self.wrap(ensemble, "apply", "ensemble.apply")

    def dump(self, path: Path, import_s: float, stage: str) -> None:
        from dimasr import encoding

        info = encoding._cached_token_vector.cache_info()
        self.counters["encoding.distinct"] = len(self.distinct)
        self.counters["encoding.token_cache_hits"] = info.hits
        self.counters["encoding.token_cache_misses"] = info.misses
        path.write_text(json.dumps({
            "pass": int(os.environ.get("PERFBENCH_PASS", "0")),
            "stage": stage, "import_s": import_s,
            "counters": dict(self.counters),
            "spans": self.spans,
        }), encoding="utf-8")


def main() -> int:
    out = Path(os.environ["PERFBENCH_SPANS"])
    t_spawn = float(os.environ["PERFBENCH_T0"])
    from dimasr import cli
    import_s = time.monotonic() - t_spawn
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.dump(out, import_s, sys.argv[1] if len(sys.argv) > 1 else "")


if __name__ == "__main__":
    sys.exit(main())
