"""Stage-chain benchmark for dimasr.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
inputs from --seed, then runs the workload's chain of `dimasr` stages as one
fresh process each: one closed-loop client, no concurrency.  One warm-up
pass is not counted; further passes fill --seconds.  Every pass is checked
(stage exit codes and manifests, submission format, the ensemble selection
against a recomputation, dev_rmse against a constant predictor, manifest
hashes against the warm-up pass).

Wall times are reported less the steal time the kernel counted while they
ran: the time the host of this virtual machine withheld its CPUs for other
work.  On a shared host that alone made a pass take up to 1.6 times as
long.  CPU times do not include it.  The summary also prints the wall times
with steal.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates traced passes (stages started through perfbench/tracer.py) with
untraced ones and reports the per-layer metrics of the traced passes plus the
tracing overhead.  The last line of stdout is one JSON object; the lines
before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import chain  # noqa: E402
import layers  # noqa: E402
from chain import PassRun, Runner, SetupError, Stage  # noqa: E402
from workloads import (CorpusShape, Inputs, MemberShape,  # noqa: E402
                       write_corpus, write_members)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 165.0      # the whole run, including set-up and clean-up
# Set-up is timed again before every pass, the warm-up included, until the
# set-ups before that pass take SETUP_SLICE_S, for as long as the run has
# fewer than SETUP_LEAST set-ups or less than SETUP_BUDGET_S of them.
# setup_s is their median.  Spread over the run, set-ups meet the same
# changes in machine speed as the passes do.
SETUP_SLICE_S = 0.5
SETUP_LEAST = 3
SETUP_BUDGET_S = 3.0
# A pass fails its quality check unless dev_rmse is at most this share of
# the RMSE of the best constant predictor (each pair's gold mean).
QUALITY_RATIO = 0.9

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"), ("dev_rmse", "rmse"))

# Pass-relative output directories every chain ends in.
SUBMISSION, EVALUATE, ENSEMBLE = "sub", "eval", "ens"

# `dimasr train --config`: the default grid's batch sizes, epoch limits and
# head types, with learning rates 3000 times the default ones.  The default
# rates (8e-6 to 2e-5) suit fine-tuning a pretrained transformer; on the toy
# encoder they move no weight by more than about 1e-3 in 7 epochs, so the
# grid would learn nothing and dev_rmse could not tell a working trainer
# from a broken one.
RUN_CONFIG = {"grid": [
    {"batch_size": b, "learning_rate": lr * 3000, "max_epochs": e, "bounded": s}
    for b, lr, e, s in ((16, 1e-5, 7, True), (32, 1e-5, 3, False),
                        (32, 1e-5, 5, True), (32, 1e-5, 7, True),
                        (32, 2e-5, 5, True), (32, 8e-6, 3, True),
                        (32, 8e-6, 7, False))]}


@dataclass(frozen=True)
class Outputs:
    """What a pass's checks read besides SUBMISSION and EVALUATE."""

    evaluated: Path                 # the predictions evaluate scored
    members: Path | None = None     # dev member root, if the chain ensembles
    digest: tuple[Path, ...] = ()   # dirs whose manifests make up the digest


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int], Inputs]
    chain: Callable[[Path, Path], list[Stage]]
    outputs: Callable[[Path, Path], Outputs]
    gold_split: str                 # the Inputs.gold split evaluate scores


def _stage(label: str, out: Path, command: str, **flags: Path | str) -> Stage:
    argv = [command]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return Stage(label, tuple(argv + ["--out", str(out)]), out)


def _write_config(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / "run.json").write_text(json.dumps(RUN_CONFIG), encoding="utf-8")


# --- paper-grid: the paper's whole path on a Zipfian multi-aspect corpus ----

PAPER_CORPUS = CorpusShape(train=50, dev=24, test=16, vocab_size=20_000,
                           zipf=1.07, tokens=(8, 60), aspects=(1, 3))


def paper_setup(root: Path, seed: int) -> Inputs:
    _write_config(root)
    return write_corpus(PAPER_CORPUS, seed, root)


def paper_chain(s: Path, p: Path) -> list[Stage]:
    return [
        *[_stage(f"preprocess-{split}", p / "insts" / split, "preprocess",
                 input=s / "raw" / split) for split in ("train", "dev", "test")],
        _stage("train", p / "ckpts", "train", data=p / "insts" / "train",
               config=s / "run.json"),
        *[_stage(f"predict-{split}", p / "preds" / split, "predict",
                 ckpts=p / "ckpts", data=p / "insts" / split)
          for split in ("dev", "test")],
        _stage("ensemble", p / ENSEMBLE, "ensemble",
               dev_preds=p / "preds" / "dev", test_preds=p / "preds" / "test",
               dev_gold=p / "insts" / "dev"),
        _stage("evaluate", p / EVALUATE, "evaluate", pred=p / ENSEMBLE / "dev",
               gold=p / "insts" / "dev"),
        _stage("submit", p / SUBMISSION, "submit", pred=p / ENSEMBLE / "test"),
    ]


def paper_outputs(s: Path, p: Path) -> Outputs:
    return Outputs(evaluated=p / ENSEMBLE / "dev", members=p / "preds" / "dev",
                   digest=(p / "ckpts", p / "preds" / "dev",
                           p / "preds" / "test", p / ENSEMBLE))


# --- ensemble-wide: a full 12-member pool of externally made predictions ----

WIDE_MEMBERS = MemberShape(members=12, dev=300, test=300)


def wide_setup(root: Path, seed: int) -> Inputs:
    return write_members(WIDE_MEMBERS, seed, root)


def wide_chain(s: Path, p: Path) -> list[Stage]:
    return [
        _stage("ensemble", p / ENSEMBLE, "ensemble",
               dev_preds=s / "members" / "dev",
               test_preds=s / "members" / "test", dev_gold=s / "gold" / "dev"),
        _stage("evaluate", p / EVALUATE, "evaluate", pred=p / ENSEMBLE / "dev",
               gold=s / "gold" / "dev"),
        _stage("submit", p / SUBMISSION, "submit", pred=p / ENSEMBLE / "test"),
    ]


def wide_outputs(s: Path, p: Path) -> Outputs:
    return Outputs(evaluated=p / ENSEMBLE / "dev", members=s / "members" / "dev",
                   digest=(p / ENSEMBLE,))


WORKLOADS = {
    "paper-grid": Workload(paper_setup, paper_chain, paper_outputs, "dev"),
    "ensemble-wide": Workload(wide_setup, wide_chain, wide_outputs, "dev"),
}


# ---------------------------------------------------------------------------

def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no log)"


class Bench:
    """One benchmark run: set-up, warm-up, measured passes and their checks."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 runner: Runner):
        self.workload, self.seed = workload, seed
        self.work, self.runner = work, runner
        self.checks: list[tuple[str, bool, str]] = []
        self.dev_rmse: list[float] = []
        self.layer_metrics: list[dict] = []
        self.setup_s: list[tuple[float, float]] = []    # (wall, steal)
        self.inputs = Inputs()
        self.gold: dict[str, dict] = {}
        self.constant_rmse = math.nan
        self.setup_dir = work / "setup0"
        self.reference: PassRun | None = None
        self.full_pool: dict[str, float] | None = None
        self.digest = ""

    def set_up(self) -> None:
        """The set-ups before one pass (see SETUP_SLICE_S).  The first
        set-up of the run keeps its files; later ones are removed."""
        t_slice = time.monotonic()
        while not self.setup_s or (
                (len(self.setup_s) < SETUP_LEAST
                 or sum(w for w, _ in self.setup_s) < SETUP_BUDGET_S)
                and time.monotonic() - t_slice < SETUP_SLICE_S):
            root = self.work / f"setup{len(self.setup_s)}"
            steal0, t0 = chain.steal_s(), time.monotonic()
            inputs = self.workload.setup(root, self.seed)
            self.setup_s.append((time.monotonic() - t0,
                                 chain.steal_s() - steal0))
            if root == self.setup_dir:
                self.inputs = inputs
                self.gold = inputs.gold[self.workload.gold_split]
                self.constant_rmse = chain.constant_rmse(self.gold)
            else:
                shutil.rmtree(root)

    def run_pass(self, index: int, traced: bool) -> PassRun:
        pass_dir = self.work / f"pass{index}"
        logs = self.work / "logs"
        run = chain.run_pass(self.runner,
                             self.workload.chain(self.setup_dir, pass_dir),
                             index, logs, traced)
        self._check(run, pass_dir)
        if traced:
            files = [f for f in pass_dir.rglob("*") if f.is_file()]
            self.layer_metrics.append(layers.pass_metrics(
                run.spans, len(files), sum(f.stat().st_size for f in files)))
        for stage in run.stages:
            if not stage.ok:
                log = logs / f"pass{index}-{stage.label}.log"
                print(f"stage {stage.label} failed in pass {index} "
                      f"(exit {stage.returncode}): {_tail(log)}", file=sys.stderr)
                break
        if self.reference is None:
            self.reference = run
        shutil.rmtree(pass_dir, ignore_errors=True)
        shutil.rmtree(logs, ignore_errors=True)
        return run

    def _check(self, run: PassRun, pass_dir: Path) -> None:
        out = self.workload.outputs(self.setup_dir, pass_dir)
        results = [(f"stage.{s.label}", s.ok, f"exit {s.returncode}")
                   for s in run.stages]
        results += chain.check_submission(pass_dir / SUBMISSION,
                                          self.inputs.keys["test"])
        report, average = chain.check_report(pass_dir / EVALUATE,
                                             out.evaluated, self.gold)
        results += report
        results.append(("quality.beats_constant",
                        average <= QUALITY_RATIO * self.constant_rmse,
                        f"dev_rmse {average!r}, constant predictor "
                        f"{self.constant_rmse!r}"))
        self.dev_rmse.append(average)
        if out.members is not None:
            if self.full_pool is None:
                try:
                    self.full_pool = chain.full_pool_rmse(out.members, self.gold)
                except (OSError, ValueError, KeyError) as exc:
                    results.append(("selection.full_pool", False, repr(exc)))
            if self.full_pool is not None:
                results += chain.check_selection(pass_dir / ENSEMBLE,
                                                 self.gold, self.full_pool)
        if self.reference is None:
            self.digest = chain.output_digest(
                [d / chain.MANIFEST for d in out.digest
                 if (d / chain.MANIFEST).is_file()])
        else:
            results += chain.check_manifests(run, self.reference)
        for name, ok, detail in results:
            if not ok:
                print(f"check failed in pass {run.index}: {name}: {detail}",
                      file=sys.stderr)
        self.checks += results


def _summary(values: list[float]) -> str:
    return (f"median of {len(values)}: "
            + " ".join(f"{v:.4f}" for v in values))


def _terminate(signum: int, frame: object) -> None:
    # Unwind through Runner.run, which kills and reaps the running stage,
    # and through main's clean-up.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the counted passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dimasr" / "cli.py").is_file():
        print(f"error: no dimasr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(ROOT, deadline)
    bench = Bench(WORKLOADS[args.workload], args.seed, work, runner)
    passes: list[PassRun] = []
    try:
        runner.check_import()
        bench.set_up()
        warm = bench.run_pass(0, traced=False)
        slowest = warm.wall_s
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            bench.set_up()
            run = bench.run_pass(len(passes) + 1, traced)
            passes.append(run)
            slowest = max(slowest, run.wall_s)
            # Start another pass only if the passes then end nearer to
            # --seconds than they do now.
            typical = statistics.median(p.wall_s for p in passes)
            measured = sum(p.wall_s for p in passes)
            kinds = {p.traced for p in passes}
            if (measured + typical / 2 >= args.seconds
                    and len(kinds) == 1 + args.trace):
                break
            if time.monotonic() + 1.5 * slowest + SETUP_BUDGET_S > deadline:
                break
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if not plain or (args.trace and not traced):
        print("error: out of time before a pass of each kind ran",
              file=sys.stderr)
        return 1
    failed = sum(not ok for _, ok, _ in bench.checks)
    attempted = len(bench.checks)
    med = statistics.median
    e2e = {
        "wall_s": med(p.wall_less_steal_s for p in plain),
        "cpu_s": med(p.cpu_s for p in plain),
        "peak_rss_mib": med(p.peak_rss_mib for p in plain),
        "setup_s": med(w - s for w, s in bench.setup_s),
        "dev_rmse": med(bench.dev_rmse),
    }
    for key, value in bench.inputs.properties.items():
        print(f"input {key} = {round(value, 4)}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes after 1 warm-up, "
          f"{len(warm.stages)} stage processes per pass")
    print(f"digest of checkpoint and prediction bytes: {bench.digest}")
    print("stage wall_s medians: " + ", ".join(
        f"{s.label} {med(p.stages[i].wall_s for p in plain):.3f}"
        for i, s in enumerate(warm.stages)))
    print(f"wall_s        {e2e['wall_s']:.4f} s    "
          f"({_summary([p.wall_less_steal_s for p in plain])}; with steal "
          f"{_summary([p.wall_s for p in plain])})")
    print(f"cpu_s         {e2e['cpu_s']:.4f} s    ({_summary([p.cpu_s for p in plain])})")
    print(f"peak_rss_mib  {e2e['peak_rss_mib']:.2f} MiB "
          f"({_summary([p.peak_rss_mib for p in plain])})")
    print(f"setup_s       {e2e['setup_s']:.4f} s    "
          f"({_summary([w - s for w, s in bench.setup_s])}; with steal "
          f"{_summary([w for w, _ in bench.setup_s])})")
    print(f"error_rate    {failed / attempted:.4f} fraction "
          f"({failed} of {attempted} stage runs and output checks failed)")
    print(f"dev_rmse      {e2e['dev_rmse']:.6f} rmse  (constant predictor "
          f"{bench.constant_rmse:.6f}; a pass fails above "
          f"{QUALITY_RATIO} x that)")

    if args.trace:
        metrics = {name: med(m[name] for m in bench.layer_metrics)
                   for name, _, _ in layers.PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (med(p.wall_less_steal_s for p in traced)
                                       - e2e["wall_s"])
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, _, _ in layers.PER_LAYER:
            print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    else:
        metrics = e2e
        units = dict(END_TO_END)
    correct = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
