"""Run the dimasr stage chain as cold processes and check what it writes.

Each stage is its own `python -m dimasr.cli <stage>` process, so every pass
pays interpreter start, imports and the token-vector LRU exactly as a user
does.  Resource use is read per child with `os.wait4`, never from the
cumulative RUSAGE_CHILDREN maximum.

On a virtual machine the host can withhold the machine's CPUs for a while
("steal" time).  Processes then take longer in wall time but not in CPU
time.  Each pass records the steal time the kernel counted while it ran.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MANIFEST = "manifest.json"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SUBMISSION_VA = re.compile(r"^(\d\.\d\d)#(\d\.\d\d)$")


class SetupError(RuntimeError):
    pass


def steal_s() -> float:
    """CPU time the hypervisor has withheld from this machine since boot,
    summed over its CPUs (the `steal` column of /proc/stat); 0 where the
    kernel does not count it."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass(frozen=True)
class Stage:
    label: str                  # unique within a chain, e.g. "predict-dev"
    argv: tuple[str, ...]       # dimasr arguments; argv[0] is the subcommand
    out: Path


@dataclass
class StageRun:
    label: str
    returncode: int | None      # None: not started because an earlier stage failed
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mib: float = 0.0
    manifest: str | None = None

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.manifest is not None


@dataclass
class PassRun:
    index: int
    traced: bool
    stages: list[StageRun]
    wall_s: float
    steal_s: float              # steal time counted while the pass ran
    spans: list[Path] = field(default_factory=list)

    @property
    def wall_less_steal_s(self) -> float:
        """The pass's wall time had the host withheld no CPU."""
        return self.wall_s - self.steal_s

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.stages)

    @property
    def peak_rss_mib(self) -> float:
        return max(s.maxrss_mib for s in self.stages)


class Runner:
    """Spawns stage processes against the checkout's own `src/`."""

    def __init__(self, root: Path, deadline: float):
        self.src = root / "src"
        self.deadline = deadline
        path = [str(self.src), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ,
                    "PYTHONPATH": os.pathsep.join(p for p in path if p)}

    def check_import(self) -> None:
        """Refuse to measure any dimasr other than the one in this checkout."""
        out = subprocess.run(
            [sys.executable, "-c", "import dimasr; print(dimasr.__file__)"],
            env=self.env, capture_output=True, text=True, timeout=60)
        where = Path(out.stdout.strip() or "/nonexistent").resolve()
        if out.returncode != 0 or self.src.resolve() not in where.parents:
            raise SetupError(f"dimasr does not import from {self.src}: "
                             f"{out.stderr.strip() or where}")

    def run(self, stage: Stage, log: Path, spans: Path | None = None,
            pass_index: int = 0) -> StageRun:
        env = self.env
        if spans is None:
            cmd = [sys.executable, "-m", "dimasr.cli", *stage.argv]
        else:
            cmd = [sys.executable, str(TRACER), *stage.argv]
            env = {**env, "PERFBENCH_SPANS": str(spans),
                   "PERFBENCH_PASS": str(pass_index)}
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as log_file:
            t0 = time.monotonic()
            if spans is not None:
                env["PERFBENCH_T0"] = repr(t0)
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=log_file, stderr=subprocess.STDOUT,
                                    env=env)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        manifest = stage.out / MANIFEST
        return StageRun(
            label=stage.label, returncode=proc.returncode, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mib=usage.ru_maxrss / 1024.0,   # Linux reports KiB
            manifest=manifest.read_text(encoding="utf-8")
            if proc.returncode == 0 and manifest.is_file() else None)


def run_pass(runner: Runner, stages: list[Stage], index: int, logs: Path,
             traced: bool = False) -> PassRun:
    """One pass of the chain; stages after a failed one are not started."""
    runs: list[StageRun] = []
    spans: list[Path] = []
    steal0, t0 = steal_s(), time.monotonic()
    for stage in stages:
        if runs and not runs[-1].ok:
            runs.append(StageRun(label=stage.label, returncode=None))
            continue
        span_file = logs / f"pass{index}-{stage.label}.spans.json" if traced else None
        run = runner.run(stage, logs / f"pass{index}-{stage.label}.log",
                         span_file, index)
        if span_file is not None and span_file.is_file():
            spans.append(span_file)
        runs.append(run)
    wall = time.monotonic() - t0
    return PassRun(index=index, traced=traced, stages=runs, wall_s=wall,
                   steal_s=steal_s() - steal0, spans=spans)


# ---------------------------------------------------------------------------
# output checks

def _read_va(path: Path) -> dict[tuple, tuple]:
    rows = json.loads(path.read_text(encoding="utf-8"))
    out = {}
    for row in rows:
        v, _, a = row["VA"].partition("#")
        out[(row["ID"], row["Aspect"])] = (float(v), float(a))
    return out


def rmse(pred: dict[tuple, tuple], gold: dict[tuple, tuple]) -> float:
    """Joint VA RMSE in gold order; a missing key raises KeyError."""
    p = np.array([pred[k] for k in gold], dtype=np.float64)
    g = np.array(list(gold.values()), dtype=np.float64)
    return float(np.sqrt(np.mean(np.sum((p - g) ** 2, axis=1))))


def constant_rmse(gold: dict[str, dict]) -> float:
    """Average over pairs of the RMSE of predicting the pair's gold mean, the
    best any constant predictor can do."""
    return float(np.mean([rmse(dict.fromkeys(g, tuple(np.mean(
        list(g.values()), axis=0))), g) for g in gold.values()]))


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_submission(sub_dir: Path, expected: dict[str, list[tuple]]) -> list:
    """One `"v#a"` row with two decimals in [1, 9] per expected test instance."""
    found = sorted(p.stem for p in sub_dir.glob("*.json") if p.name != MANIFEST)
    results = [("submission.pairs", found == sorted(expected),
                f"files {found}")]
    for pair, keys in expected.items():
        path = sub_dir / f"{pair}.json"
        try:
            rows = json.loads(path.read_text(encoding="utf-8"))
            got, bad = [], []
            for row in rows:
                got.append((row["ID"], row["Aspect"]))
                m = SUBMISSION_VA.match(row["VA"])
                if not m or not all(1.0 <= float(x) <= 9.0 for x in m.groups()):
                    bad.append(row["VA"])
            ok = not bad and len(got) == len(set(got)) and set(got) == set(keys)
            detail = f"bad values {bad[:3]}" if bad else f"{len(got)} rows"
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok, detail = False, repr(exc)
        results.append((f"submission.{pair}", ok, detail))
    return results


def check_report(eval_dir: Path, pred_dir: Path,
                 gold: dict[str, dict]) -> tuple[list, float]:
    """The evaluate report's average equals a recomputation from its inputs."""
    try:
        report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
        average = float(report["average"])
        expect = float(np.mean([rmse(_read_va(pred_dir / f"{p}.json"), g)
                                for p, g in gold.items()]))
        ok = _close(average, expect)
        detail = f"report {average!r}, recomputed {expect!r}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        average, ok, detail = math.nan, False, repr(exc)
    return [("evaluate.average", ok, detail)], average


def full_pool_rmse(members_dev: Path, gold: dict[str, dict]) -> dict[str, float]:
    """Per pair, the RMSE of the plain average over every member."""
    members = sorted(p for p in members_dev.iterdir() if p.is_dir())
    out = {}
    for pair, g in gold.items():
        preds = [_read_va(m / f"{pair}.json") for m in members]
        mean = {k: tuple(np.mean([p[k] for p in preds], axis=0)) for k in g}
        out[pair] = rmse(mean, g)
    return out


def check_selection(ens_dir: Path, gold: dict[str, dict],
                    full_pool: dict[str, float]) -> list:
    """selection.json is finite, matches the written ensemble dev files, and
    beats or ties the full-pool average on every pair."""
    try:
        selection = json.loads((ens_dir / "selection.json").read_text(
            encoding="utf-8"))["per_pair"]
    except (OSError, ValueError, KeyError) as exc:
        return [("selection.read", False, repr(exc))]
    results = []
    for pair, g in gold.items():
        try:
            chosen = float(selection[pair]["dev_rmse"])
            written = rmse(_read_va(ens_dir / "dev" / f"{pair}.json"), g)
            ok = (_close(chosen, written)
                  and chosen <= full_pool[pair] + 1e-12)
            detail = (f"selected {chosen!r}, written {written!r}, "
                      f"full pool {full_pool[pair]!r}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok, detail = False, repr(exc)
        results.append((f"selection.{pair}", ok, detail))
    return results


def check_manifests(run: PassRun, reference: PassRun) -> list:
    """Every stage's manifest, output hashes included, matches the reference pass."""
    return [(f"manifest.{r.label}", r.manifest is not None
             and r.manifest == ref.manifest, "differs from the reference pass")
            for r, ref in zip(run.stages, reference.stages)]


def output_digest(manifests: list[Path]) -> str:
    """sha256 over the checkpoint and prediction hashes the manifests list."""
    h = hashlib.sha256()
    for path in manifests:
        body = json.loads(path.read_text(encoding="utf-8"))
        for name, digest in sorted(body["outputs"].items()):
            if name.endswith(".ckpt") or (name.endswith(".json") and (
                    body["stage"] == "predict"
                    or name.startswith(("dev/", "test/")))):
                h.update(f"{body['stage']} {name} {digest}\n".encode("utf-8"))
    return h.hexdigest()
