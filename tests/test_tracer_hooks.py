"""The benchmark's per-layer tracer finds every name it wraps in `src/`.

`perfbench/tracer.py` replaces dimasr functions by name; a rename or
deletion in `src/` would otherwise show only in a traced benchmark pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
from pathlib import Path

import dimasr
from tracer import Tracer

assert Path(dimasr.__file__).resolve().is_relative_to(Path(sys.argv[1])), dimasr.__file__
tracer = Tracer()
tracer.install()
tracer.dump(Path(sys.argv[2]), 0.0, "install")
"""


def test_tracer_installs_against_src(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(spans)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(spans.read_text(encoding="utf-8"))
    assert dump["stage"] == "install" and dump["spans"] == []
    assert {"encoding.token_cache_hits",
            "encoding.token_cache_misses"} <= set(dump["counters"])
