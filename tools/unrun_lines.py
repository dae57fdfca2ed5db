"""Run the tier-1 suite under the line ledger and print, per module of
`src/dimasr/`, the executable lines that no test ran.

    python tools/unrun_lines.py [extra pytest arguments]

Executable lines are those the compiled module's code objects map bytecode
to.  Exits with pytest's status.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dimasr"


def executable_lines(path: Path) -> set[int]:
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)   # 0: module entry
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as `a-b` runs, comma-separated."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as out:
        path = os.pathsep.join(filter(None, [str(ROOT / "tools" / "ledger"),
                                             str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "DIMASR_LEDGER": out, "PYTHONPATH": path}
        status = subprocess.run([sys.executable, "-m", "pytest", "-q",
                                 "--continue-on-collection-errors", *argv],
                                cwd=ROOT, env=env).returncode
        for dump in Path(out).glob("*.json"):
            for name, lines in json.loads(dump.read_text(encoding="utf-8")).items():
                ran.setdefault(name, set()).update(lines)
    total = 0
    for module in sorted(SRC.glob("*.py")):
        unrun = sorted(executable_lines(module) - ran.get(str(module.resolve()), set()))
        total += len(unrun)
        print(f"{module.relative_to(ROOT)}: {len(unrun)} unrun"
              + (f": {spans(unrun)}" if unrun else ""))
    print(f"total: {total} unrun lines")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
