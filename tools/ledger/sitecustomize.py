"""Line ledger for `tools/unrun_lines.py`: with this directory on PYTHONPATH
and DIMASR_LEDGER set to a directory, every Python process that starts
(stage subprocesses included) records the lines of `src/dimasr/` it runs
and writes them to a file in that directory when it exits, by `atexit` or
by `os._exit`.  Without DIMASR_LEDGER it does nothing.  Standard library
only: `sys.settrace` and `threading.settrace`, for dimasr's frames alone.
"""

import atexit
import json
import os
import sys
import threading
import time

_OUT = os.environ.get("DIMASR_LEDGER")
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src", "dimasr", "")

if _OUT:
    _ran: set = set()
    _ours: dict = {}   # co_filename -> whether it is under src/dimasr/

    def _line(frame, event, arg):
        if event == "line":
            _ran.add((frame.f_code.co_filename, frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in _ours:
            _ours[name] = os.path.realpath(name).startswith(_SRC)
        if not _ours[name]:
            return None
        _ran.add((name, frame.f_lineno))
        return _line

    def _dump() -> None:
        sys.settrace(None)
        by_file: dict = {}
        for name, line in _ran:
            by_file.setdefault(os.path.realpath(name), []).append(line)
        path = os.path.join(_OUT, f"{os.getpid()}-{time.time_ns()}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(by_file, f)
        _ran.clear()

    def _exit(code, _os_exit=os._exit):
        _dump()
        _os_exit(code)

    atexit.register(_dump)
    os._exit = _exit
    sys.settrace(_call)
    threading.settrace(_call)
