"""Multilingual aspect-level valence-arousal regression.

Pipeline pieces: quadruplet corpus preprocessing (corpus), sentence-pair
encoding with a deterministic toy backend (encoding), a two-output regression
head with optional sigmoid-bounded transform (regressor), joint multilingual
training with early stopping (trainer), joint VA RMSE evaluation (metrics),
per-pair exhaustive ensemble subset search (ensemble), and a file-based batch
CLI (cli).
"""

import sys

__version__ = "0.1.0"


def log(name: str, message: str, level: str = "INFO") -> None:
    """Write one `LEVEL name: message` line to stderr and flush it, so a
    progress line shows while the stage runs.  Stages report this way
    rather than through `logging`, which would add its import to every
    process."""
    print(f"{level} {name}: {message}", file=sys.stderr, flush=True)
