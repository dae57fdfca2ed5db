"""Multilingual aspect-level valence-arousal regression.

Pipeline pieces: quadruplet corpus preprocessing (corpus), sentence-pair
encoding with a deterministic toy backend (encoding), a two-output regression
head with optional sigmoid-bounded transform (regressor), joint multilingual
training with early stopping (trainer), joint VA RMSE evaluation (metrics),
per-pair exhaustive ensemble subset search (ensemble), and a file-based batch
CLI (cli).
"""

__version__ = "0.1.0"
