"""Optional pretrained-encoder backend (HuggingFace transformers).

Plugs a multilingual pretrained encoder (e.g. bert-base-multilingual-cased,
xlm-roberta-base/large) into the encoder contract: the model's own tokenizer
renders the (aspect, text) sentence pair with its native special tokens,
sequences are truncated/padded to spec.max_len, and the hidden state of the
first special token is returned as the embedding.

torch and transformers are imported lazily; nothing in the core package or
its test suite requires them.
"""

from __future__ import annotations

import numpy as np

from .encoding import BACKEND_PRETRAINED, EncoderSpec, EncodingError


class PretrainedEncoder:
    def __init__(self, spec: EncoderSpec, device: str = "cpu"):
        if spec.backend != BACKEND_PRETRAINED:
            raise EncodingError(f"spec backend is {spec.backend!r}, "
                                f"expected {BACKEND_PRETRAINED!r}")
        try:
            import torch
            from transformers import AutoModel, AutoTokenizer
        except ImportError as exc:
            raise EncodingError(
                "pretrained backend needs torch and transformers installed"
            ) from exc
        self._torch = torch
        self.spec = spec
        self.device = device
        self.tokenizer = AutoTokenizer.from_pretrained(spec.model_name)
        self.model = AutoModel.from_pretrained(spec.model_name)
        self.model.to(device)
        self.model.eval()
        hidden = self.model.config.hidden_size
        if hidden != spec.hidden_size:
            raise EncodingError(
                f"model hidden size {hidden} does not match spec.hidden_size "
                f"{spec.hidden_size}")

    def encode_pairs(self, pairs: list[tuple[str, str]],
                     batch_size: int = 32) -> np.ndarray:
        """First-special-token hidden states, (n, hidden_size), float64."""
        torch = self._torch
        chunks = []
        with torch.no_grad():
            for start in range(0, len(pairs), batch_size):
                chunk = pairs[start:start + batch_size]
                enc = self.tokenizer(
                    [a for a, _ in chunk], [t for _, t in chunk],
                    truncation="only_second", max_length=self.spec.max_len,
                    padding="max_length", return_tensors="pt",
                ).to(self.device)
                hidden = self.model(**enc).last_hidden_state[:, 0, :]
                chunks.append(hidden.cpu().numpy().astype(np.float64))
        if not chunks:
            return np.zeros((0, self.spec.hidden_size))
        return np.concatenate(chunks, axis=0)
