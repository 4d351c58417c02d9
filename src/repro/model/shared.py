"""Process-wide model and tokenizer instances.

Weights depend only on the model config and a tokenizer only on its
vocabulary size, so one instance per model name (and per vocabulary)
serves every experiment, trace and CLI run in a process; sharing is
behaviour-neutral and saves rebuilding them.
"""

from __future__ import annotations

from ..text.tokenizer import Tokenizer
from ..text.vocab import Vocabulary
from .transformer import CrossEncoderModel
from .zoo import ModelConfig

_MODELS: dict[str, CrossEncoderModel] = {}
_TOKENIZERS: dict[int, Tokenizer] = {}


def shared_model(config: ModelConfig) -> CrossEncoderModel:
    """The process's model for ``config.name``."""
    if config.name not in _MODELS:
        _MODELS[config.name] = CrossEncoderModel(config)
    return _MODELS[config.name]


def shared_tokenizer(config: ModelConfig) -> Tokenizer:
    """The process's tokenizer for ``config.vocab_size``."""
    if config.vocab_size not in _TOKENIZERS:
        _TOKENIZERS[config.vocab_size] = Tokenizer(Vocabulary(config.vocab_size))
    return _TOKENIZERS[config.vocab_size]
