"""Weight initialisation schemes.

The paper does not specify initialisation beyond standard practice for
transformer-style models; Xavier/Glorot uniform is used for projection
matrices and scaled normal for embedding tables, matching the defaults of the
frameworks the authors used.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def embedding_normal(shape: tuple, rng: np.random.Generator, std: float = 0.05) -> np.ndarray:
    """Small-variance normal initialisation for embedding tables."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple) -> np.ndarray:
    return np.ones(shape)


def _fans(shape: tuple) -> tuple:
    if len(shape) < 1:
        raise ValueError("initialisation requires at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    fan_out = int(shape[-1])
    return fan_in, fan_out
