"""Seeded random test data, drawn with numpy's generator: the library draws
from the stdlib Mersenne Twister through ``opkern.core.uniform``, while the
tests' data stays the stream it has always been."""

import numpy as np

rng = np.random.default_rng


def complex_unit_disc(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws from the closed complex unit disc."""
    r = np.sqrt(gen.uniform(0.0, 1.0, size=size))
    theta = gen.uniform(0.0, 2.0 * np.pi, size=size)
    return r * np.exp(1j * theta)
