"""Deterministic sample sets on the unit disc and circle."""

from __future__ import annotations

import numpy as np

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def circle_samples(count: int) -> np.ndarray:
    """``count`` equally spaced roots of unity."""
    return np.exp(2j * np.pi * np.arange(count) / count)


def disc_samples(count: int, radius: float = 0.95) -> np.ndarray:
    """A golden-angle spiral of ``count`` points with moduli up to ``radius``."""
    k = np.arange(1, count + 1)
    r = radius * np.sqrt(k / (count + 1.0))
    return r * np.exp(2j * np.pi * _GOLDEN * k)


def random_disc_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform points in the disc of the given radius."""
    r = radius * np.sqrt(rng.uniform(size=count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * theta)
