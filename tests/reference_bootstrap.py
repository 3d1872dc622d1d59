"""Reference paired bootstrap that resamples instance indices.

Written from the definition of the paired percentile bootstrap alone: each
resample draws n instance indices with replacement, applies the same
indices to both arms, and takes the difference of the arm means. It
shares no code with the package's count-based sampler, so agreement
between the two is evidence that drawing outcome counts gives the same
distribution as drawing indices.
"""

from __future__ import annotations

import numpy as np


def paired_delta_ci(baseline, constrained, resamples: int, level: float,
                    seed: int) -> tuple[float, float]:
    """Percentile CI for mean(constrained) - mean(baseline), chunked so no
    more than about 4M indices are held at once."""
    baseline = np.asarray(baseline, dtype=np.float64)
    constrained = np.asarray(constrained, dtype=np.float64)
    n = baseline.size
    rng = np.random.default_rng(seed)
    deltas = np.empty(resamples, dtype=np.float64)
    chunk = max(1, (1 << 22) // n)
    for start in range(0, resamples, chunk):
        stop = min(resamples, start + chunk)
        idx = rng.integers(0, n, size=(stop - start, n))
        deltas[start:stop] = constrained[idx].mean(axis=1) - baseline[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(deltas, [alpha, 1.0 - alpha])
    return float(low), float(high)


def arms(n: int, k_up: int, k_down: int) -> tuple[np.ndarray, np.ndarray]:
    """Paired binary arms of size n whose per-instance delta
    (constrained - baseline) is +1 k_up times, -1 k_down times and 0
    otherwise; the zero deltas alternate between both-right and
    both-wrong."""
    baseline = np.zeros(n)
    constrained = np.zeros(n)
    constrained[:k_up] = 1.0
    baseline[k_up:k_up + k_down] = 1.0
    tied = np.arange(k_up + k_down, n)
    baseline[tied[::2]] = constrained[tied[::2]] = 1.0
    return baseline, constrained
