"""Reference paired bootstraps, written from the definition alone.

paired_delta_ci resamples instance indices: each resample draws n instance
indices with replacement, applies the same indices to both arms, and takes
the difference of the arm means. exact_delta_ci enumerates the law of a
resample's mean in exact rationals. fft_delta_cis raises the same law by one
FFT, as the package did before it read the law off a recurrence. None of
them shares code with the package, so agreement is evidence that its
counts-only law is the right one and that it reads its quantiles off that law
correctly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

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


def delta_law(k_down: int, k_zero: int, k_up: int) -> dict[int, Fraction]:
    """P(K+ - K- = s) for (K-, K0, K+) ~ Multinomial(n, (k_down, k_zero,
    k_up) / n): the law of n times a resample's mean delta, by trinomial
    enumeration."""
    n = k_down + k_zero + k_up
    shares = [Fraction(k, n) for k in (k_down, k_zero, k_up)]
    law: dict[int, Fraction] = {}
    for minus in range(n + 1):
        for plus in range(n - minus + 1):
            p = (comb(n, minus) * comb(n - minus, plus) * shares[0] ** minus
                 * shares[1] ** (n - minus - plus) * shares[2] ** plus)
            law[plus - minus] = law.get(plus - minus, 0) + p
    return law


def exact_delta_ci(k_down: int, k_zero: int, k_up: int,
                   level: float) -> tuple[Fraction, Fraction]:
    """The B -> infinity percentile CI: the first s/n whose CDF reaches
    alpha/2, and the first whose CDF reaches 1 - alpha/2, compared exactly
    (level is read as the decimal it prints as)."""
    n = k_down + k_zero + k_up
    targets = ((1 - Fraction(str(level))) / 2, (1 + Fraction(str(level))) / 2)
    law = delta_law(k_down, k_zero, k_up)
    cdf = Fraction(0)
    bounds: list[Fraction] = []
    for s in range(-n, n + 1):
        cdf += law.get(s, 0)
        while len(bounds) < 2 and cdf >= targets[len(bounds)]:
            bounds.append(Fraction(s, n))
    low, high = bounds
    return low, high


def fft_delta_cis(k_down: int, k_zero: int, k_up: int,
                  levels: tuple[float, ...]) -> list[tuple[float, float]]:
    """The package's CI at each level, read off one FFT: P(K+ - K- = s) is
    the coefficient of x^(n+s) in (p- + p0 x + p+ x^2)^n, and a bound is the
    first s/n whose CDF reaches alpha/2, or 1 - alpha/2, less 1e-9."""
    n = k_down + k_zero + k_up
    size = 1 << (2 * n).bit_length()  # the next power of two >= 2n + 1, so no wrap
    coeffs = np.zeros(size)
    coeffs[:3] = k_down / n, k_zero / n, k_up / n
    pmf = np.fft.irfft(np.fft.rfft(coeffs) ** n, size)[:2 * n + 1]
    cdf = np.cumsum(np.clip(pmf, 0.0, None))
    cdf /= cdf[-1]
    bounds = []
    for level in levels:
        alpha = (1.0 - level) / 2.0
        low, high = np.searchsorted(cdf, [alpha - 1e-9, 1.0 - alpha - 1e-9])
        bounds.append(((int(low) - n) / n, (int(high) - n) / n))
    return bounds
