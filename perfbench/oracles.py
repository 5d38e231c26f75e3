"""Reference computations the benchmark checks the program against.

Nothing here imports vodsim: the Erlang-B value, the offered load, the
Student-t quantile and the count bounds are worked out from the scenario
parameters alone, so a fault in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Two-sided 95% Student-t quantiles t(0.975, df) for df = 1..30.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)
_Z975 = 1.959963984540054

# Standard deviations allowed by the count bounds. Each run makes a few
# thousand such checks, so the bound must make a false alarm negligible.
COUNT_Z = 6.0


def t975(df: int) -> float:
    """Student-t 0.975 quantile: exact table to df 30, Cornish-Fisher beyond."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if df <= len(_T975):
        return _T975[df - 1]
    z = _Z975
    g1 = (z**3 + z) / 4
    g2 = (5 * z**5 + 16 * z**3 + 3 * z) / 96
    g3 = (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384
    g4 = (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160
    return z + g1 / df + g2 / df**2 + g3 / df**3 + g4 / df**4


def mean_t_halfwidth(values: list[float]) -> tuple[float, float]:
    """Mean and 95% Student-t confidence halfwidth of independent samples."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, math.inf
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, t975(n - 1) * math.sqrt(variance / n)


def erlang_b(offered: float, ports: int) -> float:
    """Erlang-B blocking from the log-space terms A^k/k!, k = 0..ports."""
    if offered <= 0:
        return 0.0 if ports > 0 else 1.0
    log_a = math.log(offered)
    logs = [k * log_a - math.lgamma(k + 1) for k in range(ports + 1)]
    top = max(logs)
    return math.exp(logs[-1] - top) / math.fsum(math.exp(x - top) for x in logs)


def holding_means(seed: int, count: int, low: float, high: float) -> list[float]:
    """Per-cluster mean holds as the scenario defines them: uniform on
    [low, high], drawn once from SeedSequence([0, seed])."""
    rng = np.random.default_rng(np.random.SeedSequence([0, seed]))
    return rng.uniform(low, high, count).tolist()


def request_rates(scenario: dict, multiplier: float) -> list[float]:
    """Per-cluster request rates (1/s): linearly spaced traffic rates, scaled
    by the load multiplier, over the bandwidth of one stream."""
    n = scenario["num_clusters"]
    low, high = scenario["min_rate"], scenario["max_rate"]
    step = (high - low) / (n - 1) if n > 1 else 0.0
    return [
        (low + c * step) * multiplier / scenario["per_stream_bandwidth"]
        for c in range(n)
    ]


def offered_erlangs(scenario: dict, multiplier: float) -> float:
    holds = holding_means(
        scenario["seed"], scenario["num_clusters"],
        scenario["min_hold"], scenario["max_hold"],
    )
    return math.fsum(r * h for r, h in zip(request_rates(scenario, multiplier), holds))


def within_poisson(count: int, mean: float) -> bool:
    return abs(count - mean) <= COUNT_Z * math.sqrt(mean) + 1


def within_binomial(successes: int, trials: int, p: float) -> bool:
    return abs(successes - trials * p) <= COUNT_Z * math.sqrt(trials * p * (1 - p)) + 1


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation, ties given their average rank."""

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return cov / var
