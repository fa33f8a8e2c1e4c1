"""Small-sample statistics for comparing two sets of timings.

Everything here is hand-implemented over plain floats — no scipy — and
sized for the regime alternating benchmark pairs produce: a handful
(3–20) of wall-clock timings per side, parent against change.

* :func:`summarize` — mean, sample standard deviation and a 95 %
  confidence interval on the mean (Student t, two-sided).
* :func:`mann_whitney_u` — one-sided Mann–Whitney U test (is sample B
  stochastically *greater* than sample A?) via the normal approximation
  with tie correction.  Rank-based, so a single outlier timing cannot
  fake or mask a regression the way a t-test's mean can.
* :func:`compare_samples` — the regression verdict: *slower* only
  when the mean ratio exceeds a threshold **and** the U test finds the
  shift significant.

With fewer than 3 runs per side the U statistic cannot reach
``p < 0.05`` (perfect 2-vs-2 separation floors at p ~ 0.12), so
:func:`compare_samples` degrades to a ratio-only check for
single-sample baselines and says so in its verdict — callers that want
robust significance should take 5 or more samples per side.
"""

from __future__ import annotations

import math

#: Two-sided 95 % Student-t critical values by degrees of freedom; the
#: benchmark never sees more than ~30 runs, beyond which the normal
#: value (1.96) is within 2 %.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042,
}


def _t95(df: int) -> float:
    if df <= 0:
        return 0.0
    if df in _T95:
        return _T95[df]
    for bound in (25, 30):
        if df <= bound:
            return _T95[bound]
    return 1.96


def summarize(samples: list[float]) -> dict:
    """Mean / sample std / 95 % CI half-width of *samples*.

    Returns ``{n, mean, std, ci95}``; ``std``/``ci95`` are 0.0 for a
    single sample (no spread information, not "certain").
    """
    n = len(samples)
    if n == 0:
        raise ValueError("summarize() needs at least one sample")
    mean = math.fsum(samples) / n
    if n == 1:
        return {"n": 1, "mean": mean, "std": 0.0, "ci95": 0.0}
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(var)
    ci95 = _t95(n - 1) * std / math.sqrt(n)
    return {"n": n, "mean": mean, "std": std, "ci95": ci95}


def mann_whitney_u(baseline: list[float], candidate: list[float]) -> dict:
    """One-sided Mann–Whitney U: p-value that *candidate* is drawn from
    a distribution stochastically **greater** (slower) than *baseline*.

    Normal approximation with tie correction; exact enough for the
    n >= 3 per side the benchmark uses (and conservative below that —
    tiny samples simply cannot reach small p).  Returns
    ``{u, p, n_baseline, n_candidate}`` where ``u`` counts
    (candidate > baseline) pairs, ties as half.
    """
    na, nb = len(baseline), len(candidate)
    if na == 0 or nb == 0:
        raise ValueError("mann_whitney_u() needs non-empty samples")
    # Rank the pooled samples (average ranks on ties).
    pooled = sorted(
        [(x, 0) for x in baseline] + [(x, 1) for x in candidate]
    )
    ranks = [0.0] * (na + nb)
    tie_term = 0.0
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j][0] == pooled[i][0]:
            j += 1
        avg_rank = (i + j + 1) / 2.0  # ranks are 1-based
        for k in range(i, j):
            ranks[k] = avg_rank
        t = j - i
        if t > 1:
            tie_term += t * (t * t - 1)
        i = j
    rank_sum_b = math.fsum(r for r, (_, side) in zip(ranks, pooled) if side)
    u = rank_sum_b - nb * (nb + 1) / 2.0  # pairs where candidate wins
    mean_u = na * nb / 2.0
    n = na + nb
    var_u = (na * nb / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0.0:  # all values identical
        return {"u": u, "p": 1.0, "n_baseline": na, "n_candidate": nb}
    # Continuity-corrected one-sided normal tail.
    z = (u - mean_u - 0.5) / math.sqrt(var_u)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return {"u": u, "p": min(1.0, max(0.0, p)), "n_baseline": na, "n_candidate": nb}


def compare_samples(
    baseline: list[float],
    candidate: list[float],
    threshold: float = 1.10,
    alpha: float = 0.05,
) -> dict:
    """Regression verdict: is *candidate* meaningfully slower than
    *baseline*?

    ``slower`` is True only when the candidate/baseline mean ratio
    exceeds *threshold* **and** the evidence supports it: a one-sided
    Mann–Whitney ``p < alpha`` when both sides have >= 2 samples, the
    bare ratio otherwise (``method: "ratio-only"`` in the verdict, for
    single-timing legacy baselines).
    """
    base = summarize(baseline)
    cand = summarize(candidate)
    ratio = cand["mean"] / base["mean"] if base["mean"] else float("inf")
    verdict = {
        "baseline": base,
        "candidate": cand,
        "ratio": ratio,
        "threshold": threshold,
        "alpha": alpha,
    }
    if len(baseline) < 2 or len(candidate) < 2:
        verdict["method"] = "ratio-only"
        verdict["p"] = None
        verdict["slower"] = ratio > threshold
        return verdict
    test = mann_whitney_u(baseline, candidate)
    verdict["method"] = "mann-whitney"
    verdict["p"] = test["p"]
    verdict["slower"] = ratio > threshold and test["p"] < alpha
    return verdict
