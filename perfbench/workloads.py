"""Workload configs and the correctness checks run on every output.

Each workload is one CLI experiment config; its master seed is filled in per
repetition from the benchmark seed.  The checks read the CSV and JSON the
program wrote.  Monte Carlo checks compare sample variances with the
paper's closed forms evaluated exactly at the workload's level, using an
independent fGn autocovariance, and allow ``Z`` standard errors estimated
from the workload's own replication count.  The n -> infinity limits
(36 kappa1^2 t, 4 kappa3^2 t, 36 kappa1^2 sqrt(2t/pi), slopes 0.2 and 0)
are reported next to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

# Standard errors allowed before a Monte Carlo check fails.  A correct
# estimator on a new random stream stays within it; a wrong terminal law or
# a lost factor in a variation moves a variance by many standard errors.
Z = 5.0
# Kolmogorov c(alpha) at alpha = 1e-6 for the two-sample KS distance.
KS_C = math.sqrt(-0.5 * math.log(0.5e-6))
IDENTITY_TOL = 1e-10
# law-h-eq's Brownian-clock mixture size; the CLI cannot set it.
MIXTURE_REPLICATIONS = 4000
H_SPECIAL = 1.0 / 6.0


@dataclass(frozen=True)
class Workload:
    """Timed runs use one worker: on a box of few shared cores a pool's
    wall and CPU time measure the scheduler.  With ``pool_workers`` the
    traced run also runs the config at that many workers, checks that the
    CSV is unchanged and reports the pool's counts and times per layer."""
    name: str
    config: dict
    pool_workers: int = 0


# Why each workload is here is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w for w in (
        # The skeleton walk dominates and only its terminal point is read.
        Workload("brownian-clock",
                 {"experiment": "diverge-h-lt", "H": 0.1, "t": 1.0, "function": "x^3",
                  "levels": [16, 18, 20], "replications": 400, "fbmbt_replications": 400}),
        # Many ~1 ms fGn, Euler and third-order draws; the pool in the traced run.
        Workload("limit-law",
                 {"experiment": "law-h-eq", "n": 12, "t": 1.0, "replications": 1000,
                  "ks_replications": 1000, "modulus_replications": 200},
                 pool_workers=2),
        # Whole walks are consumed, so a terminal-point draw must not change it.
        Workload("identity-suite", {"experiment": "identity-suite", "replications": 2000}),
    )
}


# ---------------------------------------------------------------------------
# Exact finite-level variances for f = x^3 and f = x*y^2.
#
# With these f the third partials are constant, so V3 = 1/4 sum d1^3 and
# V3 = 1/4 sum d1 d2^2 over L increments of variance s2.  Gaussian moments
# give Var = s2^3/16 (9 A + 6 B) and s2^3/16 (A + 2 B), with
# A(L) = sum_{j,k<L} rho(j-k) = L^{2H} and B(L) = sum_{j,k<L} rho(j-k)^3.


def _rho(k: np.ndarray, H: float) -> np.ndarray:
    """fGn autocovariance at lags k >= 1, cancellation-free."""
    k = k.astype(np.float64)
    h2 = 2.0 * H
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf is exact at k = 1
        return 0.5 * k**h2 * (np.expm1(h2 * np.log1p(1.0 / k)) + np.expm1(h2 * np.log1p(-1.0 / k)))


def _ab(H: float, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.asarray(lengths, dtype=np.int64)
    top = int(lengths.max())
    r = np.arange(1, max(top, 2))
    r3 = _rho(r, H) ** 3
    c0 = np.concatenate([[0.0], np.cumsum(r3)])       # sum_{r<=k} rho^3
    c1 = np.concatenate([[0.0], np.cumsum(r * r3)])   # sum_{r<=k} r rho^3
    prev = np.maximum(lengths - 1, 0)
    b = lengths + 2.0 * (lengths * c0[prev] - c1[prev])
    return lengths.astype(np.float64) ** (2.0 * H), np.where(lengths > 0, b, 0.0)


def exact_var(H: float, n: int, t: float, kind: str) -> float:
    """Var of V3 on the fixed clock (kind 'x^3' or 'x*y^2')."""
    m = int(math.floor(2.0 ** (n / 2.0) * t))
    a, b = _ab(H, np.array([m]))
    w = (9.0, 6.0) if kind == "x^3" else (1.0, 2.0)
    return float(2.0 ** (-3.0 * n * H) / 16.0 * (w[0] * a[0] + w[1] * b[0]))


def exact_var_brownian(H: float, n: int, t: float) -> tuple[float, float]:
    """Var of the reduced V3 of x^3 on the Brownian clock, and its kurtosis
    when V3 is Gaussian given the segment length L = |2 Bin(m, 1/2) - m|,
    m = floor(2^n t) walk steps."""
    m = int(math.floor(2.0**n * t))
    half = 10.0 * math.sqrt(m) / 2.0 + 10
    k = np.arange(max(0, int(m / 2 - half)), min(m, int(m / 2 + half)) + 1)
    pmf = binom.pmf(k, m, 0.5)
    a, b = _ab(H, np.abs(2 * k - m))
    v = 2.0 ** (-3.0 * n * H) / 16.0 * (9.0 * a + 6.0 * b)
    w = pmf / pmf.sum()
    mean = float(w @ v)
    return mean, 3.0 * float(w @ v**2) / mean**2


# ---------------------------------------------------------------------------
# Checks


def _var_rel_se(x: np.ndarray, kurtosis: float) -> tuple[float, float]:
    """Sample variance and its relative standard error.  The kurtosis used is
    the larger of the model's and the sample's, so that a sample that misses
    the tail cannot shrink its own error bar."""
    r = len(x)
    c = x - x.mean()
    s2 = float(c @ c) / (r - 1)
    k = max(kurtosis, float(np.mean(c**4)) / (s2 * s2))
    return s2, math.sqrt((k - (r - 3) / (r - 1)) / r)


def _var_check(name: str, x: np.ndarray, target: float, kurtosis: float = 3.0,
               limit: float | None = None) -> dict:
    s2, rel = _var_rel_se(x, kurtosis)
    z = (s2 - target) / (target * rel)
    out = {"name": name, "ok": abs(z) <= Z, "value": s2, "target": target, "z": z}
    if limit is not None:
        out["limit"] = limit
    return out


def _log_var_check(name: str, weights, samples, targets, kurtoses,
                   limit: float | None = None) -> dict:
    """Weighted sum of log2 sample variances against the same sum of log2
    targets, with a delta-method SE.  Centred level weights give the
    variance-growth slope; equal weights pool the levels into one check of
    the overall scale, which has the power that one level's draws lack."""
    w = np.asarray(weights, dtype=np.float64)
    fits = [_var_rel_se(x, k) for x, k in zip(samples, kurtoses)]
    value = float(w @ np.log2([s2 for s2, _ in fits]))
    target = float(w @ np.log2(targets))
    se = math.sqrt(float(np.sum((w * np.array([rel for _, rel in fits])) ** 2))) / math.log(2.0)
    z = (value - target) / se
    out = {"name": name, "ok": abs(z) <= Z, "value": value, "target": target, "z": z}
    if limit is not None:
        out["limit"] = limit
    return out


def _ks_check(name: str, a: np.ndarray, b: np.ndarray) -> dict:
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    d = float(np.max(np.abs(np.searchsorted(a, pooled, side="right") / len(a)
                            - np.searchsorted(b, pooled, side="right") / len(b))))
    crit = KS_C * math.sqrt((len(a) + len(b)) / (len(a) * len(b)))
    return {"name": name, "ok": d <= crit, "value": d, "target": crit}


def expected_rows(workload: Workload) -> dict[str, int]:
    c = workload.config
    if c["experiment"] == "diverge-h-lt":
        rows = {f"v3_n{n}": c["replications"] for n in c["levels"]}
        rows.update({f"v_tilde3_norm_n{n}": c["fbmbt_replications"] for n in c["levels"]})
        return rows
    if c["experiment"] == "law-h-eq":
        rows = {"v3_x3": c["replications"], "v3_xy2": c["replications"],
                "v_tilde3_x3": MIXTURE_REPLICATIONS}
        rows.update({k: c["ks_replications"] for k in
                     ("ks_v3_x3", "ks_correction_fbm", "ks_o_tilde", "ks_rhs_fbmbt")})
        return rows
    return {f"identity_{k}": c["replications"] for k in
            ("crossings", "kl_reduce", "one_sided", "chaos_split", "hermite")}


def read_csv(path) -> dict[str, np.ndarray]:
    columns: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "replication,seed,statistic,value":
            raise ValueError("unexpected CSV header")
        for line in fh:
            _, _, stat, value = line.rstrip("\n").split(",")
            columns.setdefault(stat, []).append(float(value))
    return {k: np.asarray(v) for k, v in columns.items()}


def check(workload: Workload, columns: dict[str, np.ndarray], summary: dict) -> tuple[int, int, list[dict]]:
    """Returns (attempted, failed, checks).  Each replication row and each
    check is one operation; a missing or non-finite row fails."""
    want = expected_rows(workload)
    attempted = sum(want.values())
    bad = 0
    for stat, count in want.items():
        got = columns.get(stat, np.zeros(0))
        bad += max(count - int(np.isfinite(got).sum()), 0) + max(len(got) - count, 0)
    extra = set(columns) - set(want)
    checks = [{"name": "csv_rows", "ok": bad == 0 and not extra, "value": bad}]
    if checks[0]["ok"]:
        checks += _statistics(workload, columns, summary)
    failed = bad + sum(not c["ok"] for c in checks)
    return attempted + len(checks), failed, checks


def _statistics(workload: Workload, col: dict, summary: dict) -> list[dict]:
    c = workload.config
    verdicts = {t["name"]: t["verdict"] for t in summary["tests"]}
    if c["experiment"] == "identity-suite":
        out = [{"name": f"verdict_{k}", "ok": v, "value": float(v)} for k, v in verdicts.items()]
        out.append({"name": "verdict_count", "ok": len(verdicts) == 5, "value": len(verdicts)})
        for stat, x in col.items():
            tol = 0.0 if stat == "identity_crossings" else IDENTITY_TOL
            out.append({"name": f"{stat}_max", "ok": float(x.max()) <= tol,
                        "value": float(x.max()), "target": tol})
        return out

    t = c["t"]
    if c["experiment"] == "diverge-h-lt":
        H, levels = c["H"], c["levels"]
        out, v_targets, n_targets, n_kurt = [], [], [], []
        for n in levels:
            v_targets.append(exact_var(H, n, t, "x^3"))
            out.append(_var_check(f"var_v3_n{n}", col[f"v3_n{n}"], v_targets[-1]))
            var, kurt = exact_var_brownian(H, n, t)
            n_targets.append(var * 2.0 ** (-n * (1 - 6 * H) / 2))
            n_kurt.append(kurt)
            out.append(_var_check(f"var_v_tilde3_norm_n{n}", col[f"v_tilde3_norm_n{n}"],
                                  n_targets[-1], kurt))
        lv = np.asarray(levels, dtype=np.float64) - np.mean(levels)
        slope = lv / np.sum(lv**2)
        mixtures = [col[f"v_tilde3_norm_n{n}"] for n in levels]
        out.append(_log_var_check("v3_variance_slope", slope,
                                  [col[f"v3_n{n}"] for n in levels], v_targets,
                                  [3.0] * len(levels), (1 - 6 * H) / 2))
        out.append(_log_var_check("v_tilde3_normalized_slope", slope, mixtures,
                                  n_targets, n_kurt, 0.0))
        # A walk of half or twice the length moves every level's mixture
        # variance by about 30 %; only the pooled check sees that reliably.
        out.append(_log_var_check("v_tilde3_norm_pooled", np.full(len(levels), 1 / len(levels)),
                                  mixtures, n_targets, n_kurt))
        return out

    n = c["n"]
    s = summary["series_constants"]["S"]
    k1sq, k3sq = s / 96.0, s / 32.0
    mixture_var, mixture_kurt = exact_var_brownian(H_SPECIAL, n, t)
    return [
        _var_check("var_v3_x3", col["v3_x3"], exact_var(H_SPECIAL, n, t, "x^3"),
                   limit=36.0 * k1sq * t),
        _var_check("var_v3_xy2", col["v3_xy2"], exact_var(H_SPECIAL, n, t, "x*y^2"),
                   limit=4.0 * k3sq * t),
        _var_check("var_v_tilde3_x3", col["v_tilde3_x3"], mixture_var, mixture_kurt,
                   limit=36.0 * k1sq * math.sqrt(2.0 * t / math.pi)),
        _ks_check("ks_v3_correction", col["ks_v3_x3"], col["ks_correction_fbm"]),
        _ks_check("ks_otilde_rhs", col["ks_o_tilde"], col["ks_rhs_fbmbt"]),
        {"name": "modulus_ratio", "ok": bool(verdicts.get("modulus_ratio")),
         "value": float(verdicts.get("modulus_ratio", False))},
    ]
