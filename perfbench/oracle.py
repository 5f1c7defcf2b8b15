"""Correctness checks for every CLI output the benchmark produces.

No check compares against golden bytes: a new sampler may legitimately change
the numbers a seed gives. Instead each output is checked against closed forms
or an independent recomputation from the generated inputs.

Monte Carlo results are checked at their stream means. Each simulated metric
is linear in the recall ``r`` given ``r`` (final prevalence, fix rate), or
linear with an atom at ``r = 1`` (fn growth is exactly 1 when the first
stage misses nothing), so the mean of a stream equals the closed form at the
stream's mean recall. The tolerance is ``Z`` standard errors at the run's
trial count; the standard error adds the spread of ``r`` over the stream to
the binomial noise of the item walk, both integrated over the p-box quantile
functions, which this module evaluates independently of ``pipeuq.pbox``.

Every check returns ``(label, ok, detail)``; the caller counts each one as
an operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

import numpy as np

Z = 6.0
QUAD_POINTS = 100_000
DEFAULT_PBOX = (0.07, 1.00, 0.74)
COMPOSED = {"n_items": 879, "recall": 0.86, "accuracy": 0.44}
ANALYTIC_METRICS = ("real_fix_rate", "final_prevalence", "tpr", "far", "fn_ratio",
                    "fn_final", "tp_final", "fp_final", "fixer_load")


def stream_quantiles(minimum: float, maximum: float, mean: float):
    """Optimistic and pessimistic recall quantiles on a midpoint p grid.

    The optimistic stream inverts the lower CDF bound, the pessimistic one
    the upper bound, both with threshold ``t = (max - mean) / (max - min)``.
    """
    p = (np.arange(QUAD_POINTS) + 0.5) / QUAD_POINTS
    if maximum == minimum:
        flat = np.full(QUAD_POINTS, minimum)
        return flat, flat
    t = (maximum - mean) / (maximum - minimum)
    optimistic = np.where(p < t, (p * minimum - mean) / (p - 1.0), maximum)
    pessimistic = np.where(p <= t, minimum, maximum - (maximum - mean) / p)
    return optimistic, pessimistic


def _close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _json(text: str):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, [("output.json", False, f"not JSON: {exc}")]


def _final_prevalence(r, p, f, specificity, break_rate):
    """Chance that an item ends vulnerable, given the recall ``r``."""
    b = break_rate
    return p * (1 - r) + p * r * (b + (1 - b) * (1 - f)) + (1 - p) * (1 - specificity) * b


def check_simulate(text, *, n_items, trials, prevalence, fix_rate, specificity=0.0, break_rate=0.0):
    """Stream-means interval of every cell against the closed forms."""
    from pipeuq.core import DomainSpec, FixerSpec, pipeline_false_negatives, pipeline_fix_rate, pipeline_prevalence
    from pipeuq.pbox import PBoxParams, stream_mean_optimistic, stream_mean_pessimistic

    doc, err = _json(text)
    if err:
        return err
    results = doc["results"]
    pb = results["pbox"]
    box = PBoxParams(pb["minimum"], pb["maximum"], pb["mean"])
    quantiles = stream_quantiles(box.minimum, box.maximum, box.mean)
    means = (stream_mean_optimistic(box), stream_mean_pessimistic(box))
    quad = tuple(float(q.mean()) for q in quantiles)
    checks = [("simulate.stream_mean_closed_form", all(_close(m, q, 1e-6, 1e-6) for m, q in zip(means, quad)),
               f"closed form {means}, quadrature {quad}")]
    n = n_items
    for p in prevalence:
        for f in fix_rate:
            domain, fixer = DomainSpec(n, p), FixerSpec(f)
            expected: dict[str, list] = {}
            for q, mean_r in zip(quantiles, means):
                fin = _final_prevalence(q, p, f, specificity, break_rate)
                binom = fin * (1 - fin) / n
                if break_rate == 0.0:
                    prev = pipeline_prevalence(domain, fixer, mean_r)
                    fix = pipeline_fix_rate(fixer, mean_r)
                else:
                    prev = _final_prevalence(mean_r, p, f, specificity, break_rate)
                    fix = 1 - prev / p
                rows = {
                    "final_prevalence": (prev, fin, binom),
                    "real_fix_rate": (fix, 1 - fin / p, binom / (p * p)),
                }
                if break_rate == 0.0:
                    ratio = np.where(q < 1, pipeline_false_negatives(domain, fixer, q)[1], 1.0)
                    mu_y = np.maximum(p * n * (1 - q), 1.0)
                    mu_x = np.maximum(p * n * q * (1 - f) * (1 - q), 1.0)
                    var = np.where(q < 1, ((1 - f) * q) ** 2 * (1 / mu_x + q / mu_y), 0.0)
                    rows["fn_ratio"] = (float(ratio.mean()), ratio, var)
                for metric, (value, per_r, binom_var) in rows.items():
                    se = math.sqrt((float(np.var(per_r)) + float(np.mean(binom_var))) / trials)
                    expected.setdefault(metric, []).append((float(value), se))
            for metric, pair in expected.items():
                checks.append(_check_means(results, metric, p, f, pair))
    return checks


def _check_means(results, metric, p, f, pair):
    label = f"simulate.{metric}[P={p},f={f}]"
    entry = next((e for e in results.get(metric, ())
                  if e["mode"] == "means" and e["prevalence"] == p and e["fix_rate"] == f), None)
    if entry is None or entry["lo"] is None:
        return label, False, "no stream-means interval in the report"
    lo, hi = sorted(v for v, _ in pair)
    tol = Z * max(se for _, se in pair) + 1e-12
    ok = abs(entry["lo"] - lo) <= tol and abs(entry["hi"] - hi) <= tol
    return label, ok, f"got [{entry['lo']}, {entry['hi']}], expected [{lo}, {hi}] +/- {tol}"


def check_analytic_csv(text, *, grid, recall, precision, n_items):
    """Every closed-form column of every grid cell, recomputed here."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["prevalence", "fix_rate", *ANALYTIC_METRICS]
    if not rows or rows[0] != header:
        return [("analytic.header", False, f"header {rows[:1]}")]
    body = rows[1:]
    checks = [("analytic.rows", len(body) == len(grid) ** 2, f"{len(body)} rows")]
    r, prec, big_n = recall, precision, n_items
    bad = {m: None for m in ANALYTIC_METRICS}
    for row in body:
        p, f = float(row[0]), float(row[1])
        denom = 1 - (1 - f * r) * p
        want = {
            "real_fix_rate": f * r if p > 0 else None,
            "final_prevalence": (1 - f * r) * p,
            "tpr": 0.0 if f == 1 else r * r * (1 - f) / (1 - f * r),
            "far": None if denom == 0 else r * r * ((1 - prec) / prec) * (1 - f) * p / denom,
            "fn_ratio": 1 + (1 - f) * r,
            "fn_final": (1 + (1 - f) * r) * (1 - r) * p * big_n,
            "tp_final": (1 - f) * r * r * p * big_n,
            "fp_final": r * ((1 - prec) / prec) * (1 - f) * r * p * big_n,
            "fixer_load": r / prec * p * big_n,
        }
        for metric, cell in zip(ANALYTIC_METRICS, row[2:]):
            got = float(cell) if cell else None
            if bad[metric] is None and not _close(got, want[metric]):
                bad[metric] = f"P={p} f={f}: got {got}, expected {want[metric]}"
    checks += [(f"analytic.{m}", bad[m] is None, bad[m] or "all cells match") for m in ANALYTIC_METRICS]
    return checks


def check_composed(text):
    """The 879 -> 756 -> 333 chain and its fix-rate wrap on the default p-box."""
    doc, err = _json(text)
    if err:
        return err
    res = doc["results"]
    n, rec, acc = COMPOSED["n_items"], COMPOSED["recall"], COMPOSED["accuracy"]
    detected = math.floor(n * rec + 0.5)
    fixed = math.floor(detected * acc + 0.5)
    chain = {"n_items": n, "detected": detected, "fixed": fixed, "residual": detected - fixed}
    lo, hi = DEFAULT_PBOX[0], DEFAULT_PBOX[1]
    means = sorted(acc * float(q.mean()) for q in stream_quantiles(*DEFAULT_PBOX))
    fr = res["fix_rate"]
    return [
        ("case_study.composed.chain", res["chain"] == chain, f"got {res['chain']}, expected {chain}"),
        ("case_study.composed.extremes",
         _close(fr["extremes"]["lo"], acc * lo) and _close(fr["extremes"]["hi"], acc * hi), str(fr["extremes"])),
        ("case_study.composed.means",
         _close(fr["means"]["lo"], means[0], 1e-6, 1e-6) and _close(fr["means"]["hi"], means[1], 1e-6, 1e-6),
         f"got {fr['means']}, expected {means}"),
    ]


def check_rule_based(text, *, tools, confidence=0.95):
    """Wilson score intervals of the generated tool records."""
    doc, err = _json(text)
    if err:
        return err
    got = doc["results"]["tools"]
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    bad = None if len(got) == len(tools) else f"{len(got)} tools, expected {len(tools)}"
    for (name, c, g), row in zip(tools, got):
        p_hat = c / g
        denom = 1 + z * z / g
        center = (p_hat + z * z / (2 * g)) / denom
        half = z / denom * math.sqrt(p_hat * (1 - p_hat) / g + z * z / (4 * g * g))
        want = (name, c, g, p_hat, max(0.0, center - half), min(1.0, center + half))
        have = (row["name"], row["correct"], row["generated"], row["point"], row["lo"], row["hi"])
        if bad is None and (want[:3] != have[:3] or not all(_close(a, b) for a, b in zip(want[3:], have[3:]))):
            bad = f"{name}: got {have}, expected {want}"
    return [("case_study.rule_based.wilson", bad is None, bad or f"{len(tools)} tools match")]


def check_evidence(text, *, rows, k=1.5):
    """Outlier partition and summary of each metric, recomputed from the rows."""
    doc, err = _json(text)
    if err:
        return err
    checks = []
    for metric, samples in rows.items():
        values = np.array([v for _, v in samples])
        q1, q3 = np.percentile(values, [25.0, 75.0])
        lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
        kept = [(s, v) for s, v in samples if lo <= v <= hi]
        kept_values = np.array([v for _, v in kept])
        vmin, vmax = float(kept_values.min()), float(kept_values.max())
        mean = min(max(float(kept_values.mean()), vmin), vmax)
        want = {"count": len(kept), "publications": len({s for s, _ in kept}),
                "min": vmin, "max": vmax, "mean": mean,
                "removed": sorted(v for _, v in samples if not lo <= v <= hi),
                "pbox": (vmin, vmax, mean)}
        entry = doc["results"].get(metric) or {}
        have = {key: entry.get(key) for key in ("count", "publications", "min", "max", "mean")}
        have["removed"] = sorted(s["value"] for s in entry.get("removed", ()))
        pb = entry.get("pbox") or {}
        have["pbox"] = (pb.get("minimum"), pb.get("maximum"), pb.get("mean"))
        ok = (have["count"] == want["count"] and have["publications"] == want["publications"]
              and have["removed"] == want["removed"]
              and all(_close(have[key], want[key], 1e-12) for key in ("min", "max", "mean"))
              and all(_close(a, b, 1e-12) for a, b in zip(have["pbox"], want["pbox"])))
        checks.append((f"evidence.{metric}", ok, f"got {have}, expected {want}" if not ok else "match"))
    return checks


def check_pbox_sample(text, *, n, pbox=DEFAULT_PBOX):
    """Each sample against the inverse CDF bounds, and the stream means."""
    doc, err = _json(text)
    if err:
        return err
    res = doc["results"]
    a, b, mu = pbox
    p = np.asarray(res["p_values"], dtype=float)
    opt = np.asarray(res["optimistic"], dtype=float)
    pes = np.asarray(res["pessimistic"], dtype=float)
    if not (res["count"] == n == len(p) == len(opt) == len(pes)):
        return [("pbox.count", False, f"count {res['count']}, lengths {len(p)}/{len(opt)}/{len(pes)}")]
    t = (b - mu) / (b - a)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_opt = np.where((p > 0) & (p < t), (p * a - mu) / (p - 1.0), b)
        want_pes = np.where((p > t) & (p < 1), b - (b - mu) / p, a)
    ok_opt = np.where(p == 0, (opt >= a) & (opt <= mu), np.isclose(opt, want_opt, rtol=1e-12, atol=0))
    ok_pes = np.where((p == 1) & (p > t), (pes >= mu) & (pes <= b), np.isclose(pes, want_pes, rtol=1e-12, atol=0))
    quantile_ok = bool(np.all((p >= 0) & (p <= 1)) and np.all(ok_opt) and np.all(ok_pes) and np.all(pes <= opt))
    stream_ok, detail = True, []
    for name, values, q in zip(("optimistic", "pessimistic"), (opt, pes), stream_quantiles(a, b, mu)):
        tol = Z * float(q.std()) / math.sqrt(n) + 1e-12
        stream_ok &= abs(float(values.mean()) - float(q.mean())) <= tol
        detail.append(f"{name} {values.mean()} vs {q.mean()} +/- {tol}")
        s = res["summary"][name]
        stream_ok &= _close(s["min"], float(values.min())) and _close(s["max"], float(values.max()))
        stream_ok &= _close(s["mean"], float(values.mean()))
    return [
        ("pbox.count", True, f"{n} samples"),
        ("pbox.quantiles", quantile_ok, f"{int((~ok_opt).sum())} optimistic, {int((~ok_pes).sum())} pessimistic mismatches"),
        ("pbox.stream_means", stream_ok, "; ".join(detail)),
    ]
