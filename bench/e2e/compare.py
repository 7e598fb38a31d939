#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py BASE_RUNS/ CHANGE_RUNS/ [--claim=METRIC@WORKLOAD]
    python3 bench/e2e/compare.py --self-test

BASE_RUNS and CHANGE_RUNS hold the per-run records run.py writes to
<out>/runs/ (one JSON file per run). For every workload x end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles and a verdict:

  ok          the change's median is no worse than the base's by more
              than the metric's bound
  REGRESSION  it is worse by more than the bound
  unresolved  a side's spread (IQR / median) exceeds the bound, so the
              comparison cannot tell — unless every change run reads better
              than every base run ("better")

Per-layer metrics have no bound: they are printed with "better" or "worse"
when every change run reads better or worse than every base run, and "-"
otherwise. A per-layer metric comes from the untraced runs when they carry
it, else from the --trace runs.

A claim METRIC@WORKLOAD (an end-to-end or per-layer metric) is accepted
only when runs pair up (by seed, else in order) at least ten times, the
change wins at least 9 of every 10 pairs (ties count for neither), the
medians differ by more than the base's interquartile range, and the change
fails no more operations than the base. Exits 1 on a regression or a
rejected claim.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(directory):
    """workload -> list of run records, traced and untraced, in file name
    (for run.py's names: start time) order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], []).append(record)
    return runs


def records_with(runs, metric):
    """The untraced records that carry `metric`, else the traced ones."""
    for traced in (False, True):
        found = [r for r in runs
                 if bool(r.get("trace")) == traced and metric in r["metrics"]]
        if found:
            return found
    return []


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base_median, change_median, better):
    """Relative worsening of the change (positive = worse)."""
    if base_median == 0:
        return 0.0
    delta = (change_median - base_median) / abs(base_median)
    return -delta if better == "higher" else delta


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in records_with(runs, metric)]


def separated(base, change, better):
    """"better" / "worse" when every change value reads better / worse
    than every base value, else None."""
    if (better == "higher" and min(change) > max(base)) or (
            better == "lower" and max(change) < min(base)):
        return "better"
    if (better == "higher" and max(change) < min(base)) or (
            better == "lower" and min(change) > max(base)):
        return "worse"
    return None


def compare_metric(base, change, better, bound):
    """Returns (verdict, worse_by); `bound` None for a per-layer metric."""
    b_med = summary(base)[0]
    c_med = summary(change)[0]
    w = worse_by(b_med, c_med, better)
    if bound is None:
        return separated(base, change, better) or "-", w
    if spread(base) > bound or spread(change) > bound:
        all_better = separated(base, change, better) == "better"
        return ("better" if all_better else "unresolved"), w
    return ("REGRESSION" if w > bound else "ok"), w


def pair_up(base_runs, change_runs, metric):
    """Pairs by seed when both sides ran the same seeds (a seed's latest
    run), else in order."""
    b = {r["seed"]: r for r in records_with(base_runs, metric)}
    c = {r["seed"]: r for r in records_with(change_runs, metric)}
    common = sorted(set(b) & set(c))
    if common:
        return [(b[s]["metrics"][metric]["value"],
                 c[s]["metrics"][metric]["value"]) for s in common]
    return list(zip(values_of(base_runs, metric),
                    values_of(change_runs, metric)))


def judge_claim(base_runs, change_runs, metric, better):
    """Returns (accepted, reason)."""
    pairs = pair_up(base_runs, change_runs, metric)
    if len(pairs) < 10:
        return False, "%d pairs (need >= 10)" % len(pairs)
    wins = sum(1 for b, c in pairs
               if (c > b if better == "higher" else c < b))
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    b_med, q1, q3 = summary(base)
    c_med = summary(change)[0]
    failed_base = sum(r.get("failed", 0) for r in base_runs)
    failed_change = sum(r.get("failed", 0) for r in change_runs)
    if failed_change > failed_base:
        return False, "change fails more operations (%d > %d)" % (
            failed_change, failed_base)
    if wins * 10 < 9 * len(pairs):
        return False, "won %d of %d pairs" % (wins, len(pairs))
    if abs(c_med - b_med) <= q3 - q1:
        return False, "median difference %.4g within base IQR %.4g" % (
            abs(c_med - b_med), q3 - q1)
    return True, "won %d of %d pairs, medians %.4g -> %.4g" % (
        wins, len(pairs), b_med, c_med)


def compare(benchmark, base_runs, change_runs, claims, out=sys.stdout):
    """Prints the report; returns (regressions, rejected claims)."""
    metrics = {m["name"]: dict(m) for m in benchmark["end_to_end"]}
    for m in benchmark.get("per_layer", []):
        metrics.setdefault(m["name"], dict(m, bound=None))
    regressions = 0
    print("%-12s %-26s %12s %23s %12s %23s %8s  %s" %
          ("workload", "metric", "base med", "base q1..q3", "change med",
           "change q1..q3", "worse", "verdict"), file=out)
    for workload in sorted(set(base_runs) | set(change_runs)):
        for name, m in metrics.items():
            base = values_of(base_runs.get(workload, []), name)
            change = values_of(change_runs.get(workload, []), name)
            if not base or not change:
                continue
            verdict, w = compare_metric(base, change, m["better"], m["bound"])
            regressions += verdict == "REGRESSION"
            b, c = summary(base), summary(change)
            print("%-12s %-26s %12.5g %11.5g..%-11.5g %12.5g %11.5g..%-11.5g "
                  "%+7.1f%%  %s" % (workload, name, b[0], b[1], b[2], c[0],
                                    c[1], c[2], 100 * w, verdict), file=out)
    rejected = 0
    for claim in claims:
        metric, _, workload = claim.partition("@")
        if metric not in metrics:
            print("CLAIM %s: unknown metric" % claim, file=out)
            rejected += 1
            continue
        ok, reason = judge_claim(base_runs.get(workload, []),
                                 change_runs.get(workload, []), metric,
                                 metrics[metric]["better"])
        rejected += not ok
        print("CLAIM %s: %s (%s)" % (claim, "ACCEPTED" if ok else "REJECTED",
                                     reason), file=out)
    return regressions, rejected


# ---------------------------------------------------------------------------
# Self-test on synthetic runs
# ---------------------------------------------------------------------------

def self_test():
    import io
    import random
    rng = random.Random(7)
    benchmark = {"end_to_end": [
        {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "noisy", "unit": "us", "better": "lower", "bound": 0.05},
    ], "per_layer": [
        {"name": "layer", "unit": "us", "better": "lower"},
    ]}

    def runs(lat, tput, noisy_sd, failed=0, seeds=range(10), layer=10):
        """Untraced runs, plus a traced run per seed that measures the
        per-layer metric."""
        out = []
        for s in seeds:
            out.append({"workload": "w", "seed": s, "trace": False,
                        "failed": failed, "metrics": {
                            "lat": {"value": lat * rng.uniform(0.99, 1.01)},
                            "tput": {"value": tput * rng.uniform(0.99, 1.01)},
                            "noisy": {"value": 100 * rng.uniform(
                                1 - noisy_sd, 1 + noisy_sd)}}})
            out.append({"workload": "w", "seed": s, "trace": True,
                        "failed": 0, "metrics": {
                            "lat": {"value": 1e9},
                            "layer": {"value": layer * rng.uniform(0.99,
                                                                   1.01)}}})
        return {"w": out}

    def run_case(base, change, claims):
        buf = io.StringIO()
        result = compare(benchmark, base, change, claims, out=buf)
        return result, buf.getvalue()

    failures = []

    def expect(name, condition, text):
        if not condition:
            failures.append(name + "\n" + text)

    # Same distribution: no regression, the claim is rejected.
    (reg, rej), text = run_case(runs(100, 1000, 0.3), runs(100, 1000, 0.3),
                                ["lat@w"])
    expect("identical: no regression", reg == 0, text)
    expect("identical: claim rejected", rej == 1, text)
    expect("identical: noisy metric unresolved", "unresolved" in text, text)

    # 30% slower latency and 30% lower throughput: both regressions.
    (reg, _), text = run_case(runs(100, 1000, 0.01), runs(130, 700, 0.01), [])
    expect("slower: two regressions", reg == 2, text)

    # 5% worse is inside the 10% bound.
    (reg, _), text = run_case(runs(100, 1000, 0.01), runs(105, 950, 0.01), [])
    expect("within bound: no regression", reg == 0, text)

    # 20% faster on every pair: the claim is accepted.
    (reg, rej), text = run_case(runs(100, 1000, 0.01), runs(80, 1000, 0.01),
                                ["lat@w"])
    expect("faster: claim accepted", rej == 0 and "ACCEPTED" in text, text)

    # Same gain but more failed operations: rejected.
    (_, rej), text = run_case(runs(100, 1000, 0.01),
                              runs(80, 1000, 0.01, failed=3), ["lat@w"])
    expect("faster with failures: claim rejected", rej == 1, text)

    # Too few pairs: rejected.
    (_, rej), text = run_case(runs(100, 1000, 0.01, seeds=range(5)),
                              runs(80, 1000, 0.01, seeds=range(5)), ["lat@w"])
    expect("five pairs: claim rejected", rej == 1, text)

    # A noisy metric whose change is better on every run reads "better".
    base = runs(100, 1000, 0.2)
    change = runs(100, 1000, 0.2)
    for r in change["w"]:
        if not r["trace"]:
            r["metrics"]["noisy"]["value"] = 50
    (_, _), text = run_case(base, change, [])
    expect("all-better noisy metric", " better" in text, text)

    # A per-layer metric (from the traced runs) never counts as a
    # regression, reads "worse" when every run is worse, and can be claimed.
    (reg, _), text = run_case(runs(100, 1000, 0.01),
                              runs(100, 1000, 0.01, layer=13), [])
    expect("per-layer: no regression", reg == 0, text)
    expect("per-layer: worse", " worse" in text, text)
    (_, rej), text = run_case(runs(100, 1000, 0.01),
                              runs(100, 1000, 0.01, layer=8), ["layer@w"])
    expect("per-layer: claim accepted", rej == 0 and "ACCEPTED" in text, text)

    # Round trip through run directories, as the CLI reads them; a seed
    # run twice on the change side is paired by its later run.
    with tempfile.TemporaryDirectory() as tmp:
        for side, data in (("base", runs(100, 1000, 0.01)),
                           ("change", runs(80, 1000, 0.01))):
            os.makedirs(os.path.join(tmp, side))
            for i, r in enumerate(data["w"]):
                with open(os.path.join(tmp, side, "w-seed%d-%03d.json" %
                                       (r["seed"], i)), "w") as f:
                    json.dump(r, f)
        rerun = dict(runs(130, 1000, 0.01, seeds=[0])["w"][0])
        with open(os.path.join(tmp, "change", "w-seed0-999.json"), "w") as f:
            json.dump(rerun, f)
        (reg, rej), text = run_case(load_runs(os.path.join(tmp, "base")),
                                    load_runs(os.path.join(tmp, "change")),
                                    ["lat@w"])
        expect("directories: no regression", reg == 0, text)
        expect("directories: rerun seed decides its pair",
               rej == 0 and "won 9 of 10" in text, text)

    for failure in failures:
        print("SELF-TEST FAILED:", failure)
    print("compare.py self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--claim", action="append", default=[])
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        parser.error("BASE_RUNS and CHANGE_RUNS are required")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    regressions, rejected = compare(benchmark, load_runs(args.base),
                                    load_runs(args.change), args.claim)
    print("%d regression(s), %d rejected claim(s)" % (regressions, rejected))
    return 1 if regressions or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
