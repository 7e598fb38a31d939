#!/usr/bin/env python3
"""End-to-end SLO benchmark: one command runs the workloads, prints every
metric with its unit and checks that the outputs are correct.

    python3 bench/e2e/run.py --seed=42                     # all workloads
    python3 bench/e2e/run.py --workload wire_direct --seed 7 --seconds 15 --trace 0
    python3 bench/e2e/run.py --workloads=mixed_slo,whatif_des --trace --out=DIR

Each workload prints one "METRIC <workload> <name> <value> <unit>" line per
metric and a "COUNTS" line; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the metrics
BENCHMARK.json lists: its end_to_end metrics, or with --trace its per_layer
metrics. Every run's raw measurements and metrics are also saved as one
file per run under --out/runs/ for compare.py. The exit code is non-zero
when a check fails.

The first run configures and builds bench/e2e (CMake) into
$CARGO_TARGET_DIR/e2e-<id>, or .bench_build/e2e-<id> at the repository
root, where <id> names this source tree; --out defaults to its out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["wire_direct", "wire_routed", "mixed_slo", "whatif_des"]
WIRE = ("wire_direct", "wire_routed")
# Events of seed 42's Figure 6 run in whatif_des.
GOLDEN_SIM_EVENTS_SEED42 = 3353621


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def work_dir():
    """This source tree's own directory under the build root: two trees
    sharing $CARGO_TARGET_DIR never build or write into each other's."""
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    tree = hashlib.sha1(HERE.encode()).hexdigest()[:10]
    return os.path.join(os.path.abspath(target_dir), "e2e-" + tree)


def configured_source(build_dir):
    """The source directory a CMake build directory was configured from."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build_binary():
    """Configures (once) and builds qsched_e2e; returns its path or None."""
    build_dir = os.path.join(work_dir(), "build")
    source = configured_source(build_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(
            HERE):
        shutil.rmtree(build_dir)
        source = None
    if source is None:
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    built = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "qsched_e2e", "-j",
         str(os.cpu_count() or 2)],
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        return None
    return os.path.join(build_dir, "qsched_e2e")


def quantile(values, q):
    """Linear interpolation between order statistics (as the binary)."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Running the binary
# ---------------------------------------------------------------------------

def run_binary(binary, workload, seed, seconds, trace, out_dir, smoke):
    args = [binary, "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%g" % seconds, "--trace=%d" % trace, "--out=" + out_dir]
    if smoke:
        args.append("--smoke=1")
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=900)
    for line in proc.stdout.splitlines():
        if line.startswith("E2E "):
            return json.loads(line[4:]), proc.returncode
    return None, proc.returncode


# ---------------------------------------------------------------------------
# Metrics and checks
# ---------------------------------------------------------------------------

class Result:
    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}  # name -> (value, unit)
        self.checks = []  # (name, ok, detail)
        self.attempted = 0
        self.failed = 0

    def metric(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.checks)


def phases_named(raw, name, traced=None):
    return [p for p in raw.get("phases", [])
            if p["name"] == name and (traced is None or p["traced"] == traced)]


def check_live_phase(res, phase, fixed_rate):
    """Conservation at the client, the front server and the gateways."""
    d, s = phase["driver"], phase["server"]
    tag = "%s@%g" % (phase["name"], phase["qps"])
    res.check("no_error " + tag, phase["error"] == "", phase["error"])
    res.check("client_conservation " + tag,
              d["offered"] == d["accepted"] + d["rejected"]
              and d["completed"] == d["accepted"] and d["lost"] == 0
              and d["unmatched"] == 0 and d["drained"],
              json.dumps({k: d[k] for k in ("offered", "accepted", "rejected",
                                            "completed", "lost",
                                            "unmatched")}))
    if not s:
        res.check("server_result " + tag, False, "no server result")
        return
    res.check("server_conservation " + tag,
              s["gateway_completed"] == s["gateway_accepted"] and s["drained"]
              and s["front_accepted"] == s["delivered"]
              and s["completions_dropped"] == 0
              and s["front_accepted"] + s["front_rejected"] == d["offered"],
              json.dumps(s))
    if "router_offered" in s:
        res.check("router_conservation " + tag,
                  s["router_conserved"] and s["failovers"] == 0)
        res.check("capture_conservation " + tag,
                  s["captured"] + s["capture_dropped"] == s["router_offered"]
                  and s["capture_records_read"] == s["captured"]
                  and s["capture_ok"])
    if fixed_rate:
        errors = d["rejected"] + d["lost"] + d["unmatched"]
        res.attempted += d["offered"]
        res.failed += errors
        res.check("error_rate_zero " + tag, errors == 0,
                  "%d errors" % errors)


def live_common(res, phase):
    """Metrics of the untraced fixed-rate phase of a live workload."""
    d, s = phase["driver"], phase["server"]
    res.metric("latency_mean_us", d["oltp_rtt_mean_us"], "us")
    res.metric("latency_p50_us", d["oltp_rtt_p50_us"], "us")
    res.metric("latency_p99_us", d["oltp_rtt_p99_us"], "us")
    res.metric("verdict_p99_us", d["verdict_p99_us"], "us")
    marks = s["cpu_marks_us"]
    per_slice = [(b - a) / n for a, b, n in
                 zip(marks, marks[1:], d["slice_completed"]) if n > 0]
    res.metric("cpu_us_per_query", quantile(per_slice, 0.5), "us")
    res.metric("slo_c2_velocity", d["c2_velocity"], "ratio")
    res.metric("slo_c3_resp_ms", d["c3_resp_ms"], "ms")
    res.metric("peak_rss_mb", s["peak_rss_kb"] / 1024.0, "MB")
    res.metric("error_rate",
               (d["rejected"] + d["lost"] + d["unmatched"]) /
               max(1, d["offered"]), "ratio")
    res.metric("oltp_samples", d["oltp_samples"], "count")


def layer_metrics(res, phase, untraced):
    """Per-layer metrics of a traced live phase; `untraced` ran the same
    arrivals without tracing."""
    d, s = phase["driver"], phase["server"]
    routed = "router_offered" in s
    res.metric("net.wire_us.p50", d["wire_p50_us"], "us")
    res.metric("net.wire_us.p99", d["wire_p99_us"], "us")
    res.metric("net.flush_us.p99", s["flush_us_p99_bucketed"], "us")
    res.metric("rt.service_submit_us.p50", s["service_submit_us_p50"], "us")
    res.metric("rt.service_submit_us.p99", s["service_submit_us_p99"], "us")
    res.metric("rt.gateway_queue_us.p99", d["oltp_queue_p99_us"], "us")
    res.metric("rt.dispatch_us.p99", d["oltp_dispatch_p99_us"], "us")
    res.metric("rt.core_lock_wait_us.p99", s["core_lock_wait_us_p99"], "us")
    res.metric("rt.timer_late_us.p99", s["timer_late_us_p99"], "us")
    res.metric("rt.batch_occupancy.mean", s["batch_occupancy_mean"], "count")
    res.metric("sched.olap_dispatch_ms.p99", d["olap_dispatch_p99_ms"], "ms")
    res.metric("sched.solver_us.p50", s["solver_us_p50"], "us")
    res.metric("sched.solver_us.p99", s["solver_us_p99"], "us")
    res.metric("sched.planning_cycles", s["planning_cycles"], "count")
    res.metric("sched.c1_velocity", s["c1_velocity"], "ratio")
    res.metric("engine.cpu_util.mean", s["engine_cpu_util"], "ratio")
    if routed:
        # Layers only wire_routed runs; other workloads leave them out.
        res.metric("cluster.router_verdict_us.p99",
                   s["router_verdict_us_p99"], "us")
        res.metric("cluster.route_us.p99", s["service_submit_us_p99"], "us")
        res.metric("cluster.backend_share.max", s["backend_share_max"],
                   "ratio")
        res.metric("cluster.failovers", s["failovers"], "count")
        res.metric("replay.record_ns.p99", s["record_ns_p99"], "ns")
        res.metric("replay.dropped", s["capture_dropped"], "count")
        res.metric("replay.read_ms", s["replay_read_ms"], "ms")
        res.metric("obs.scrape_ms.p99", quantile(phase["scrape_ms"], 0.99),
                   "ms")
        res.metric("obs.scrape_kb", statistics.mean(phase["scrape_kb"]),
                   "KB")
    res.metric("driver.late_us.p99", d["late_p99_us"], "us")
    res.metric("driver.cpu_us_per_query",
               d["driver_cpu_us"] / max(1, d["offered"]), "us")
    base = untraced["driver"]["oltp_rtt_p50_us"]
    res.metric("trace.overhead_pct",
               100.0 * (d["oltp_rtt_p50_us"] - base) / base, "%")


def self_times(trace_file):
    """Per span name, the median self time (us): a span's duration minus
    the part of it its children cover."""
    events = load_json(trace_file)["traceEvents"]
    by_request = {}
    for e in events:
        by_request.setdefault(e["args"]["request"], []).append(e)
    selfs = {}
    for spans in by_request.values():
        for span in spans:
            start, end = span["ts"], span["ts"] + span["dur"]
            children = sorted(
                (max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
                for c in spans if c["args"]["parent"] == span["name"])
            covered, cursor = 0.0, start
            for lo, hi in children:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            selfs.setdefault(span["name"], []).append(span["dur"] - covered)
    return {name: quantile(v, 0.5) for name, v in selfs.items()}


def evaluate(workload, raw, seed, trace, smoke):
    res = Result(workload)
    if workload == "whatif_des":
        w = raw["whatif"]
        res.check("whatif_ran", w["error"] == "", w["error"])
        res.check("whatif_identical_across_repetitions", w["identical_reps"])
        res.check("whatif_base_matches_serial_evaluate_one",
                  w["base_matches_serial"])
        if seed == 42 and not trace and not smoke:
            res.check("sim_events_golden",
                      w["sim_events"] == GOLDEN_SIM_EVENTS_SEED42,
                      "%d != %d" % (w["sim_events"],
                                    GOLDEN_SIM_EVENTS_SEED42))
        res.attempted = int(len(w["whatif_s"]) * w["candidates"] + 1)
        res.failed = 0 if (w["identical_reps"] and w["base_matches_serial"]) \
            else res.attempted
        simulated = w["records"] * w["candidates"]
        res.metric("latency_mean_us", statistics.mean(w["whatif_s"]) * 1e6,
                   "us")
        res.metric("latency_p50_us", quantile(w["whatif_s"], 0.5) * 1e6, "us")
        res.metric("latency_p99_us", max(w["whatif_s"]) * 1e6, "us")
        res.metric("cpu_us_per_query",
                   quantile(w["evaluate_cpu_us"], 0.5) / simulated, "us")
        res.metric("slo_c2_velocity", w["base_c2_measured"], "ratio")
        res.metric("slo_c3_resp_ms", w["base_c3_measured"] * 1e3, "ms")
        res.metric("setup_s", quantile(w["setup_s"], 0.5), "s")
        res.metric("peak_rss_mb", raw["process_rss_kb"] / 1024.0, "MB")
        res.metric("whatif_s", quantile(w["whatif_s"], 0.5), "s")
        res.metric("des_events_per_s", w["sim_events"] / w["des_wall_s"],
                   "1/s")
        res.metric("error_rate", res.failed / max(1, res.attempted), "ratio")
        res.metric("replay.read_ms", quantile(w["read_ms"], 0.5), "ms")
        res.metric("sim.events", w["sim_events"], "count")
        res.metric("sched.planning_cycles", w["base_planning_cycles"], "count")
        res.metric("sched.c1_velocity", w["base_c1_measured"], "ratio")
        res.metric("engine.cpu_util.mean", w["engine_cpu_util"], "ratio")
        if trace:
            res.metric("harness.world_ms.p50", w["world_ms_p50"], "ms")
            res.metric("harness.parallel_speedup", w["parallel_speedup"],
                       "ratio")
            res.metric("sched.solver_us.p50", w["solver_us_p50"], "us")
            res.metric("sched.solver_us.p99", w["solver_us_p99"], "us")
    else:
        wire = workload in WIRE
        main = "nominal" if wire else "open_loop"
        for p in raw["phases"]:
            check_live_phase(res, p, fixed_rate=p["name"] != "probe")
        if not trace:
            nominal = phases_named(raw, main)[0]
            live_common(res, nominal)
            res.metric("setup_s", quantile(raw["setup_s"], 0.5), "s")
            if wire:
                knee = raw["knee"]
                res.metric("knee_qps", knee["qps"], "qps")
                res.metric("knee_driver_bound", knee["driver_bound"], "bool")
                busy = phases_named(raw, "busy")
                if busy:
                    res.metric("oltp_rtt_p99_us.busy",
                               busy[0]["driver"]["oltp_rtt_p99_us"], "us")
                if workload == "wire_direct":
                    # The simulated engine must not bind where the serving
                    # path is measured. Checked at the nominal rate; at
                    # busy and at the knee it is reported (late timers on
                    # a slow host inflate it, and a fast host's knee
                    # reaches ~0.5).
                    util = nominal["server"]["engine_cpu_util"]
                    res.check("engine_cpu_util_below_0.5", util < 0.5,
                              str(util))
                    if busy:
                        res.metric("engine_cpu_util.busy",
                                   busy[0]["server"]["engine_cpu_util"],
                                   "ratio")
                    passing = [p for p in raw["phases"]
                               if p["name"] == "probe" and not p["failure"]]
                    if passing:
                        top = max(passing, key=lambda p: p["qps"])
                        res.metric("engine_cpu_util_at_knee",
                                   top["server"]["engine_cpu_util"], "ratio")
            else:
                d = nominal["driver"]
                res.metric("completed_per_s",
                           d["window_completed"] / nominal["measure_s"], "1/s")
        else:
            untraced = phases_named(raw, main, traced=False)[0]
            live_common(res, untraced)
            layer_metrics(res, phases_named(raw, main, traced=True)[0],
                          untraced)
    if trace:
        res.metric("trace.spans", raw["spans"], "count")
        if raw.get("trace_file"):
            for name, value in sorted(self_times(raw["trace_file"]).items()):
                res.metric("trace.self_us.%s.p50" % name, value, "us")
    return res


def run_workload(binary, workload, seed, seconds, trace, out_dir, smoke):
    started = time.monotonic()
    raw, code = run_binary(binary, workload, seed, seconds, trace, out_dir,
                           smoke)
    if raw is None:
        res = Result(workload)
        res.check("binary_output", False, "exit code %s" % code)
        return res, None
    res = evaluate(workload, raw, seed, trace, smoke)
    log("%s seed %d: %.1f s" % (workload, seed, time.monotonic() - started))
    return res, raw


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", const="1", default="0")
    parser.add_argument("--out", default=None)
    parser.add_argument("--binary", default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: schema and conservation, not speed")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = args.workload + [w for w in args.workloads.split(",") if w]
    workloads = workloads or WORKLOADS
    for w in workloads:
        if w not in WORKLOADS:
            parser.error("unknown workload %s" % w)
    trace = args.trace not in ("0", "false", "")
    seconds = args.seconds or bench["run_seconds"]
    out_dir = os.path.abspath(args.out or os.path.join(work_dir(), "out"))
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)

    binary = args.binary or build_binary()
    if binary is None or not os.path.exists(binary):
        log("build failed")
        return 2

    wanted = [(m["name"], m["unit"])
              for m in bench["per_layer" if trace else "end_to_end"]]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        res, raw = run_workload(binary, workload, args.seed, seconds, trace,
                                out_dir, args.smoke)
        for name, unit in wanted:
            if name not in res.metrics:
                res.check("metric_present " + name, False)
            elif not trace and res.metrics[name][0] <= 0:
                res.check("metric_nonzero " + name, False)
        for name, (value, unit) in sorted(res.metrics.items()):
            print("METRIC %s %s %.6g %s" % (workload, name, value, unit))
        for name, ok, detail in res.checks:
            if not ok:
                print("CHECK FAILED %s %s %s" % (workload, name, detail))
        print("COUNTS %s attempted=%d failed=%d checks=%d correct=%s" %
              (workload, res.attempted, res.failed, len(res.checks),
               res.correct))
        correct = correct and res.correct
        attempted += res.attempted
        failed += res.failed
        suffix = "" if len(workloads) == 1 else "@" + workload
        for name, unit in wanted:
            if name in res.metrics:
                metrics[name + suffix] = {"value": res.metrics[name][0],
                                          "unit": unit}
        record = {"workload": workload, "seed": args.seed, "trace": trace,
                  "seconds": seconds, "correct": res.correct,
                  "attempted": res.attempted, "failed": res.failed,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in res.metrics.items()},
                  "checks": res.checks, "raw": raw}
        # One file per run: repeated seeds never overwrite each other.
        name = "%s-seed%d%s-%s-%d.json" % (
            workload, args.seed, "-trace" if trace else "",
            time.strftime("%Y%m%dT%H%M%S", time.gmtime()), os.getpid())
        with open(os.path.join(out_dir, "runs", name), "w") as f:
            json.dump(record, f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
