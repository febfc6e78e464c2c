#!/usr/bin/env python3
"""End-to-end benchmark for training and serving, with per-layer attribution.

    python3 benchmark/run.py --seed 7    # all workloads, untraced then traced
    python3 benchmark/run.py --smoke     # all workloads at ~1/32 of the work
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --compare A.json B.json

The first three build benchmark/ into build-bench/ (CMake, Release) and
run each workload in its own process of build-bench/apt_e2e. A single
`--workload` run prints its metrics and, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}; the metrics are the
end-to-end ones of BENCHMARK.json untraced and the per-layer ones traced.
`--seconds` sets how long serving is measured; a training run is its
workload's whole schedule. apt_e2e writes raw samples, and every statistic
is taken here. A full or smoke set prints every metric and writes
build-bench/results/set.<seed>.<mode>.json, which --compare reads.

Standard library only. BENCHMARK.json, next to this directory, names the
workloads, metrics, units, directions and bounds.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "apt_e2e")
RESULTS = os.path.join(BUILD, "results")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
SMOKE_SECONDS = 1

# apt_e2e's host probe (host_probe_ms) on the reference host, with its
# cores uncontended: the 4-vCPU Xeon KVM guest of the README's baselines.
# The end-to-end times are scaled to this speed.
REFERENCE_PROBE_MS = 0.8

# Metrics that are pure functions of the seed: a change that leaves the
# arithmetic alone must reproduce them exactly.
DETERMINISTIC = {
    "model_memory_mb", "nn.int8_fwd_share", "nn.int8_bwd_share",
    "core.bit_changes", "core.final_mean_bits", "train.final_test_acc",
    "train.energy_j", "train.steps",
}

# Span fields as apt_e2e writes them.
NAME, ID, PARENT, KEY, START, END = range(6)


class BenchError(Exception):
    """A failure that ends the run without a result."""


# ------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile, p in (0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(math.ceil(p * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4); 0 when it cannot be measured."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def hist_percentile(bins, p):
    """Nearest-rank percentile of a histogram of [lo, hi, count] bins,
    placed within its bin by linear interpolation over the bin's counts."""
    n = sum(c for _, _, c in bins)
    if not n:
        return 0.0
    rank = min(max(math.ceil(p * n), 1), n)
    seen = 0
    for lo, hi, c in sorted(bins):
        if seen + c >= rank:
            return lo + (hi - lo) * (rank - seen) / c
        seen += c
    raise AssertionError("unreachable")


def host_slowdown(probe_ms):
    """How much slower than the reference host the host ran while the
    probes were taken: their mean over REFERENCE_PROBE_MS."""
    return statistics.mean(probe_ms) / REFERENCE_PROBE_MS


def window_slowdowns(probe_ms, windows):
    """The host slowdown of each of `windows` windows, from the probes
    taken in it: the probes, in order, split evenly between the windows."""
    per = len(probe_ms) // windows
    return [host_slowdown(probe_ms[i * per:(i + 1) * per])
            for i in range(windows)]


def end_to_end(rec):
    """The end-to-end metrics of an untraced run, from its raw samples:
    {name: (value, windows)}, where windows are the per-window values
    (epochs, serving windows, set-ups) the run's own spread is taken from.
    Also returns the latency sample count.

    Every time is divided by the host slowdown its probes measured, and
    every rate multiplied by it, so that they read as on the reference
    host: set-up by the probes before the set-ups, the rest by those taken
    between its steps (training) or windows (serving). A training epoch,
    which holds a probe per step, is scaled by its own probes. A serving
    window or a set-up has a single probe, which varies more than the
    window itself, so those are scaled by their run's slowdown."""
    s = rec["samples"]
    slow = host_slowdown(s["probe_ms"])
    setup_slow = host_slowdown(s["setup_probe_ms"])
    setup = median(s["setup_s"]) / setup_slow
    setups = [t / setup_slow for t in s["setup_s"]]
    if rec["latency_windows"]:  # serving: per-window latency histograms
        windows = rec["latency_windows"]
        merged = defaultdict(int)
        for w in windows:
            for lo, hi, c in w:
                merged[lo, hi] += c
        pooled = [[lo, hi, c] for (lo, hi), c in merged.items()]
        n = sum(merged.values())
        rate = n / s["wall_s"][0] * slow
        rates = [sum(c for _, _, c in w) / s["window_s"][0] * slow
                 for w in windows]
        latency = hist_percentile(pooled, 0.5) / 1e6 / slow
        latencies = [hist_percentile(w, 0.5) / 1e6 / slow
                     for w in windows if w]
    else:  # training: steps, split into epochs
        steps = s["step_ms"]
        ends = [int(e) for e in s["epoch_step_end"]]
        items = s["items_per_epoch"][0]
        slows = window_slowdowns(s["probe_ms"], len(s["epoch_s"]))
        n = len(steps)
        rate = items * len(s["epoch_s"]) / sum(s["epoch_s"]) * slow
        rates = [items / t * k for t, k in zip(s["epoch_s"], slows)]
        latency = statistics.mean(steps) / slow
        latencies = [statistics.mean(steps[a:b]) / k
                     for a, b, k in zip([0] + ends[:-1], ends, slows)
                     if b > a]
    m = {"setup_s": (setup, setups),
         "items_per_s": (rate, rates),
         "latency_ms": (latency, latencies)}
    m.update({name: (v["value"], []) for name, v in rec["measured"].items()})
    return m, n


def overhead(rec):
    """Tracing overhead: traced over untraced wall time per item, minus 1."""
    s = rec["samples"]
    return s["s_per_item_traced"][0] / s["s_per_item_untraced"][0] - 1.0


# ------------------------------------------------------------------ spans

def span_table(spans):
    """Per span name: count, total and self milliseconds. A span's self
    time is its duration minus the durations of its child spans."""
    child = defaultdict(int)
    for s in spans:
        if s[PARENT]:
            child[s[PARENT]] += s[END] - s[START]
    table = {}
    for s in spans:
        row = table.setdefault(s[NAME], {"count": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
        dur = s[END] - s[START]
        row["count"] += 1
        row["total_ms"] += dur / 1e6
        row["self_ms"] += (dur - child.get(s[ID], 0)) / 1e6
    return table


def coverage(spans, window, lanes):
    """Share of the measured window (times the number of parallel lanes)
    that top-level spans cover."""
    lo, hi = window
    if hi <= lo or lanes <= 0:
        return 0.0
    covered = sum(max(0, min(s[END], hi) - max(s[START], lo))
                  for s in spans if not s[PARENT])
    return covered / ((hi - lo) * lanes)


def load_spans(path):
    with open(path) as f:
        doc = json.load(f)
    names = doc["names"]
    spans = [(names[s[0]],) + tuple(s[1:]) for s in doc["spans"]]
    return spans, tuple(doc["window_ns"]), doc["lanes"], doc["dropped"]


def layer_metrics(spans, window, lanes):
    """The per-layer metrics derived from spans; 0 where the workload
    recorded no span of the kind."""
    dur = defaultdict(list)
    keys = defaultdict(int)
    for s in spans:
        dur[s[NAME]].append(s[END] - s[START])
        keys[s[NAME]] += s[KEY]

    def total_ms(name):
        return sum(dur[name]) / 1e6

    def per(name, n):
        return total_ms(name) / n if n else 0.0

    steps = len(dur["step"])
    epochs = len(dur["eval"])
    step_ms = [d / 1e6 for d in dur["step"]]
    run_b1_us = median(dur["serve.run_b1"]) / 1e3
    request_us = [d / 1e3 for d in dur["serve.request"]]
    m = {
        "nn.forward_ms_per_step": per("nn.forward", steps),
        "nn.backward_ms_per_step": per("nn.backward", steps),
        "nn.eval_ms_per_epoch": per("nn.eval_forward", epochs),
        "train.step_ms_p50": percentile(step_ms, 0.50),
        "train.step_ms_p90": percentile(step_ms, 0.90),
        "train.steps": float(steps),
        "train.loss_ms_per_step": per("train.loss", steps),
        "train.reduce_ms_per_step": per("train.reduce", steps),
        "train.update_ms_per_step": per("train.update", steps),
        "core.controller_ms_per_step": per("core.controller", steps),
        "core.controller_share": (total_ms("core.controller") /
                                  total_ms("step") if steps else 0.0),
        "data.assemble_ms_per_batch": per("data.assemble",
                                          keys["data.assemble"]),
        "serve.run_b1_us": run_b1_us,
        "serve.wait_us": (percentile(request_us, 0.50) - run_b1_us
                          if request_us else 0.0),
        "serve.p90_us": percentile(request_us, 0.90),
        "serve.p99_us": percentile(request_us, 0.99),
        "serve.compile_ms": median(dur["serve.compile"]) / 1e6,
        "io.artifact_save_ms": median(dur["io.artifact_save"]) / 1e6,
        "io.artifact_load_ms": median(dur["io.artifact_load"]) / 1e6,
        "trace.coverage": coverage(spans, window, lanes),
    }
    return m


# ------------------------------------------------------------ spec, build

def load_spec():
    if not os.path.isfile(SPEC_PATH):
        raise BenchError(f"{SPEC_PATH} not found")
    with open(SPEC_PATH) as f:
        return json.load(f)


def ensure_built():
    """Configures build-bench/ once, then builds apt_e2e incrementally."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "apt_e2e", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({cmd[1]}):\n{tail}")


def run_binary(workload, seed, seconds, trace, smoke):
    """One workload in a fresh apt_e2e process; returns its record with
    the metrics the benchmark reports for that mode."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{workload}.{seed}"
    out = os.path.join(RESULTS, f"{stem}.run{int(trace)}.json")
    trace_out = os.path.join(RESULTS, f"{stem}.trace.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", out]
    if trace:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload}: {e}")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: apt_e2e exited {proc.returncode}\n"
                         f"{proc.stderr[-3000:]}")
    with open(out) as f:
        rec = json.load(f)
    if trace:
        spans, window, lanes, dropped = load_spans(trace_out)
        rec["layer"] = layer_metrics(spans, window, lanes)
        rec["layer"]["trace.overhead_frac"] = overhead(rec)
        rec["layer"]["host.probe_ms"] = statistics.mean(
            rec["samples"]["probe_ms"])
        rec["spans"] = span_table(spans)
        rec["spans_dropped"] = dropped
    else:
        rec["e2e"], rec["latency_n"] = end_to_end(rec)
    return rec


def reported(rec, spec, trace):
    """The contract's metrics for one run, checked against BENCHMARK.json:
    every end-to-end metric untraced, every per-layer metric traced (0
    for a layer the workload does not exercise). The values apt_e2e
    measured itself carry units, which must match."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    given = rec["counters" if trace else "measured"]
    values = dict(rec["layer"] if trace else
                  {n: v for n, (v, _) in rec["e2e"].items()})
    values.update({n: m["value"] for n, m in given.items()})
    unknown = set(values) - set(units)
    missing = set() if trace else set(units) - set(values)
    if unknown or missing:
        raise BenchError(f"metrics {sorted(unknown | missing)} do not match "
                         "BENCHMARK.json")
    for name, m in given.items():
        if m["unit"] != units[name]:
            raise BenchError(f"{name}: unit {m['unit']} is not {units[name]}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def failed_checks(rec):
    return [c for c in rec["checks"] if not c["ok"]]


# --------------------------------------------------------------- printing

def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def print_run(rec, metrics, trace):
    print(f"== {rec['workload']}  seed {rec['seed']}  "
          f"{'traced' if trace else 'untraced'}  {rec['mode']}")
    if not trace:
        print(f"  host slowdown {host_slowdown(rec['samples']['probe_ms']):.3f}"
              " (times below are divided by it, rates multiplied)")
    for name, m in metrics.items():
        extra = ""
        if not trace:
            w = rec["e2e"][name][1]
            if w:
                extra = f"  spread {quartile_spread(w):.3f} over {len(w)}"
            if name.startswith("latency"):
                extra += f"  n={rec['latency_n']}"
        print(f"  {name:30s} {fmt(m['value']):>14s} {m['unit']}{extra}")
    if trace:
        if rec["spans_dropped"]:
            print(f"  {rec['spans_dropped']} spans dropped: log full")
        print("  spans (self time): " + ", ".join(
            f"{n} {r['self_ms']:.1f}/{r['total_ms']:.1f} ms x{r['count']}"
            for n, r in sorted(rec["spans"].items(),
                               key=lambda kv: -kv[1]["total_ms"])))
    for c in rec["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              f"{'  (' + c['detail'] + ')' if c['detail'] else ''}")


# ------------------------------------------------------------- single run

def single_run(args, spec):
    ensure_built()
    rec = run_binary(args.workload, args.seed, args.seconds, args.trace,
                     args.smoke)
    metrics = reported(rec, spec, args.trace)
    print_run(rec, metrics, args.trace)
    correct = not failed_checks(rec) and rec["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------- full set

def host_info(rec):
    """What must match for two result sets to be comparable."""
    return dict(rec["host"], nproc=os.cpu_count(), machine=platform.machine())


def full_set(args, spec):
    mode = "smoke" if args.smoke else "full"
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    ensure_built()
    started = time.monotonic()
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_binary(name, args.seed, seconds, False, args.smoke)
        traced = run_binary(name, args.seed, seconds, True, args.smoke)
        e2e = reported(plain, spec, False)
        layer = reported(traced, spec, True)
        print_run(plain, e2e, False)
        print_run(traced, layer, True)
        checks = failed_checks(plain) + failed_checks(traced)
        failed = plain["failed"] + traced["failed"]
        if plain["history_hash"] != traced["history_hash"]:
            checks.append({"name": "untraced and traced processes agree",
                           "ok": False, "detail": ""})
            failed = max(failed, 1)
        attempted = plain["attempted"] + traced["attempted"]
        workloads[name] = {
            "correct": not checks and failed == 0,
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "history_hash": plain["history_hash"],
            "end_to_end": {
                n: dict(m, spread=quartile_spread(plain["e2e"][n][1]))
                for n, m in e2e.items()},
            "per_layer": layer,
            "spans": traced["spans"],
        }
    result = {"schema": "apt-e2e-set/1", "seed": args.seed, "mode": mode,
              "seconds": seconds, "host": host_info(plain),
              "workloads": workloads}
    path = os.path.join(RESULTS, f"set.{args.seed}.{mode}.json")
    write_results(path, result)
    bad = [n for n, w in workloads.items() if not w["correct"]]
    print(f"\n{len(workloads)} workloads in {time.monotonic() - started:.0f} s"
          f"; error_rate {sum(w['failed'] for w in workloads.values())}/"
          f"{sum(w['attempted'] for w in workloads.values())}"
          f"; results in {os.path.relpath(path, ROOT)}")
    if bad:
        print("FAILED: " + ", ".join(bad))
        return 1
    return 0


def write_results(path, result):
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


def load_results(path):
    with open(path) as f:
        result = json.load(f)
    if result.get("schema") != "apt-e2e-set/1":
        raise BenchError(f"{path}: not a benchmark result set")
    return result


# ----------------------------------------------------------------- compare

def verdict(a, b, better, bound, spread=0.0, exact=False):
    """How B's median compares with A's under the metric's bound."""
    if exact:
        return "same" if a == b else "changed"
    if spread > bound:
        return "unresolved"
    if a == b:
        return "same"
    rel = (b - a) / abs(a) if a else float("inf")
    worse = rel if better == "lower" else -rel
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "same"


def compare(a, b, spec):
    """Rows of (workload, metric, a, b, verdict) for two result sets.
    Raises BenchError when the sets are not comparable."""
    for r in (a, b):
        if r["mode"] != "full":
            raise BenchError("smoke results are not comparable")
    if a["host"] != b["host"]:
        raise BenchError(f"host differs: {a['host']} vs {b['host']}")
    if a["seconds"] != b["seconds"]:
        raise BenchError("run length differs")
    rows = []
    for wname in a["workloads"]:
        if wname not in b["workloads"]:
            continue
        wa, wb = a["workloads"][wname], b["workloads"][wname]
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            spread = max(ma["spread"], mb["spread"])
            rows.append((wname, m["name"], ma["value"], mb["value"],
                         verdict(ma["value"], mb["value"], m["better"],
                                 m["bound"], spread,
                                 m["name"] in DETERMINISTIC)))
        for name in sorted(DETERMINISTIC & set(wa["per_layer"])):
            va = wa["per_layer"][name]["value"]
            vb = wb["per_layer"][name]["value"]
            rows.append((wname, name, va, vb, verdict(va, vb, "", 0,
                                                      exact=True)))
        rows.append((wname, "history_hash", wa["history_hash"],
                     wb["history_hash"],
                     verdict(wa["history_hash"], wb["history_hash"], "", 0,
                             exact=True)))
    return rows


def compare_main(paths, spec):
    rows = compare(load_results(paths[0]), load_results(paths[1]), spec)
    for w, m, va, vb, v in rows:
        print(f"{w:18s} {m:24s} {fmt(va):>18s} {fmt(vb):>18s}  {v}")
    bad = [r for r in rows if r[4] in ("worse", "changed")]
    print(f"{len(rows)} comparisons: " + ", ".join(
        f"{sum(r[4] == v for r in rows)} {v}"
        for v in ("same", "better", "worse", "unresolved", "changed")))
    return 1 if bad else 0


# -------------------------------------------------------------------- main

def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare_main(args.compare, spec)
        if args.workload:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                raise BenchError(f"unknown workload {args.workload}")
            if args.seconds is None:
                args.seconds = (SMOKE_SECONDS if args.smoke
                                else spec["run_seconds"])
            return single_run(args, spec)
        return full_set(args, spec)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
