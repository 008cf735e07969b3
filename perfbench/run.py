#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload bulk_reduce --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. It builds the `tracered` CLI and the
in-process probe into .bench_build/, generates the workload's inputs from
--seed into .bench_work/, measures for --seconds, checks every output, and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
"""

import argparse
import collections
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
THREADS = min(4, os.cpu_count() or 1)
DEFAULT_SEED = 1
# setup_s is the median of at least SETUPS set-ups, repeated until they
# took SETUP_MIN_S in all, so that cheap set-ups are sampled more often: a
# 0.1 s set-up (serve_mixed) is dominated by process start, whose median over
# 10 samples spread by 0.2-0.3 between runs, and by about half that over 40.
SETUPS = 3
SETUP_MIN_S = 4.0

REDUCE_CONFIG = "avgWave@0.2"
MERGE_CONFIG = "avgWave@0.02"
BULK = ("stragglers", {"ranks": 512, "iters": 2000})
SWEEP = ("random_walk_cost", {"ranks": 64, "iters": 4000, "step": 0.2})
WIDE = ("random_walk_cost", {"ranks": 2048, "iters": 250, "step": 0.2})
SERVE_SMALL = ("random_walk_cost", {"ranks": 64, "iters": 250})
SERVE_LARGE = ("stragglers", {"ranks": 256, "iters": 250})
SERVE_MIX = (("small", 3), ("large", 1))
# Offered request rates (1/s), frozen at about 15-20% and 30-40% of the
# closed-loop capacity on this mix at 4 connections (50-67 replies/s on the
# 4-vCPU VM the benchmark was made on; the traced serve_mixed run measures it
# again as serve.closed_loop_per_s). Higher rates made the latency medians too unsteady
# to gate on there.
SERVE_RATES = {"low": 10.0, "busy": 20.0}
CLOSED_LOOP_REQUESTS = 5  # serve round trips in the traced run of a batch workload
SERVE_CAPACITY_REQUESTS = 40  # the traced serve_mixed run's closed-loop phase

METHODS = ("relDiff", "absDiff", "Manhattan", "Euclidean", "Chebyshev",
           "iter_k", "avgWave", "haarWave", "iter_avg")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run (not a failed operation)."""


# ------------------------------------------------------------------ build --
def build():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found next to perfbench/: run from a tracered checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "tracered_cli", "perfbench_probe",
                  "-j", str(THREADS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def tracered():
    return os.path.join(BUILD, "tracered", "tracered")


def probe():
    return os.path.join(BUILD, "perfbench_probe")


# -------------------------------------------------------------- processes --
# One finished child process: wall seconds, peak RSS (MiB, from wait4), exit
# code and captured output.
Child = collections.namedtuple("Child", "wall_s rss_mib code out err")


def run_child(argv, name):
    out_path = os.path.join(WORK, name + ".out")
    err_path = os.path.join(WORK, name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        out = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err = f.read()
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, err)


def probe_json(args, name):
    child = run_child([probe()] + args, name)
    if child.code != 0:
        raise BenchError(f"probe {args[0]} failed: {child.err.strip()}")
    return json.loads(child.out.strip().splitlines()[-1]), child


def generate(spec, seed, path):
    """Generates one scenario input; returns the wall seconds it took."""
    scenario, params = spec
    argv = [tracered(), "generate", "scenario:" + scenario, "--seed", str(seed), "--out", path]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    child = run_child(argv, "generate")
    if child.code != 0:
        raise BenchError("generate failed: " + child.err.strip())
    return child.wall_s


class Daemon:
    """A `tracered serve` child on a unix socket inside the work directory."""

    def __init__(self, name):
        # A relative socket path keeps clear of the 108-byte sun_path limit
        # however deep the checkout is.
        self.addr = "unix:" + os.path.relpath(os.path.join(WORK, name + ".sock"), ROOT)
        self.err_path = os.path.join(WORK, name + ".err")
        t0 = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [tracered(), "serve", "--listen", self.addr, "--threads", str(THREADS)],
                stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        line = self.proc.stdout.readline().decode()
        self.start_s = time.perf_counter() - t0
        if not line.startswith("listening on"):
            self.stop()
            raise BenchError("serve did not bind: " + line.strip())
        self.rss_mib = None
        self.exit_line = ""

    def stop(self):
        """SIGTERM, then reap; records peak RSS and the daemon's exit line."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_mib = usage.ru_maxrss / 1024.0
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            lines = [ln for ln in f.read().splitlines() if ln.startswith("serve:")]
        self.exit_line = lines[-1] if lines else ""

    def exit_counters(self):
        """(protocol errors, peak per-connection buffered bytes) from the
        exit line `serve: ... N protocol errors, ... peak buffered N bytes`."""
        words = self.exit_line.replace(",", "").split()
        errors = int(words[words.index("protocol") - 1])
        buffered = int(words[words.index("buffered") + 1])
        return errors, buffered


# -------------------------------------------------------------- workloads --
def calibration():
    """Spin loop at 1, 2 and N threads; returns {threads: speedup}."""
    data, _ = probe_json(["spin", "--threads", str(THREADS)], "spin")
    walls = {int(k): v for k, v in data["walls_ms"].items()}
    speedups = {k: k * walls[1] / wall for k, wall in walls.items()}
    log("calibration: spin speedup " +
        " ".join(f"{k}t={s:.2f}x" for k, s in sorted(speedups.items())) +
        f" (1t {walls[1]:.1f} ms)")
    return speedups


def timed_setups(make_one):
    """Median wall seconds of repeated set-ups; make_one() returns one's."""
    samples = []
    while len(samples) < SETUPS or sum(samples) < SETUP_MIN_S:
        samples.append(make_one())
    return benchlib.median(samples)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def alternate_cli(seconds, tally, runs):
    """Runs the (name, argv, outputs) commands in `runs` in turn: one
    untimed warm-up round, then rounds until `seconds` have passed (at least
    two). Every output must equal the same output of the first command's
    first run. Returns the timed Child results per command name."""
    results = {name: [] for name, _, _ in runs}
    reference = {}
    deadline = None
    rounds = 0
    while rounds < 3 or time.perf_counter() < deadline:
        if rounds == 1:
            deadline = time.perf_counter() + seconds
        for name, argv, outputs in runs:
            child = run_child(argv, name)
            ok = child.code == 0
            for label, path in outputs.items():
                if not ok:
                    break
                data = read_bytes(path)
                ok = reference.setdefault(label, data) == data
            if tally.record(ok, f"{name}: exit {child.code} or output differs") and rounds:
                results[name].append(child)
        rounds += 1
    return results


def cli_metrics(results, primary, alt):
    p, a = results[primary], results[alt]
    if not p or not a:
        raise BenchError("no successful runs")
    alt_wall = sum(c.wall_s for c in a)
    return {
        "p50_ms": benchlib.median([c.wall_s * 1000 for c in p]),
        "peak_rss_mib": benchlib.median([c.rss_mib for c in p]),
        "alt_p50_ms": benchlib.median([c.wall_s * 1000 for c in a]),
        "alt_peak_rss_mib": benchlib.median([c.rss_mib for c in a]),
        "alt_done_per_s": len(a) / alt_wall,
    }, {primary: len(p), alt: len(a)}


def bulk_reduce(seed, seconds, tally):
    trf = os.path.join(WORK, "bulk.trf")
    setup = timed_setups(lambda: generate(BULK, seed, trf))
    common = [tracered(), "reduce", trf, "--config", REDUCE_CONFIG, "--threads", str(THREADS)]
    s_out, o_out = os.path.join(WORK, "streaming.trr"), os.path.join(WORK, "offline.trr")
    results = alternate_cli(seconds, tally, [
        ("streaming", common + ["--streaming", "--out", s_out], {"trr": s_out}),
        ("offline", common + ["--out", o_out], {"trr": o_out}),
    ])
    metrics, counts = cli_metrics(results, "streaming", "offline")
    metrics["setup_s"] = setup
    return metrics, counts


def merge_wide(seed, seconds, tally):
    trf = os.path.join(WORK, "wide.trf")
    setup = timed_setups(lambda: generate(WIDE, seed, trf))
    trr, trm = os.path.join(WORK, "wide.trr"), os.path.join(WORK, "wide.trm")
    common = [tracered(), "reduce", trf, "--threads", str(THREADS), "--config", REDUCE_CONFIG,
              "--merge", "--merge-config", MERGE_CONFIG, "--merge-out", trm, "--out", trr]
    outputs = {"trr": trr, "trm": trm}
    results = alternate_cli(seconds, tally, [
        ("streaming", common + ["--streaming"], outputs),
        ("offline", common, outputs),
    ])
    metrics, counts = cli_metrics(results, "streaming", "offline")
    metrics["setup_s"] = setup
    # The CLI's TRM1 must equal the in-process CrossRankMerger at 1 and N threads.
    check, _ = probe_json(["merge", "--in", trf, "--threads", str(THREADS), "--trm", trm], "merge")
    tally.record(check["match_nt"], "CLI TRM1 differs from CrossRankMerger at N threads")
    tally.record(check["match_1t"], "CLI TRM1 differs from CrossRankMerger at 1 thread")
    return metrics, counts


def expected_sweep():
    with open(os.path.join(HERE, "expected_sweep.json")) as f:
        return json.load(f)


def check_sweep(data, tally, seed):
    """Per-method TRR1 FNV-1a and verdict: stable across the sweeps of a run
    and, at the default seed, equal to the pinned values."""
    tally.record(data["consistent"], "sweep outputs changed between repetitions")
    pinned = expected_sweep() if seed == DEFAULT_SEED else None
    for name, fnv, verdict, _ in data["methods"]:
        ok = True
        if pinned is not None:
            ok = pinned.get(name) == [fnv, verdict]
        tally.record(ok, f"{name}: fnv {fnv} verdict {verdict} differs from expected_sweep.json")


def method_sweep(seed, seconds, tally):
    trf = os.path.join(WORK, "sweep.trf")
    gen = timed_setups(lambda: generate(SWEEP, seed, trf))
    # Primary: the sweep with the default (indexed) matching. Contrast: the
    # same sweep with no match index or pre-filter, which an index change
    # cannot move and which must give the same bytes.
    runs = {}
    for tier in ("indexed", "off"):
        data, child = probe_json(["sweep", "--in", trf, "--threads", str(THREADS), "--tier", tier,
                                  "--seconds", str(seconds / 2)], "sweep_" + tier)
        check_sweep(data, tally, seed)
        runs[tier] = (data, child)
    indexed, off = runs["indexed"][0], runs["off"][0]
    tally.record(indexed["methods"] == off["methods"], "sweep with and without the index disagree")
    prep = benchlib.median(indexed["setup_ms"] + off["setup_ms"]) / 1000
    return {
        "setup_s": gen + prep,
        "p50_ms": benchlib.median(indexed["sweep_ms"]),
        "peak_rss_mib": runs["indexed"][1].rss_mib,
        "alt_p50_ms": benchlib.median(off["sweep_ms"]),
        "alt_peak_rss_mib": runs["off"][1].rss_mib,
        "alt_done_per_s": len(off["sweep_ms"]) / (sum(off["sweep_ms"]) / 1000),
    }, {"indexed": len(indexed["sweep_ms"]), "off": len(off["sweep_ms"])}


def mixed_kinds(rng, count):
    """`count` SERVE_MIX payload kinds in exact proportion, in a seeded
    random order."""
    cycle = [kind for kind, weight in SERVE_MIX for _ in range(weight)]
    kinds = [cycle[i % len(cycle)] for i in range(count)]
    rng.shuffle(kinds)
    return kinds


def write_schedule(path, times, kinds):
    with open(path, "w") as f:
        for t, kind in zip(times, kinds):
            f.write(f"{t:.3f} {kind}\n")


def serve_schedule(seed, rate, seconds, path):
    """Poisson arrivals at `rate` over `seconds`, conditioned on their count
    (sorted uniform times), carrying the SERVE_MIX payloads: a seed changes
    which request comes when, never how much work the phase holds."""
    rng = random.Random(seed * 1000003 + int(rate * 1000))
    count = max(1, round(rate * seconds))
    times = sorted(rng.uniform(0, seconds * 1000) for _ in range(count))
    write_schedule(path, times, mixed_kinds(rng, count))


def closed_schedule(path, kinds):
    """A closed loop: every request is due at once, so each connection sends
    its next request as soon as its previous reply arrives."""
    write_schedule(path, [0.0] * len(kinds), kinds)


def serve_payloads(seed):
    small, large = os.path.join(WORK, "small.trf"), os.path.join(WORK, "large.trf")
    wall = generate(SERVE_SMALL, seed, small) + generate(SERVE_LARGE, seed, large)
    return wall, ["--payload", "small=" + small, "--payload", "large=" + large]


def run_load(daemon, schedule, payload_args, conns, tally, traced, name):
    data, _ = probe_json(["load", "--addr", daemon.addr, "--schedule", schedule,
                          "--conns", str(conns)] + payload_args +
                         (["--trace"] if traced else []), name)
    daemon.stop()
    errors, _ = daemon.exit_counters()
    tally.record(data["warmup_ok"], "warm-up reply differs from the offline reduction")
    for _kind, _due, _pick, _start, _end, _finish, ok in data["requests"]:
        tally.record(ok, "serve reply missing or differs from the offline reduction")
    tally.record(errors == 0, f"daemon reported {errors} protocol errors")
    return data


def latencies(data, kind=None):
    """Open-loop latencies (ms) of the phase's requests, of one payload kind
    if given; failed requests count as infinitely late."""
    reqs = [r for r in data["requests"] if kind in (None, r[0])]
    return benchlib.latencies_with_failures(
        [benchlib.open_loop_latency(r[1], r[4]) for r in reqs], [r[6] for r in reqs])


def done_per_s(data):
    """Correct replies per second, from the phase origin to the last reply."""
    reqs = data["requests"]
    return sum(1 for r in reqs if r[6]) / (max(r[4] for r in reqs) / 1000)


def serve_setup(seed):
    """Generates the payloads and starts a daemon until it has bound; returns
    the wall seconds, the payload arguments and the running daemon."""
    gen, payload_args = serve_payloads(seed)
    daemon = Daemon("serve")
    return gen + daemon.start_s, payload_args, daemon


def serve_mixed(seed, seconds, tally):
    def one_setup():
        wall, _, daemon = serve_setup(seed)
        daemon.stop()
        return wall

    setup = timed_setups(one_setup)
    phases = {}
    for phase in ("low", "busy"):
        schedule = os.path.join(WORK, f"schedule_{phase}.txt")
        serve_schedule(seed, SERVE_RATES[phase], seconds / 2, schedule)
        _, payload_args, daemon = serve_setup(seed)
        try:
            data = run_load(daemon, schedule, payload_args, THREADS, tally, False,
                            "load_" + phase)
        finally:
            daemon.stop()
        phases[phase] = (data, daemon.rss_mib)
    for phase, (data, _) in phases.items():
        for kind in (None, "small", "large"):
            lat = latencies(data, kind)
            tail = benchlib.tail_percentile(lat)
            log(f"serve {phase} {kind or 'all'}: n={len(lat)} p50 {benchlib.median(lat):.2f} ms" +
                (f", p{tail[0]} {tail[1]:.2f} ms" if tail else ""))
        log(f"serve {phase}: {done_per_s(data):.2f} done/s")
    # The latency metrics are the median of the common (small) requests: the
    # median of the whole 3:1 mix falls in the gap between the two payload
    # classes, where a few requests crossing it swing it from run to run.
    low, busy = latencies(phases["low"][0], "small"), latencies(phases["busy"][0], "small")
    return {
        "setup_s": setup,
        "p50_ms": benchlib.median(low),
        "peak_rss_mib": phases["low"][1],
        "alt_p50_ms": benchlib.median(busy),
        "alt_peak_rss_mib": phases["busy"][1],
        "alt_done_per_s": done_per_s(phases["busy"][0]),
    }, {"low_small": len(low), "busy_small": len(busy)}


# ------------------------------------------------------------ traced run --
def span_totals(spans):
    totals = {}
    for name, start, end, _parent, _req in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def coverage(spans):
    """Per pass: the share of the pass span its layer spans cover, i.e. one
    minus the pass's self time over its duration."""
    out = {}
    for i, (name, start, end, _parent, _req) in enumerate(spans):
        if name.startswith("pass."):
            kids = [(s[1], s[2]) for s in spans if s[3] == i]
            out[name] = 1 - benchlib.self_time((start, end), kids) / (end - start)
    return out


def traced(workload, seed, tally):
    """Walks every layer over the workload's input with spans on, plus a
    serve phase against a daemon. Returns the per-layer metrics."""
    speedups = calibration()
    if workload == "serve_mixed":
        _, payload_args = serve_payloads(seed)
        trf = os.path.join(WORK, "large.trf")
        schedule = os.path.join(WORK, "schedule_low.txt")
        serve_schedule(seed, SERVE_RATES["low"], 5, schedule)
    else:
        spec, trf = {"bulk_reduce": (BULK, "bulk.trf"), "merge_wide": (WIDE, "wide.trf"),
                     "method_sweep": (SWEEP, "sweep.trf")}[workload]
        trf = os.path.join(WORK, trf)
        generate(spec, seed, trf)
        payload_args = ["--payload", "input=" + trf]
        schedule = os.path.join(WORK, "schedule_closed.txt")
        closed_schedule(schedule, ["input"] * CLOSED_LOOP_REQUESTS)

    walk, _ = probe_json(["layers", "--in", trf, "--threads", str(THREADS), "--work", WORK],
                         "layers")
    tally.record(walk["stream_matches_offline"], "offline and streaming TRR1 differ")
    tally.record(walk["merge_matches_1t"], "merge at 1 and N threads differ")
    if workload == "method_sweep" and seed == DEFAULT_SEED:
        check_sweep(dict(walk, consistent=True), tally, seed)

    # The batch workloads send their own input closed-loop on one connection;
    # serve_mixed replays its low-rate open-loop mix, then measures its
    # closed-loop capacity: the whole mix due at once on N connections.
    conns = THREADS if workload == "serve_mixed" else 1
    daemon = Daemon("serve_traced")
    try:
        load = run_load(daemon, schedule, payload_args, conns, tally, True, "load_traced")
    finally:
        daemon.stop()
    protocol_errors, peak_buffered = daemon.exit_counters()
    closed = load
    if workload == "serve_mixed":
        schedule = os.path.join(WORK, "schedule_closed.txt")
        closed_schedule(schedule, mixed_kinds(random.Random(seed), SERVE_CAPACITY_REQUESTS))
        daemon = Daemon("serve_closed")
        try:
            closed = run_load(daemon, schedule, payload_args, conns, tally, False, "load_closed")
        finally:
            daemon.stop()
    capacity = done_per_s(closed)
    log(f"serve closed loop: {capacity:.2f} replies/s ({len(closed['requests'])} requests "
        f"due at once, {conns} connections)")
    log(f"serve: daemon exit line reports {protocol_errors} protocol errors")

    t = span_totals(walk["spans"])
    reqs = load["requests"]
    # Round trips come from the generator's per-request spans (request id =
    # schedule index); the daemon's own reduce wall from its STATS reply.
    rtt_by_req = {req: end - start for name, start, end, _, req in load["spans"]
                  if name == "serve.rtt"}
    rtt = [rtt_by_req[i] for i in range(len(reqs))]
    finish = [r[5] for r in reqs]
    late = [benchlib.generator_lateness(r[1], r[2], r[3]) for r in reqs]
    late_tail = benchlib.tail_percentile(late)
    log(f"serve: n={len(rtt)} rtt p50 {benchlib.median(rtt):.2f} ms, daemon reduce wall "
        f"(0.1 ms resolution) p50 {benchlib.median(finish):.1f} ms")
    cov = coverage(walk["spans"])
    for name, share in sorted(cov.items()):
        log(f"span coverage {name}: {share * 100:.1f}%")
    off, on = benchlib.median(walk["overhead_off_ms"]), benchlib.median(walk["overhead_on_ms"])
    log(f"trace_overhead_pct: {(on - off) / off * 100:+.2f}% (streaming pass, median of 3 "
        f"traced {on:.1f} ms vs untraced {off:.1f} ms)")
    segs, mib = walk["segments"], os.path.getsize(trf) / 2 ** 20
    merge_speedup = t["core.merge_1t"] / t["core.merge"]
    log(f"merge: {t['core.merge']:.1f} ms at {THREADS}t, {t['core.merge_1t']:.1f} ms at 1t "
        f"= {merge_speedup:.2f}x vs spin {speedups[max(speedups)]:.2f}x")

    # method_sweep's counts are summed over the nine methods it runs.
    c = walk["sweep_counts" if workload == "method_sweep" else "counts"]
    m = {
        "trace.decode_stream_ms": (t["trace.decode_stream"], "ms"),
        "trace.decode_mib_per_s": (mib / (t["trace.decode_stream"] / 1000), "MiB/s"),
        "trace.decode_materialize_ms": (t["trace.decode_materialize"], "ms"),
        "trace.segment_ms": (t["trace.segment"], "ms"),
        "trace.segment_ns_per_seg": (t["trace.segment"] * 1e6 / segs, "ns"),
        "core.feed_ms": (t["core.feed_pass"] - t["trace.decode_stream"], "ms"),
        "core.finish_ms": (t["core.finish"], "ms"),
        "core.match_ms": (t["core.match"], "ms"),
        "core.match_ns_per_seg": (t["core.match"] * 1e6 / segs, "ns"),
    }
    for method in METHODS:
        m[f"core.match_{method}_ms"] = (t["core.match_" + method], "ms")
    m.update({
        "core.stored_reps": (c["stored_reps"], "count"),
        "core.degree_of_matching": (c["degree_of_matching"], "ratio"),
        "core.reps_scanned": (c["reps_scanned"], "count"),
        "core.reps_visited": (c["reps_visited"], "count"),
        "core.index_prune_rate": (c["index_prune_rate"], "ratio"),
        "core.pivot_evals": (c["pivot_evals"], "count"),
        "core.merge_ms": (t["core.merge"], "ms"),
        "core.merge_1t_ms": (t["core.merge_1t"], "ms"),
        "core.merge_speedup": (merge_speedup, "x"),
        "core.merge_in_reps": (walk["merge_in_reps"], "count"),
        "core.merge_out_reps": (walk["merge_out_reps"], "count"),
        "core.merge_pivot_evals": (walk["merge_pivot_evals"], "count"),
        "core.reconstruct_ms": (t["core.reconstruct"], "ms"),
        "analysis.analyze_ms": (t["analysis.analyze"], "ms"),
        "analysis.compare_ms": (t["analysis.compare"], "ms"),
        "analysis.retained_methods": (walk["retained_methods"], "count"),
        "trace.serialize_ms": (t["trace.serialize"], "ms"),
        "trace.write_ms": (t["trace.write"], "ms"),
        "trace.reduced_bytes": (walk["reduced_bytes"], "bytes"),
        "trace.merged_bytes": (walk["merged_bytes"], "bytes"),
        "serve.rtt_ms": (benchlib.median(rtt), "ms"),
        "serve.nonfinish_ms": (benchlib.median([a - b for a, b in zip(rtt, finish)]), "ms"),
        "serve.gen_late_tail_ms": (late_tail[1] if late_tail else max(late), "ms"),
        "serve.peak_conn_buffered_bytes": (peak_buffered, "bytes"),
        "serve.closed_loop_per_s": (capacity, "1/s"),
        "util.spin_speedup_2": (speedups.get(2, 1.0), "x"),
        "util.spin_speedup_max": (speedups[max(speedups)], "x"),
        "trace.span_coverage_pct": (min(cov.values()) * 100, "%"),
    })
    return m


# ------------------------------------------------------------------- main --
WORKLOADS = {
    "bulk_reduce": bulk_reduce,
    "method_sweep": method_sweep,
    "merge_wide": merge_wide,
    "serve_mixed": serve_mixed,
}
UNITS = {"setup_s": "s", "p50_ms": "ms", "peak_rss_mib": "MiB", "alt_p50_ms": "ms",
         "alt_peak_rss_mib": "MiB", "alt_done_per_s": "1/s"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        tally = benchlib.Tally()
        if args.trace:
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in traced(args.workload, args.seed, tally).items()}
        else:
            calibration()
            values, counts = WORKLOADS[args.workload](args.seed, args.seconds, tally)
            log("samples: " + ", ".join(f"{k}={n}" for k, n in counts.items()))
            metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for reason in tally.reasons:
        log("FAILED: " + reason)
    log(f"failed_frac: {tally.failed_frac():.4f} ({tally.failed}/{tally.attempted})")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
