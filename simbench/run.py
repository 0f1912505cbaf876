#!/usr/bin/env python3
"""Swift-Sim benchmark: host speed, daemon latency and accuracy.

    python3 simbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 simbench/run.py --regen      # rewrite simbench/expected.json

Run from the repository root. The first run builds the library, the
swiftsimd daemon and simbench_driver into $CARGO_TARGET_DIR (default
.bench_build). Workloads, metrics and the layer map are in
simbench/README.md. The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

import hashlib
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import benchlib  # noqa: E402
from benchlib import Ratio  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("detailed_serial", "detailed_parallel", "hybrid_memo", "daemon_mixed")
IN_PROCESS = WORKLOADS[:3]

# Benchmark seed n runs on trace seeds TRACE_SEEDS[(n + k) % 8] for
# k < WORKERS: job-parallel workloads on all of them, the others on the
# first. Entry 0 is the library's default seed.
TRACE_SEEDS = (0x5EED5EED, 1, 2, 3, 4, 5, 6, 7)

# All load comes from one process with at most this many threads or
# outstanding requests.
WORKERS = max(1, min(len(os.sched_getaffinity(0)), 4))

PRESET = "rtx2080ti"

# daemon_mixed: a fixed warm job set plus a pool of never-seen configs.
DAEMON_SCALE = 0.05
DAEMON_TRACE_SEED = 0x5EED5EED
WARM_SET = (("BFS", 8), ("PAGERANK", 8), ("SSSP", 8), ("GEMM", 1), ("NW", 1), ("SM", 1))
COLD_POOL_SIZE = 1200
# Requests come in blocks, shuffled within each block by the seed: every
# warm job WARM_ROUNDS times, SINGLE_COLD never-seen jobs, and one burst
# of WORKERS identical never-seen jobs. With 4 workers that is 30 warm of
# 38 (79%), so p50 sits inside the warm population and p90 in the middle
# of the cold one, away from the boundary. Fixed block shares keep runs
# of different seeds comparable.
WARM_ROUNDS, SINGLE_COLD = 5, 4
# A run is a series of windows, each on a fresh daemon with its default
# options: timed set-up, then WINDOW_BLOCKS blocks of requests. A fixed
# count of never-seen jobs per window keeps the daemon's caches, and so its
# peak RSS, comparable between runs; the set-ups, one per window, spread
# over the run as the passes do. About 9 windows fit in 15 s on 4 threads.
WINDOW_BLOCKS = 3
MIN_WINDOWS = 3
REQUEST_TIMEOUT_S = 60.0

DRIVER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


# --- Command line ------------------------------------------------------------

USAGE = """usage: python3 simbench/run.py --workload W --seed N --seconds S --trace 0|1
       python3 simbench/run.py --regen

  --workload W   one of: %s
  --seed N       workload seed (non-negative integer)
  --seconds S    measured seconds (positive integer)
  --trace 0|1    0: end-to-end metrics, untraced; 1: per-layer metrics
  --regen        rebuild and rewrite simbench/expected.json
  --help         this text
""" % ", ".join(WORKLOADS)


def usage_exit(msg=None):
    if msg:
        sys.stderr.write("run.py: %s\n" % msg)
    sys.stderr.write(USAGE)
    sys.exit(2)


def parse_args(argv):
    opts = {"workload": None, "seed": None, "seconds": None, "trace": None, "regen": False}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("--help", "-h"):
            usage_exit()
        if flag == "--regen":
            opts["regen"] = True
            i += 1
            continue
        key = {"--workload": "workload", "--seed": "seed", "--seconds": "seconds",
               "--trace": "trace"}.get(flag)
        if key is None:
            usage_exit("unknown flag %r" % flag)
        if i + 1 >= len(argv):
            usage_exit("%s needs a value" % flag)
        value = argv[i + 1]
        if key == "workload":
            if value not in WORKLOADS:
                usage_exit("unknown workload %r" % value)
            opts[key] = value
        else:
            if not value.isdigit():
                usage_exit("%s needs a non-negative integer, got %r" % (flag, value))
            opts[key] = int(value)
        i += 2
    if opts["regen"]:
        return opts
    for key in ("workload", "seed", "seconds", "trace"):
        if opts[key] is None:
            usage_exit("--%s is required" % key)
    if opts["seconds"] < 1:
        usage_exit("--seconds must be at least 1")
    if opts["trace"] not in (0, 1):
        usage_exit("--trace must be 0 or 1")
    return opts


# --- Build -------------------------------------------------------------------

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds simbench_driver and swiftsimd; returns
    their paths."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", str(WORKERS),
                  "--target", "simbench_driver", "swiftsimd"])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed (%s):\n%s" % (" ".join(cmd), tail))
    return os.path.join(out, "simbench_driver"), os.path.join(out, "tools", "swiftsimd")


def run_driver(exe, args):
    proc = subprocess.run([exe] + args, capture_output=True,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("simbench_driver %s exited %d: %s"
                         % (" ".join(args), proc.returncode, proc.stderr.strip()))
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


# --- Expected values ---------------------------------------------------------

def load_expected():
    try:
        with open(EXPECTED_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (EXPECTED_PATH, e))


def trace_seeds_for(seed):
    return [TRACE_SEEDS[(seed + k) % len(TRACE_SEEDS)] for k in range(WORKERS)]


def seeds_arg(seed):
    return ["--trace-seeds", ",".join(str(ts) for ts in trace_seeds_for(seed))]


def daemon_job(app, iterations, config="", level="memory", seed=DAEMON_TRACE_SEED):
    job = {"workload": app, "scale": DAEMON_SCALE, "seed": seed,
           "iterations": iterations, "level": level, "preset": PRESET}
    if config:
        job["config"] = config
    job["key"] = "%s:%d:%d:%s:%s" % (app, iterations, seed, level, config.replace("\n", ";"))
    return job


def warm_jobs(level="memory"):
    return [daemon_job(app, it, level=level) for app, it in WARM_SET]


def cold_pool():
    """Never-seen jobs: an iterative app on a trace seed and DRAM latency
    no other job uses, so each pays trace build, fingerprint, pre-pass and
    memo record. Single-launch apps are left out: cold, they cost no more
    than the slowest warm job, which would put p90 on the boundary."""
    iterative = [(app, it) for app, it in WARM_SET if it > 1]
    pool = []
    for i in range(COLD_POOL_SIZE):
        app, it = iterative[i % len(iterative)]
        config = "[dram]\nlatency = %d\n" % (240 + i % 160)
        pool.append(daemon_job(app, it, config, seed=1000 + i))
    return pool


def regen():
    exe, _ = build()
    expected = {
        "regenerate": "python3 simbench/run.py --regen",
        "note": "cycles/instructions: each job under its own config from cold "
                "caches; fresh_cycles, where memo replay applies: the same job "
                "with memo off; silicon entries: the oracle for cycle_err_pct",
        "inprocess": {},
        "daemon": {},
    }
    # One driver process per trace seed and per shard of daemon jobs, at
    # most WORKERS at a time.
    tasks = [(["--mode", "expect", "--trace-seeds", str(ts)], "", str(ts))
             for ts in TRACE_SEEDS]
    jobs = warm_jobs() + warm_jobs("silicon") + cold_pool()
    tasks += [(["--mode", "oracle"], "".join(json.dumps(j) + "\n" for j in jobs[i::WORKERS]),
               None) for i in range(WORKERS)]
    running = []
    while tasks or running:
        while tasks and len(running) < WORKERS:
            args, stdin_text, ts = tasks.pop(0)
            proc = subprocess.Popen([exe] + args, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, text=True)
            proc.stdin.write(stdin_text)
            proc.stdin.close()
            running.append((proc, ts))
        proc, ts = running.pop(0)
        out = proc.stdout.read()
        if proc.wait() != 0:
            raise BenchError("simbench_driver failed while regenerating")
        table = expected["inprocess"].setdefault(ts, {}) if ts else expected["daemon"]
        for line in out.splitlines():
            r = json.loads(line)
            if r["type"] == "expected":
                table[r["key"]] = {k: r[k] for k in ("cycles", "instructions", "fresh_cycles")
                                   if k in r}
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % EXPECTED_PATH)


# --- Host stamp --------------------------------------------------------------

def host_stamp(driver_host, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
        if sha:
            dirty = bool(subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                        capture_output=True, text=True,
                                        timeout=10).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "hardware_concurrency": driver_host.get("hardware_concurrency"),
        "workers": WORKERS,
        "cpu_model": cpu,
        "build_type": driver_host.get("build_type"),
        "compiler": driver_host.get("compiler"),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "seed": seed,
        "trace_seeds": trace_seeds_for(seed),
    }


def source_digest():
    """SHA-256 over the program and benchmark sources, so records from a
    checkout that is not a git repository still name what they measured."""
    h = hashlib.sha256()
    for top in ("src", "tools", "simbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


# --- In-process workloads ----------------------------------------------------

def records_of(recs, kind):
    return [r for r in recs if r["type"] == kind]


def in_process_expected(expected):
    """Expected values of every trace seed, keyed "<trace seed>/<job key>"."""
    return {"%s/%s" % (ts, k): v for ts, table in expected["inprocess"].items()
            for k, v in table.items()}


def seeded_key(job):
    return "%d/%s" % (job["trace_seed"], job["key"])


def job_results(recs):
    results = []
    for r in records_of(recs, "job"):
        result = {k: r[k] for k in ("cycles", "instructions", "error") if k in r}
        result["key"] = seeded_key(r)
        results.append(result)
    return results


def in_process_run(exe, workload, seed, seconds, expected):
    recs = run_driver(exe, ["--mode", "run", "--workload", workload, "--seconds", str(seconds)]
                      + seeds_arg(seed))
    exp = in_process_expected(expected)
    attempted, failed, reasons = benchlib.count_failures(job_results(recs), exp)
    jobs = [j for j in records_of(recs, "job") if j["pass"] >= 0 and "error" not in j]
    passes = [p for p in records_of(recs, "pass") if p["pass"] >= 0]
    latencies = [j["seconds"] * 1e3 for j in jobs]
    cycles = {seeded_key(j): j["cycles"] for j in jobs}
    oracle = {k: exp[k.rsplit(":", 1)[0] + ":silicon"]["cycles"] for k in cycles}
    metrics = {
        "setup_s": statistics.median(r["seconds"] for r in records_of(recs, "setup")),
        "sim_ips": statistics.median(p["instructions"] / p["seconds"] for p in passes),
        "jobs_per_s": statistics.median(p["jobs"] / p["seconds"] for p in passes),
        "peak_rss_mb": records_of(recs, "end")[0]["peak_rss_kb"] / 1024.0,
        "cycle_err_pct": benchlib.cycle_error_pct(cycles, oracle),
    }
    metrics.update(latency_metrics(latencies))
    notes = {"passes": len(passes), "latency": latency_note(latencies),
             "memo_inexact": benchlib.memo_inexact(cycles, exp)}
    return metrics, attempted, failed, reasons, notes


def latency_metrics(latencies_ms):
    n = len(latencies_ms)
    if benchlib.samples_beyond(n, 90.0) < benchlib.MIN_BEYOND:
        raise BenchError("%d latency samples: fewer than %d beyond p90"
                         % (n, benchlib.MIN_BEYOND))
    return {"req_p50_ms": benchlib.percentile(latencies_ms, 50.0),
            "req_p90_ms": benchlib.percentile(latencies_ms, 90.0)}


def latency_note(latencies_ms):
    """Median and the highest percentile with enough samples beyond it,
    with the sample count."""
    top = benchlib.highest_percentile(len(latencies_ms))
    return "p50 %.4g ms, p%g %.4g ms (n=%d)" % (
        benchlib.percentile(latencies_ms, 50.0), top,
        benchlib.percentile(latencies_ms, top), len(latencies_ms))


# --- Daemon workload ---------------------------------------------------------

class Daemon:
    """A swiftsimd child speaking NDJSON over its stdin/stdout."""

    def __init__(self, exe):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen([exe, "--threads", str(WORKERS)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.buf = b""

    def send(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self, timeout=REQUEST_TIMEOUT_S):
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("swiftsimd gave no response within %.0f s" % timeout)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError("swiftsimd exited unexpectedly")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, op):
        self.send({"op": op, "id": op})
        while True:
            r = self.recv()
            if r.get("id") == op:
                return r

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for swiftsimd")

    def close(self):
        """Drains and stops the daemon; kills it if it does not exit."""
        try:
            if self.proc.poll() is None:
                self.call("shutdown")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (BenchError, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class RequestMix:
    """Seeded closed-loop request source for daemon_mixed."""

    def __init__(self, seed, burst):
        self.rng = random.Random(seed)
        self.warm = warm_jobs()
        # Never-seen jobs rotate through the apps, in a seeded order per app.
        by_app = {}
        for job in cold_pool():
            by_app.setdefault(job["workload"], []).append(job)
        for jobs in by_app.values():
            self.rng.shuffle(jobs)
        self.cold = [job for group in zip(*by_app.values()) for job in group]
        self.next_cold = 0
        self.cold_wraps = 0
        self.burst = burst
        self.block_size = len(self.warm) * WARM_ROUNDS + SINGLE_COLD + burst
        self.queue = deque()

    def _cold(self):
        if self.next_cold == len(self.cold):
            self.next_cold = 0
            self.cold_wraps += 1
        job = self.cold[self.next_cold]
        self.next_cold += 1
        return job

    def next(self):
        if not self.queue:
            units = [[("warm", job)] for job in self.warm * WARM_ROUNDS]
            units += [[("cold", None)] for _ in range(SINGLE_COLD)]
            units.append([("burst", None)] * self.burst)
            self.rng.shuffle(units)
            for unit in units:
                # Cold jobs are drawn in send order, so the rotation holds.
                cold = self._cold() if unit[0][0] != "warm" else None
                self.queue.extend((kind, job or cold) for kind, job in unit)
        return self.queue.popleft()


def closed_loop(daemon, source, count, spans=None):
    """Keeps WORKERS requests outstanding until `count` requests were sent,
    then drains. Returns one sample per request and the elapsed seconds."""
    inflight = {}
    samples = []
    sent = 0
    t0 = time.perf_counter()
    while True:
        while len(inflight) < WORKERS and sent < count:
            kind, job = source()
            sent += 1
            rid = "r%d" % sent
            req = {k: v for k, v in job.items() if k != "key"}
            req["id"] = rid
            inflight[rid] = (kind, job["key"], time.perf_counter())
            daemon.send(req)
        if not inflight:
            break
        resp = daemon.recv()
        t_end = time.perf_counter()
        kind, key, t_send = inflight.pop(resp["id"])
        samples.append({"kind": kind, "key": key, "latency_s": t_end - t_send, "resp": resp})
        if spans is not None:
            record_request_spans(spans, len(samples), t0, t_send, t_end, resp)
    return samples, time.perf_counter() - t0


def record_request_spans(spans, n_id, t0, t_send, t_end, resp):
    """Client span per request with the daemon's queue and sim phases as
    children (their durations come from the response)."""
    base = len(spans) + 1
    start = int((t_send - t0) * 1e9)
    end = int((t_end - t0) * 1e9)
    spans.append({"name": "service.request", "id": base, "parent": 0, "job": n_id,
                  "start_ns": start, "end_ns": end})
    q_end = start + int(resp.get("queue_seconds", 0) * 1e9)
    spans.append({"name": "service.queue", "id": base + 1, "parent": base, "job": n_id,
                  "start_ns": start, "end_ns": q_end})
    spans.append({"name": "service.sim", "id": base + 2, "parent": base, "job": n_id,
                  "start_ns": q_end, "end_ns": q_end + int(resp.get("sim_seconds", 0) * 1e9)})


def as_result(sample):
    r = sample["resp"]
    if not r.get("ok"):
        return {"key": sample["key"], "error": "%s: %s" % (r.get("error"), r.get("message"))}
    return {"key": sample["key"], "cycles": r.get("cycles"), "instructions": r.get("instructions")}


def warm_pass(daemon):
    jobs = iter(warm_jobs())
    samples, _ = closed_loop(daemon, lambda: ("warm", next(jobs)), len(WARM_SET))
    return samples


def start_daemon(exe):
    """Spawn, first pong, one warm-up pass of the warm set. Returns the
    daemon, set-up seconds, spawn-to-pong seconds and warm-up samples."""
    d = Daemon(exe)
    try:
        if d.call("ping").get("status") != "pong":
            raise BenchError("swiftsimd did not answer ping")
        t_pong = time.perf_counter()
        samples = warm_pass(d)
    except BaseException:
        d.close()
        raise
    t_ready = time.perf_counter()
    return d, t_ready - d.t_spawn, t_pong - d.t_spawn, samples


def daemon_window(exe, mix, spans=None):
    """One fresh daemon: set-up, then WINDOW_BLOCKS blocks of the request
    mix. Returns a dict of the window's measurements."""
    d, setup_s, start_s, checked = start_daemon(exe)
    try:
        samples, elapsed = closed_loop(d, mix.next, WINDOW_BLOCKS * mix.block_size,
                                       spans=spans)
        hwm_kb = d.vm_hwm_kb()
    finally:
        d.close()
    ok = [s for s in samples if s["resp"].get("ok")]
    return {"setup_s": setup_s, "start_s": start_s, "checked": checked, "samples": samples,
            "ok": ok, "elapsed": elapsed, "hwm_kb": hwm_kb}


def daemon_run(exe, seed, seconds, expected):
    mix = RequestMix(seed, WORKERS)
    windows = []
    deadline = time.perf_counter() + seconds
    while len(windows) < MIN_WINDOWS or time.perf_counter() < deadline:
        windows.append(daemon_window(exe, mix))
    checked = [s for w in windows for s in w["checked"] + w["samples"]]
    exp = expected["daemon"]
    attempted, failed, reasons = benchlib.count_failures([as_result(s) for s in checked], exp)
    samples = [s for w in windows for s in w["samples"]]
    ok = [s for w in windows for s in w["ok"]]
    warm = {s["key"]: s["resp"]["cycles"] for s in ok if s["kind"] == "warm"}
    oracle = {k: exp[k.replace(":memory:", ":silicon:")]["cycles"] for k in warm}
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in windows),
        "sim_ips": statistics.median(
            sum(s["resp"]["instructions"] for s in w["ok"]) / w["elapsed"] for w in windows),
        "jobs_per_s": statistics.median(len(w["ok"]) / w["elapsed"] for w in windows),
        "peak_rss_mb": statistics.median(w["hwm_kb"] for w in windows) / 1024.0,
        "cycle_err_pct": benchlib.cycle_error_pct(warm, oracle),
    }
    latencies = [s["latency_s"] * 1e3 for s in ok]
    metrics.update(latency_metrics(latencies))
    n_warm = sum(1 for s in samples if s["kind"] == "warm")
    notes = {"windows": len(windows), "latency": latency_note(latencies),
             "warm_share": Ratio(n_warm, len(samples)),
             "cold_pool_wraps": mix.cold_wraps,
             "memo_inexact": benchlib.memo_inexact([s["key"] for s in ok], exp)}
    for kind in ("warm", "cold", "burst"):
        lat = sorted(s["latency_s"] * 1e3 for s in ok if s["kind"] == kind)
        if lat:
            notes["latency_ms." + kind] = "p10 %.3g  p50 %.3g  p90 %.3g  (n=%d)" % tuple(
                [benchlib.percentile(lat, p) for p in (10, 50, 90)] + [len(lat)])
    if mix.cold_wraps:
        notes["warning"] = "cold pool exhausted: widen COLD_POOL_SIZE"
    return metrics, attempted, failed, reasons, notes


# --- Traced run --------------------------------------------------------------

def sum_where(items, field, pred):
    return sum(x[field] for x in items if pred(x))


def span_seconds(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def probe_layers(exe, seed, expected):
    """Per-layer metrics of the three in-process workloads from one traced
    probe run of simbench_driver."""
    recs = run_driver(exe, ["--mode", "probe"] + seeds_arg(seed))
    exp = in_process_expected(expected)
    attempted, failed, reasons = benchlib.count_failures(job_results(recs), exp)
    spans = records_of(recs, "span")
    jobs = records_of(recs, "job")
    passes = {(p["workload"], p["pass"]): p for p in records_of(recs, "pass")}
    run_span = {s["job"]: span_seconds(s) for s in spans
                if s["name"] in ("sim.Run", "parallel.RunParallelDetailed")}
    ctor_span = {s["job"]: span_seconds(s) for s in spans if s["name"] == "analytical.Simulator"}

    def measured(workload):
        return [j for j in jobs if j["workload"] == workload and j["pass"] == 0]

    serial, parallel, hybrid = (measured(w) for w in IN_PROCESS)
    apps = records_of(recs, "app")
    m, r = {}, {}
    m["workloads.build_s"] = sum(span_seconds(s) for s in spans if s["name"] in
                                 ("workloads.BuildWorkload", "workloads.RepeatLaunches"))
    r["trace.bytes_per_instr"] = Ratio(sum(a["trace_bytes"] for a in apps),
                                       sum(a["instructions"] for a in apps))
    m["trace.fingerprint_ms"] = 1e3 * statistics.median(
        span_seconds(s) for s in spans if s["name"] == "trace.FingerprintApplication")
    m["analytical.prepass_s"] = sum(ctor_span[j["job"]] for j in hybrid)
    caches = records_of(recs, "caches")[0]
    memo_on = [j for j in jobs if j["level"] == "memory" and j["memo"] and "error" not in j]
    lookups = sum(j["profile_hits"] + j["profile_misses"] for j in memo_on)
    r["analytical.profile_hit_ratio"] = Ratio(sum(j["profile_hits"] for j in memo_on), lookups)
    for level, group in (("detailed", serial), ("basic", serial), ("memory", hybrid)):
        js = [j for j in group if j["level"] == level]
        ns = 1e9 * sum(run_span[j["job"]] for j in js)
        cyc = sum(j["cycles"] for j in js)
        r["sim.ns_per_cycle." + level] = Ratio(ns, cyc)
        r["sim.ns_per_instr." + level] = Ratio(ns, sum(j["instructions"] for j in js))
        # Only the detailed level skips idle cycles; the others never do.
        if level == "detailed":
            r["sim.skip_ratio." + level] = Ratio(sum(j["cycles_skipped"] for j in js), cyc)
    for j in serial + hybrid:
        m["sim.wall_s.%s.%s" % (j["app"], j["level"])] = run_span[j["job"]]
    for app in sorted({j["app"] for j in serial}):
        r["parallel.speedup_vs_serial." + app] = Ratio(
            sum_where(serial, "seconds", lambda j: j["app"] == app),
            sum_where(parallel, "seconds", lambda j: j["app"] == app))
    ps, pp = passes[("detailed_serial", 0)], passes[("detailed_parallel", 0)]
    r["parallel.cpu_util"] = Ratio(pp["cpu_seconds"], pp["seconds"] * WORKERS)
    r["parallel.wasted_cpu_share"] = Ratio(pp["cpu_seconds"] - ps["cpu_seconds"],
                                           pp["cpu_seconds"])
    rounds = sum(j["tg_rounds"] for j in parallel)
    r["parallel.rounds_per_cycle"] = Ratio(rounds, sum(j["cycles"] for j in parallel))
    r["parallel.steals_per_round"] = Ratio(sum(j["tg_steals"] for j in parallel), rounds)
    hits = sum(j["memo_hits"] for j in hybrid)
    r["memo.hit_ratio"] = Ratio(hits, hits + sum(j["memo_misses"] for j in hybrid))
    for j in jobs:
        if j["workload"] in ("memo.cold", "memo.warm"):
            m["%s_s.%s" % (j["workload"], j["app"])] = j["seconds"]
    r["memo.miss_overhead_ratio"] = Ratio(
        sum_where(jobs, "seconds", lambda j: j["workload"] == "memo.on"),
        sum_where(jobs, "seconds", lambda j: j["workload"] == "memo.off"))
    m["memo.bytes"] = caches["memo_bytes"]
    return m, r, spans, attempted, failed, reasons


def probe_daemon(exe, seed, expected):
    """Per-layer metrics of the service from one traced daemon window."""
    spans = []
    w = daemon_window(exe, RequestMix(seed, WORKERS), spans=spans)
    attempted, failed, reasons = benchlib.count_failures(
        [as_result(s) for s in w["checked"] + w["samples"]], expected["daemon"])
    ok = w["ok"]
    queue_ms = [s["resp"]["queue_seconds"] * 1e3 for s in ok]
    solo = [s for s in ok if not s["resp"].get("coalesced")]
    burst = [s for s in w["samples"] if s["kind"] == "burst"]
    m, r = {}, {}
    m["service.start_s"] = w["start_s"]
    m["service.queue_ms.p50"] = benchlib.percentile(queue_ms, 50.0)
    m["service.queue_ms.p90"] = benchlib.percentile(queue_ms, 90.0)
    m["service.sim_ms.p50"] = benchlib.percentile(
        [s["resp"]["sim_seconds"] * 1e3 for s in solo], 50.0)
    m["service.overhead_ms.p50"] = benchlib.percentile(
        [(s["latency_s"] - s["resp"]["queue_seconds"] - s["resp"]["sim_seconds"]) * 1e3
         for s in solo], 50.0)
    r["service.coalesced_ratio"] = Ratio(
        sum(1 for s in burst if s["resp"].get("coalesced")), len(burst))
    return m, r, spans, attempted, failed, reasons


def tracing_overhead(exe, daemon_exe, workload, seed, expected):
    """Traced over untraced cost of the selected workload, as a ratio of
    medians, with the number of measurements behind each side."""
    if workload == "daemon_mixed":
        # Alternating windows of the same warm requests in the same order,
        # so both sides see one request mix.
        d, _, _, checked = start_daemon(daemon_exe)
        untraced, traced = [], []
        try:
            for i in range(6):
                jobs = iter(warm_jobs() * 10)
                spans = [] if i % 2 else None
                samples, _ = closed_loop(d, lambda: ("warm", next(jobs)),
                                         len(WARM_SET) * 10, spans=spans)
                checked += samples
                (traced if spans is not None else untraced).append(
                    sum(s["latency_s"] for s in samples))
        finally:
            d.close()
        attempted, failed, reasons = benchlib.count_failures(
            [as_result(s) for s in checked], expected["daemon"])
    else:
        recs = run_driver(exe, ["--mode", "overhead", "--workload", workload]
                          + seeds_arg(seed))
        attempted, failed, reasons = benchlib.count_failures(
            job_results(recs), in_process_expected(expected))
        passes = [p for p in records_of(recs, "pass") if p["pass"] >= 0]
        untraced = [p["seconds"] for p in passes if not p["traced"]]
        traced = [p["seconds"] for p in passes if p["traced"]]
    ratio = Ratio(statistics.median(traced), statistics.median(untraced))
    return ratio, (len(traced), len(untraced)), attempted, failed, reasons


def traced_run(exe, daemon_exe, workload, seed, expected):
    m1, r1, spans1, a1, f1, why1 = probe_layers(exe, seed, expected)
    m2, r2, spans2, a2, f2, why2 = probe_daemon(daemon_exe, seed, expected)
    overhead, counts, a3, f3, why3 = tracing_overhead(exe, daemon_exe, workload, seed, expected)
    metrics = dict(m1, **m2)
    ratios = dict(r1, **r2)
    ratios["tracing.overhead_ratio"] = overhead
    print("tracing overhead of %s: %+.3f%% (medians of %d traced vs %d untraced)"
          % (workload, 100.0 * (overhead.value - 1.0), counts[0], counts[1]))
    print("self time by span (in-process probe):")
    print_self_times(spans1)
    print("self time by span (daemon client):")
    print_self_times(spans2)
    return metrics, ratios, a1 + a2 + a3, f1 + f2 + f3, why1 + why2 + why3


def print_self_times(spans):
    for name, row in sorted(benchlib.self_time_by_name(spans).items()):
        print("  %-34s n=%-5d total %10.6f s  self %10.6f s"
              % (name, row["count"], row["total_s"], row["self_s"]))


# --- Main --------------------------------------------------------------------

UNITS = {
    "setup_s": "s", "sim_ips": "instr/s", "jobs_per_s": "1/s", "req_p50_ms": "ms",
    "req_p90_ms": "ms", "peak_rss_mb": "MiB", "cycle_err_pct": "%",
}


def layer_unit(name):
    if name.endswith("_ms") or ".queue_ms." in name or ".sim_ms." in name \
            or ".overhead_ms." in name:
        return "ms"
    if name.endswith("_s") or name.startswith(("sim.wall_s.", "memo.cold_s.", "memo.warm_s.")):
        return "s"
    if name.startswith("sim.ns_per_"):
        return "ns"
    if name == "memo.bytes":
        return "B"
    if name == "trace.bytes_per_instr":
        return "B/instr"
    return "ratio"


def main(argv):
    opts = parse_args(argv)
    if opts["regen"]:
        regen()
        return 0
    workload, seed, seconds, trace = (opts[k] for k in ("workload", "seed", "seconds", "trace"))
    expected = load_expected()
    exe, daemon_exe = build()
    driver_host = run_host(exe)
    host = host_stamp(driver_host, seed)
    print("host " + json.dumps(host, sort_keys=True))
    ratios = {}
    notes = {}
    if trace:
        metrics, ratios, attempted, failed, reasons = traced_run(
            exe, daemon_exe, workload, seed, expected)
        metrics.update({k: v.value for k, v in ratios.items()})
        units = {k: layer_unit(k) for k in metrics}
    else:
        if workload == "daemon_mixed":
            metrics, attempted, failed, reasons, notes = daemon_run(
                daemon_exe, seed, seconds, expected)
        else:
            metrics, attempted, failed, reasons, notes = in_process_run(
                exe, workload, seed, seconds, expected)
        units = UNITS
    for why in reasons[:20]:
        print("FAILED " + why)
    print("fail_ratio %s" % Ratio(failed, attempted))
    for k, v in sorted(notes.items()):
        print("%s %s" % (k, v))
    for line in benchlib.metric_lines(metrics, units, ratios):
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    write_record(workload, seed, trace, host, result, ratios, notes, reasons)
    print(json.dumps(result))
    return 0


def run_host(exe):
    return records_of(run_driver(exe, ["--mode", "host"]), "host")[0]


def write_record(workload, seed, trace, host, result, ratios, notes, reasons):
    path = os.path.join(build_dir(), "records",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    record = {"workload": workload, "host": host, "result": result,
              "ratios": {k: {"num": v.num, "den": v.den} for k, v in ratios.items()},
              "notes": {k: str(v) for k, v in notes.items()}, "failures": reasons}
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        sys.stderr.write("run.py: %s\n" % e)
        sys.exit(1)
