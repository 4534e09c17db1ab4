#!/usr/bin/env python3
"""Open-loop benchmark of a real three-process crsm_node cluster.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a Clock-RSM source tree. The first run builds
crsm_node, perfbench_loadgen and perfbench_probes (Release) under
.bench_build/. Each run boots three crsm_node processes on loopback and
drives them from one seeded open-loop Poisson generator (perfbench_loadgen:
one connection per replica, many logical clients per connection, clients at
all three replicas). Latency is timed from each request's intended send
time. Workloads, node flags, nominal rates, capacity-search starts and
latency limits are in perfbench/workloads.json; BENCHMARK.json lists the
metrics.

--trace 0 reports the end-to-end metrics, with the nodes' stage tracer off.
--trace 1 reports the per-layer metrics: it repeats the nominal window on a
traced cluster (--trace-sample, /metrics scraped before and after the
window), reads /proc for every node, and runs perfbench_probes at the
batch depth and appends per sync the cluster showed.

Every run checks the cluster's outputs (see measure.check_history and
Cluster.drain_check). Human-readable lines go first; the last line of
stdout is the JSON result. A nominal window in which the generator fell
behind its schedule by more than GEN_LATE_BOUND_MS at p99 measured the
generator, not the cluster; it is discarded and measured again. A capacity
rung in which it did so does not pass (measure.rung_verdict). Exits
non-zero, printing no result, when the sources are missing, a process
fails, or every window of the run was discarded.
"""

import argparse
import gc
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import measure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RUN_DIR = BUILD / "run"

SETUP_BOOTS = 5          # boots up to the nominal window's cluster; all are timed
WARMUP_S = 1.0           # at the nominal rate, before the measured window
WINDOW_SHARE = 0.5       # of --seconds at the nominal rate; the rest is ladder
RUNGS = 5                # rungs of the capacity search, each on a fresh cluster
LADDER_FACTOR = 1.25     # the search climbs by this factor until a rung fails
TRACE_SAMPLE = 16        # --trace-sample of the traced cluster
GEN_LATE_BOUND_MS = 5.0  # p99 generator lateness above this invalidates a window or rung
WINDOW_ATTEMPTS = 5      # windows measured before a run is declared invalid
CLK_TCK = os.sysconf("SC_CLK_TCK")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build ---------------------------------------------------------------------

def build():
    """Configures (once) and builds the three binaries; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no Clock-RSM sources next to perfbench/ (%s)" % ROOT)
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target",
                    "crsm_node", "perfbench_loadgen", "perfbench_probes"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return {"node": CMAKE_DIR / "tools" / "crsm_node",
            "loadgen": CMAKE_DIR / "perfbench_loadgen",
            "probes": CMAKE_DIR / "perfbench_probes"}


def build_type():
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


# --- host ----------------------------------------------------------------------

def filesystem_of(path):
    """(fstype, device) of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best = ("", "?", "?")
    for line in Path("/proc/mounts").read_text().splitlines():
        dev, mnt, fstype = line.split()[:3]
        if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best[0]):
            best = (mnt, fstype, dev)
    return best[1], best[2]


def host_block(seed, io_backends):
    model = "?"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    btype = build_type()
    fstype, dev = filesystem_of(RUN_DIR)
    return {"cores": len(os.sched_getaffinity(0)), "kernel": os.uname().release,
            "cpu_model": model, "build_type": btype,
            "build_is_release": btype == "Release",
            "wal_filesystem": "%s on %s" % (fstype, dev),
            "io_backends": io_backends, "seed": seed}


# --- processes -----------------------------------------------------------------

def free_ports(n):
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def read_line(proc, timeout):
    """One line of proc's stdout, or BenchError after timeout seconds."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise BenchError("no answer from the load generator in %.0fs" % timeout)
        line = proc.stdout.readline()
    finally:
        sel.close()
    if not line:
        raise BenchError("load generator exited (code %s)" % proc.poll())
    return line.strip()


def stop_process(proc, sig=signal.SIGTERM, timeout=10):
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Cluster:
    """Three crsm_node processes plus the load generator attached to them."""

    def __init__(self, bins, wl, seed, tag, trace_sample):
        self.bins, self.wl, self.seed, self.tag = bins, wl, seed, tag
        self.trace_sample = trace_sample
        self.nodes, self.loadgen = [], None
        self.spans = measure.Spans()  # every op this cluster was sent, until finish()
        self.attempted = self.n_failed = 0
        self.wire_violations = []
        self.setup_s = None

    def boot(self):
        ports = free_ports(6)
        peers = ",".join("127.0.0.1:%d" % p for p in ports[:3])
        self.metrics_ports = ports[3:]
        # The generator starts first and says so; set-up is timed from then
        # to its `ready`, so its own exec is not in it and only the nodes'
        # start-up and first commit are.
        self.loadgen = subprocess.Popen(
            [str(self.bins["loadgen"]), "--servers", peers, "--seed", str(self.seed),
             "--read-fraction", str(self.wl["read_fraction"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=RUN_DIR)
        line = read_line(self.loadgen, 30)
        if line != "start":
            raise BenchError("unexpected load generator line: " + line)
        t_launch = time.monotonic_ns()
        # Lower ids dial higher ones: launching the highest id first lets
        # each dial find its listener up, so set-up time measures start-up
        # and the first commit rather than how often a dial lost the race
        # and sat out the connector's first back-off.
        for i in reversed(range(3)):
            wal = RUN_DIR / ("wal-%s-%d" % (self.tag, i))
            flags = [f.replace("{wal}", str(wal)) for f in self.wl["node_flags"]]
            err = open(RUN_DIR / ("node-%s-%d.log" % (self.tag, i)), "wb")
            self.nodes.insert(0, subprocess.Popen(
                [str(self.bins["node"]), "--id", str(i), "--peers", peers,
                 "--stats-every", "0", "--metrics-port", str(self.metrics_ports[i]),
                 "--trace-sample", str(self.trace_sample)] + flags,
                stdout=subprocess.DEVNULL, stderr=err, cwd=RUN_DIR))
            err.close()
        line = read_line(self.loadgen, 30)
        if not line.startswith("ready "):
            raise BenchError("unexpected load generator line: " + line)
        self.setup_s = (int(line.split()[1]) - t_launch) / 1e9

    def phase(self, index, rate, seconds):
        path = RUN_DIR / ("%s-phase%d.spans" % (self.tag, index))
        self.loadgen.stdin.write("phase %d %r %r %s\n" % (index, float(rate), float(seconds), path))
        self.loadgen.stdin.flush()
        line = read_line(self.loadgen, seconds + 60)
        if not line.startswith("done %d " % index):
            raise BenchError("unexpected load generator line: " + line)
        info = json.loads(line.split(" ", 2)[2])
        if info["unmatched"] or info["duplicates"]:
            self.wire_violations.append(
                "phase %d: %d replies matched no op, %d ops answered twice"
                % (index, info["unmatched"], info["duplicates"]))
        spans = measure.parse_spans(path.read_bytes())
        path.unlink()
        self.spans.extend(spans)
        self.attempted += len(spans)
        self.n_failed += measure.count_failed(spans)
        return info, spans

    def scrape(self):
        out = []
        for p in self.metrics_ports:
            with urllib.request.urlopen("http://127.0.0.1:%d/metrics" % p, timeout=5) as r:
                out.append(measure.parse_prometheus(r.read().decode()))
        return out

    def proc(self):
        """Cumulative per-node counters from /proc (all threads)."""
        out = []
        for n in self.nodes:
            base = Path("/proc/%d" % n.pid)
            snap = measure.parse_proc_stat((base / "stat").read_text())
            snap.update(measure.parse_proc_status((base / "status").read_text()))
            snap.update(measure.parse_proc_io((base / "io").read_text()))
            cs = 0
            for task in (base / "task").iterdir():
                try:
                    st = measure.parse_proc_status((task / "status").read_text())
                except FileNotFoundError:
                    continue
                cs += st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"]
            snap["ctx_switches"] = cs
            out.append(snap)
        return out

    def io_backends(self):
        out = []
        for i in range(3):
            text = (RUN_DIR / ("node-%s-%d.log" % (self.tag, i))).read_text(errors="replace")
            backend = "?"
            for line in text.splitlines():
                if "| io " in line:
                    backend = line.split("| io ", 1)[1].split("|")[0].strip()
            out.append(backend)
        return out

    def drain_check(self):
        """After the last reply: every replica commits the same number of
        entries, and executes exactly the acknowledged puts."""
        puts = [st for op, st in zip(self.spans.op, self.spans.status) if op == measure.OP_PUT]
        acked = puts.count(measure.ST_OK)
        unknown = len(puts) - acked
        acked += 3  # the set-up probe's put at each replica
        deadline = time.monotonic() + 10
        while True:
            scrapes = self.scrape()
            committed = [s["values"].get("crsm_proto_committed_total", -1) for s in scrapes]
            executed = [s["values"].get("crsm_executed_total", -1) for s in scrapes]
            agree = len(set(committed)) == 1
            exact = all(acked <= e <= acked + unknown for e in executed)
            if (agree and exact) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        violations = []
        if not agree:
            violations.append("replicas disagree on crsm_proto_committed_total: %s" % committed)
        if not exact:
            violations.append("crsm_executed_total %s != %d acknowledged puts" % (executed, acked))
        return violations

    def peak_rss_mb(self):
        return sum(s["VmHWM"] for s in self.proc()) / 1024.0

    def stop(self):
        if self.loadgen and self.loadgen.poll() is None:
            try:
                self.loadgen.stdin.write("quit\n")
                self.loadgen.stdin.flush()
            except BrokenPipeError:
                pass
            try:
                self.loadgen.wait(10)
            except subprocess.TimeoutExpired:
                stop_process(self.loadgen, signal.SIGKILL)
        for n in self.nodes:
            if n.poll() is None:
                n.send_signal(signal.SIGTERM)
        for n in self.nodes:
            stop_process(n)
        bad = [n.returncode for n in self.nodes if n.returncode not in (0, -signal.SIGTERM)]
        if bad:
            raise BenchError("crsm_node exited with %s" % bad)


# --- one run -------------------------------------------------------------------

def window_metrics(info, spans):
    """Latency and generator figures of one measured window."""
    writes = measure.op_latencies_ms(spans, measure.OP_PUT)
    reads = measure.op_latencies_ms(spans, measure.OP_GET)
    late = measure.lateness_ms(spans)
    return {"writes": writes, "reads": reads,
            "completed": len(spans) - measure.count_failed(spans),
            "gen_late_p99_ms": measure.percentile(late, 99) if late else 0.0,
            "gen_cpu_us": info["gen_cpu_us"]}


def cpu_us(before, after):
    return sum((a["utime"] + a["stime"] - b["utime"] - b["stime"]) * 1e6 / CLK_TCK
               for b, a in zip(before, after))


def nominal_window(bins, wl, seed, tag, trace_sample, seconds, clusters, scrape=False):
    """Boots a cluster, warms it up and measures the window at the nominal
    rate, bracketed by /proc readings (and /metrics scrapes when asked). A
    window in which the generator ran more than GEN_LATE_BOUND_MS behind
    schedule at p99 measured the generator, not the cluster: it is discarded
    and measured again on a fresh cluster, so that every window reported
    follows the same history (its RSS and log size too), at most
    WINDOW_ATTEMPTS times in all. Returns the window, its spans, its cluster
    (still running) and the output-check violations of the discarded ones."""
    discarded, violations = [], []
    for attempt in range(WINDOW_ATTEMPTS):
        c = Cluster(bins, wl, seed, "%s%d" % (tag, attempt), trace_sample)
        clusters.append(c)
        c.boot()
        c.phase(0, wl["rate"], WARMUP_S)
        m0 = c.scrape() if scrape else None
        p0 = c.proc()
        info, spans = c.phase(1, wl["rate"], seconds)
        p1 = c.proc()
        m1 = c.scrape() if scrape else None
        win = window_metrics(info, spans)
        if win["gen_late_p99_ms"] <= GEN_LATE_BOUND_MS:
            break
        discarded.append(win["gen_late_p99_ms"])
        log("window discarded: the generator ran %.3f ms behind schedule at p99 "
            "(bound %.1f ms)" % (win["gen_late_p99_ms"], GEN_LATE_BOUND_MS))
        violations += finish(c)[0]
        c.stop()
    else:
        raise BenchError("INVALID: the generator ran behind schedule in every "
                         "window (p99 %s ms); not reporting" % discarded)
    win["discarded_windows_late_p99_ms"] = discarded
    win["node_cpu_us"] = cpu_us(p0, p1)
    win["proc"] = (p0, p1)
    win["scrapes"] = (m0, m1)
    win["t0_ns"] = info["t0_ns"]
    return win, spans, c, violations


def finish(cluster):
    """Output-check violations over the cluster's whole history, and the
    nodes' peak RSS. Drops the cluster's spans, which a capacity rung has
    hundreds of thousands of."""
    violations = (cluster.wire_violations + measure.check_history(cluster.spans)
                  + cluster.drain_check())
    cluster.spans = measure.Spans()
    return violations, cluster.peak_rss_mb()


def stop_all(clusters):
    for c in clusters:
        try:
            c.stop()
        except BenchError:
            pass


def rung(bins, wl, seed, index, rate, seconds, clusters):
    """One fixed-rate rung of the capacity search, on a fresh cluster so that
    no rung inherits another's backlog or log size. Returns its verdict
    (measure.rung_verdict, plus the nodes' CPU per completed op and the
    generator's CPU share) and the output-check violations."""
    c = Cluster(bins, wl, seed, "rung%d" % index, 0)
    clusters.append(c)
    c.boot()
    p0 = c.proc()
    info, spans = c.phase(10 + index, rate, seconds)
    p1 = c.proc()
    verdict = measure.rung_verdict(spans, rate, wl["p99_limit_ms"], info["t0_ns"],
                                   info["t0_ns"] + seconds * 1e9, GEN_LATE_BOUND_MS)
    node_cpu = cpu_us(p0, p1)
    verdict["node_cpu_us_per_op"] = node_cpu / max(1, len(spans) - verdict["failed"])
    verdict["gen_cpu_share"] = info["gen_cpu_us"] / max(1.0, info["gen_cpu_us"] + node_cpu)
    violations = finish(c)[0]
    c.stop()
    return verdict, violations


def e2e_run(bins, wl, seed, seconds):
    """Set-up timed on SETUP_BOOTS boots; warm-up and the measured window at
    the nominal rate on the last of them; then RUNGS rungs of a capacity
    search from the workload's ladder_start (measure.next_rate). Every
    cluster's set-up time counts. The window and the rungs share
    --seconds."""
    window_s = round(seconds * WINDOW_SHARE, 3)
    rung_s = round((seconds - window_s) / RUNGS, 3)
    clusters, violations = [], []
    try:
        for b in range(SETUP_BOOTS - 1):
            c = Cluster(bins, wl, seed, "boot%d" % b, 0)
            clusters.append(c)
            c.boot()
            c.stop()
        win, spans, c, violations = nominal_window(bins, wl, seed, "window", 0,
                                                   window_s, clusters)
        io = c.io_backends()
        v, rss = finish(c)
        violations += v
        c.stop()
        nominal = measure.rung_verdict(spans, wl["rate"], wl["p99_limit_ms"], win["t0_ns"],
                                       win["t0_ns"] + window_s * 1e9, GEN_LATE_BOUND_MS)
        passed = failed = None
        verdicts = []
        for i in range(RUNGS):
            rate = measure.next_rate(wl["ladder_start"], LADDER_FACTOR, passed, failed)
            verdict, v = rung(bins, wl, seed, i, rate, rung_s, clusters)
            verdicts.append(verdict)
            violations += v
            if verdict["ok"]:
                passed = rate
            else:
                failed = rate
    finally:
        stop_all(clusters)
    setups = [c.setup_s for c in clusters]
    metrics = {"setup_s": (statistics.median(setups), "n=%d boots" % len(setups))}
    lat = win["writes"] + win["reads"]
    metrics["latency_p50_ms"] = (measure.percentile(lat, 50), "n=%d" % len(lat))
    # Printed with the gated metrics but not gated: (value, unit, sample).
    ungated = {"latency_p90_ms": (measure.percentile(lat, 90), "ms", "n=%d" % len(lat)),
               "latency_p99_ms": (measure.percentile(lat, 99), "ms", "n=%d" % len(lat))}
    for kind in ("write", "read"):
        for p in (50, 90, 99):
            ungated["%s_p%d_ms" % (kind, p)] = (measure.percentile(win[kind + "s"], p), "ms",
                                               "n=%d" % len(win[kind + "s"]))
    bound = [v["generator_bound"] for v in verdicts if v["rate"] == failed]
    ungated["max_rate_ops_s"] = (passed or 0.0, "ops/s",
                                 "n=%d rungs, lowest failing rung %s ops/s%s"
                                 % (len(verdicts), "%.0f" % failed if failed else "none",
                                    " (generator-bound)" if any(bound) else ""))
    # CPU per op is gated on the first rung, at the workload's fixed
    # ladder_start, where the nodes' loops are busy. At the nominal rate they
    # idle between ops and each op pays a wake-up whose cost follows the
    # host's load: on a shared 4-vCPU VM read-mostly's nominal figure ranged
    # 1.5x over ten runs, the loaded one 1.03x over eight.
    first = verdicts[0]
    metrics["cpu_us_per_op"] = (first["node_cpu_us_per_op"], "n=%d ops at %.0f ops/s"
                                % (first["ops"] - first["failed"], first["rate"]))
    ungated["cpu_us_per_op_nominal"] = (win["node_cpu_us"] / max(1, win["completed"]), "us",
                                        "n=%d ops at %d ops/s" % (win["completed"], wl["rate"]))
    metrics["node_rss_mb"] = (rss, "n=3 nodes")
    attempted = sum(c.attempted for c in clusters)
    n_failed = sum(c.n_failed for c in clusters)
    ungated["failed_frac"] = (n_failed / max(1, attempted), "ratio", "n=%d ops" % attempted)
    extra = {"io": io, "nominal": nominal, "ladder": verdicts,
             "gen_late_p99_ms": win["gen_late_p99_ms"],
             "discarded_windows_late_p99_ms": win["discarded_windows_late_p99_ms"],
             "ungated": ungated, "window_s": window_s, "rung_s": rung_s}
    return metrics, violations, attempted, n_failed, extra


def per_op(x, ops):
    return x / ops if ops else 0.0


def layer_metrics(win, probes, untraced_cpu_us_per_op):
    """Per-layer figures of the traced window, normalised per completed op."""
    m0, m1 = win["scrapes"]
    p0, p1 = win["proc"]
    ops = win["completed"]

    def counter(name):
        return sum(measure.counter_delta(b, a, name) for b, a in zip(m0, m1))

    def hist(name):
        return measure.merge_hists(measure.hist_delta(b, a, name) for b, a in zip(m0, m1))

    def pct(name, p):
        r = measure.hist_percentile(hist(name), p)
        return r[0] if r else 0.0

    node_cpu = win["node_cpu_us"]
    syncs = counter("crsm_storage_syncs_total")
    flushes = counter("crsm_transport_wire_flushes_total")
    pass_us = hist("crsm_loop_pass_us")["sum"]
    # client-observed write latency minus the server's recv-to-reply time
    commit = measure.hist_percentile(hist("crsm_commit_total_us"), 50)
    writes_p50_us = measure.percentile(win["writes"], 50) * 1000 if win["writes"] else 0.0
    out = {
        "gen.late_p99_ms": win["gen_late_p99_ms"],
        "gen.cpu_share": win["gen_cpu_us"] / max(1.0, win["gen_cpu_us"] + node_cpu),
        "client.residual_us_p50": writes_p50_us - (commit[0] if commit else 0.0),
        "runtime.cmds_per_prepare": per_op(counter("crsm_batch_cmds_total"),
                                           counter("crsm_batch_submissions_total")),
        "runtime.stage_queue_us_p50": pct("crsm_stage_queue_us", 50),
        "runtime.stage_execute_us_p50": pct("crsm_stage_execute_us", 50),
        "runtime.stage_reply_us_p50": pct("crsm_stage_reply_us", 50),
        "storage.syncs_per_op": per_op(syncs, ops),
        "storage.appends_per_sync": per_op(counter("crsm_storage_appends_total"), syncs),
        "storage.fsync_us_p50": pct("crsm_loop_fsync_us", 50),
        "storage.fsync_us_p99": pct("crsm_loop_fsync_us", 99),
        "storage.stage_wal_us_p50": pct("crsm_stage_wal_us", 50),
        "storage.probe_sync_us": probes["storage.probe_sync_us"],
        "clockrsm.stage_ack_us_p50": pct("crsm_stage_ack_us", 50),
        "clockrsm.stage_stability_us_p50": pct("crsm_stage_stability_us", 50),
        "clockrsm.stage_stability_us_p99": pct("crsm_stage_stability_us", 99),
        "clockrsm.clock_waits_per_op": per_op(counter("crsm_proto_clock_waits_total"), ops),
        "clockrsm.clocktimes_per_op": per_op(counter("crsm_proto_clocktimes_sent_total"), ops),
        "clockrsm.read_wait_us_p50": pct("crsm_read_wait_us", 50),
        "clockrsm.read_wait_us_p99": pct("crsm_read_wait_us", 99),
        "clockrsm.probe_ns_per_cmd": probes["clockrsm.probe_ns_per_cmd"],
        "transport.msgs_per_op": per_op(counter("crsm_transport_messages_sent_total"), ops),
        "transport.bytes_per_op": per_op(counter("crsm_transport_bytes_sent_total"), ops),
        "transport.encodes_per_op": per_op(counter("crsm_transport_encode_calls_total"), ops),
        "transport.flushes_per_op": per_op(flushes, ops),
        "transport.frames_per_flush": per_op(counter("crsm_transport_frames_flushed_total"), flushes),
        "net.passes_per_op": per_op(counter("crsm_loop_passes_total"), ops),
        "net.busy_us_per_op": per_op(hist("crsm_loop_busy_us")["sum"], ops),
        "net.io_dispatch_us_per_op": per_op(hist("crsm_loop_io_dispatch_us")["sum"], ops),
        "net.protocol_us_per_op": per_op(hist("crsm_loop_protocol_us")["sum"], ops),
        "net.wire_flush_us_per_op": per_op(hist("crsm_loop_wire_flush_us")["sum"], ops),
        "net.poll_wait_share": per_op(hist("crsm_loop_poll_wait_us")["sum"], pass_us),
        "node.user_us_per_op": per_op(sum((a["utime"] - b["utime"]) * 1e6 / CLK_TCK
                                          for b, a in zip(p0, p1)), ops),
        "node.sys_us_per_op": per_op(sum((a["stime"] - b["stime"]) * 1e6 / CLK_TCK
                                         for b, a in zip(p0, p1)), ops),
        "node.ctx_switches_per_op": per_op(sum(a["ctx_switches"] - b["ctx_switches"]
                                               for b, a in zip(p0, p1)), ops),
        "node.syscr_per_op": per_op(sum(a["syscr"] - b["syscr"] for b, a in zip(p0, p1)), ops),
        "node.syscw_per_op": per_op(sum(a["syscw"] - b["syscw"] for b, a in zip(p0, p1)), ops),
        "codec.encode_prepare_ns": probes["codec.encode_prepare_ns"],
        "codec.decode_prepare_ns": probes["codec.decode_prepare_ns"],
        "codec.split_batch_ns_per_member": probes["codec.split_batch_ns_per_member"],
        "kv.apply_put_ns": probes["kv.apply_put_ns"],
        "kv.apply_get_ns": probes["kv.apply_get_ns"],
        "obs.trace_overhead": per_op(per_op(node_cpu, ops), untraced_cpu_us_per_op),
    }
    # Do the server's stages account for its write time? Each traced write's
    # stage deltas telescope to its recv-to-reply time, so the stage
    # histograms' sums must add up to crsm_commit_total_us's sum: an exact
    # check (sums are exact; only the buckets are coarse). The client's p50
    # splits into the commit p50 and client.residual_us_p50 by definition;
    # the commit p50 is known only to within its power-of-two bucket, so
    # the residual is bounded by the bucket, not measured to better.
    stages = ["queue", "broadcast", "wal", "ack", "stability", "execute", "reply"]
    commit_h = hist("crsm_commit_total_us")
    stage_sum = sum(hist("crsm_stage_%s_us" % s)["sum"] for s in stages)
    gap = abs(stage_sum - commit_h["sum"]) / commit_h["sum"] if commit_h["sum"] else 0.0
    c_lo, c_hi = (commit[1], commit[2]) if commit else (0.0, 0.0)
    write_mean_us = statistics.fmean(win["writes"]) * 1000 if win["writes"] else 0.0
    accounting = {
        "stage_sum_us": stage_sum,
        "server_commit_sum_us": commit_h["sum"],
        "stage_sum_gap": gap,
        "stages_account_for_commit_time": gap <= 0.01,
        "stage_mean_us": {s: measure.hist_mean(hist("crsm_stage_%s_us" % s)) for s in stages},
        "write_mean_us": write_mean_us,
        "server_commit_mean_us": measure.hist_mean(commit_h),
        "client_residual_mean_us": write_mean_us - measure.hist_mean(commit_h),
        "write_p50_us": writes_p50_us,
        "server_commit_p50_us": commit,
        "client_residual_p50_bounds_us": [writes_p50_us - c_hi, writes_p50_us - c_lo],
    }
    return out, accounting


def run_probes(bins, depth, appends_per_sync, seed):
    out = subprocess.run(
        [str(bins["probes"]), "--depth", str(depth),
         "--seed", str(seed), "--wal-dir", str(RUN_DIR / "probe-wal"),
         "--appends-per-sync", str(appends_per_sync), "--spans", str(RUN_DIR / "probes.spans")],
        check=True, stdout=subprocess.PIPE, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced_run(bins, wl, seed, seconds):
    window_s = round(seconds * WINDOW_SHARE, 3)
    clusters = []
    try:
        pwin, _, plain, violations = nominal_window(bins, wl, seed, "plain", 0,
                                                    window_s, clusters)
        violations += finish(plain)[0]
        plain.stop()
        win, _, traced, v = nominal_window(bins, wl, seed, "traced", TRACE_SAMPLE,
                                           window_s, clusters, scrape=True)
        io = traced.io_backends()
        violations += v + finish(traced)[0]
        traced.stop()
    finally:
        stop_all(clusters)
    m0, m1 = win["scrapes"]
    cmds = sum(measure.counter_delta(b, a, "crsm_batch_cmds_total") for b, a in zip(m0, m1))
    subs = sum(measure.counter_delta(b, a, "crsm_batch_submissions_total") for b, a in zip(m0, m1))
    appends = sum(measure.counter_delta(b, a, "crsm_storage_appends_total") for b, a in zip(m0, m1))
    syncs = sum(measure.counter_delta(b, a, "crsm_storage_syncs_total") for b, a in zip(m0, m1))
    probes = run_probes(bins, max(1, round(per_op(cmds, subs))),
                        max(1, round(per_op(appends, syncs))), seed)
    untraced = per_op(pwin["node_cpu_us"], pwin["completed"])
    layers, accounting = layer_metrics(win, probes, untraced)
    attempted = sum(c.attempted for c in clusters)
    n_failed = sum(c.n_failed for c in clusters)
    metrics = {k: (v, "per op of %d" % win["completed"]) for k, v in layers.items()}
    extra = {"io": io, "accounting": accounting, "window_s": window_s,
             "untraced_cpu_us_per_op": untraced}
    return metrics, violations, attempted, n_failed, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so the clusters' finally blocks stop them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The run builds no reference cycles worth collecting; the collector's
    # passes over a rung's hundreds of thousands of span tuples would only
    # slow the output checks down.
    gc.disable()

    workloads = json.loads((HERE / "workloads.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in workloads:
        log("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
        return 2
    wl = workloads[args.workload]
    try:
        bins = build()
    except (BenchError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir(parents=True)
    try:
        run = traced_run if args.trace else e2e_run
        metrics, violations, attempted, n_failed, extra = run(bins, wl, args.seed, args.seconds)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(str(e))
        return 3
    host = host_block(args.seed, extra.pop("io"))
    if not host["build_is_release"]:
        log("WARNING: build type %r is not Release" % host["build_type"])
    print("perfbench: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(host, sort_keys=True))
    if set(metrics) != set(units):
        log("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(units)))
        return 3
    for name, (value, n) in metrics.items():
        print("  %-36s %14.4f %-6s %s" % (name, value, units[name], n))
    ungated = extra.pop("ungated", {})
    for name, (value, unit, n) in ungated.items():
        print("  %-36s %14.4f %-6s %s (reported, not gated)" % (name, value, unit, n))
    print("detail: " + json.dumps(extra, sort_keys=True, default=str))
    print("checks: %d violations%s; failed %d/%d ops"
          % (len(violations), "".join("\n  " + v for v in violations[:20]),
             n_failed, attempted))
    result = {"correct": not violations, "attempted": attempted, "failed": n_failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()}}
    (RUN_DIR / "result.json").write_text(json.dumps(
        {"host": host, "detail": extra, "violations": violations,
         "ungated": {k: v for k, (v, _, _) in ungated.items()}, **result}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
