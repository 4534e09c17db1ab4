"""Arithmetic of the cluster benchmark: spans, percentiles, backlog, output
checks, /metrics deltas and /proc parsing.

Everything here is a pure function of its arguments so that
perfbench/tests can pin it on known inputs. run.py does the I/O.
"""

import bisect
import itertools
import math
import re
import struct

# One record per op, written by perfbench_loadgen (struct Span in loadgen.cc):
# client, seq, intended/sent/reply ns, value id, key, op, status, conn, pad.
SPAN = struct.Struct("<QQqqqQIBBBB")
OP_PUT, OP_GET = 0, 1
ST_NO_REPLY, ST_OK, ST_REDIRECT, ST_BAD_REPLY = range(4)
EMPTY_VALUE = 0
FOREIGN_VALUE = (1 << 64) - 1


class Spans:
    """The spans of one or more phases, held column-wise (one list per
    field): a capacity rung has hundreds of thousands of them, and columns
    parse and scan several times faster than one object per op."""

    FIELDS = ("client", "seq", "intended", "sent", "reply", "value", "key",
              "op", "status", "conn")

    def __init__(self, **cols):
        for f in self.FIELDS:
            setattr(self, f, list(cols.get(f, ())))

    @classmethod
    def from_records(cls, records):
        """From (client, seq, intended, sent, reply, value, key, op, status,
        conn) tuples."""
        return cls(**dict(zip(cls.FIELDS, zip(*records)))) if records else cls()

    def rows(self):
        """The spans as tuples in FIELDS order."""
        return zip(*(getattr(self, f) for f in self.FIELDS))

    def extend(self, other):
        for f in self.FIELDS:
            getattr(self, f).extend(getattr(other, f))

    def __len__(self):
        return len(self.intended)


def parse_spans(data):
    """Decodes a loadgen spans file (bytes, little-endian like the x86-64
    hosts the benchmark runs on). The record is 56 bytes, seven 8-byte
    words, so every field is a strided view of the file."""
    if len(data) % SPAN.size:
        raise ValueError("spans file is not a whole number of records")
    mv = memoryview(data)
    i64, u64, u32, u8 = mv.cast("q"), mv.cast("Q"), mv.cast("I"), mv.cast("B")
    return Spans(client=u64[0::7].tolist(), seq=u64[1::7].tolist(),
                 intended=i64[2::7].tolist(), sent=i64[3::7].tolist(),
                 reply=i64[4::7].tolist(), value=u64[5::7].tolist(),
                 key=u32[12::14].tolist(), op=u8[52::56].tolist(),
                 status=u8[53::56].tolist(), conn=u8[54::56].tolist())


def percentile(values, p):
    """The p-th percentile (0..100) of values, interpolating linearly
    between the two nearest ranks (the "linear" method of numpy and of
    Python's statistics.quantiles(method="inclusive"))."""
    if not values:
        raise ValueError("percentile of an empty sample")
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def op_latencies_ms(spans, op=None):
    """Latencies of the answered ops (optionally of one kind), from each
    op's intended send time: a generator or cluster stall is charged to
    every op it delays, not only to the first."""
    return [(r - i) / 1e6 for r, i, st, o in
            zip(spans.reply, spans.intended, spans.status, spans.op)
            if st == ST_OK and (op is None or o == op)]


def count_failed(spans):
    """Ops that got no reply, a redirect or a malformed reply."""
    return len(spans) - spans.status.count(ST_OK)


def lateness_ms(spans):
    """How far behind its schedule the generator sent each op."""
    return [(se - i) / 1e6 for i, se in zip(spans.intended, spans.sent) if se]


def outstanding_series(spans, t_start, t_end, samples=10):
    """Ops due but not yet answered, at `samples` evenly spaced instants in
    (t_start, t_end]: the depth of the queue the cluster is building."""
    due = sorted(spans.intended)
    done = sorted(r if r else math.inf for r in spans.reply)
    out = []
    for i in range(1, samples + 1):
        t = t_start + (t_end - t_start) * i / samples
        out.append((t, bisect.bisect_right(due, t) - bisect.bisect_right(done, t)))
    return out


def slope(points):
    """Least-squares slope of (x, y) points."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return 0.0 if sxx == 0 else sum((x - mx) * (y - my) for x, y in points) / sxx


def backlog_growing(series_ns, rate, limit_ms):
    """True when the queue grows, over the rung, by more ops than arrive
    within one latency limit. A queue that grew by that much makes its last
    arrivals wait longer than the limit: the rung is past capacity even if
    its p99 has not caught up yet."""
    duration_s = (series_ns[-1][0] - series_ns[0][0]) / 1e9
    per_s = slope([(t / 1e9, q) for t, q in series_ns])
    return per_s * duration_s > rate * limit_ms / 1000.0


def rung_verdict(spans, rate, limit_ms, t_start, t_end, late_bound_ms):
    """Evaluates one fixed-rate rung: p99 within the limit (failed ops count
    as missing it), no failed op and no growing backlog. A rung in which the
    generator ran more than late_bound_ms behind schedule at p99 measured
    the generator, not the cluster: it is generator_bound and does not pass,
    whatever the cluster did, so a capacity search claims only rates the
    generator delivered."""
    lat = [(r - i) / 1e6 if st == ST_OK else math.inf
           for r, i, st in zip(spans.reply, spans.intended, spans.status)]
    p99 = percentile(lat, 99) if lat else math.inf
    late = lateness_ms(spans)
    late_p99 = percentile(late, 99) if late else 0.0
    n_failed = count_failed(spans)
    growing = backlog_growing(outstanding_series(spans, t_start, t_end),
                              rate, limit_ms)
    generator_bound = late_p99 > late_bound_ms
    ok = (bool(lat) and p99 <= limit_ms and n_failed == 0 and not growing
          and not generator_bound)
    return {"rate": rate, "ops": len(spans), "p99_ms": p99,
            "failed": n_failed, "backlog_growing": growing,
            "gen_late_p99_ms": late_p99, "generator_bound": generator_bound,
            "ok": ok}


def next_rate(start, factor, passed, failed):
    """The rate of the next rung of a capacity search. `passed` is the
    highest rate whose rung passed so far and `failed` the lowest whose rung
    failed (None while there is none). The search climbs from `start` by
    `factor` until a rung fails (or descends until one passes), then bisects
    the bracket geometrically: every later rung lies strictly between
    `passed` and `failed` and halves the bracket's log-ratio, so once a rung
    has failed the search never ends on a top rung that passed."""
    if passed is None and failed is None:
        return start
    if failed is None:
        return passed * factor
    if passed is None:
        return failed / factor
    return math.sqrt(passed * failed)


def check_history(spans):
    """Checks the replies of one cluster's whole history (every phase sent
    to it). Returns a list of violation strings; empty means correct.

    Each put carries a unique value id. A get must return the value of a
    put to the same key that was invoked before the get completed, or
    empty only while no put to the key had completed before the get was
    invoked; and it must not return a value that a put completed before the
    get was invoked had already overwritten (a stale read)."""
    violations = []
    writes = {}  # value id -> (key, sent, reply, status) of its put
    by_key = {}  # key -> [(reply, sent)] of its acknowledged puts
    for client, seq, _, sent, reply, value, key, op, status, _ in spans.rows():
        if status in (ST_REDIRECT, ST_BAD_REPLY):
            violations.append("op client=%d seq=%d got a %s reply" % (
                client, seq, "redirect" if status == ST_REDIRECT else "malformed"))
        if op == OP_PUT:
            if value in writes:
                violations.append("value id %d put twice" % value)
            writes[value] = (key, sent, reply, status)
            if status == ST_OK:
                by_key.setdefault(key, []).append((reply, sent))
    # Per key: acknowledged puts sorted by ack time, with the latest invoke
    # time among the puts acknowledged so far.
    acked = {}
    for key, done in by_key.items():
        done.sort()
        latest_invoke = list(itertools.accumulate((inv for _, inv in done), max))
        acked[key] = ([a for a, _ in done], latest_invoke)
    for _, seq, _, sent, reply, value, key, op, status, _ in spans.rows():
        if op != OP_GET or status != ST_OK:
            continue
        acks, latest_invoke = acked.get(key, ((), ()))
        # Puts to this key acknowledged before the get was sent.
        n_before = bisect.bisect_left(acks, sent)
        if value == EMPTY_VALUE:
            if n_before:
                violations.append("get key=%d seq=%d read empty after a put "
                                  "completed" % (key, seq))
            continue
        w = writes.get(value)
        if w is None or value == FOREIGN_VALUE:
            violations.append("get key=%d seq=%d returned a value nobody "
                              "wrote" % (key, seq))
        elif w[0] != key:
            violations.append("get key=%d seq=%d returned key %d's value" % (
                key, seq, w[0]))
        elif w[1] > reply:
            violations.append("get key=%d seq=%d returned a put invoked after "
                              "the get completed" % (key, seq))
        elif w[3] == ST_OK and n_before and latest_invoke[n_before - 1] > w[2]:
            violations.append("get key=%d seq=%d returned a value overwritten "
                              "before the get began" % (key, seq))
    return violations


# --- /metrics (Prometheus text exposition) -----------------------------------

_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LE = re.compile(r'le="([^"]+)"')


def parse_prometheus(text):
    """Parses one scrape into {"values": {name: float},
    "hist": {name: {"buckets": [(le, cumulative)], "sum": s, "count": n}}}.
    Labels other than `le` are ignored (one group per node here)."""
    values, hist = {}, {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            continue
        name, labels, v = m.group(1), m.group(2) or "", float(m.group(3))
        if name.endswith("_bucket"):
            le = _LE.search(labels).group(1)
            h = hist.setdefault(name[:-7], {"buckets": [], "sum": 0.0, "count": 0.0})
            h["buckets"].append((math.inf if le == "+Inf" else float(le), v))
        elif name.endswith("_sum") and name[:-4] in hist:
            hist[name[:-4]]["sum"] = v
        elif name.endswith("_count") and name[:-6] in hist:
            hist[name[:-6]]["count"] = v
        else:
            values[name] = v
    return {"values": values, "hist": hist}


def counter_delta(before, after, name):
    return after["values"].get(name, 0.0) - before["values"].get(name, 0.0)


def hist_delta(before, after, name):
    """The histogram of the samples recorded between two scrapes: bucket,
    sum and count differences. A histogram absent from a scrape is empty."""
    empty = {"buckets": [], "sum": 0.0, "count": 0.0}
    b = before["hist"].get(name, empty)
    a = after["hist"].get(name, empty)
    prev = dict(b["buckets"])
    return {"buckets": [(le, cum - prev.get(le, 0.0)) for le, cum in a["buckets"]],
            "sum": a["sum"] - b["sum"], "count": a["count"] - b["count"]}


def merge_hists(hists):
    """Adds histograms with the same bucket boundaries (one per node)."""
    total = {}
    s = c = 0.0
    for h in hists:
        for le, cum in h["buckets"]:
            total[le] = total.get(le, 0.0) + cum
        s += h["sum"]
        c += h["count"]
    return {"buckets": sorted(total.items()), "sum": s, "count": c}


def hist_percentile(h, p):
    """p-th percentile of a cumulative power-of-two histogram, interpolated
    log-linearly inside the landing bucket. Returns (value, lo, hi): the true
    percentile lies in the bucket (lo, hi], so the value is exact to within
    a factor of two. None when the histogram is empty."""
    n = h["count"]
    if n <= 0:
        return None
    rank = max(1.0, math.ceil(p / 100.0 * n))
    prev_le, prev_cum = 0.0, 0.0
    for le, cum in h["buckets"]:
        if cum >= rank:
            if math.isinf(le):
                return (prev_le, prev_le, le)
            lo = prev_le if prev_le > 0 else le / 2.0
            in_bucket = cum - prev_cum
            frac = 1.0 if in_bucket <= 0 else (rank - prev_cum) / in_bucket
            return (lo * (le / lo) ** frac, prev_le, le)
        prev_le, prev_cum = le, cum
    return None


def hist_mean(h):
    return h["sum"] / h["count"] if h["count"] > 0 else 0.0


# --- /proc ---------------------------------------------------------------------

def parse_proc_stat(text):
    """utime and stime clock ticks (all threads) from /proc/<pid>/stat. The
    command name may hold spaces and parentheses, so fields are counted
    from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return {"utime": int(rest[11]), "stime": int(rest[12])}


def parse_proc_status(text):
    """Peak RSS (kB) and context switches from /proc/<pid>[/task/<tid>]/status."""
    out = {}
    for line in text.splitlines():
        k, _, v = line.partition(":")
        if k in ("VmHWM", "VmRSS"):
            out[k] = int(v.split()[0])
        elif k in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
            out[k] = int(v)
    return out


def parse_proc_io(text):
    """Syscall counts from /proc/<pid>/io."""
    out = {}
    for line in text.splitlines():
        k, _, v = line.partition(":")
        if k in ("syscr", "syscw", "read_bytes", "write_bytes"):
            out[k] = int(v)
    return out
