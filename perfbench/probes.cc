// perfbench_probes: times single layers through their public functions, at
// the batch depth and appends per sync a cluster run observed.
//
//   perfbench_probes --depth D --seed N --wal-dir DIR --appends-per-sync A
//                    --spans FILE
//
// Commands are 64-byte puts over 1024 keys, as perfbench_loadgen sends.
// Prints one JSON object of per-layer figures (each the median over its
// repetitions) and writes one span per timed repetition to FILE as
// `name start_ns end_ns` lines:
//
//   codec.encode_prepare_ns / codec.decode_prepare_ns
//       Message::encode / decode_stream_view of a PREPARE carrying D
//       commands (a batch envelope when D > 1).
//   codec.split_batch_ns_per_member
//       split_batch of a D-member envelope, per member.
//   kv.apply_put_ns / kv.apply_get_ns
//       KvStore::apply of a put / apply_read of a get over the keys.
//   storage.probe_sync_us
//       FileLog: A appends of that PREPARE record, then one sync.
//   clockrsm.probe_ns_per_cmd
//       Thread CPU per committed command of three ClockRsmReplicas
//       exchanging messages through an in-memory ProtocolEnv (one shared
//       virtual clock, FIFO queue, no network and no disk).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "common/batch.h"
#include "common/message.h"
#include "kv/kv_store.h"
#include "storage/command_log.h"
#include "util/rng.h"

namespace {

using namespace crsm;

constexpr std::uint64_t kKeys = 1024;
constexpr std::size_t kPayload = 64;  // encoded KV put, bytes

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_probes: %s\n", msg.c_str());
  std::exit(1);
}

// Every timed repetition, kept in memory and written out at the end.
struct SpanLog {
  struct Entry {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Entry> entries;

  // Times `calls` back-to-back invocations of fn as one span and returns the
  // per-call nanoseconds.
  template <typename Fn>
  double time(const char* name, int calls, Fn&& fn) {
    const std::int64_t t0 = mono_ns();
    for (int i = 0; i < calls; ++i) fn(i);
    const std::int64_t t1 = mono_ns();
    entries.push_back({name, t0, t1});
    return static_cast<double>(t1 - t0) / calls;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string key_name(std::uint64_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05" PRIu64, k);
  return buf;
}

Command put_cmd(std::uint64_t client, std::uint64_t seq, std::uint64_t key) {
  Command c;
  c.client = client;
  c.seq = seq;
  c.payload = KvRequest::sized_put(key_name(key), kPayload).encode();
  return c;
}

// --- in-memory three-replica Clock-RSM ------------------------------------

struct ProbeNet;

class ProbeEnv final : public ProtocolEnv {
 public:
  ProbeEnv(ReplicaId id, ProbeNet& net) : id_(id), net_(net) {}
  [[nodiscard]] ReplicaId self() const override { return id_; }
  void send(ReplicaId to, const Message& m) override;
  [[nodiscard]] Tick clock_now() override;
  void schedule_after(Tick delay_us, std::function<void()> fn) override;
  [[nodiscard]] CommandLog& log() override { return log_; }
  void deliver(const Command&, Timestamp, bool) override;

 private:
  ReplicaId id_;
  ProbeNet& net_;
  MemLog log_;
};

struct ProbeNet {
  struct Timer {
    Tick due;
    std::function<void()> fn;
  };
  Tick clock = 1;  // shared, so every replica reads loosely synced time
  std::deque<std::pair<ReplicaId, Message>> queue;
  std::vector<Timer> timers;
  std::uint64_t delivered = 0;
  std::vector<std::unique_ptr<ProbeEnv>> envs;
  std::vector<std::unique_ptr<ClockRsmReplica>> replicas;

  void fire_due() {
    std::vector<Timer> pending;
    pending.swap(timers);
    for (Timer& t : pending) {
      if (t.due <= clock) {
        t.fn();
      } else {
        timers.push_back(std::move(t));
      }
    }
  }

  void pump() {
    std::size_t n = 0;
    while (!queue.empty()) {
      auto [to, m] = std::move(queue.front());
      queue.pop_front();
      replicas[to]->on_message(m);
      if (++n % 256 == 0) fire_due();
    }
    fire_due();
  }
};

void ProbeEnv::send(ReplicaId to, const Message& m) {
  Message copy = m;
  copy.from = id_;
  net_.queue.emplace_back(to, std::move(copy));
}
Tick ProbeEnv::clock_now() { return ++net_.clock; }
void ProbeEnv::schedule_after(Tick delay_us, std::function<void()> fn) {
  net_.timers.push_back({net_.clock + delay_us, std::move(fn)});
}
void ProbeEnv::deliver(const Command&, Timestamp, bool) { ++net_.delivered; }

// CPU nanoseconds per command committed at all three replicas.
double clockrsm_ns_per_cmd(SpanLog& spans, std::size_t cmds) {
  ProbeNet net;
  const std::vector<ReplicaId> spec = {0, 1, 2};
  for (ReplicaId r = 0; r < 3; ++r) {
    net.envs.push_back(std::make_unique<ProbeEnv>(r, net));
    net.replicas.push_back(
        std::make_unique<ClockRsmReplica>(*net.envs[r], spec, ClockRsmOptions{}));
  }
  std::vector<Command> input;
  input.reserve(cmds);
  for (std::size_t i = 0; i < cmds; ++i) {
    input.push_back(put_cmd((std::uint64_t{0xC0} + i % 3) << 32 | 1, i + 1,
                            i % kKeys));
  }
  for (auto& r : net.replicas) r->start();
  const std::int64_t t0 = mono_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  for (std::size_t i = 0; i < cmds; ++i) {
    net.replicas[i % 3]->submit(std::move(input[i]));
    if (i % 3 == 2) net.pump();
  }
  net.pump();
  // The newest commands wait for CLOCKTIME to become stable.
  while (net.delivered < 3 * cmds && !net.timers.empty()) {
    Tick next = net.timers.front().due;
    for (const auto& t : net.timers) next = std::min(next, t.due);
    net.clock = std::max(net.clock, next);
    net.fire_due();
    net.pump();
  }
  const std::int64_t cpu1 = thread_cpu_ns();
  spans.entries.push_back({"clockrsm.three_replicas", t0, mono_ns()});
  if (net.delivered != 3 * cmds) die("clockrsm probe did not commit everything");
  return static_cast<double>(cpu1 - cpu0) / static_cast<double>(cmds);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t depth = 1;
  std::uint64_t seed = 1;
  std::string wal_dir;
  std::size_t appends_per_sync = 1;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) die("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--depth") {
      depth = std::max<std::size_t>(1, std::stoul(v));
    } else if (a == "--seed") {
      seed = std::stoull(v);
    } else if (a == "--wal-dir") {
      wal_dir = v;
    } else if (a == "--appends-per-sync") {
      appends_per_sync = std::max<std::size_t>(1, std::stoul(v));
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      die("unknown flag " + a);
    }
  }
  if (wal_dir.empty() || spans_path.empty()) die("need --wal-dir and --spans");

  SpanLog spans;
  Rng rng(seed);

  // The PREPARE a replica would broadcast for one submission of D commands.
  std::vector<Command> members;
  for (std::size_t i = 0; i < depth; ++i) {
    members.push_back(put_cmd(std::uint64_t{0xB0} << 32 | (i + 1), i + 1,
                              rng.uniform_int(0, kKeys - 1)));
  }
  const Command entry = depth == 1 ? members.front() : make_batch(members, 0, 1);
  Message prepare;
  prepare.type = MsgType::kPrepare;
  prepare.from = 0;
  prepare.ts = Timestamp{1'000'000, 0};
  prepare.cmd = entry;
  const std::string frame = prepare.encode();

  constexpr int kReps = 15;
  std::vector<double> enc, dec, split, put, get, sync;
  std::size_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    enc.push_back(spans.time("codec.encode_prepare", 2000, [&](int) {
      std::string out;
      prepare.encode(&out);
      sink += out.size();
    }));
    dec.push_back(spans.time("codec.decode_prepare", 2000, [&](int) {
      std::size_t pos = 0;
      sink += Message::decode_stream_view(frame, &pos).cmd.payload.size();
    }));
    const Command env = make_batch(members, 0, 1);
    split.push_back(spans.time("codec.split_batch", 500, [&](int) {
      sink += split_batch(env).size();
    }) / static_cast<double>(depth));
  }

  // KV: puts over the workload's keys, then gets of the same keys.
  std::vector<Command> puts, gets;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t k = rng.uniform_int(0, kKeys - 1);
    puts.push_back(put_cmd(std::uint64_t{0xD0} << 32 | 1, i + 1, k));
    KvRequest g;
    g.op = KvOp::kGet;
    g.key = key_name(k);
    Command gc;
    gc.client = std::uint64_t{0xD1} << 32 | 1;
    gc.seq = i + 1;
    gc.payload = g.encode();
    gets.push_back(std::move(gc));
  }
  KvStore kv;
  for (int rep = 0; rep < kReps; ++rep) {
    put.push_back(spans.time("kv.apply_put", 4096, [&](int i) {
      sink += kv.apply(puts[i]).size();
    }));
    get.push_back(spans.time("kv.apply_get", 4096, [&](int i) {
      sink += kv.apply_read(gets[i]).size();
    }));
  }

  // Storage: the WAL write a group commit issues for one event-loop pass.
  {
    std::filesystem::create_directories(wal_dir);
    const std::string path = wal_dir + "/probe.wal";
    std::filesystem::remove(path);
    FileLog log(path);
    const LogRecord rec = LogRecord::prepare(prepare.ts, entry);
    for (int rep = 0; rep < 3 * kReps; ++rep) {
      sync.push_back(spans.time("storage.append_sync", 1, [&](int) {
        for (std::size_t a = 0; a < appends_per_sync; ++a) log.append(rec);
        log.sync();
      }) / 1000.0);
    }
  }
  std::filesystem::remove_all(wal_dir);

  std::vector<double> proto;
  for (int rep = 0; rep < 5; ++rep) {
    proto.push_back(clockrsm_ns_per_cmd(spans, 3000));
  }

  std::FILE* f = std::fopen(spans_path.c_str(), "w");
  if (f == nullptr) die("cannot write " + spans_path);
  for (const auto& e : spans.entries) {
    std::fprintf(f, "%s %" PRId64 " %" PRId64 "\n", e.name, e.start_ns,
                 e.end_ns);
  }
  std::fclose(f);

  std::printf(
      "{\"codec.encode_prepare_ns\": %.2f, \"codec.decode_prepare_ns\": %.2f, "
      "\"codec.split_batch_ns_per_member\": %.2f, \"kv.apply_put_ns\": %.2f, "
      "\"kv.apply_get_ns\": %.2f, \"storage.probe_sync_us\": %.2f, "
      "\"clockrsm.probe_ns_per_cmd\": %.2f, \"sink\": %zu}\n",
      median(enc), median(dec), median(split), median(put), median(get),
      median(sync), median(proto), sink);
  return 0;
}
