// perfbench_loadgen: seeded open-loop Poisson load for a crsm_node cluster.
//
//   perfbench_loadgen --servers h:p,h:p,h:p --seed N [--read-fraction F]
//
// One connection per replica, one thread per connection. Each connection
// multiplexes many logical client ids and pipelines their requests: an op is
// sent when its intended time comes, whether or not earlier ops have been
// answered (open loop), so a stall in the cluster is charged to every
// request it delays. Requests are 64-byte puts and gets over 1024 keys, from
// 64 logical client ids per connection.
//
// Start-up: prints `start`, then connects to every replica (retrying every
// 100 us until each listens), puts one key per replica and prints
// `ready <monotonic ns>` once every replica has answered. The caller launches
// the replicas after `start`, so the interval it times holds their start-up
// and first commit, not this process's. Then it reads commands from stdin:
//
//   phase <index> <ops/s> <seconds> <spans-file>
//       Runs one open-loop phase at the given aggregate rate, split evenly
//       over the connections as independent Poisson streams seeded by
//       (seed, index, connection). Waits until every op is answered or the
//       drain deadline passes, writes one span per op to <spans-file> and
//       prints `done <index> {json}` with the phase's own counters.
//   quit
//
// A span is a packed little-endian record (see struct Span): client id,
// seq, intended/sent/reply CLOCK_MONOTONIC ns, the put's own value id or the
// value id a get returned, key index, op kind, reply status, connection.
// All arithmetic on spans lives in the Python side of the benchmark.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/message.h"
#include "kv/kv_store.h"
#include "net/frame_conn.h"
#include "net/socket.h"
#include "util/rng.h"

namespace {

using crsm::Message;
using crsm::MsgType;

// The workload's shape, the same for every workload.
constexpr std::uint32_t kKeys = 1024;
constexpr std::size_t kPayload = 64;  // encoded KV put, bytes
constexpr std::uint32_t kClientsPerConn = 64;

constexpr std::uint8_t kOpPut = 0;
constexpr std::uint8_t kOpGet = 1;

enum Status : std::uint8_t {
  kNoReply = 0,
  kOk = 1,
  kRedirect = 2,
  kBadReply = 3,  // reply of the wrong kind, or a put not answered "OK"
};

// How long start-up waits for every replica to listen and answer, and how
// often it retries a refused connect meanwhile.
constexpr std::int64_t kConnectTimeoutNs = 10'000'000'000;
constexpr useconds_t kConnectRetryUs = 100;
// How long a phase waits for replies after its last intended send; an op
// still unanswered then has failed.
constexpr std::int64_t kDrainNs = 10'000'000'000;

// Value id a get returns for a key nobody wrote yet.
constexpr std::uint64_t kEmptyValue = 0;
// Value id for a reply that is not a value this generator wrote.
constexpr std::uint64_t kForeignValue = ~std::uint64_t{0};

#pragma pack(push, 1)
struct Span {
  std::uint64_t client;
  std::uint64_t seq;
  std::int64_t intended_ns;
  std::int64_t sent_ns;
  std::int64_t reply_ns;  // 0 = no reply
  std::uint64_t value;    // put: its own value id; get: the id it returned
  std::uint32_t key;
  std::uint8_t op;
  std::uint8_t status;
  std::uint8_t conn;
  std::uint8_t pad;
};
#pragma pack(pop)
static_assert(sizeof(Span) == 56);

std::int64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", msg.c_str());
  std::exit(1);
}

std::string key_name(std::uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05u", k);
  return buf;
}

// A put value that names its writer: 16 hex digits of the id, padded so the
// encoded KV payload is exactly kPayload bytes.
std::string put_payload(const std::string& key, std::uint64_t id) {
  crsm::KvRequest r = crsm::KvRequest::sized_put(key, kPayload);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, id);
  if (r.value.size() < 16) die("payload too small for a value id");
  r.value.replace(0, 16, hex);
  return r.encode();
}

std::uint64_t parse_value(std::string_view v) {
  if (v.empty()) return kEmptyValue;
  if (v.size() < 16) return kForeignValue;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = v[i];
    std::uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return kForeignValue;
    }
    id = id << 4 | d;
  }
  return id == kEmptyValue ? kForeignValue : id;
}

struct Conn {
  crsm::net::Socket sock;
  crsm::net::FrameAssembler in;
  std::uint64_t next_seq = 1;  // seqs stay unique per connection across phases
};

void write_all_blocking(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      die(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

// One blocking read into the connection's buffer; false on timeout or EOF.
bool read_some(Conn& c, std::int64_t deadline_ns) {
  const std::int64_t left_ms = (deadline_ns - mono_ns()) / 1'000'000;
  if (left_ms <= 0) return false;
  pollfd p{c.sock.fd(), POLLIN, 0};
  if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) return false;
  char chunk[16 * 1024];
  const ssize_t n = ::recv(c.sock.fd(), chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  c.in.append(std::string_view(chunk, static_cast<std::size_t>(n)));
  return true;
}

Conn connect_replica(const std::string& host, std::uint16_t port,
                     std::int64_t deadline_ns) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    die("bad IPv4 address " + host);
  }
  for (;;) {
    Conn c;
    c.sock = crsm::net::Socket(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!c.sock.valid()) die("socket failed");
    if (::connect(c.sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      crsm::net::set_tcp_nodelay(c.sock.fd());
      write_all_blocking(c.sock.fd(), crsm::net::encode_hello(crsm::net::kClientHello));
      while (c.in.buffered() < 8) {
        if (!read_some(c, deadline_ns)) die("no hello from " + host);
      }
      std::uint32_t sid = 0;
      if (!crsm::net::parse_hello(c.in.data(), &sid)) die("bad server hello");
      c.in.consume(8);
      return c;
    }
    if (mono_ns() > deadline_ns) {
      die("connect " + host + ":" + std::to_string(port) + ": " +
          std::strerror(errno));
    }
    ::usleep(kConnectRetryUs);
  }
}

// One put per replica, answered before the benchmark starts: the cluster is
// up only once every replica has committed a command.
void setup_probe(std::vector<Conn>& conns, std::int64_t deadline_ns) {
  for (std::size_t i = 0; i < conns.size(); ++i) {
    Message m;
    m.type = MsgType::kClientRequest;
    m.cmd.client = (std::uint64_t{0xA0} + i) << 32 | 1;
    m.cmd.seq = conns[i].next_seq++;
    m.cmd.payload = put_payload("setup-" + std::to_string(i), 1);
    write_all_blocking(conns[i].sock.fd(), m.encode());
  }
  for (Conn& c : conns) {
    for (;;) {
      const std::string_view frames = c.in.complete_prefix();
      if (!frames.empty()) {
        std::size_t pos = 0;
        const Message r = Message::decode_stream(frames, &pos);
        c.in.consume(pos);
        if (r.type == MsgType::kClientReply) break;
        die(std::string("setup probe answered with ") +
            crsm::msg_type_name(r.type));
      }
      if (!read_some(c, deadline_ns)) die("setup probe: no reply");
    }
  }
}

struct Op {
  Span span;
  std::string frame;  // pre-encoded request
};

struct ConnResult {
  std::uint64_t unmatched = 0;   // replies naming no op of this phase
  std::uint64_t duplicates = 0;  // second reply for an answered op
  std::string error;             // why the connection failed, if it did
};

// Finds the op a reply answers: seqs within a phase are contiguous per
// connection, so the seq indexes the op vector directly.
Op* match(std::vector<Op>& ops, std::uint64_t first_seq, const Message& r) {
  if (r.cmd.seq < first_seq || r.cmd.seq - first_seq >= ops.size()) {
    return nullptr;
  }
  Op& op = ops[r.cmd.seq - first_seq];
  return op.span.client == r.cmd.client ? &op : nullptr;
}

void on_reply(std::vector<Op>& ops, std::uint64_t first_seq, const Message& r,
              std::int64_t now, ConnResult& res, std::size_t& answered) {
  Op* op = match(ops, first_seq, r);
  if (op == nullptr) {
    ++res.unmatched;
    return;
  }
  Span& s = op->span;
  if (s.status != kNoReply) {
    ++res.duplicates;
    return;
  }
  ++answered;
  s.reply_ns = now;
  if (r.type == MsgType::kClientRedirect) {
    s.status = kRedirect;
  } else if (s.op == kOpPut) {
    s.status = r.type == MsgType::kClientReply && r.blob.view() == "OK"
                   ? kOk
                   : kBadReply;
  } else if (r.type == MsgType::kClientReadReply) {
    s.status = kOk;
    s.value = parse_value(r.blob.view());
  } else {
    s.status = kBadReply;
  }
}

// The per-connection open loop: send every op whose intended time has come,
// read whatever replies arrived, sleep until the next intended time.
void run_conn(Conn& c, std::vector<Op>& ops, std::uint64_t first_seq,
              std::int64_t drain_deadline_ns, ConnResult& res) {
  const int fd = c.sock.fd();
  std::string out;
  std::size_t out_off = 0;
  std::size_t next = 0;
  std::size_t answered = 0;
  char chunk[64 * 1024];
  while (answered < ops.size()) {
    std::int64_t now = mono_ns();
    if (next == ops.size() && now > drain_deadline_ns) break;
    while (next < ops.size() && ops[next].span.intended_ns <= now) {
      out += ops[next].frame;
      ops[next].span.sent_ns = now;
      ++next;
    }
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        res.error = std::string("send: ") + std::strerror(errno);
        return;
      }
      out_off += static_cast<std::size_t>(n);
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        res.error = n == 0 ? "replica closed the connection"
                           : std::string("recv: ") + std::strerror(errno);
        return;
      }
      const std::int64_t t = mono_ns();
      c.in.append(std::string_view(chunk, static_cast<std::size_t>(n)));
      const std::string_view frames = c.in.complete_prefix();
      std::size_t pos = 0;
      while (pos < frames.size()) {
        on_reply(ops, first_seq, Message::decode_stream(frames, &pos), t, res,
                 answered);
      }
      c.in.consume(pos);
    }
    if (answered == ops.size()) break;
    now = mono_ns();
    const std::int64_t wake =
        next < ops.size() ? ops[next].span.intended_ns : drain_deadline_ns;
    const std::int64_t wait = wake > now ? wake - now : 0;
    if (wait == 0 && next < ops.size()) continue;
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    (void)::ppoll(&p, 1, &ts, nullptr);
  }
}

struct Options {
  std::vector<std::pair<std::string, std::uint16_t>> servers;
  std::uint64_t seed = 1;
  double read_fraction = 0.0;
};

// Builds one connection's ops for a phase. The stream depends only on
// (seed, phase, connection), so a seed always yields the same requests.
// Intended times are offsets from the phase start until run_phase shifts them.
std::vector<Op> make_ops(const Options& o, std::uint64_t phase, std::size_t conn,
                         double rate_per_conn, double seconds,
                         std::uint64_t first_seq) {
  crsm::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL ^ (phase << 8 | conn));
  std::vector<Op> ops;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    t += rng.exponential(1.0 / rate_per_conn);
    if (t >= seconds) break;
    const bool read = o.read_fraction > 0.0 && rng.bernoulli(o.read_fraction);
    const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, kKeys - 1));
    Op op{};
    Span& s = op.span;
    s.client = (std::uint64_t{0xB0} + conn) << 32 |
               (i % kClientsPerConn + 1);
    s.seq = first_seq + i;
    s.intended_ns = static_cast<std::int64_t>(t * 1e9);
    s.key = key;
    s.op = read ? kOpGet : kOpPut;
    s.conn = static_cast<std::uint8_t>(conn);
    Message m;
    m.cmd.client = s.client;
    m.cmd.seq = s.seq;
    if (read) {
      crsm::KvRequest r;
      r.op = crsm::KvOp::kGet;
      r.key = key_name(key);
      m.type = MsgType::kClientRead;
      m.cmd.payload = r.encode();
    } else {
      s.value = (phase + 1) << 48 | static_cast<std::uint64_t>(conn) << 40 | i;
      m.type = MsgType::kClientRequest;
      m.cmd.payload = put_payload(key_name(key), s.value);
    }
    op.frame = m.encode();
    ops.push_back(std::move(op));
  }
  return ops;
}

void run_phase(const Options& o, std::vector<Conn>& conns, std::uint64_t phase,
               double rate, double seconds, const std::string& path) {
  const double per_conn = rate / static_cast<double>(conns.size());
  // Ops are built before t0, so encoding stays off the schedule.
  std::vector<std::vector<Op>> ops(conns.size());
  std::vector<std::uint64_t> first_seq(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    first_seq[c] = conns[c].next_seq;
    ops[c] = make_ops(o, phase, c, per_conn, seconds, first_seq[c]);
    conns[c].next_seq += ops[c].size();
  }
  const std::int64_t t0 = mono_ns() + 2'000'000;
  for (auto& v : ops) {
    for (Op& op : v) op.span.intended_ns += t0;
  }
  const std::int64_t drain_deadline =
      t0 + static_cast<std::int64_t>(seconds * 1e9) + kDrainNs;
  std::vector<ConnResult> res(conns.size());
  const std::int64_t cpu0 = cpu_us();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          run_conn(conns[c], ops[c], first_seq[c], drain_deadline, res[c]);
        } catch (const std::exception& e) {  // a reply that does not decode
          res[c].error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::int64_t cpu1 = cpu_us();
  for (std::size_t c = 0; c < conns.size(); ++c) {
    if (!res[c].error.empty()) {
      die("connection to replica " + std::to_string(c) + ": " + res[c].error);
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) die("cannot write " + path);
  std::uint64_t total = 0, unmatched = 0, duplicates = 0;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    for (const Op& op : ops[c]) {
      if (std::fwrite(&op.span, sizeof(Span), 1, f) != 1) die("short write");
    }
    total += ops[c].size();
    unmatched += res[c].unmatched;
    duplicates += res[c].duplicates;
  }
  if (std::fclose(f) != 0) die("cannot close " + path);
  std::printf(
      "done %" PRIu64 " {\"ops\": %" PRIu64 ", \"t0_ns\": %" PRId64
      ", \"gen_cpu_us\": %" PRId64 ", \"unmatched\": %" PRIu64
      ", \"duplicates\": %" PRIu64 "}\n",
      phase, total, t0, cpu1 - cpu0, unmatched, duplicates);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) die("missing value for " + a);
        return argv[++i];
      };
      if (a == "--servers") {
        std::stringstream ss(next());
        std::string entry;
        while (std::getline(ss, entry, ',')) {
          const std::size_t colon = entry.rfind(':');
          if (colon == std::string::npos) die("bad server " + entry);
          o.servers.emplace_back(
              entry.substr(0, colon),
              static_cast<std::uint16_t>(std::stoul(entry.substr(colon + 1))));
        }
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--read-fraction") {
        o.read_fraction = std::stod(next());
      } else {
        die("unknown flag " + a);
      }
    }
  } catch (const std::exception& e) {
    die(std::string("bad argument: ") + e.what());
  }
  if (o.servers.empty() || o.servers.size() > 4) die("need 1-4 --servers");
  std::printf("start\n");
  std::fflush(stdout);

  const std::int64_t deadline = mono_ns() + kConnectTimeoutNs;
  std::vector<Conn> conns;
  for (const auto& [host, port] : o.servers) {
    conns.push_back(connect_replica(host, port, deadline));
  }
  setup_probe(conns, deadline);
  for (Conn& c : conns) crsm::net::set_nonblocking(c.sock.fd());
  std::printf("ready %" PRId64 "\n", mono_ns());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit") break;
    if (cmd != "phase") die("unknown command: " + line);
    std::uint64_t index = 0;
    double rate = 0.0, seconds = 0.0;
    std::string path;
    if (!(in >> index >> rate >> seconds >> path) || rate <= 0.0 ||
        seconds <= 0.0 || index >= 255) {
      die("bad phase command: " + line);
    }
    run_phase(o, conns, index, rate, seconds, path);
  }
  return 0;
}
