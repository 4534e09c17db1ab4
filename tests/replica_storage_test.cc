// Unit tests for the pluggable storage seam: GroupCommitLog fsync batching
// and sync accounting, ReplicaStorage's checkpoint/recovery lifecycle, and
// the volatile log's executed-prefix compaction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "kv/kv_store.h"
#include "storage/replica_storage.h"

namespace crsm {
namespace {

// A put of "v<seq>" to key "k<seq % keys>".
Command cmd(std::uint64_t seq, std::uint64_t keys = ~0ULL) {
  Command c;
  c.client = 7;
  c.seq = seq;
  KvRequest r;
  r.op = KvOp::kPut;
  r.key = "k" + std::to_string(seq % keys);
  r.value = "v" + std::to_string(seq);
  c.payload = r.encode();
  return c;
}

// CommandLog stub counting inner sync() calls.
class CountingLog final : public CommandLog {
 public:
  void append(const LogRecord& r) override { records_.push_back(r); }
  void sync() override { ++syncs; }
  [[nodiscard]] const std::vector<LogRecord>& records() const override {
    return records_;
  }
  void remove_uncommitted_above(
      Timestamp bound, const std::function<bool(const Timestamp&)>& keep) override {
    filter_uncommitted_above(&records_, bound, keep);
  }
  void truncate_prefix(Timestamp upto) override {
    std::erase_if(records_, [upto](const LogRecord& r) { return r.ts <= upto; });
  }

  int syncs = 0;

 private:
  std::vector<LogRecord> records_;
};

TEST(GroupCommitLog, DeferredModeBatchesSyncsUntilFlush) {
  auto counting = std::make_unique<CountingLog>();
  CountingLog* inner = counting.get();
  GroupCommitLog log(std::move(counting), /*defer_sync=*/true);

  for (std::uint64_t i = 1; i <= 10; ++i) {
    log.append(LogRecord::prepare(Timestamp{i, 0}, cmd(i)));
    log.sync();  // the protocol's per-PREPARE durability request
  }
  EXPECT_EQ(inner->syncs, 0) << "deferred mode must not sync inline";
  EXPECT_TRUE(log.sync_pending());

  EXPECT_EQ(log.flush(), 10u);  // one fsync covers the whole batch
  EXPECT_EQ(inner->syncs, 1);
  EXPECT_FALSE(log.sync_pending());
  EXPECT_EQ(log.flush(), 0u);  // idempotent: nothing owed
  EXPECT_EQ(inner->syncs, 1);

  StorageStats s;
  log.fill_stats(&s);
  EXPECT_EQ(s.appends, 10u);
  EXPECT_EQ(s.sync_requests, 10u);
  EXPECT_EQ(s.syncs, 1u);
  EXPECT_EQ(s.max_batch, 10u);
}

TEST(GroupCommitLog, PassThroughModeSyncsInline) {
  auto counting = std::make_unique<CountingLog>();
  CountingLog* inner = counting.get();
  GroupCommitLog log(std::move(counting), /*defer_sync=*/false);
  log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  log.sync();
  EXPECT_EQ(inner->syncs, 1);
  EXPECT_FALSE(log.sync_pending());
  StorageStats s;
  log.fill_stats(&s);
  EXPECT_EQ(s.syncs, 1u);
  EXPECT_EQ(s.max_batch, 1u);
}

TEST(GroupCommitLog, MemLogSyncsAndTruncationsAreNotFsyncs) {
  // A pass-through sync over a MemLog makes nothing durable: it is a
  // requested durability point, never an fsync.
  GroupCommitLog log(std::make_unique<MemLog>(), /*defer_sync=*/false);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    log.append(LogRecord::prepare(Timestamp{i, 0}, cmd(i)));
    log.sync();
  }
  log.truncate_prefix(Timestamp{2, 0});
  StorageStats s;
  log.fill_stats(&s);
  EXPECT_EQ(s.sync_requests, 4u);
  EXPECT_EQ(s.syncs, 0u);
  EXPECT_EQ(s.max_batch, 0u);
  EXPECT_EQ(s.log_records, 2u);
}

class ReplicaStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("crsm_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StorageOptions durable(std::uint64_t checkpoint_every = 0) const {
    StorageOptions o;
    o.dir = dir_.string();
    o.checkpoint_every = checkpoint_every;
    return o;
  }

  std::filesystem::path dir_;
};

// Drives `s` through `n` prepare/commit/note_commit cycles with a window of
// `window` prepares logged ahead of execution (as in a pipelined
// cluster), applying each command to `sm`. Calls `each(i)` after the i-th
// note_commit.
template <typename Fn>
void run_cycles(ReplicaStorage& s, KvStore& sm, std::uint64_t n,
                std::uint64_t window, Fn each) {
  for (std::uint64_t i = 1; i <= window; ++i) {
    s.log().append(LogRecord::prepare(Timestamp{i, 0}, cmd(i, 64)));
  }
  for (std::uint64_t i = 1; i <= n; ++i) {
    const Timestamp ts{i, 0};
    s.log().append(LogRecord::commit(ts));
    s.log().sync();
    sm.apply(cmd(i, 64));
    s.note_commit(sm, ts);
    if (i + window <= n) {
      s.log().append(LogRecord::prepare(Timestamp{i + window, 0},
                                        cmd(i + window, 64)));
      s.log().sync();
    }
    each(i);
  }
}

TEST_F(ReplicaStorageTest, VolatileDefaultsToMemLogNoRecovery) {
  ReplicaStorage s{StorageOptions{}};
  EXPECT_FALSE(s.durable());
  EXPECT_FALSE(s.recovering());
  EXPECT_EQ(s.recovery_floor(), kZeroTimestamp);
  s.log().append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  s.log().sync();  // pass-through: nothing pending afterwards
  EXPECT_FALSE(s.sync_pending());
  EXPECT_TRUE(s.encoded_checkpoint().empty());
}

TEST_F(ReplicaStorageTest, VolatileLogKeepsOnlyItsUnexecutedTail) {
  constexpr std::uint64_t kCycles = 100'000;
  constexpr std::uint64_t kWindow = 16;
  // The live tail never exceeds the window, so the log stays within twice
  // that plus the compaction slack, plus the two records of one cycle.
  constexpr std::size_t kBound =
      2 * kWindow + ReplicaStorage::kCompactionSlack + 2;
  ReplicaStorage s{StorageOptions{}};
  KvStore sm;
  std::size_t max_size = 0;
  std::uint64_t compactions = 0;
  Timestamp last_dropped = kZeroTimestamp;
  run_cycles(s, sm, kCycles, kWindow, [&](std::uint64_t i) {
    max_size = std::max(max_size, s.log().records().size());
    const StorageStats st = s.stats();
    if (st.log_compactions != compactions) {
      compactions = st.log_compactions;
      last_dropped = Timestamp{i, 0};
    }
    ASSERT_EQ(st.log_records, s.log().records().size());
  });
  EXPECT_LE(max_size, kBound);
  EXPECT_GE(compactions, 2 * kCycles / kBound);
  EXPECT_EQ(s.stats().syncs, 0u) << "a MemLog never fsyncs";
  EXPECT_EQ(s.stats().sync_requests, 2 * kCycles - kWindow);

  // The floor is the last compaction point, and nothing at or below it
  // survives.
  EXPECT_EQ(s.recovery_floor(), last_dropped);
  EXPECT_GT(s.recovery_floor(), kZeroTimestamp);
  for (const LogRecord& r : s.log().records()) {
    EXPECT_GT(r.ts, s.recovery_floor());
  }

  // The checkpoint served for the dropped prefix is the live state at the
  // last executed timestamp.
  const Checkpoint cp = Checkpoint::decode(s.encoded_checkpoint());
  EXPECT_EQ(cp.last_applied, (Timestamp{kCycles, 0}));
  KvStore restored;
  restored.restore(cp.state);
  EXPECT_EQ(restored.state_digest(), sm.state_digest());
}

TEST_F(ReplicaStorageTest, DurableLogWithoutCheckpointsKeepsEveryRecord) {
  constexpr std::uint64_t kCycles = 3000;
  ReplicaStorage s{durable(/*checkpoint_every=*/0)};
  KvStore sm;
  run_cycles(s, sm, kCycles, /*window=*/4, [](std::uint64_t) {});
  s.flush();
  EXPECT_EQ(s.log().records().size(), 2 * kCycles);
  EXPECT_EQ(s.stats().log_records, 2 * kCycles);
  EXPECT_EQ(s.stats().log_compactions, 0u);
  EXPECT_EQ(s.recovery_floor(), kZeroTimestamp);
  EXPECT_TRUE(s.encoded_checkpoint().empty());
}

TEST_F(ReplicaStorageTest, DurableLogPersistsAndFlagsRecovery) {
  {
    ReplicaStorage s{durable()};
    EXPECT_TRUE(s.durable());
    EXPECT_FALSE(s.recovering()) << "fresh directory is not a restart";
    s.log().append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    s.log().append(LogRecord::commit(Timestamp{1, 0}));
    s.log().sync();
    EXPECT_TRUE(s.sync_pending()) << "durable log defers by default";
    s.flush();
    EXPECT_FALSE(s.sync_pending());
  }
  ReplicaStorage reopened{durable()};
  EXPECT_TRUE(reopened.recovering());
  ASSERT_EQ(reopened.log().records().size(), 2u);
  EXPECT_EQ(reopened.log().records()[0].cmd, cmd(1));
}

TEST_F(ReplicaStorageTest, CheckpointEveryNTruncatesAndRestores) {
  KvStore sm;
  {
    ReplicaStorage s{durable(/*checkpoint_every=*/4)};
    for (std::uint64_t i = 1; i <= 10; ++i) {
      const Timestamp ts{i, 0};
      s.log().append(LogRecord::prepare(ts, cmd(i)));
      s.log().append(LogRecord::commit(ts));
      sm.apply(cmd(i));
      s.note_commit(sm, ts);
    }
    s.flush();
    // Two checkpoints fired (at 4 and 8); the covered prefix is gone.
    EXPECT_EQ(s.recovery_floor(), (Timestamp{8, 0}));
    for (const LogRecord& r : s.log().records()) {
      EXPECT_GT(r.ts, (Timestamp{8, 0}));
    }
    EXPECT_EQ(s.stats().checkpoints, 2u);
    EXPECT_FALSE(s.encoded_checkpoint().empty());
  }

  // A restart restores the checkpoint into a fresh state machine; replaying
  // the remaining log suffix on top reproduces the full state.
  ReplicaStorage reopened{durable(4)};
  EXPECT_TRUE(reopened.recovering());
  EXPECT_EQ(reopened.recovery_floor(), (Timestamp{8, 0}));
  KvStore recovered;
  ASSERT_TRUE(reopened.restore_into(recovered));
  for (const LogRecord& r : reopened.log().records()) {
    if (r.type == LogType::kPrepare && r.ts > reopened.recovery_floor()) {
      recovered.apply(r.cmd);
    }
  }
  EXPECT_EQ(recovered.state_digest(), sm.state_digest());
}

TEST_F(ReplicaStorageTest, InstallCheckpointFromPeerBlob) {
  // Build the "peer": state + checkpoint blob covering ts 5.
  KvStore peer_sm;
  for (std::uint64_t i = 1; i <= 5; ++i) peer_sm.apply(cmd(i));
  const Checkpoint cp = take_checkpoint(peer_sm, Timestamp{5, 0}, 0);
  const std::string blob = cp.encode();

  ReplicaStorage s{durable()};
  s.log().append(LogRecord::prepare(Timestamp{2, 0}, cmd(2)));
  s.log().append(LogRecord::commit(Timestamp{2, 0}));
  KvStore sm;
  s.install_checkpoint(blob, sm);
  EXPECT_EQ(sm.state_digest(), peer_sm.state_digest());
  EXPECT_EQ(s.recovery_floor(), (Timestamp{5, 0}));
  EXPECT_TRUE(s.log().records().empty()) << "covered prefix truncated";

  // The installed checkpoint is persisted: the next boot starts from it.
  ReplicaStorage reopened{durable()};
  EXPECT_TRUE(reopened.recovering());
  EXPECT_EQ(reopened.recovery_floor(), (Timestamp{5, 0}));
  KvStore sm2;
  ASSERT_TRUE(reopened.restore_into(sm2));
  EXPECT_EQ(sm2.state_digest(), peer_sm.state_digest());
}

}  // namespace
}  // namespace crsm
