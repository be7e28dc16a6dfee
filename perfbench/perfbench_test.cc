// Self-tests of the benchmark: the metering Env and seed reproducibility.
// Build and run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "metered_env.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rql::storage::File;
using rql::storage::InMemoryEnv;

std::unique_ptr<File> Open(rql::storage::Env* env, const std::string& name) {
  auto f = env->OpenFile(name);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return std::move(f).value();
}

TEST(MeteredEnvTest, ClassifiesFilesByName) {
  EXPECT_EQ(ClassifyKind("h0_data.db"), FileKind::kDb);
  EXPECT_EQ(ClassifyKind("h0_data.db.wal"), FileKind::kWal);
  EXPECT_EQ(ClassifyKind("h0_data.pagelog"), FileKind::kPagelog);
  EXPECT_EQ(ClassifyKind("h0_data.maplog"), FileKind::kMaplog);
  EXPECT_EQ(ClassifyKind("h0_data.truncate"), FileKind::kOther);
  EXPECT_EQ(ClassifyScope("h0_data.pagelog"), FileScope::kData);
  EXPECT_EQ(ClassifyScope("h0_meta.pagelog"), FileScope::kMeta);
}

TEST(MeteredEnvTest, PassesBytesThroughUnchanged) {
  InMemoryEnv base;
  MeteredEnv env(&base);
  auto f = Open(&env, "x_data.db");
  std::string payload;
  for (int i = 0; i < 5000; ++i) payload.push_back(static_cast<char>(i * 31));
  ASSERT_TRUE(f->Write(0, payload.size(), payload.data()).ok());
  uint64_t at = 0;
  ASSERT_TRUE(f->Append(3, "xyz", &at).ok());
  EXPECT_EQ(at, payload.size());
  EXPECT_EQ(f->Size(), payload.size() + 3);
  ASSERT_TRUE(f->Sync().ok());

  // The wrapped file holds exactly what was written through the wrapper,
  // and reading through the wrapper returns the same bytes.
  auto raw = Open(&base, "x_data.db");
  std::string direct(payload.size() + 3, '\0');
  ASSERT_TRUE(raw->Read(0, direct.size(), direct.data()).ok());
  EXPECT_EQ(direct, payload + "xyz");
  std::string metered(direct.size(), '\0');
  ASSERT_TRUE(f->Read(0, metered.size(), metered.data()).ok());
  EXPECT_EQ(metered, direct);
  ASSERT_TRUE(f->Truncate(10).ok());
  EXPECT_EQ(raw->Size(), 10u);
  EXPECT_TRUE(env.FileExists("x_data.db"));
  ASSERT_TRUE(env.RenameFile("x_data.db", "y_data.db").ok());
  EXPECT_TRUE(base.FileExists("y_data.db"));
  ASSERT_TRUE(env.DeleteFile("y_data.db").ok());
  EXPECT_FALSE(base.FileExists("y_data.db"));
}

TEST(MeteredEnvTest, CountsAreExact) {
  InMemoryEnv base;
  MeteredEnv env(&base);
  auto db = Open(&env, "x_data.db");
  auto wal = Open(&env, "x_data.db.wal");
  auto plog = Open(&env, "x_data.pagelog");
  std::string page(4096, 'p');
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db->Write(i * 4096, 4096, page.data()).ok());
  }
  uint64_t at = 0;
  ASSERT_TRUE(wal->Append(100, page.data(), &at).ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(db->Sync().ok());
  // Two Pagelog records of a 16-byte header and a page each.
  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(plog->Append(16, page.data(), &at).ok());
    ASSERT_TRUE(plog->Append(4096, page.data(), &at).ok());
  }
  const IoSnapshot before = env.Snapshot();
  std::string buf(4096, '\0');
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->Read(i * 4096, 4096, buf.data()).ok());
  }
  // Each record read as header then payload is one device read.
  for (uint64_t rec : {0u, 4112u, 0u}) {
    ASSERT_TRUE(plog->Read(rec, 16, buf.data()).ok());
    ASSERT_TRUE(plog->Read(rec + 16, 4096, buf.data()).ok());
  }
  // Records back to back: the second header follows a full payload, so
  // it starts a new device read.
  ASSERT_TRUE(plog->Read(0, 16, buf.data()).ok());
  ASSERT_TRUE(plog->Read(16, 4096, buf.data()).ok());
  ASSERT_TRUE(plog->Read(4112, 16, buf.data()).ok());
  ASSERT_TRUE(plog->Read(4128, 4096, buf.data()).ok());
  const IoSnapshot d = env.Snapshot() - before;

  const IoCounts& dbc = d.at(FileScope::kData, FileKind::kDb);
  EXPECT_EQ(dbc.reads, 3);
  EXPECT_EQ(dbc.read_bytes, 3 * 4096);
  const IoCounts& pc = d.at(FileScope::kData, FileKind::kPagelog);
  EXPECT_EQ(pc.reads, 5);
  EXPECT_EQ(pc.read_bytes, 5 * (16 + 4096));
  EXPECT_EQ(pc.writes, 0);

  const IoSnapshot all = env.Snapshot();
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kDb).writes, 4);
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kDb).write_bytes, 4 * 4096);
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kDb).syncs, 1);
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kWal).writes, 1);
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kWal).write_bytes, 100);
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kWal).syncs, 1);
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kPagelog).writes, 4);
  EXPECT_EQ(all.at(FileScope::kData, FileKind::kPagelog).write_bytes,
            2 * (16 + 4096));
  EXPECT_EQ(all.Scope(FileScope::kData).syncs, 2);
  // Every Sync takes the modeled flush latency.
  EXPECT_GE(all.Scope(FileScope::kData).sync_ns,
            2 * MeteredEnv::kSyncDelayUs * 1000);
  EXPECT_EQ(all.Scope(FileScope::kMeta).reads, 0);
}

TEST(MeteredEnvTest, SplitsCountsByCallingThread) {
  InMemoryEnv base;
  MeteredEnv env(&base);
  auto db = Open(&env, "x_data.db");
  std::string page(4096, 'd');
  ASSERT_TRUE(db->Write(0, 4096, page.data()).ok());
  std::thread::id other;
  std::thread t([&] {
    other = std::this_thread::get_id();
    std::string buf(4096, '\0');
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(db->Read(0, 4096, buf.data()).ok());
  });
  t.join();
  std::string buf(4096, '\0');
  ASSERT_TRUE(db->Read(0, 4096, buf.data()).ok());

  const auto by_thread = env.SnapshotByThread();
  ASSERT_EQ(by_thread.size(), 2u);
  const IoCounts& mine =
      by_thread.at(std::this_thread::get_id()).at(FileScope::kData, FileKind::kDb);
  const IoCounts& theirs = by_thread.at(other).at(FileScope::kData, FileKind::kDb);
  EXPECT_EQ(mine.writes, 1);
  EXPECT_EQ(mine.reads, 1);
  EXPECT_EQ(theirs.writes, 0);
  EXPECT_EQ(theirs.reads, 3);
  EXPECT_EQ(env.Snapshot().at(FileScope::kData, FileKind::kDb).reads, 4);

  // A second Env on the same thread keeps its own counts.
  MeteredEnv env2(&base);
  auto db2 = Open(&env2, "x_data.db");
  ASSERT_TRUE(db2->Read(0, 4096, buf.data()).ok());
  ASSERT_TRUE(db->Read(0, 4096, buf.data()).ok());
  EXPECT_EQ(env2.Snapshot().at(FileScope::kData, FileKind::kDb).reads, 1);
  EXPECT_EQ(env.SnapshotByThread()
                .at(std::this_thread::get_id())
                .at(FileScope::kData, FileKind::kDb)
                .reads,
            2);
}

TEST(MeteredEnvTest, DelaysOnlyDataStorePagelogReads) {
  constexpr int64_t kDelayUs = 3000;
  InMemoryEnv base;
  MeteredEnv env(&base);
  env.set_pagelog_read_delay_us(kDelayUs);
  std::string page(4096, 'q');
  std::map<std::string, std::unique_ptr<File>> files;
  for (const char* name :
       {"x_data.pagelog", "x_data.db", "x_data.maplog", "x_data.db.wal",
        "x_meta.pagelog"}) {
    files[name] = Open(&env, name);
    uint64_t at = 0;
    ASSERT_TRUE(files[name]->Append(page.size(), page.data(), &at).ok());
  }
  std::string buf(4096, '\0');
  for (auto& [name, f] : files) {
    ASSERT_TRUE(f->Read(0, 4096, buf.data()).ok());
  }
  const IoSnapshot s = env.Snapshot();
  EXPECT_GE(s.at(FileScope::kData, FileKind::kPagelog).read_ns, kDelayUs * 1000);
  for (FileKind k : {FileKind::kDb, FileKind::kMaplog, FileKind::kWal}) {
    EXPECT_LT(s.at(FileScope::kData, k).read_ns, kDelayUs * 1000)
        << FileKindName(k);
  }
  EXPECT_LT(s.at(FileScope::kMeta, FileKind::kPagelog).read_ns, kDelayUs * 1000);

  env.set_pagelog_read_delay_us(0);
  const IoSnapshot before = env.Snapshot();
  ASSERT_TRUE(files["x_data.pagelog"]->Read(0, 4096, buf.data()).ok());
  EXPECT_LT((env.Snapshot() - before).at(FileScope::kData, FileKind::kPagelog).read_ns,
            kDelayUs * 1000);
}

/// Runs one traced workload in a fresh directory and returns the metrics
/// (end-to-end and per-layer) by name.
std::map<std::string, double> TracedRun(const std::string& workload,
                                        uint64_t seed, const std::string& tag) {
  RunArgs args;
  args.workload = workload;
  args.seed = seed;
  args.seconds = 2;
  args.trace = true;
  args.workdir = ".bench_work/selftest-" + tag + "-" + std::to_string(getpid());
  args.trace_path = args.workdir + ".jsonl";
  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  Outcome out;
  rql::Status st = workload == "archive_sweep" ? RunArchiveSweep(args, &out)
                                               : RunGroupbyRecent(args, &out);
  std::filesystem::remove_all(args.workdir);
  std::filesystem::remove(args.trace_path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out.failed, 0);
  std::map<std::string, double> m;
  for (const auto& x : out.end_to_end) m[x.name] = x.value;
  for (const auto& x : out.per_layer) m[x.name] = x.value;
  return m;
}

TEST(SeedTest, OneSeedRepeatsCountsAndSpace) {
  for (const char* workload : {"archive_sweep", "groupby_recent"}) {
    auto a = TracedRun(workload, 11, "a");
    auto b = TracedRun(workload, 11, "b");
    for (const char* name :
         {"space_amp", "storage.pagelog.reads_per_snap",
          "retro.archive_pages_per_snap", "storage.db.reads_per_snap"}) {
      ASSERT_TRUE(a.count(name)) << name;
      EXPECT_EQ(a[name], b[name]) << workload << " " << name;
    }
    // The Env's device reads and the engine's archive page count agree.
    EXPECT_EQ(a["storage.pagelog.reads_per_snap"],
              a["retro.archive_pages_per_snap"])
        << workload;
  }
}

}  // namespace
}  // namespace perfbench
