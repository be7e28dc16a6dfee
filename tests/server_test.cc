// rql_serverd end-to-end: session lifecycle over the wire protocol,
// admission-control rejection, cooperative cancellation mid-run (store
// left fully reusable), prepared statements with per-session AS OF plan
// state, idle-session reaping, the SnapIds mirror contract (declarations
// and truncations reach every session, the mirror stays byte-identical
// to the owner table, is read-only, and copies only new rows), the
// per-run latency histograms, and the concurrency gate — four socket
// clients running staggered CollateData intervals concurrently, byte-
// identical to an in-process sequential oracle, with the shared scan
// cache showing actual cross-run sharing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "retro/metrics.h"
#include "rql/rql.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/database.h"
#include "storage/env.h"

namespace rql::server {
namespace {

using sql::Row;
using sql::Value;

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/rql_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Owner databases + a history: table t(k, v), 600 rows, `snapshots`
/// snapshots each bumping v on a sliding key subset (the
/// shared_scan_cache_test fixture shape).
struct HistoryFixture {
  std::unique_ptr<storage::InMemoryEnv> env =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  retro::SnapshotId last_snap = retro::kNoSnapshot;
};

HistoryFixture MakeHistory(int snapshots) {
  HistoryFixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(f.data->Exec("CREATE TABLE t (k INTEGER, v INTEGER)").ok());
  for (int k = 0; k < 600; ++k) {
    EXPECT_TRUE(
        f.data->AppendRow("t", {Value::Integer(k), Value::Integer(k * 10)})
            .ok());
  }
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    EXPECT_TRUE(f.data
                    ->Exec("UPDATE t SET v = v + 1 WHERE k % 37 = " +
                           std::to_string(s % 37))
                    .ok());
    auto snap = f.engine->CommitWithSnapshot("ts-" + std::to_string(s));
    EXPECT_TRUE(snap.ok());
    if (snap.ok()) f.last_snap = *snap;
  }
  return f;
}

std::string QsRange(retro::SnapshotId first, retro::SnapshotId last) {
  return "SELECT snap_id FROM SnapIds WHERE snap_id >= " +
         std::to_string(first) + " AND snap_id <= " + std::to_string(last) +
         " ORDER BY snap_id";
}

constexpr char kQq[] = "SELECT k, v FROM t WHERE v % 3 = 0";

std::vector<std::string> EncodeRows(const sql::QueryResult& result) {
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const Row& row : result.rows) out.push_back(sql::EncodeRow(row));
  return out;
}

/// Integer value of the first `"key": ` in a kStats document; -1 if absent.
int64_t StatsField(const std::string& stats, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = stats.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(stats.c_str() + at + needle.size());
}

/// The session's SnapIds mirror, read over the wire, equals the owner's
/// canonical table byte for byte (rows and their order).
void ExpectMirrorMatchesOwner(Client* client, sql::Database* owner_meta) {
  auto mirror = client->MetaSql("SELECT * FROM SnapIds");
  ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
  auto owner = owner_meta->Query("SELECT * FROM SnapIds");
  ASSERT_TRUE(owner.ok()) << owner.status().ToString();
  EXPECT_EQ(EncodeRows(*mirror), EncodeRows(*owner));
}

/// Runs CollateData over every SnapIds row and returns how many
/// iterations the run's Qs selected.
int64_t RunOverAllSnapIds(Client* client) {
  auto run = client->StartRun(Mechanism::kCollateData,
                              "SELECT snap_id FROM SnapIds ORDER BY snap_id",
                              kQq, "Out");
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return -1;
  auto done = client->WaitRun(*run);
  EXPECT_TRUE(done.ok() && done->status.ok());
  if (!done.ok() || !done->status.ok()) return -1;
  return done->iterations;
}

/// COUNT(*) of SnapIds as the session's metadata database sees it.
int64_t MirrorCount(Client* client) {
  auto count = client->MetaSql("SELECT COUNT(*) FROM SnapIds");
  EXPECT_TRUE(count.ok()) << count.status().ToString();
  if (!count.ok() || count->rows.size() != 1) return -1;
  return count->rows[0][0].AsInt();
}

/// Polls until `server` has no active session (disconnect teardown is
/// asynchronous w.r.t. the client's close).
void WaitForNoSessions(Server* server) {
  for (int i = 0; i < 200 && server->active_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->active_sessions(), 0);
}

TEST(ServerTest, SessionLifecycle) {
  HistoryFixture f = MakeHistory(6);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT((*client)->session_id(), 0u);
  EXPECT_EQ((*server)->active_sessions(), 1);

  // Snapshot read over the attached handle, byte-identical to a local
  // query on the owning handle.
  const std::string read = "SELECT AS OF 3 k, v FROM t WHERE k < 40";
  auto remote = (*client)->Sql(read);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto local = f.data->Query(read);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(EncodeRows(*remote), EncodeRows(*local));

  // Snapshot declaration goes through the owning engine and lands in the
  // canonical SnapIds every session sees.
  auto snap = (*client)->DeclareSnapshot("from-wire");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, f.last_snap + 1);
  auto snaps = (*client)->ListSnapshots();
  ASSERT_TRUE(snaps.ok());
  EXPECT_EQ(snaps->rows.size(), static_cast<size_t>(f.last_snap) + 1);

  // A scheduled run: mechanism result lands in the session's private
  // metadata database, readable via kMetaSql.
  auto run = (*client)->StartRun(Mechanism::kCollateData,
                                 QsRange(1, f.last_snap), kQq, "Out");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->status.ok()) << done->status.ToString();
  EXPECT_EQ(done->iterations, static_cast<uint32_t>(f.last_snap));
  auto out = (*client)->MetaSql("SELECT COUNT(*) FROM Out");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_GT(out->rows[0][0].AsInt(), 0);

  // Schema listing reads the always-fresh owner catalog.
  auto tables = (*client)->ListSchema(false);
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->rows.size(), 1u);
  EXPECT_EQ(tables->rows[0][0].ToString(), "t");

  auto stats = (*client)->StatsJson();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"active_sessions\": 1"), std::string::npos);
  EXPECT_NE(stats->find("\"scheduler\""), std::string::npos);

  client->reset();  // goodbye
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, CancelMidRunLeavesStoreReusable) {
  HistoryFixture f = MakeHistory(12);
  // Make every iteration pay real (simulated) archive latency so the run
  // is reliably still executing when the cancel lands.
  f.data->store()->set_simulated_archive_latency_us(5000);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  auto run = (*client)->StartRun(Mechanism::kCollateData,
                                 QsRange(1, f.last_snap), kQq, "Out");
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE((*client)->CancelRun(*run).ok());
  auto done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->status.code(), StatusCode::kAborted)
      << done->status.ToString();

  // Cancelling an unknown run id is a clean NotFound, not a hang.
  Status missing = (*client)->CancelRun(999999);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // The store must be fully reusable after the abort: the same session
  // runs the same mechanism to completion and the result matches the
  // sequential in-process oracle.
  f.data->store()->set_simulated_archive_latency_us(0);
  run = (*client)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_TRUE(run.ok());
  done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->status.ok()) << done->status.ToString();
  auto remote_rows = (*client)->MetaSql("SELECT * FROM Out");
  ASSERT_TRUE(remote_rows.ok());

  ASSERT_TRUE(f.engine->CollateData(QsRange(1, f.last_snap), kQq, "Oracle")
                  .ok());
  auto oracle = f.meta->Query("SELECT * FROM Oracle");
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(EncodeRows(*remote_rows), EncodeRows(*oracle));

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, DisconnectMidRunReleasesSchedulerSlots) {
  HistoryFixture f = MakeHistory(12);
  f.data->store()->set_simulated_archive_latency_us(5000);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.scheduler.dispatch_threads = 1;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  {
    auto client = Client::Connect(options.socket_path);
    ASSERT_TRUE(client.ok());
    auto run = (*client)->StartRun(Mechanism::kCollateData,
                                   QsRange(1, f.last_snap), kQq, "Out");
    ASSERT_TRUE(run.ok());
    // Disconnect while the run is executing: teardown must cancel it,
    // wait it out of the scheduler and release the session.
  }
  WaitForNoSessions(server->get());
  EXPECT_EQ((*server)->scheduler()->active(), 0);
  EXPECT_EQ((*server)->scheduler()->queued(), 0);

  // The single dispatch thread must be free again for a new session.
  f.data->store()->set_simulated_archive_latency_us(0);
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  auto run = (*client)->StartRun(Mechanism::kCollateData,
                                 QsRange(1, f.last_snap), kQq, "Out");
  ASSERT_TRUE(run.ok());
  auto done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->status.ok()) << done->status.ToString();

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, AdmissionControlRejectsWhenQueueFull) {
  HistoryFixture f = MakeHistory(8);
  f.data->store()->set_simulated_archive_latency_us(5000);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.scheduler.dispatch_threads = 1;
  options.scheduler.queue_limit = 1;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto c1 = Client::Connect(options.socket_path);
  auto c2 = Client::Connect(options.socket_path);
  auto c3 = Client::Connect(options.socket_path);
  ASSERT_TRUE(c1.ok() && c2.ok() && c3.ok());

  // Run 1 occupies the only dispatch thread (slow archive); wait until it
  // leaves the queue.
  auto r1 = (*c1)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_TRUE(r1.ok());
  for (int i = 0; i < 200 && (*server)->scheduler()->active() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ((*server)->scheduler()->active(), 1);

  // Run 2 fills the queue (limit 1); run 3 must be rejected at admission.
  auto r2 = (*c2)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_TRUE(r2.ok());
  auto r3 = (*c3)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kAborted);
  EXPECT_NE(r3.status().message().find("admission control"),
            std::string::npos)
      << r3.status().ToString();
  EXPECT_GE((*server)->scheduler()->admission_rejects(), 1);

  // Drain: cancel both admitted runs and wait them out.
  ASSERT_TRUE((*c1)->CancelRun(*r1).ok());
  ASSERT_TRUE((*c2)->CancelRun(*r2).ok());
  auto d1 = (*c1)->WaitRun(*r1);
  auto d2 = (*c2)->WaitRun(*r2);
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_EQ(d2->status.code(), StatusCode::kAborted);

  c1->reset();
  c2->reset();
  c3->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, PreparedStatementsOverWire) {
  HistoryFixture f = MakeHistory(6);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  auto stmt = (*client)->Prepare("SELECT v FROM t WHERE k = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE((*client)->BindValue(*stmt, 1, Value::Integer(37)).ok());

  // Re-point the same prepared plan at each snapshot via AS OF binding;
  // every execution must match the equivalent one-shot query.
  for (retro::SnapshotId s = 1; s <= f.last_snap; ++s) {
    ASSERT_TRUE((*client)->BindAsOf(*stmt, s).ok());
    auto remote = (*client)->ExecPrepared(*stmt);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto local = f.data->Query("SELECT AS OF " + std::to_string(s) +
                               " v FROM t WHERE k = 37");
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(EncodeRows(*remote), EncodeRows(*local)) << "snapshot " << s;
  }
  EXPECT_TRUE((*client)->ClosePrepared(*stmt).ok());
  EXPECT_FALSE((*client)->ExecPrepared(*stmt).ok());

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, IdleSessionIsReaped) {
  HistoryFixture f = MakeHistory(2);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.idle_timeout_us = 150 * 1000;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*server)->active_sessions(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  WaitForNoSessions(server->get());
  // The reaped connection surfaces as an I/O error on the next request.
  auto result = (*client)->Sql("SELECT AS OF 1 COUNT(*) FROM t");
  EXPECT_FALSE(result.ok());

  (*server)->Stop();
}

TEST(ServerTest, SessionCapacityIsEnforced) {
  HistoryFixture f = MakeHistory(2);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.max_sessions = 2;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto c1 = Client::Connect(options.socket_path);
  auto c2 = Client::Connect(options.socket_path);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto c3 = Client::Connect(options.socket_path);
  ASSERT_FALSE(c3.ok());
  EXPECT_EQ(c3.status().code(), StatusCode::kAborted)
      << c3.status().ToString();

  c1->reset();
  c2->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerSnapIdsTest, LaterDeclarationsReachAnExistingSession) {
  HistoryFixture f = MakeHistory(6);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto analyst = Client::Connect(options.socket_path);
  auto writer = Client::Connect(options.socket_path);
  ASSERT_TRUE(analyst.ok() && writer.ok());
  Client* a = analyst->get();

  EXPECT_EQ(RunOverAllSnapIds(a), 6);
  ExpectMirrorMatchesOwner(a, f.meta.get());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE((*writer)->DeclareSnapshot("later-" + std::to_string(i)).ok());
    EXPECT_EQ(MirrorCount(a), 6 + i);
    ExpectMirrorMatchesOwner(a, f.meta.get());
    EXPECT_EQ(RunOverAllSnapIds(a), 6 + i);
  }
  auto stats = (*server)->StatsJson();
  EXPECT_EQ(StatsField(stats, "rows"), 9);
  EXPECT_EQ(StatsField(stats, "rebuilds"), 0);

  analyst->reset();
  writer->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerSnapIdsTest, DeclarationsBeforeStartReachNewSessions) {
  // In-process seeding (rql_serverd --seed-demo) declares snapshots
  // after Create has loaded the canonical log and before Start.
  HistoryFixture f = MakeHistory(2);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.data->Exec("UPDATE t SET v = v + 1 WHERE k = " +
                             std::to_string(i))
                    .ok());
    auto snap = (*server)->DeclareSnapshot("seed-" + std::to_string(i));
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(*snap, f.last_snap + 1 + static_cast<retro::SnapshotId>(i));
  }
  ASSERT_TRUE((*server)->Start().ok());
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(MirrorCount(client->get()), 5);
  ExpectMirrorMatchesOwner(client->get(), f.meta.get());
  EXPECT_EQ(RunOverAllSnapIds(client->get()), 5);

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerSnapIdsTest, TruncateReachesExistingAndNewSessions) {
  HistoryFixture f = MakeHistory(12);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto existing = Client::Connect(options.socket_path);
  ASSERT_TRUE(existing.ok());
  Client* a = existing->get();
  EXPECT_EQ(RunOverAllSnapIds(a), 12);
  ExpectMirrorMatchesOwner(a, f.meta.get());

  // Every view of SnapIds — a run's Qs, MetaSql, ListSnapshots — lists
  // exactly the ids from `first` through `last`, for either session.
  auto expect_ids = [&](Client* c, int64_t first, int64_t last) {
    const int64_t n = last - first + 1;
    EXPECT_EQ(RunOverAllSnapIds(c), n);
    EXPECT_EQ(MirrorCount(c), n);
    auto min_id = c->MetaSql("SELECT MIN(snap_id) FROM SnapIds");
    ASSERT_TRUE(min_id.ok());
    EXPECT_EQ(min_id->rows[0][0].AsInt(), first);
    auto listed = c->ListSnapshots();
    ASSERT_TRUE(listed.ok());
    ASSERT_EQ(static_cast<int64_t>(listed->rows.size()), n);
    EXPECT_EQ(listed->rows.front()[0].AsInt(), first);
    EXPECT_EQ(listed->rows.back()[0].AsInt(), last);
    ExpectMirrorMatchesOwner(c, f.meta.get());
  };

  auto earliest = a->Truncate(6);
  ASSERT_TRUE(earliest.ok()) << earliest.status().ToString();
  EXPECT_EQ(*earliest, 6u);
  expect_ids(a, 6, 12);
  auto fresh = Client::Connect(options.socket_path);
  ASSERT_TRUE(fresh.ok());
  Client* b = fresh->get();
  expect_ids(b, 6, 12);

  // Declarations after a truncation land behind the survivors in the
  // owner table and in both mirrors alike.
  ASSERT_TRUE(b->DeclareSnapshot("after-1").ok());
  ASSERT_TRUE(a->DeclareSnapshot("after-2").ok());
  expect_ids(a, 6, 14);
  expect_ids(b, 6, 14);

  ASSERT_TRUE(b->Truncate(10).ok());
  expect_ids(a, 10, 14);
  expect_ids(b, 10, 14);
  auto stats = (*server)->StatsJson();
  EXPECT_EQ(StatsField(stats, "rows"), 5);
  // One rebuild per truncation per session that already held rows.
  EXPECT_EQ(StatsField(stats, "rebuilds"), 3);

  existing->reset();
  fresh->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerSnapIdsTest, MetaSqlWritesToSnapIdsAreRejected) {
  HistoryFixture f = MakeHistory(4);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  Client* c = client->get();
  ExpectMirrorMatchesOwner(c, f.meta.get());

  const std::vector<std::string> writes = {
      "INSERT INTO SnapIds VALUES (99, 'ts', 'forged')",
      "UPDATE SnapIds SET label = 'x' WHERE snap_id = 1",
      "DELETE FROM SnapIds WHERE snap_id = 2",
      "delete from snapids",
      "DROP TABLE SnapIds",
      "CREATE TABLE Scratch (a INTEGER); DROP TABLE IF EXISTS SnapIds",
      "SELECT CollateData(snap_id, 'SELECT k FROM t', 'SnapIds') "
      "FROM SnapIds",
  };
  for (const std::string& sql : writes) {
    auto result = c->MetaSql(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(result.status().message().find("SnapIds"), std::string::npos)
        << result.status().ToString();
    ExpectMirrorMatchesOwner(c, f.meta.get());
  }
  // A rejected script runs no statement at all, not even its prefix.
  auto scratch = c->MetaSql("SELECT COUNT(*) FROM Scratch");
  EXPECT_FALSE(scratch.ok());
  // Nor can a scheduled run name SnapIds as its result table.
  auto run = c->StartRun(Mechanism::kCollateData, QsRange(1, 2), kQq,
                         "snapids");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  // Reads, and result tables of other names, are untouched.
  EXPECT_EQ(MirrorCount(c), 4);
  EXPECT_EQ(RunOverAllSnapIds(c), 4);
  ExpectMirrorMatchesOwner(c, f.meta.get());

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerSnapIdsTest, ClientTransactionsKeepTheMirrorExact) {
  HistoryFixture f = MakeHistory(4);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto client = Client::Connect(options.socket_path);
  auto writer = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok() && writer.ok());
  Client* c = client->get();
  ExpectMirrorMatchesOwner(c, f.meta.get());

  // Rows mirrored inside a committed client transaction stay.
  ASSERT_TRUE(c->MetaSql("BEGIN").ok());
  ASSERT_TRUE((*writer)->DeclareSnapshot("in-commit").ok());
  EXPECT_EQ(MirrorCount(c), 5);
  ASSERT_TRUE(c->MetaSql("COMMIT").ok());
  ExpectMirrorMatchesOwner(c, f.meta.get());
  EXPECT_EQ(StatsField((*server)->StatsJson(), "rebuilds"), 0);

  // A ROLLBACK undoes rows mirrored inside it; the next refresh rebuilds.
  ASSERT_TRUE(c->MetaSql("BEGIN").ok());
  ASSERT_TRUE((*writer)->DeclareSnapshot("in-rollback").ok());
  EXPECT_EQ(MirrorCount(c), 6);
  ASSERT_TRUE(c->MetaSql("ROLLBACK").ok());
  ExpectMirrorMatchesOwner(c, f.meta.get());
  EXPECT_EQ(MirrorCount(c), 6);
  EXPECT_EQ(StatsField((*server)->StatsJson(), "rebuilds"), 1);

  client->reset();
  writer->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

// The O(new rows) property: refreshes copy only the rows declared since
// the session's previous one. The full-table copy this replaces would
// have mirrored about 20 x 300 rows here.
TEST(ServerSnapIdsTest, MirrorCopiesOnlyNewRows) {
  constexpr int kHistory = 300;
  HistoryFixture f = MakeHistory(kHistory);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  Client* c = client->get();

  int declared = 0;
  retro::SnapshotId last = f.last_snap;
  for (int i = 0; i < 10; ++i) {
    if (i % 3 == 2) {
      auto snap = c->DeclareSnapshot("between-" + std::to_string(i));
      ASSERT_TRUE(snap.ok());
      last = *snap;
      ++declared;
    }
    // The run's Qs already sees a snapshot declared just before it.
    auto run = c->StartRun(Mechanism::kCollateData, QsRange(last - 1, last),
                           kQq, "Out");
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto done = c->WaitRun(*run);
    ASSERT_TRUE(done.ok() && done->status.ok());
    EXPECT_EQ(done->iterations, 2u);
    auto fetched = c->MetaSql("SELECT * FROM Out");
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  }
  auto stats = (*server)->StatsJson();
  EXPECT_EQ(StatsField(stats, "rows"), kHistory + declared);
  EXPECT_EQ(StatsField(stats, "mirrored_rows"), kHistory + declared);
  EXPECT_EQ(StatsField(stats, "rebuilds"), 0);
  ExpectMirrorMatchesOwner(c, f.meta.get());

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerMetricsTest, RunHistogramsCountEveryCompletedRun) {
  HistoryFixture f = MakeHistory(8);
  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  options.scheduler.dispatch_threads = 1;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  Client* c = client->get();

  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) {
    auto run = c->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                           kQq, "Out");
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(c->WaitRun(*run).ok());
  }
  // Two more, cancelled: one probably mid-run, one probably still queued
  // behind it — either way each completes exactly once.
  f.data->store()->set_simulated_archive_latency_us(5000);
  auto slow = c->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                          kQq, "Slow");
  auto queued = c->StartRun(Mechanism::kCollateData,
                            QsRange(1, f.last_snap), kQq, "Queued");
  ASSERT_TRUE(slow.ok() && queued.ok());
  ASSERT_TRUE(c->CancelRun(*queued).ok());
  ASSERT_TRUE(c->CancelRun(*slow).ok());
  ASSERT_TRUE(c->WaitRun(*slow).ok());
  ASSERT_TRUE(c->WaitRun(*queued).ok());

  retro::MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  const int64_t completed = snap.gauges["server.runs_completed"];
  EXPECT_EQ(completed, kRuns + 2);
  EXPECT_EQ(snap.histograms["server.queue_wait_us"].count, completed);
  EXPECT_EQ(snap.histograms["server.run_us"].count, completed);
  EXPECT_GT(snap.histograms["server.run_us"].sum_us, 0);

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

// The concurrency gate: four socket clients, staggered overlapping
// intervals (odd clients descending), concurrent scheduled runs — every
// client's result table byte-identical to a sequential in-process oracle
// computed flag-off on the owning engine, and the store-scoped shared
// cache showing real cross-session sharing.
TEST(ServerConcurrencyTest, FourClientsByteIdenticalToSequentialOracle) {
  constexpr int kClients = 4;
  constexpr int kSpan = 10;
  constexpr int kStagger = 2;
  HistoryFixture f = MakeHistory(16);

  // In-process oracle, sequential, flag-off defaults.
  std::vector<std::vector<std::string>> oracle(kClients);
  for (int i = 0; i < kClients; ++i) {
    std::string qs = QsRange(1 + i * kStagger, i * kStagger + kSpan);
    if (i % 2 == 1) qs += " DESC";
    ASSERT_TRUE(
        f.engine->CollateData(qs, kQq, "Oracle" + std::to_string(i)).ok());
    auto rows = f.meta->Query("SELECT * FROM Oracle" + std::to_string(i));
    ASSERT_TRUE(rows.ok());
    oracle[i] = EncodeRows(*rows);
    ASSERT_FALSE(oracle[i].empty());
  }

  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.scheduler.dispatch_threads = kClients;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  struct ClientRun {
    std::unique_ptr<Client> client;
    std::vector<std::string> rows;
    Status status;
    int64_t shared_hits = 0;
  };
  std::vector<ClientRun> runs(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientRun& r = runs[i];
      auto client = Client::Connect(options.socket_path);
      if (!client.ok()) {
        r.status = client.status();
        return;
      }
      r.client = std::move(*client);
      std::string qs = QsRange(1 + i * kStagger, i * kStagger + kSpan);
      if (i % 2 == 1) qs += " DESC";
      auto run = r.client->StartRun(Mechanism::kCollateData, qs, kQq, "Out");
      if (!run.ok()) {
        r.status = run.status();
        return;
      }
      auto done = r.client->WaitRun(*run);
      if (!done.ok()) {
        r.status = done.status();
        return;
      }
      if (!done->status.ok()) {
        r.status = done->status;
        return;
      }
      r.shared_hits = done->shared_page_hits;
      auto rows = r.client->MetaSql("SELECT * FROM Out");
      if (!rows.ok()) {
        r.status = rows.status();
        return;
      }
      r.rows = EncodeRows(*rows);
    });
  }
  for (std::thread& t : threads) t.join();

  int64_t total_shared_hits = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(runs[i].status.ok())
        << "client " << i << ": " << runs[i].status.ToString();
    EXPECT_EQ(runs[i].rows, oracle[i]) << "client " << i;
    total_shared_hits += runs[i].shared_hits;
  }
  // Cross-session sharing actually happened: the staggered intervals
  // overlap heavily, so decoded page versions were served across runs.
  EXPECT_GT(total_shared_hits, 0);
  sql::SharedScanCache::Stats cache = (*server)->scan_cache()->GetStats();
  EXPECT_GT(cache.shared_hits, 0);

  for (ClientRun& r : runs) r.client.reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

}  // namespace
}  // namespace rql::server
