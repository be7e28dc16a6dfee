// Daemon-mode variant of bench_concurrent_runs: the same four-client
// overlapping-interval CollateData workload, but each client is a real
// socket client of an in-process rql server — sessions, wire protocol,
// run scheduler and all — instead of four hand-built in-process engines.
//
// The server wires every session's engine to one store-scoped
// sql::SharedScanCache and enables coalesced SPT builds, so the sharing
// bench_concurrent_runs demonstrates in-process must survive the daemon
// path end to end. The store simulates a bandwidth-limited cold archive
// (per-fetch latency, one fetch slot, small page cache) so concurrent
// runs actually contend for pages.
//
// Self-checks (CI gates):
//   * every client's result table, fetched over the wire from its
//     session's metadata database, is byte-identical to a sequential
//     flag-off in-process oracle;
//   * the shared cache saw cross-session hits AND coalesced decodes > 0 —
//     concurrent daemon runs blocked on each other's in-flight decodes
//     instead of duplicating them;
//   * per-run kRunDone attribution sums to the cache's own counters;
//   * the scheduler completed exactly the submitted runs, rejected none;
//   * the wire-protocol stats document is pullable during operation and
//     carries all four sections.
//
// Results go to BENCH_server.json (CI artifact, collated by
// tools/bench_summary.py).

#include "bench_common.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"

namespace rql::bench {
namespace {

namespace server = rql::server;

constexpr int kClients = 4;
constexpr int kSnapshotsPerClient = 40;
constexpr int kStagger = 4;
constexpr int64_t kArchiveLatencyUs = 2000;
constexpr uint64_t kSnapshotCachePages = 32;
constexpr char kResultTable[] = "ConcOut";

std::string ClientQs(tpch::History* history, int i) {
  std::string qs = history->QsInterval(1 + i * kStagger, kSnapshotsPerClient);
  // Odd clients sweep descending — independent daemon clients are not in
  // lockstep, and lockstep ascending sweeps would let the store's page
  // cache hide the duplication the shared cache removes.
  if (i % 2 == 1) qs += " DESC";
  return qs;
}

/// Sequential flag-off in-process oracle: the byte-identity reference.
std::vector<std::vector<std::string>> RunOracle(tpch::History* history) {
  std::vector<std::vector<std::string>> oracle(kClients);
  for (int i = 0; i < kClients; ++i) {
    storage::InMemoryEnv meta_env;
    auto meta = sql::Database::Open(&meta_env, "meta");
    if (!meta.ok()) Fail(meta.status(), "open oracle meta db");
    auto data = sql::Database::Attach(history->data()->store());
    if (!data.ok()) Fail(data.status(), "attach oracle data db");
    RqlOptions flags_off;
    flags_off.batch_execution = false;
    RqlEngine engine(data->get(), meta->get(), flags_off);
    BENCH_CHECK(engine.EnsureSnapIds());
    for (retro::SnapshotId s = 1; s <= history->last_snapshot(); ++s) {
      auto row = (*meta)->AppendRow(
          "SnapIds", {sql::Value::Integer(s), sql::Value::Text("snap"),
                      sql::Value::Text("")});
      if (!row.ok()) Fail(row.status(), "populate oracle SnapIds");
    }
    BENCH_CHECK(engine.CollateData(ClientQs(history, i), kQqIo,
                                   kResultTable));
    auto rows = (*meta)->Query(std::string("SELECT * FROM ") + kResultTable);
    if (!rows.ok()) Fail(rows.status(), "dump oracle result table");
    for (const sql::Row& row : rows->rows) {
      oracle[i].push_back(sql::EncodeRow(row));
    }
  }
  return oracle;
}

struct DaemonClient {
  std::unique_ptr<server::Client> client;
  double wall_ms = 0;
  server::Client::RunResult run;
  std::vector<std::string> rows;
};

int Run() {
  auto uw15 = GetHistory("uw15_small");
  if (!uw15.ok()) Fail(uw15.status(), "uw15_small history");
  tpch::History* history = uw15->get();
  retro::SnapshotStore* store = history->data()->store();

  std::printf("rql server daemon mode: %d socket clients, concurrent "
              "CollateData(Qq_io) over %d overlapping snapshots each, "
              "UW15\n\n",
              kClients, kSnapshotsPerClient);

  std::vector<std::vector<std::string>> oracle = RunOracle(history);

  server::ServerOptions options;
  options.socket_path =
      "/tmp/rql_bench_server_" + std::to_string(::getpid()) + ".sock";
  options.scheduler.dispatch_threads = kClients;
  auto srv = server::Server::Create(history->data(), history->meta(),
                                    std::move(options));
  if (!srv.ok()) Fail(srv.status(), "create server");
  BENCH_CHECK((*srv)->Start());

  store->set_simulated_archive_latency_us(kArchiveLatencyUs);
  store->set_simulated_archive_fetch_slots(1);
  store->snapshot_cache()->set_capacity(kSnapshotCachePages);
  store->ClearSnapshotCache();

  std::vector<DaemonClient> clients(kClients);
  Stopwatch total_sw;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      DaemonClient& c = clients[i];
      auto conn = server::Client::Connect((*srv)->socket_path());
      if (!conn.ok()) Fail(conn.status(), "connect client");
      c.client = std::move(*conn);
      Stopwatch sw;
      auto run_id = c.client->StartRun(server::Mechanism::kCollateData,
                                       ClientQs(history, i), kQqIo,
                                       kResultTable);
      if (!run_id.ok()) Fail(run_id.status(), "submit run");
      auto done = c.client->WaitRun(*run_id);
      if (!done.ok()) Fail(done.status(), "wait run");
      if (!done->status.ok()) Fail(done->status, "scheduled run");
      c.wall_ms = sw.ElapsedSeconds() * 1000.0;
      c.run = *done;
      auto rows = c.client->MetaSql(std::string("SELECT * FROM ") +
                                    kResultTable);
      if (!rows.ok()) Fail(rows.status(), "dump client result table");
      for (const sql::Row& row : rows->rows) {
        c.rows.push_back(sql::EncodeRow(row));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = total_sw.ElapsedSeconds() * 1000.0;

  // Stats stay pullable over the wire while sessions are open.
  auto wire_stats = clients[0].client->StatsJson();
  if (!wire_stats.ok()) Fail(wire_stats.status(), "pull wire stats");

  store->set_simulated_archive_latency_us(0);
  store->set_simulated_archive_fetch_slots(0);
  const sql::SharedScanCache::Stats cs = (*srv)->scan_cache()->GetStats();
  server::RunScheduler* scheduler = (*srv)->scheduler();

  std::printf("%-8s %10s %10s %10s %10s %10s\n", "client", "wall_ms",
              "iters", "hits", "coalesced", "rows");
  int64_t sum_hits = 0, sum_coalesced = 0;
  for (int i = 0; i < kClients; ++i) {
    const DaemonClient& c = clients[i];
    std::printf("%-8d %10.2f %10u %10lld %10lld %10zu\n", i, c.wall_ms,
                c.run.iterations, static_cast<long long>(c.run.shared_page_hits),
                static_cast<long long>(c.run.coalesced_decodes),
                c.rows.size());
    sum_hits += c.run.shared_page_hits;
    sum_coalesced += c.run.coalesced_decodes;
  }
  std::printf("\ntotal %.2fms; cache: %llu entries, %lld shared hits, "
              "%lld coalesced; scheduler: %lld completed, %lld rejected\n",
              wall_ms, static_cast<unsigned long long>(cs.entries),
              static_cast<long long>(cs.shared_hits),
              static_cast<long long>(cs.coalesced_decodes),
              static_cast<long long>(scheduler->completed()),
              static_cast<long long>(scheduler->admission_rejects()));

  bool checks_ok = true;
  for (int i = 0; i < kClients; ++i) {
    if (clients[i].rows != oracle[i]) {
      std::printf("CHECK FAILED: daemon client %d result table differs "
                  "from the sequential in-process oracle\n", i);
      checks_ok = false;
    }
  }
  if (cs.shared_hits <= 0) {
    std::printf("CHECK FAILED: no cross-session shared-cache hits\n");
    checks_ok = false;
  }
  if (cs.coalesced_decodes <= 0) {
    std::printf("CHECK FAILED: no coalesced decodes — concurrent daemon "
                "runs never waited on each other's in-flight decode\n");
    checks_ok = false;
  }
  if (sum_hits != cs.shared_hits || sum_coalesced != cs.coalesced_decodes) {
    std::printf("CHECK FAILED: kRunDone attribution drifted from the "
                "cache's counters (runs %lld/%lld vs cache %lld/%lld)\n",
                static_cast<long long>(sum_hits),
                static_cast<long long>(sum_coalesced),
                static_cast<long long>(cs.shared_hits),
                static_cast<long long>(cs.coalesced_decodes));
    checks_ok = false;
  }
  if (scheduler->completed() != kClients ||
      scheduler->admission_rejects() != 0) {
    std::printf("CHECK FAILED: scheduler completed %lld / rejected %lld, "
                "expected %d / 0\n",
                static_cast<long long>(scheduler->completed()),
                static_cast<long long>(scheduler->admission_rejects()),
                kClients);
    checks_ok = false;
  }
  for (const char* section :
       {"\"server\"", "\"scheduler\"", "\"scan_cache\"", "\"store\""}) {
    if (wire_stats->find(section) == std::string::npos) {
      std::printf("CHECK FAILED: wire stats document missing %s section\n",
                  section);
      checks_ok = false;
    }
  }

  JsonWriter json("BENCH_server.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.Field("clients", kClients);
  json.Field("snapshots_per_client", kSnapshotsPerClient);
  json.Field("archive_latency_us", kArchiveLatencyUs);
  json.Field("wall_ms", wall_ms);
  json.BeginArray("clients_detail");
  for (const DaemonClient& c : clients) {
    json.BeginObject();
    json.Field("wall_ms", c.wall_ms);
    json.Field("iterations", static_cast<int64_t>(c.run.iterations));
    json.Field("shared_page_hits", c.run.shared_page_hits);
    json.Field("coalesced_decodes", c.run.coalesced_decodes);
    json.Field("result_rows", static_cast<int64_t>(c.rows.size()));
    json.EndObject();
  }
  json.EndArray();
  json.BeginObject("shared_cache");
  json.Field("entries", static_cast<int64_t>(cs.entries));
  json.Field("shared_hits", cs.shared_hits);
  json.Field("misses", cs.misses);
  json.Field("coalesced_decodes", cs.coalesced_decodes);
  json.Field("inserts", cs.inserts);
  json.Field("evictions", cs.evictions);
  json.EndObject();
  json.BeginObject("scheduler");
  json.Field("completed", scheduler->completed());
  json.Field("cancelled", scheduler->cancelled());
  json.Field("admission_rejects", scheduler->admission_rejects());
  json.EndObject();
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  for (DaemonClient& c : clients) c.client.reset();
  (*srv)->Stop();

  std::printf("\nExpected: every daemon client byte-identical to the "
              "sequential oracle, with\ncross-session shared-cache hits "
              "and coalesced decodes through the scheduler.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
