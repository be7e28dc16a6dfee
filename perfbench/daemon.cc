// daemon_mixed: an in-process rql_serverd Server at ServerOptions defaults
// (only the socket path set), driven over its Unix socket by four
// connections of this process:
//   * 2 analysts in a closed loop, each submitting CollateData(Qq_io) runs in
//     batches of 2 outstanding over the most recent snapshots, fetching each
//     result table over the wire, then thinking;
//   * 1 interactive client in a closed loop running prepared AS OF point
//     lookups at seeded snapshot/key pairs;
//   * 1 writer in an open loop, a fixed number of commits due at random
//     times, each refresh DML then DeclareSnapshot; its latency counts from
//     when each commit was due.
// This is the only workload using the server module, and the only one
// where commits run beside concurrent snapshot reads.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <thread>

#include "retro/metrics.h"
#include "rql/rql.h"
#include "server/client.h"
#include "server/server.h"
#include "span_trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rql::Result;
using rql::Status;
using rql::retro::SnapshotId;
using rql::server::Client;

constexpr int kAnalysts = 2;
constexpr int kOutstanding = 2;
/// Snapshots per analyst run; fixed so run times are one population.
constexpr int kWindow = 8;
/// Built history and commit rate: at 30 seconds the writer commits 105
/// times, enough for ten samples beyond the p90, and grows the history by
/// a fifth.
constexpr int kSnapshots = 500;
constexpr double kCommitsPerSecond = 3.5;
// Think times are drawn uniformly around these means, and the writer's
// commits arrive at random times, so no client falls into step with
// another and the share of commits meeting an analyst request does not hang
// on a phase relation between them.
constexpr double kLookupThinkMs = 2;
constexpr double kAnalystThinkMs = 20;
constexpr auto kStatsPeriod = std::chrono::milliseconds(20);

/// Uniform in [0, 1).
double Uniform01(rql::Random* rng) {
  return static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
}

/// Sleeps uniformly between 0.5 and 1.5 times `mean_ms`.
void Think(rql::Random* rng, double mean_ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      mean_ms * (0.5 + Uniform01(rng))));
}

/// What one client thread observed; merged after the threads join.
struct ClientLog {
  Samples run_ms, submit_ms, wait_ms, fetch_ms;
  Samples lookup_ms, commit_ms, dml_ms, declare_ms, late_ms;
  int64_t attempted = 0;
  int64_t iterations = 0;
  int64_t runs = 0;
  std::vector<std::string> failures;

  struct RunRecord {
    SnapshotId first = 0, last = 0;
    std::vector<rql::sql::Row> rows;
  };
  std::vector<RunRecord> run_records;
  struct LookupRecord {
    LookupKey key;
    std::vector<rql::sql::Row> rows;
  };
  std::vector<LookupRecord> lookups;
  std::vector<SnapshotId> declared;

  void Merge(const ClientLog& o) {
    using Pair = std::pair<Samples*, const Samples*>;
    for (Pair pr : {Pair{&run_ms, &o.run_ms}, Pair{&submit_ms, &o.submit_ms},
                    Pair{&wait_ms, &o.wait_ms}, Pair{&fetch_ms, &o.fetch_ms},
                    Pair{&lookup_ms, &o.lookup_ms},
                    Pair{&commit_ms, &o.commit_ms}, Pair{&dml_ms, &o.dml_ms},
                    Pair{&declare_ms, &o.declare_ms},
                    Pair{&late_ms, &o.late_ms}}) {
      pr.first->Append(*pr.second);
    }
    attempted += o.attempted;
    iterations += o.iterations;
    runs += o.runs;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
    run_records.insert(run_records.end(), o.run_records.begin(),
                       o.run_records.end());
    lookups.insert(lookups.end(), o.lookups.begin(), o.lookups.end());
    declared.insert(declared.end(), o.declared.begin(), o.declared.end());
  }
};

struct Shared {
  std::string socket;
  int64_t deadline_ns = 0;
  uint64_t seed = 0;
  std::atomic<SnapshotId> latest{0};
  const std::vector<LookupKey>* keys = nullptr;
  int64_t min_key = 0, max_key = 0;
};

void Analyst(Shared* sh, int index, Client* client, ClientLog* log) {
  rql::Random rng(sh->seed * 0x9E3779B97F4A7C15ull + 100 + index);
  struct Pending {
    uint64_t run_id = 0;
    uint64_t request = 0;
    std::string table;
    SnapshotId first = 0, last = 0;
    int64_t t_submit = 0, t_queued = 0;
  };
  std::deque<Pending> pending;
  int slot = 0;
  bool first_batch = true;
  while (true) {
    if (pending.empty()) {
      // Runs go out in batches of kOutstanding, with think time once a
      // whole batch is read, so no run's latency includes the thinking.
      if (!first_batch) Think(&rng, kAnalystThinkMs);
      first_batch = false;
      for (int k = 0; k < kOutstanding && NowNs() < sh->deadline_ns; ++k) {
        Pending p;
        p.last = sh->latest.load();
        p.first = p.last - kWindow + 1;
        p.table = "r" + std::to_string(slot++ % kOutstanding);
        p.request = Tracer::NewRequestId();
        const std::string qs =
            "SELECT snap_id FROM SnapIds WHERE snap_id >= " +
            std::to_string(p.first) + " AND snap_id <= " +
            std::to_string(p.last) + " ORDER BY snap_id";
        Tracer::SetRequest(p.request);
        Result<uint64_t> id = Status::OK();
        {
          SpanScope op("op.run");
          p.t_submit = NowNs();
          SpanScope span("server.start_run");
          id = client->StartRun(rql::server::Mechanism::kCollateData, qs,
                                kQqIo, p.table);
          p.t_queued = NowNs();
        }
        if (!id.ok()) {
          ++log->attempted;
          log->failures.push_back("StartRun: " + id.status().ToString());
          continue;
        }
        p.run_id = *id;
        pending.push_back(p);
      }
      if (pending.empty()) {
        if (NowNs() >= sh->deadline_ns) break;
        continue;
      }
    }
    Pending p = pending.front();
    pending.pop_front();
    Tracer::SetRequest(p.request);
    ++log->attempted;
    Result<Client::RunResult> done = Status::OK();
    int64_t t_done = 0;
    {
      SpanScope op("op.run");
      SpanScope span("server.wait_run");
      done = client->WaitRun(p.run_id);
      t_done = NowNs();
    }
    if (!done.ok() || !done->status.ok()) {
      log->failures.push_back(
          "run: " + (done.ok() ? done->status : done.status()).ToString());
      continue;
    }
    Result<rql::sql::QueryResult> result = Status::OK();
    int64_t t_read = 0;
    {
      SpanScope op("op.run");
      SpanScope span("server.fetch_result");
      result = client->MetaSql("SELECT * FROM " + p.table);
      t_read = NowNs();
    }
    if (!result.ok()) {
      log->failures.push_back("result fetch: " + result.status().ToString());
      continue;
    }
    ++log->runs;
    log->iterations += done->iterations;
    log->run_ms.Add((t_read - p.t_submit) / 1e6);
    log->submit_ms.Add((p.t_queued - p.t_submit) / 1e6);
    log->wait_ms.Add((t_done - p.t_queued) / 1e6);
    log->fetch_ms.Add((t_read - t_done) / 1e6);
    log->run_records.push_back({p.first, p.last, std::move(result->rows)});
  }
  Tracer::SetRequest(0);
}

void Interactive(Shared* sh, size_t start, Client* client, uint32_t stmt,
                 ClientLog* log) {
  rql::Random rng(sh->seed * 0x9E3779B97F4A7C15ull + 300 + start);
  const std::vector<LookupKey>& keys = *sh->keys;
  for (size_t i = start; NowNs() < sh->deadline_ns; ++i) {
    const LookupKey& k = keys[i % keys.size()];
    Tracer::SetRequest(Tracer::NewRequestId());
    ++log->attempted;
    Result<rql::sql::QueryResult> rows = Status::OK();
    int64_t t0 = 0, t1 = 0;
    {
      SpanScope op("op.lookup");
      t0 = NowNs();
      Status st;
      {
        SpanScope span("server.bind_as_of");
        st = client->BindAsOf(stmt, k.snap);
      }
      if (st.ok()) {
        SpanScope span("server.bind_value");
        st = client->BindValue(stmt, 2, rql::sql::Value(k.key));
      }
      if (st.ok()) {
        SpanScope span("server.exec_prepared");
        rows = client->ExecPrepared(stmt);
      } else {
        rows = st;
      }
      t1 = NowNs();
    }
    if (!rows.ok()) {
      log->failures.push_back("lookup: " + rows.status().ToString());
    } else {
      log->lookup_ms.Add((t1 - t0) / 1e6);
      log->lookups.push_back({k, std::move(rows->rows)});
    }
    Think(&rng, kLookupThinkMs);
  }
  Tracer::SetRequest(0);
}

void Writer(Shared* sh, int64_t phase_start_ns, Client* client,
            ClientLog* log) {
  rql::Random rng(sh->seed * 0x9E3779B97F4A7C15ull + 200 +
                  static_cast<uint64_t>(sh->latest.load()));
  // A fixed count of commits at uniformly random times: a Poisson process
  // conditioned on its count, so every phase of a length grows the history
  // by the same number of snapshots.
  const int64_t span_ns = sh->deadline_ns - phase_start_ns;
  std::vector<int64_t> dues(static_cast<size_t>(
      std::llround(kCommitsPerSecond * static_cast<double>(span_ns) / 1e9)));
  for (int64_t& due : dues) {
    due = phase_start_ns +
          static_cast<int64_t>(Uniform01(&rng) * static_cast<double>(span_ns));
  }
  std::sort(dues.begin(), dues.end());
  for (const int64_t due : dues) {
    const int64_t now = NowNs();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    const std::string dml = RefreshDml(&rng, sh->min_key, sh->max_key);
    Tracer::SetRequest(Tracer::NewRequestId());
    ++log->attempted;
    Result<SnapshotId> declared = Status::OK();
    int64_t t_send = 0, t_dml = 0, t_decl = 0;
    {
      SpanScope op("op.commit");
      t_send = NowNs();
      Status st;
      {
        SpanScope span("server.sql");
        st = client->Sql(dml).status();
      }
      t_dml = NowNs();
      if (st.ok()) {
        SpanScope span("server.declare");
        declared = client->DeclareSnapshot("writer");
      } else {
        declared = st;
      }
      t_decl = NowNs();
    }
    if (!declared.ok()) {
      log->failures.push_back("commit: " + declared.status().ToString());
      continue;
    }
    log->declared.push_back(*declared);
    sh->latest.store(*declared);
    log->commit_ms.Add((t_decl - due) / 1e6);
    log->late_ms.Add((t_send - due) / 1e6);
    log->dml_ms.Add((t_dml - t_send) / 1e6);
    log->declare_ms.Add((t_decl - t_dml) / 1e6);
  }
  Tracer::SetRequest(0);
}

/// Counters sampled around a phase.
struct Totals {
  rql::retro::MetricsRegistry::Snapshot registry;
  rql::sql::SharedScanCache::Stats scan;
  rql::storage::BufferPoolStats cache;
  int64_t shared_spt_builds = 0;
  int64_t rejects = 0;
};

Totals TakeTotals(rql::server::Server* server) {
  Totals t;
  t.registry = rql::retro::MetricsRegistry::Default()->TakeSnapshot();
  t.scan = server->scan_cache()->GetStats();
  t.cache = server->data()->store()->snapshot_cache()->stats();
  t.shared_spt_builds = server->data()->store()->shared_spt_builds_total();
  t.rejects = server->scheduler()->admission_rejects();
  return t;
}

/// A phase's file traffic split by the server thread that made it. Each
/// connection has its own server thread, and runs execute on the
/// scheduler's threads.
struct PhaseIo {
  IoSnapshot runs;     // every thread but the two below
  IoSnapshot lookups;  // the interactive connection's thread
  IoSnapshot commits;  // the writer connection's thread
};

using ThreadIo = std::map<std::thread::id, IoSnapshot>;

IoSnapshot ThreadDelta(const ThreadIo& before, std::thread::id thread,
                       const IoSnapshot& now) {
  auto b = before.find(thread);
  return b == before.end() ? now : now - b->second;
}

/// Runs one lookup of an old snapshot on the interactive connection with
/// the snapshot and scan caches cleared, so the server thread serving it
/// must read the archive, and returns that thread: the only one whose
/// data-store reads grew meanwhile. Called while no other client is busy.
Result<std::thread::id> FindLookupThread(rql::server::Server* server,
                                         Bench* bench, Client* client,
                                         uint32_t stmt, const LookupKey& key) {
  server->data()->store()->ClearSnapshotCache();
  server->scan_cache()->Clear();
  const ThreadIo before = bench->env->SnapshotByThread();
  RQL_RETURN_IF_ERROR(client->BindAsOf(stmt, key.snap));
  RQL_RETURN_IF_ERROR(client->BindValue(stmt, 2, rql::sql::Value(key.key)));
  RQL_RETURN_IF_ERROR(client->ExecPrepared(stmt).status());
  std::vector<std::thread::id> grew;
  for (const auto& [thread, io] : bench->env->SnapshotByThread()) {
    if (ThreadDelta(before, thread, io).Scope(FileScope::kData).reads > 0) {
      grew.push_back(thread);
    }
  }
  if (grew.size() != 1) {
    return Status::Internal("a lookup read the data store on " +
                            std::to_string(grew.size()) +
                            " server threads; expected one");
  }
  return grew[0];
}

/// Files each thread's traffic since `before` under runs, lookups or
/// commits. The writer connection's thread is the one that wrote to the
/// data store: neither runs nor lookups write to it.
Status SplitIo(const ThreadIo& before, const ThreadIo& after,
               std::thread::id lookup_thread, PhaseIo* io) {
  int writers = 0;
  for (const auto& [thread, snap] : after) {
    const IoSnapshot d = ThreadDelta(before, thread, snap);
    if (thread == lookup_thread) {
      io->lookups += d;
    } else if (d.Scope(FileScope::kData).writes > 0) {
      io->commits += d;
      ++writers;
    } else {
      io->runs += d;
    }
  }
  if (writers > 1 || io->lookups.Scope(FileScope::kData).writes > 0) {
    return Status::Internal(
        "data-store writes on a thread other than the writer connection's");
  }
  return Status::OK();
}

struct PhaseResult {
  ClientLog log;
  double wall_s = 0;
  Samples queued;
  Totals before, after;
  PhaseIo io;
};

/// One phase: connects the four clients, finds the server thread serving
/// lookups, then runs the clients until `seconds_ns` have passed, tracing
/// them when `trace`.
Status RunPhase(rql::server::Server* server, Bench* bench, Shared* sh,
                int64_t seconds_ns, size_t lookup_start, bool trace,
                PhaseResult* out) {
  std::vector<std::unique_ptr<Client>> conns;
  for (int c = 0; c < kAnalysts + 2; ++c) {
    RQL_ASSIGN_OR_RETURN(std::unique_ptr<Client> conn, Client::Connect(sh->socket));
    conns.push_back(std::move(conn));
  }
  Client* interactive = conns[kAnalysts].get();
  Client* writer = conns[kAnalysts + 1].get();
  RQL_ASSIGN_OR_RETURN(uint32_t stmt, interactive->Prepare(kLookupSql));
  RQL_ASSIGN_OR_RETURN(std::thread::id lookup_thread,
                       FindLookupThread(server, bench, interactive, stmt,
                                        sh->keys->front()));

  if (trace) Tracer::Get().Start();
  out->before = TakeTotals(server);
  const ThreadIo io_before = bench->env->SnapshotByThread();
  const int64_t start = NowNs();
  sh->deadline_ns = start + seconds_ns;
  std::vector<ClientLog> logs(kAnalysts + 2);
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      const std::string stats = server->StatsJson();
      const size_t at = stats.find("\"queued\": ");
      if (at != std::string::npos) {
        out->queued.Add(std::atof(stats.c_str() + at + 10));
      }
      std::this_thread::sleep_for(kStatsPeriod);
    }
  });
  std::vector<std::thread> clients;
  for (int a = 0; a < kAnalysts; ++a) {
    clients.emplace_back(Analyst, sh, a, conns[a].get(), &logs[a]);
  }
  clients.emplace_back(Interactive, sh, lookup_start, interactive, stmt,
                       &logs[kAnalysts]);
  clients.emplace_back(Writer, sh, start, writer, &logs[kAnalysts + 1]);
  for (std::thread& t : clients) t.join();
  sampling.store(false);
  sampler.join();
  out->wall_s = (NowNs() - start) / 1e9;
  out->after = TakeTotals(server);
  const ThreadIo io_after = bench->env->SnapshotByThread();
  if (trace) Tracer::Get().Stop();
  for (const ClientLog& l : logs) out->log.Merge(l);
  return SplitIo(io_before, io_after, lookup_thread, &out->io);
}

/// Checks every daemon output against the embedded engine on the same
/// store: run results against one embedded CollateData over the covering
/// snapshot range (its rows are per snapshot, so each run's rows are a
/// slice), lookups against embedded AS OF lookups, and declared ids for
/// gaps.
void CheckOutputs(Bench* bench, const ClientLog& log, SnapshotId first_declared,
                  Outcome* out) {
  rql::tpch::History* h = bench->history.get();
  if (!log.run_records.empty()) {
    SnapshotId lo = log.run_records[0].first, hi = log.run_records[0].last;
    for (const auto& r : log.run_records) {
      lo = std::min(lo, r.first);
      hi = std::max(hi, r.last);
    }
    const std::string qs = "SELECT snap_id FROM SnapIds WHERE snap_id >= " +
                           std::to_string(lo) + " AND snap_id <= " +
                           std::to_string(hi) + " ORDER BY snap_id";
    Status st = h->engine()->CollateData(qs, kQqIo, "daemon_oracle");
    auto oracle = st.ok() ? h->meta()->Query("SELECT * FROM daemon_oracle")
                          : Result<rql::sql::QueryResult>(st);
    if (!oracle.ok() || oracle->rows.size() != hi - lo + 1) {
      out->Fail("embedded oracle run failed: " +
                (oracle.ok() ? std::string("wrong row count")
                             : oracle.status().ToString()));
    } else {
      for (const auto& r : log.run_records) {
        bool same = r.rows.size() == r.last - r.first + 1;
        for (size_t j = 0; same && j < r.rows.size(); ++j) {
          same = r.rows[j] == oracle->rows[r.first - lo + j];
        }
        if (!same) {
          out->Fail("daemon run over [" + std::to_string(r.first) + ", " +
                    std::to_string(r.last) + "] differs from the embedded run");
        }
      }
    }
  }
  auto stmt = h->data()->Prepare(kLookupSql);
  if (!stmt.ok()) {
    out->Fail("prepare: " + stmt.status().ToString());
  } else {
    for (const auto& l : log.lookups) {
      auto want = EmbeddedLookup(stmt->get(), l.key);
      if (!want.ok() || *want != l.rows || l.rows.size() != 1) {
        out->Fail("lookup of key " + std::to_string(l.key.key) + " as of " +
                  std::to_string(l.key.snap) +
                  " differs from the embedded AS OF query");
      }
    }
  }
  SnapshotId expect = first_declared;
  for (SnapshotId id : log.declared) {
    if (id != expect) {
      out->Fail("declared snapshot " + std::to_string(id) + ", expected " +
                std::to_string(expect));
    }
    expect = id + 1;
  }
}

void ReportEndToEnd(const PhaseResult& p, Outcome* out) {
  out->Timing("run_ms", p.log.run_ms);
  out->EndToEnd("snapshots_per_s", p.log.iterations / p.wall_s, "1/s");
  out->Timing("lookup_ms", p.log.lookup_ms, /*tail=*/false);
  out->Timing("commit_ms", p.log.commit_ms, /*tail=*/false);
  out->Log("writer: commits=" + std::to_string(p.log.commit_ms.size()) +
           " lateness p50=" + std::to_string(p.log.late_ms.Quantile(0.5)) +
           " p90=" + std::to_string(p.log.late_ms.Quantile(0.9)) +
           " max=" + std::to_string(p.log.late_ms.Quantile(1)) + " ms");
}

void ReportLayers(const PhaseResult& p, const rql::retro::CostModel& cm,
                  Outcome* out) {
  const auto reg = p.after.registry.DeltaFrom(p.before.registry);
  const double snaps =
      static_cast<double>(std::max<int64_t>(1, reg.counter("rql.iterations")));
  const double runs = static_cast<double>(std::max<int64_t>(1, reg.counter("rql.runs")));
  // Per-snapshot device figures count the run threads' traffic only;
  // lookups and commits have their own.
  const IoCounts plog = p.io.runs.at(FileScope::kData, FileKind::kPagelog);
  out->Layer("storage.pagelog.reads_per_snap", plog.reads / snaps, "count");
  out->Layer("storage.pagelog.read_ms_per_snap", plog.read_ns / 1e6 / snaps, "ms");
  out->Layer("storage.db.reads_per_snap",
             p.io.runs.at(FileScope::kData, FileKind::kDb).reads / snaps, "count");
  out->Layer("storage.pagelog.reads_per_lookup",
             p.io.lookups.at(FileScope::kData, FileKind::kPagelog).reads /
                 static_cast<double>(std::max<size_t>(1, p.log.lookup_ms.size())),
             "count");
  ReportCommitIo(p.io.commits, static_cast<int64_t>(p.log.commit_ms.size()), out);
  out->Layer("retro.archive_pages_per_snap",
             reg.counter("rql.pagelog_pages") / snaps, "count");
  const double hits = p.after.cache.hits - p.before.cache.hits;
  const double misses = p.after.cache.misses - p.before.cache.misses;
  out->Layer("retro.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
             "ratio");
  out->Layer("retro.cache_evictions_per_snap",
             (p.after.cache.evictions - p.before.cache.evictions) / snaps, "count");
  const int64_t maplog_pages = reg.counter("rql.maplog_pages");
  out->Layer("retro.spt_cpu_ms_per_snap",
             (reg.counter("rql.spt_build_us") - maplog_pages * cm.maplog_page_read_us) /
                 1e3 / snaps,
             "ms");
  out->Layer("retro.maplog_pages_per_snap", maplog_pages / snaps, "count");
  out->Layer("retro.coalesced_loads", reg.counter("rql.coalesced_loads"), "count");
  out->Layer("retro.shared_spt_builds",
             p.after.shared_spt_builds - p.before.shared_spt_builds, "count");
  // As on the embedded workloads, the runs' Pagelog device time is left
  // to storage.
  out->Layer("sql.qq_ms_per_snap",
             std::max(0.0, reg.counter("rql.query_eval_us") / 1e3 - plog.read_ns / 1e6) /
                 snaps,
             "ms");
  out->Layer("sql.qq_rows_per_snap", reg.counter("rql.qq_rows") / snaps, "count");
  out->Layer("sql.qq_parses_per_run", reg.counter("rql.qq_parse_count") / runs, "count");
  out->Layer("sql.batch_rows_per_snap", reg.counter("rql.batch_rows") / snaps, "count");
  const double dh = p.after.scan.shared_hits - p.before.scan.shared_hits;
  const double dm = p.after.scan.misses - p.before.scan.misses;
  out->Layer("sql.decode_hit_ratio", dh + dm > 0 ? dh / (dh + dm) : 0, "ratio");
  out->Layer("sql.coalesced_decodes",
             p.after.scan.coalesced_decodes - p.before.scan.coalesced_decodes, "count");
  out->Layer("sql.result_read_ms", p.log.fetch_ms.Mean(), "ms");
  out->Layer("rql.udf_ms_per_snap", reg.counter("rql.udf_us") / 1e3 / snaps, "ms");
  out->Layer("rql.result_probes_per_snap", reg.counter("rql.result_probes") / snaps, "count");
  out->Layer("rql.result_writes_per_snap",
             (reg.counter("rql.result_inserts") + reg.counter("rql.result_updates")) / snaps,
             "count");
  out->Layer("rql.replayed_frac",
             (reg.counter("rql.iterations_skipped") + reg.counter("rql.memo_hits")) / snaps,
             "ratio");
  out->Layer("rql.unattributed_ms_per_run", 0, "ms");
  out->Layer("server.submit_ms_p50", p.log.submit_ms.Quantile(0.5), "ms");
  out->Layer("server.run_wait_ms_p50", p.log.wait_ms.Quantile(0.5), "ms");
  out->Layer("server.result_fetch_ms_p50", p.log.fetch_ms.Quantile(0.5), "ms");
  out->Layer("server.queued_mean", p.queued.Mean(), "count");
  out->Layer("server.admission_rejects", p.after.rejects - p.before.rejects, "count");
  out->Layer("server.dml_ms_p50", p.log.dml_ms.Quantile(0.5), "ms");
  out->Layer("server.declare_ms_p50", p.log.declare_ms.Quantile(0.5), "ms");
}

}  // namespace

Status RunDaemonMixed(const RunArgs& args, Outcome* out) {
  HistorySpec spec;
  spec.scale_factor = 0.002;
  spec.snapshots = kSnapshots;
  Bench bench;
  RQL_RETURN_IF_ERROR(SetUp(args, spec, &bench));
  rql::tpch::History* h = bench.history.get();
  const SnapshotId first_declared = h->last_snapshot() + 1;

  rql::Random rng(args.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<LookupKey> keys;
  RQL_ASSIGN_OR_RETURN(keys, MakeLookupKeys(h->data(), &rng, 1,
                                            h->last_snapshot(), 6));
  auto range = h->data()->Query("SELECT MIN(o_orderkey), MAX(o_orderkey) FROM orders");
  if (!range.ok()) return range.status();

  Shared sh;
  sh.socket = args.workdir + "/rql.sock";
  sh.seed = args.seed;
  sh.latest.store(h->last_snapshot());
  sh.keys = &keys;
  sh.min_key = range->rows[0][0].AsInt();
  sh.max_key = range->rows[0][1].AsInt();

  const int64_t bytes_before = DataBytes(bench);
  bench.env->set_pagelog_read_delay_us(kArchiveReadDelayUs);
  rql::server::ServerOptions options;
  options.socket_path = sh.socket;
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<rql::server::Server> server,
                       rql::server::Server::Create(h->data(), h->meta(), options));
  RQL_RETURN_IF_ERROR(server->Start());

  const int64_t seconds_ns = static_cast<int64_t>(args.seconds) * 1000000000;
  ClientLog all;
  PhaseResult plain;
  PhaseResult traced;
  Status st = RunPhase(server.get(), &bench, &sh,
                       args.trace ? seconds_ns / 2 : seconds_ns, 0,
                       /*trace=*/false, &plain);
  if (st.ok() && args.trace) {
    st = RunPhase(server.get(), &bench, &sh, seconds_ns / 2,
                  plain.log.lookups.size(), /*trace=*/true, &traced);
  }
  server->Stop();
  server.reset();
  RQL_RETURN_IF_ERROR(st);
  all.Merge(plain.log);
  all.Merge(traced.log);

  out->attempted += all.attempted;
  for (const std::string& f : all.failures) out->Fail(f);
  CheckOutputs(&bench, all, first_declared, out);
  LogGrowth(bench, bytes_before, static_cast<int64_t>(all.declared.size()), out);

  if (!args.trace) {
    ReportCommon(bench, out);
    ReportEndToEnd(plain, out);
    return Status::OK();
  }
  ReportLayers(traced, h->data()->store()->cost_model(), out);
  ReportTrace(args, -1, -1, traced.log.runs, out);
  ReportTails(plain.log.lookup_ms, plain.log.commit_ms, out);
  const double base = plain.log.run_ms.Quantile(0.5);
  const double with = traced.log.run_ms.Quantile(0.5);
  out->Layer("trace.overhead_ms_p50", with - base, "ms");
  out->Layer("trace.overhead_frac", base > 0 ? with / base - 1 : 0, "ratio");
  ReportCommon(bench, out);
  return Status::OK();
}

}  // namespace perfbench
