// The two embedded workloads: one client in a closed loop calling an
// RqlEngine mechanism at default RqlOptions, with a fixed number of point
// lookups and refresh commits spread evenly over the measured phase (so
// their samples see the whole phase, and the store's final size depends on
// the seed only).
//
// archive_sweep: AggregateDataInVariable(Qs, Qq_io, 'AVG') over a strided
//   set (step 10) of snapshots older than one UW30 overwrite cycle, with
//   the Pagelog behind the modeled archive device and the snapshot page
//   cache capped between one snapshot's archive pages and the run's
//   distinct archive pages. Archive fetch, cache policy and SPT builds do
//   most of the work.
// groupby_recent: AggregateDataInTable(Qs, Qq_agg, '(MAX,cn):(MAX,av)')
//   over the most recent consecutive snapshots, no device delay, unbounded
//   cache. The Qq GROUP BY and the result-table fold do most of the work;
//   archive reads are near zero.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "rql/rql.h"
#include "span_trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rql::Result;
using rql::Status;
using rql::retro::SnapshotId;
using rql::sql::QueryResult;
using rql::sql::Row;
using rql::sql::Value;

/// The UW30 overwrite cycle: snapshots older than this many declarations
/// before the latest share no page with the current state.
constexpr int kOverwriteCycle = 50;
constexpr int kSweepStep = 10;

/// The seeded snapshot set of one run, its Qs, and the oracle check.
class Analyst {
 public:
  virtual ~Analyst() = default;
  /// Draws the next run's snapshot set.
  virtual std::string NextQs(rql::Random* rng) = 0;
  virtual Status Call(rql::RqlEngine* engine, const std::string& qs) = 0;
  virtual const char* table() const = 0;
  /// Compares the result table with the oracle for the last drawn set,
  /// or keeps what Verify needs to compare it later.
  virtual bool Check(const QueryResult& result, std::string* why) = 0;
  /// Completes the checks Check deferred, outside the measured phase.
  virtual Status Verify(Outcome* out) {
    (void)out;
    return Status::OK();
  }
};

/// AVG over strided old snapshots of a per-snapshot COUNT.
class SweepAnalyst : public Analyst {
 public:
  SweepAnalyst(rql::tpch::History* h, SnapshotId old_last) : h_(h) {
    // first in [1, step], the largest count keeping the set old.
    count_ = static_cast<int>((old_last - kSweepStep) / kSweepStep) + 1;
  }

  /// Per-snapshot Qq results from `SELECT AS OF s`, the oracle's input.
  Status LoadOracle(SnapshotId first, SnapshotId last) {
    for (SnapshotId s = first; s <= last; ++s) {
      std::string q = kQqIo;
      auto r = h_->data()->QueryScalar("SELECT AS OF " + std::to_string(s) +
                                       q.substr(6));
      if (!r.ok()) return r.status();
      counts_[s] = r->AsInt();
    }
    return Status::OK();
  }

  std::string NextQs(rql::Random* rng) override {
    first_ = static_cast<SnapshotId>(rng->UniformRange(1, kSweepStep));
    return h_->QsInterval(first_, count_, kSweepStep);
  }
  Status Call(rql::RqlEngine* engine, const std::string& qs) override {
    return engine->AggregateDataInVariable(qs, kQqIo, table(), "AVG");
  }
  const char* table() const override { return "sweep_result"; }

  bool Check(const QueryResult& result, std::string* why) override {
    double sum = 0;
    for (int i = 0; i < count_; ++i) {
      sum += static_cast<double>(
          counts_.at(first_ + static_cast<SnapshotId>(i * kSweepStep)));
    }
    const double want = sum / count_;
    if (result.rows.size() != 1 || result.rows[0].size() != 1) {
      *why = "sweep result is not one value";
      return false;
    }
    const double got = result.rows[0][0].AsDouble();
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      *why = "sweep AVG " + std::to_string(got) + " != oracle " +
             std::to_string(want) + " at first=" + std::to_string(first_);
      return false;
    }
    return true;
  }

  int count() const { return count_; }

 private:
  rql::tpch::History* h_;
  int count_ = 1;
  SnapshotId first_ = 1;
  std::map<SnapshotId, int64_t> counts_;
};

/// Across-time GROUP BY over the most recent consecutive snapshots. The
/// oracle needs one AS OF query per snapshot, and the window follows the
/// commits, so a run's check keeps a digest of its result and Verify folds
/// the oracle after the measured phase.
class GroupbyAnalyst : public Analyst {
 public:
  /// Snapshots per run. Fixed, so run times are one population and their
  /// median does not jump between window lengths.
  static constexpr int kLen = 10;

  explicit GroupbyAnalyst(rql::tpch::History* h) : h_(h) {}

  std::string NextQs(rql::Random*) override {
    last_ = h_->last_snapshot();
    return h_->QsInterval(last_ - kLen + 1, kLen, 1);
  }
  Status Call(rql::RqlEngine* engine, const std::string& qs) override {
    return engine->AggregateDataInTable(qs, kQqAgg, table(),
                                        "(MAX,cn):(MAX,av)");
  }
  const char* table() const override { return "groupby_result"; }

  bool Check(const QueryResult& result, std::string* why) override {
    std::map<int64_t, Row> rows;
    for (const Row& row : result.rows) {
      if (row.size() != 3 || !rows.emplace(row[0].AsInt(), row).second) {
        *why = "groupby result row is malformed or repeats a group";
        return false;
      }
    }
    pending_.push_back({last_, Digest(rows)});
    return true;
  }

  Status Verify(Outcome* out) override {
    for (const Pending& p : pending_) {
      // Windows only move forward: drop oracle inputs behind this one.
      per_snap_.erase(per_snap_.begin(), per_snap_.lower_bound(p.last - kLen + 1));
      // MAX of each aggregate per customer over the window, folded here.
      std::map<int64_t, Row> want;
      for (SnapshotId s = p.last - kLen + 1; s <= p.last; ++s) {
        auto groups = per_snap_.find(s);
        if (groups == per_snap_.end()) {
          std::string q = kQqAgg;
          auto r = h_->data()->Query("SELECT AS OF " + std::to_string(s) +
                                     q.substr(6));
          if (!r.ok()) return r.status();
          groups = per_snap_.emplace(s, std::move(r->rows)).first;
        }
        for (const Row& row : groups->second) {
          auto [it, fresh] = want.emplace(row[0].AsInt(), row);
          if (fresh) continue;
          for (size_t c : {1, 2}) {
            if (row[c].AsDouble() > it->second[c].AsDouble()) {
              it->second[c] = row[c];
            }
          }
        }
      }
      if (Digest(want) != p.digest) {
        out->Fail("groupby result over snapshots " +
                  std::to_string(p.last - kLen + 1) + ".." +
                  std::to_string(p.last) + " differs from the oracle");
      }
    }
    pending_.clear();
    return Status::OK();
  }

 private:
  struct Pending {
    SnapshotId last;
    uint64_t digest;
  };

  /// FNV-1a over each row's values with their types; reals by bit pattern.
  static uint64_t Digest(const std::map<int64_t, Row>& rows) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    for (const auto& [key, row] : rows) {
      for (const Value& v : row) {
        mix(static_cast<uint64_t>(v.type()));
        if (v.type() == rql::sql::ValueType::kReal) {
          uint64_t bits = 0;
          const double d = v.real();
          std::memcpy(&bits, &d, sizeof(bits));
          mix(bits);
        } else {
          mix(static_cast<uint64_t>(v.AsInt()));
        }
      }
    }
    return h;
  }

  rql::tpch::History* h_;
  SnapshotId last_ = 0;
  std::vector<Pending> pending_;
  std::map<SnapshotId, std::vector<Row>> per_snap_;
};

/// Real-clock totals of the runs of one phase.
struct RunTotals {
  int64_t runs = 0;
  int64_t iterations = 0;
  int64_t pagelog_pages = 0;
  int64_t maplog_pages = 0;
  int64_t qq_rows = 0;
  int64_t qq_parses = 0;
  int64_t result_probes = 0;
  int64_t result_writes = 0;
  int64_t batch_rows = 0;
  int64_t replayed = 0;
  int64_t spt_cpu_us = 0;
  int64_t qq_us = 0;
  int64_t udf_us = 0;
  double unattributed_ms = 0;
  double result_read_ms = 0;

  /// `pagelog_read_ns` is the Env's Pagelog device time during the run.
  void Add(const rql::RqlRunStats& stats, const rql::retro::CostModel& cm,
           double mechanism_ms, double read_ms, int64_t pagelog_read_ns) {
    ++runs;
    qq_parses += stats.qq_parse_count;
    int64_t real_us = 0;
    int64_t run_qq_us = 0;
    for (const rql::RqlIterationStats& it : stats.iterations) {
      ++iterations;
      pagelog_pages += it.pagelog_pages;
      maplog_pages += it.maplog_pages;
      qq_rows += it.qq_rows;
      result_probes += it.result_probes;
      result_writes += it.result_inserts + it.result_updates;
      batch_rows += it.batch_rows;
      replayed += (it.skipped ? 1 : 0) + it.memo_hits;
      // spt_build_us adds a CostModel charge per Maplog page to the
      // measured CPU time; only the measured part is kept.
      const int64_t spt_cpu =
          it.spt_build_us - it.maplog_pages * cm.maplog_page_read_us;
      spt_cpu_us += spt_cpu;
      run_qq_us += it.query_eval_us;
      udf_us += it.udf_us;
      real_us += spt_cpu + it.query_eval_us + it.index_create_us + it.udf_us;
    }
    // Archive pages load inside the Qq's execution, so query_eval_us holds
    // the modeled device time; the sql figure leaves it to storage.
    qq_us += std::max<int64_t>(0, run_qq_us - pagelog_read_ns / 1000);
    unattributed_ms += mechanism_ms - real_us / 1000.0;
    result_read_ms += read_ms;
  }
};

/// What one phase of the embedded client measured. Device traffic is
/// metered around each run, each lookup and each commit, and cache
/// statistics around each run, so no operation type mixes into another's.
struct Phase {
  Samples run_ms;
  Samples lookup_ms;
  Samples commit_ms;
  RunTotals totals;
  double wall_s = 0;
  IoSnapshot run_io;
  IoSnapshot lookup_io;
  IoSnapshot commit_io;
  int64_t commits = 0;
  rql::storage::BufferPoolStats cache;
};

/// The embedded client: analyst runs, point lookups and refresh commits
/// against one history, every output checked.
class Client {
 public:
  Client(Bench* bench, Analyst* analyst, std::vector<LookupKey> keys,
         uint64_t seed, Outcome* out)
      : bench_(bench),
        h_(bench->history.get()),
        analyst_(analyst),
        keys_(std::move(keys)),
        seed_(seed),
        out_(out) {}

  Status Init() {
    auto stmt = h_->data()->Prepare(kLookupSql);
    if (!stmt.ok()) return stmt.status();
    lookup_ = std::move(stmt).value();
    auto range =
        h_->data()->Query("SELECT MIN(o_orderkey), MAX(o_orderkey) FROM orders");
    if (!range.ok()) return range.status();
    min_key_ = range->rows[0][0].AsInt();
    max_key_ = range->rows[0][1].AsInt();
    expect_ = h_->last_snapshot() + 1;
    return Status::OK();
  }

  /// One phase: analyst runs in a closed loop until `deadline_ns`, or
  /// exactly `runs` of them when `runs` > 0, with `lookups` lookups and
  /// `commits` commits interleaved at an even pace (by elapsed time, or by
  /// runs completed). Each phase draws from its own seeded streams, so a
  /// fixed-count phase repeats exactly for a seed whatever ran before it.
  void RunPhase(int64_t deadline_ns, int64_t runs, int lookups, int commits,
                Phase* phase) {
    ++phase_index_;
    rql::Random run_rng(seed_ * 0x9E3779B97F4A7C15ull + 10 * phase_index_);
    rql::Random dml_rng(seed_ * 0x9E3779B97F4A7C15ull + 10 * phase_index_ + 1);
    const int64_t start = NowNs();
    int done_lookups = 0, done_commits = 0;
    for (int64_t i = 0;; ++i) {
      double progress = runs > 0 ? static_cast<double>(i) / runs
                                 : static_cast<double>(NowNs() - start) /
                                       (deadline_ns - start);
      progress = std::min(progress, 1.0);
      while (done_commits < static_cast<int>(progress * commits)) {
        Commit(&dml_rng, phase);
        ++done_commits;
      }
      while (done_lookups < static_cast<int>(progress * lookups)) {
        Lookup(keys_[lookup_cursor_++ % keys_.size()], phase);
        ++done_lookups;
      }
      if (progress >= 1.0) break;
      Run(&run_rng, phase);
    }
    phase->wall_s = (NowNs() - start) / 1e9;
  }

 private:
  void Run(rql::Random* rng, Phase* phase) {
    rql::RqlEngine* engine = h_->engine();
    rql::retro::SnapshotStore* store = h_->data()->store();
    const std::string qs = analyst_->NextQs(rng);
    const IoSnapshot io_before = bench_->env->Snapshot();
    const rql::storage::BufferPoolStats cache_before =
        store->snapshot_cache()->stats();
    Tracer::SetRequest(Tracer::NewRequestId());
    Status status;
    QueryResult result;
    int64_t t0 = 0, t1 = 0, t2 = 0;
    {
      SpanScope op("op.run");
      t0 = NowNs();
      {
        SpanScope span("rql.mechanism");
        status = analyst_->Call(engine, qs);
      }
      t1 = NowNs();
      if (status.ok()) {
        SpanScope span("sql.result_read");
        auto r = h_->meta()->Query(std::string("SELECT * FROM ") +
                                   analyst_->table());
        if (r.ok()) {
          result = std::move(r).value();
        } else {
          status = r.status();
        }
      }
      t2 = NowNs();
    }
    Tracer::SetRequest(0);
    const IoSnapshot io = bench_->env->Snapshot() - io_before;
    phase->run_io += io;
    const rql::storage::BufferPoolStats cache = store->snapshot_cache()->stats();
    phase->cache.hits += cache.hits - cache_before.hits;
    phase->cache.misses += cache.misses - cache_before.misses;
    phase->cache.evictions += cache.evictions - cache_before.evictions;
    ++out_->attempted;
    if (!status.ok()) {
      out_->Fail("run: " + status.ToString());
      return;
    }
    std::string why;
    if (!analyst_->Check(result, &why)) out_->Fail(why);
    phase->run_ms.Add((t2 - t0) / 1e6);
    phase->totals.Add(engine->last_run_stats(), store->cost_model(),
                      (t1 - t0) / 1e6, (t2 - t1) / 1e6,
                      io.at(FileScope::kData, FileKind::kPagelog).read_ns);
  }

  void Lookup(const LookupKey& k, Phase* phase) {
    const IoSnapshot io_before = bench_->env->Snapshot();
    Tracer::SetRequest(Tracer::NewRequestId());
    Result<std::vector<Row>> rows = Status::OK();
    int64_t t0 = 0, t1 = 0;
    {
      SpanScope op("op.lookup");
      t0 = NowNs();
      SpanScope span("sql.lookup");
      rows = EmbeddedLookup(lookup_.get(), k);
      t1 = NowNs();
    }
    Tracer::SetRequest(0);
    phase->lookup_io += bench_->env->Snapshot() - io_before;
    ++out_->attempted;
    if (!rows.ok()) {
      out_->Fail("lookup: " + rows.status().ToString());
      return;
    }
    // Keys are drawn from the snapshot's own live key range, and order keys
    // are dense, so exactly that order must come back.
    if (rows->size() != 1 || (*rows)[0][0].AsInt() != k.key) {
      out_->Fail("lookup of key " + std::to_string(k.key) + " as of " +
                 std::to_string(k.snap) + " returned " +
                 std::to_string(rows->size()) + " rows");
      return;
    }
    phase->lookup_ms.Add((t1 - t0) / 1e6);
  }

  void Commit(rql::Random* rng, Phase* phase) {
    const std::string dml = RefreshDml(rng, min_key_, max_key_);
    const IoSnapshot io_before = bench_->env->Snapshot();
    Tracer::SetRequest(Tracer::NewRequestId());
    Result<SnapshotId> declared = Status::OK();
    int64_t t0 = 0, t1 = 0;
    {
      SpanScope op("op.commit");
      t0 = NowNs();
      Status st;
      {
        SpanScope span("sql.dml");
        st = h_->data()->Exec(dml);
      }
      if (st.ok()) {
        SpanScope span("rql.declare");
        declared = h_->engine()->CommitWithSnapshot("refresh");
      } else {
        declared = st;
      }
      t1 = NowNs();
    }
    Tracer::SetRequest(0);
    phase->commit_io += bench_->env->Snapshot() - io_before;
    ++out_->attempted;
    if (!declared.ok()) {
      out_->Fail("commit: " + declared.status().ToString());
      return;
    }
    if (*declared != expect_) {
      out_->Fail("declared snapshot " + std::to_string(*declared) +
                 ", expected " + std::to_string(expect_));
    }
    expect_ = *declared + 1;
    phase->commit_ms.Add((t1 - t0) / 1e6);
    ++phase->commits;
  }

  Bench* bench_;
  rql::tpch::History* h_;
  Analyst* analyst_;
  std::vector<LookupKey> keys_;
  uint64_t seed_;
  Outcome* out_;
  std::unique_ptr<rql::sql::PreparedStatement> lookup_;
  int64_t min_key_ = 0, max_key_ = 0;
  SnapshotId expect_ = 0;
  size_t lookup_cursor_ = 0;
  uint64_t phase_index_ = 0;
};

/// Per-layer metrics of an embedded analyst phase.
void ReportLayers(const Phase& p, Outcome* out) {
  const RunTotals& t = p.totals;
  const double snaps = static_cast<double>(std::max<int64_t>(1, t.iterations));
  const double runs = static_cast<double>(std::max<int64_t>(1, t.runs));
  const IoCounts plog = p.run_io.at(FileScope::kData, FileKind::kPagelog);
  const IoCounts db = p.run_io.at(FileScope::kData, FileKind::kDb);
  out->Layer("storage.pagelog.reads_per_snap", plog.reads / snaps, "count");
  out->Layer("storage.pagelog.read_ms_per_snap", plog.read_ns / 1e6 / snaps,
             "ms");
  out->Layer("storage.db.reads_per_snap", db.reads / snaps, "count");
  out->Layer("storage.pagelog.reads_per_lookup",
             p.lookup_io.at(FileScope::kData, FileKind::kPagelog).reads /
                 static_cast<double>(std::max<size_t>(1, p.lookup_ms.size())),
             "count");
  out->Layer("retro.archive_pages_per_snap", t.pagelog_pages / snaps, "count");
  const double lookups = static_cast<double>(p.cache.hits + p.cache.misses);
  out->Layer("retro.cache_hit_ratio", lookups > 0 ? p.cache.hits / lookups : 0,
             "ratio");
  out->Layer("retro.cache_evictions_per_snap", p.cache.evictions / snaps,
             "count");
  out->Layer("retro.spt_cpu_ms_per_snap", t.spt_cpu_us / 1e3 / snaps, "ms");
  out->Layer("retro.maplog_pages_per_snap", t.maplog_pages / snaps, "count");
  out->Layer("sql.qq_ms_per_snap", t.qq_us / 1e3 / snaps, "ms");
  out->Layer("sql.qq_rows_per_snap", t.qq_rows / snaps, "count");
  out->Layer("sql.qq_parses_per_run", t.qq_parses / runs, "count");
  out->Layer("sql.batch_rows_per_snap", t.batch_rows / snaps, "count");
  out->Layer("sql.result_read_ms", t.result_read_ms / runs, "ms");
  out->Layer("rql.udf_ms_per_snap", t.udf_us / 1e3 / snaps, "ms");
  out->Layer("rql.result_probes_per_snap", t.result_probes / snaps, "count");
  out->Layer("rql.result_writes_per_snap", t.result_writes / snaps, "count");
  out->Layer("rql.replayed_frac", t.replayed / snaps, "ratio");
  out->Layer("rql.unattributed_ms_per_run", t.unattributed_ms / runs, "ms");
  ReportCommitIo(p.commit_io, p.commits, out);
}

/// The Env's Pagelog device reads during a phase's runs must equal the
/// engine's own archive page count: runs are sequential, so every archive
/// load is one device read.
void CheckDeviceCount(const Phase& p, Outcome* out) {
  const int64_t reads = p.run_io.at(FileScope::kData, FileKind::kPagelog).reads;
  out->Log("counts: runs=" + std::to_string(p.totals.runs) +
           " iterations=" + std::to_string(p.totals.iterations) +
           " env_pagelog_reads=" + std::to_string(reads) +
           " engine_pagelog_pages=" + std::to_string(p.totals.pagelog_pages));
  if (reads != p.totals.pagelog_pages) {
    out->Fail("Env Pagelog device reads (" + std::to_string(reads) +
              ") differ from the engine's archive page count (" +
              std::to_string(p.totals.pagelog_pages) + ")");
  }
}

/// Metrics only the daemon has, reported as zero so every workload prints
/// the same per-layer set.
void ReportNoServer(Outcome* out) {
  for (const char* name :
       {"retro.coalesced_loads", "retro.shared_spt_builds", "sql.coalesced_decodes"}) {
    out->Layer(name, 0, "count");
  }
  out->Layer("sql.decode_hit_ratio", 0, "ratio");
  for (const char* name :
       {"server.submit_ms_p50", "server.run_wait_ms_p50",
        "server.result_fetch_ms_p50", "server.dml_ms_p50",
        "server.declare_ms_p50"}) {
    out->Layer(name, 0, "ms");
  }
  out->Layer("server.queued_mean", 0, "count");
  out->Layer("server.admission_rejects", 0, "count");
}

/// Lookups and refresh commits per second of --seconds. At 30 seconds the
/// commits grow a 120-snapshot history by a quarter.
constexpr double kLookupsPerSecond = 25;
constexpr double kCommitsPerSecond = 1;

struct EmbeddedSpec {
  HistorySpec history;
  /// Runs of the traced phase per second of --seconds: the traced phase
  /// runs a fixed count so its counters repeat exactly for a seed.
  double traced_runs_per_second = 10;
};

Status RunEmbedded(const RunArgs& args, const EmbeddedSpec& spec,
                   bool sweep, Outcome* out) {
  Bench bench;
  RQL_RETURN_IF_ERROR(SetUp(args, spec.history, &bench));
  rql::tpch::History* h = bench.history.get();
  rql::retro::SnapshotStore* store = h->data()->store();
  const SnapshotId last = h->last_snapshot();
  rql::Random rng(args.seed * 0x9E3779B97F4A7C15ull + (sweep ? 1 : 2));

  // Calibration (untimed, no device delay): oracle inputs, lookup keys
  // and, for the sweep, the cache cap.
  std::unique_ptr<Analyst> analyst;
  std::vector<LookupKey> keys;
  if (sweep) {
    const SnapshotId old_last = last - kOverwriteCycle;
    auto a = std::make_unique<SweepAnalyst>(h, old_last);
    RQL_RETURN_IF_ERROR(a->LoadOracle(1, old_last));
    RQL_ASSIGN_OR_RETURN(keys, MakeLookupKeys(h->data(), &rng, 1, old_last, 4));
    // One run over the first set with an unbounded cache gives one
    // snapshot's archive pages (its first, cold iteration) and the run's
    // distinct archive pages (every load of a cold run is new).
    RQL_RETURN_IF_ERROR(h->engine()->AggregateDataInVariable(
        h->QsInterval(1, a->count(), kSweepStep), kQqIo, "calibrate", "AVG"));
    const rql::RqlRunStats& st = h->engine()->last_run_stats();
    const int64_t one = st.iterations.front().pagelog_pages;
    const int64_t distinct = st.PagelogPages();
    const int64_t cap = (one + distinct) / 2;
    store->snapshot_cache()->set_capacity(static_cast<uint64_t>(cap));
    out->Log("cache: one snapshot " + std::to_string(one) +
             " archive pages; run distinct " + std::to_string(distinct) +
             "; cap " + std::to_string(cap) + " pages (" +
             std::to_string(a->count()) + " snapshots per run, step " +
             std::to_string(kSweepStep) + ", ids <= " +
             std::to_string(old_last) + ")");
    analyst = std::move(a);
  } else {
    auto a = std::make_unique<GroupbyAnalyst>(h);
    RQL_ASSIGN_OR_RETURN(keys, MakeLookupKeys(h->data(), &rng, last - 20, last, 12));
    analyst = std::move(a);
  }
  store->ClearSnapshotCache();
  if (sweep) bench.env->set_pagelog_read_delay_us(kArchiveReadDelayUs);

  Client client(&bench, analyst.get(), std::move(keys), args.seed, out);
  RQL_RETURN_IF_ERROR(client.Init());
  const int64_t bytes_before = DataBytes(bench);
  const double seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  const int lookups = static_cast<int>(std::lround(kLookupsPerSecond * seconds));
  const int commits = static_cast<int>(std::lround(kCommitsPerSecond * seconds));
  const int64_t seconds_ns = static_cast<int64_t>(seconds * 1e9);
  Phase plain;
  client.RunPhase(NowNs() + seconds_ns, 0, lookups, commits, &plain);
  RQL_RETURN_IF_ERROR(analyst->Verify(out));
  CheckDeviceCount(plain, out);
  if (!args.trace) {
    LogGrowth(bench, bytes_before, plain.commits, out);
    ReportCommon(bench, out);
    out->Timing("run_ms", plain.run_ms);
    out->EndToEnd("snapshots_per_s", plain.totals.iterations / plain.wall_s,
                  "1/s");
    out->Timing("lookup_ms", plain.lookup_ms, /*tail=*/false);
    out->Timing("commit_ms", plain.commit_ms, /*tail=*/false);
    return Status::OK();
  }

  // Traced run: the untraced phase above is the overhead baseline; the
  // traced phase runs a fixed count, so its counters repeat for a seed.
  Phase traced;
  Tracer::Get().Start();
  client.RunPhase(
      0, std::max<int64_t>(1, std::llround(spec.traced_runs_per_second * seconds)),
      lookups, commits, &traced);
  Tracer::Get().Stop();
  RQL_RETURN_IF_ERROR(analyst->Verify(out));
  CheckDeviceCount(traced, out);
  LogGrowth(bench, bytes_before, plain.commits + traced.commits, out);
  ReportLayers(traced, out);
  ReportNoServer(out);
  int64_t run_device_ns = 0;
  for (FileScope scope : {FileScope::kData, FileScope::kMeta}) {
    const IoCounts c = traced.run_io.Scope(scope);
    run_device_ns += c.read_ns + c.write_ns + c.sync_ns;
  }
  ReportTrace(args, traced.run_ms.Sum(), run_device_ns, traced.totals.runs,
              out);
  ReportTails(plain.lookup_ms, plain.commit_ms, out);
  const double base = plain.run_ms.Quantile(0.5);
  out->Layer("trace.overhead_ms_p50", traced.run_ms.Quantile(0.5) - base, "ms");
  out->Layer("trace.overhead_frac",
             base > 0 ? traced.run_ms.Quantile(0.5) / base - 1 : 0, "ratio");
  ReportCommon(bench, out);
  return Status::OK();
}

}  // namespace

Status RunArchiveSweep(const RunArgs& args, Outcome* out) {
  EmbeddedSpec spec;
  spec.history.scale_factor = 0.005;
  spec.history.snapshots = 120;
  spec.traced_runs_per_second = 12;
  return RunEmbedded(args, spec, /*sweep=*/true, out);
}

Status RunGroupbyRecent(const RunArgs& args, Outcome* out) {
  EmbeddedSpec spec;
  spec.history.scale_factor = 0.002;
  spec.history.snapshots = 120;
  spec.traced_runs_per_second = 20;
  return RunEmbedded(args, spec, /*sweep=*/false, out);
}

}  // namespace perfbench
