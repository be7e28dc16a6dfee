#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "metered_env.h"
#include "storage/env.h"
#include "tpch/workload.h"

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) holding this run's databases.
  std::string workdir;
  /// Where a traced run writes its spans.
  std::string trace_path;
};

/// Modeled delay per Pagelog device read where a workload puts the store
/// behind the archive device: the CostModel's SSD random-read figure.
inline constexpr int64_t kArchiveReadDelayUs = 100;

/// The paper's Table 1 queries the workloads run.
inline constexpr char kQqIo[] =
    "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'";
inline constexpr char kQqAgg[] =
    "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av "
    "FROM orders GROUP BY o_custkey";
inline constexpr char kLookupSql[] =
    "SELECT AS OF ? o_orderkey, o_custkey, o_orderstatus, o_totalprice "
    "FROM orders WHERE o_orderkey = ?";

/// Latency samples in milliseconds.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  size_t size() const { return v_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;
  /// Samples strictly above the q-quantile.
  size_t Beyond(double q) const;
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }

 private:
  std::vector<double> v_;
};

/// Everything a run reports: metrics, counts of attempted and failed
/// operations, and a human-readable log printed before the result line.
class Outcome {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Adds `<name>_p50` and, when `tail`, `<name>_p90` as end-to-end
  /// metrics, and logs the sample count and both.
  void Timing(const std::string& name, const Samples& s, bool tail = true);
  /// Records a failed operation (an error, a rejection or a wrong
  /// output); the first few are logged.
  void Fail(const std::string& what);
  void Log(const std::string& line) { log.push_back(line); }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> log;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// A TPC-H UW30 snapshot history on a file-backed store under a MeteredEnv.
struct HistorySpec {
  double scale_factor = 0.002;
  int snapshots = 120;
};

/// Times SetUp builds the history from scratch; setup_s is their median.
inline constexpr int kBuilds = 3;

struct Bench {
  std::unique_ptr<rql::storage::FileEnv> file_env;
  std::unique_ptr<MeteredEnv> env;
  std::unique_ptr<rql::tpch::History> history;
  std::string workdir;
  std::string name;  // history name inside workdir
  Samples setup_s;   // seconds per build (stored as-is, not ms)
  /// Device traffic of the last build's refresh transactions.
  IoSnapshot build_io;
  int build_commits = 0;
};

/// Builds the history kBuilds times from the seed (TPC-H populate,
/// then one refresh transaction per snapshot, each committed with a
/// snapshot declaration, then a reopen), timing each build, and keeps the
/// last one open.
rql::Status SetUp(const RunArgs& args, const HistorySpec& spec, Bench* bench);

/// Bytes of the data store's files (db, wal, pagelog, maplog).
int64_t DataBytes(const Bench& bench);

/// DataBytes over the bytes of the data store's current-state db file.
double SpaceAmp(const Bench& bench);

/// Logs how far the measured phases grew the history: snapshots declared
/// against the built ones, and data-store bytes against `bytes_before`.
void LogGrowth(const Bench& bench, int64_t bytes_before, int64_t declared,
               Outcome* out);

/// ru_maxrss of this process in MiB.
double PeakRssMb();

/// Reports setup_s, peak_rss_mb and space_amp, and the build's per-commit
/// device traffic.
void ReportCommon(const Bench& bench, Outcome* out);

/// The p90 of lookup and commit latency, as per-layer metrics: on
/// daemon_mixed they swing with the host's scheduling of the server's
/// threads beyond any end-to-end bound (see BENCHMARK.md).
void ReportTails(const Samples& lookup_ms, const Samples& commit_ms,
                 Outcome* out);

/// Per-commit device traffic of a phase over the data store's files.
void ReportCommitIo(const IoSnapshot& io, int64_t commits, Outcome* out);

/// A refresh transaction the writers issue: flips the status and bumps
/// the price of a seeded key range of orders.
std::string RefreshDml(rql::Random* rng, int64_t min_key, int64_t max_key);

/// One (snapshot, order key) pair a point lookup asks for.
struct LookupKey {
  rql::retro::SnapshotId snap = 0;
  int64_t key = 0;
};

/// Lookup keys visiting snapshots first..last in turn, `rounds` times, each
/// a seeded order key live in its snapshot. Every seed thus asks each
/// snapshot equally often, and only the keys differ.
rql::Result<std::vector<LookupKey>> MakeLookupKeys(rql::sql::Database* data,
                                                   rql::Random* rng,
                                                   rql::retro::SnapshotId first,
                                                   rql::retro::SnapshotId last,
                                                   int rounds);

/// Runs a lookup on an embedded prepared statement; returns its rows.
rql::Result<std::vector<rql::sql::Row>> EmbeddedLookup(
    rql::sql::PreparedStatement* stmt, const LookupKey& key);

rql::Status RunArchiveSweep(const RunArgs& args, Outcome* out);
rql::Status RunGroupbyRecent(const RunArgs& args, Outcome* out);
rql::Status RunDaemonMixed(const RunArgs& args, Outcome* out);

/// Adds the per-layer self-time table of the spans recorded since
/// Tracer::Start, writes the spans to args.trace_path, and reports how
/// top-level self times add up against `measured_wall_ms` (the summed
/// run_ms of the traced runs; negative to skip). When `run_device_ns` is
/// not negative, it is the Env's read, write and sync time metered around
/// the traced runs, and the storage self time under op.run must equal it.
void ReportTrace(const RunArgs& args, double measured_wall_ms,
                 int64_t run_device_ns, int64_t traced_runs, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
