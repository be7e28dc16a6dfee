#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <map>

#include "span_trace.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

// Spans recorded per traced run beyond this are kept in memory for the
// report but not written out, bounding the trace file.
constexpr int64_t kMaxSpansWritten = 100000;

}  // namespace

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Mean() const {
  return v_.empty() ? 0 : Sum() / static_cast<double>(v_.size());
}

double Samples::Sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

size_t Samples::Beyond(double q) const {
  const double cut = Quantile(q);
  return static_cast<size_t>(
      std::count_if(v_.begin(), v_.end(), [cut](double x) { return x > cut; }));
}

void Outcome::Timing(const std::string& name, const Samples& s, bool tail) {
  EndToEnd(name + "_p50", s.Quantile(0.5), "ms");
  if (tail) EndToEnd(name + "_p90", s.Quantile(0.9), "ms");
  Log(name + ": n=" + std::to_string(s.size()) +
      " beyond_p90=" + std::to_string(s.Beyond(0.9)) +
      Fmt(" p50=%.3f p90=%.3f mean=%.3f ms", s.Quantile(0.5), s.Quantile(0.9),
          s.Mean()));
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failed <= 10) Log("FAILED: " + what);
}

rql::Status SetUp(const RunArgs& args, const HistorySpec& spec, Bench* bench) {
  bench->workdir = args.workdir;
  bench->file_env = std::make_unique<rql::storage::FileEnv>(args.workdir);
  bench->env = std::make_unique<MeteredEnv>(bench->file_env.get());
  rql::tpch::HistoryConfig config;
  config.tpch.scale_factor = spec.scale_factor;
  config.tpch.seed = args.seed;
  config.workload = rql::tpch::WorkloadSpec::UW30();
  config.snapshots = spec.snapshots;
  for (int b = 0; b < kBuilds; ++b) {
    const std::string name = "h" + std::to_string(b);
    bench->history.reset();
    if (b > 0) {
      // Only the last build is kept; drop the previous one's files.
      const std::string prev = bench->name + "_";
      for (const fs::directory_entry& e : fs::directory_iterator(args.workdir)) {
        if (e.path().filename().string().rfind(prev, 0) == 0) {
          fs::remove(e.path());
        }
      }
    }
    bench->name = name;
    const int64_t start = NowNs();
    const IoSnapshot before = bench->env->Snapshot();
    auto built = rql::tpch::BuildHistory(bench->env.get(), name, config);
    if (!built.ok()) return built.status();
    bench->build_io = bench->env->Snapshot() - before;
    built->reset();
    // Reopen: what a restarted process pays before serving the history.
    auto reopened = rql::tpch::BuildHistory(bench->env.get(), name, config);
    if (!reopened.ok()) return reopened.status();
    RQL_RETURN_IF_ERROR(
        (*reopened)->data()->store()->maplog()->PrewarmSkippy());
    bench->setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    bench->history = std::move(reopened).value();
  }
  bench->build_commits = spec.snapshots;
  return rql::Status::OK();
}

int64_t DataBytes(const Bench& bench) {
  const std::string base = bench.workdir + "/" + bench.name + "_data";
  uint64_t total = 0;
  for (const char* suffix : {".db", ".db.wal", ".pagelog", ".maplog"}) {
    std::error_code ec;
    uint64_t size = fs::file_size(base + suffix, ec);
    if (!ec) total += size;
  }
  return static_cast<int64_t>(total);
}

double SpaceAmp(const Bench& bench) {
  std::error_code ec;
  const uint64_t db =
      fs::file_size(bench.workdir + "/" + bench.name + "_data.db", ec);
  return ec || db == 0 ? 0
                       : static_cast<double>(DataBytes(bench)) /
                             static_cast<double>(db);
}

void LogGrowth(const Bench& bench, int64_t bytes_before, int64_t declared,
               Outcome* out) {
  const int64_t bytes = DataBytes(bench) - bytes_before;
  out->Log("history growth: " + std::to_string(declared) +
           " snapshots declared onto " + std::to_string(bench.build_commits) +
           Fmt(" (%.1f%%), %.0f bytes onto %.0f (%.1f%%)",
               100.0 * declared / std::max(1, bench.build_commits),
               static_cast<double>(bytes), static_cast<double>(bytes_before),
               bytes_before > 0 ? 100.0 * bytes / bytes_before : 0));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void ReportCommon(const Bench& bench, Outcome* out) {
  out->EndToEnd("setup_s", bench.setup_s.Quantile(0.5), "s");
  out->Log("setup_s: builds=" + std::to_string(bench.setup_s.size()) +
           Fmt(" median=%.3f min=%.3f max=%.3f s", bench.setup_s.Quantile(0.5),
               bench.setup_s.Quantile(0), bench.setup_s.Quantile(1)));
  out->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  out->EndToEnd("space_amp", SpaceAmp(bench), "ratio");
  const IoCounts all = bench.build_io.Scope(FileScope::kData);
  const double n = std::max(1, bench.build_commits);
  out->Layer("storage.setup.syncs_per_commit", all.syncs / n, "count");
  out->Layer("storage.setup.sync_ms_per_commit", all.sync_ns / 1e6 / n, "ms");
  out->Layer("storage.setup.write_bytes_per_commit", all.write_bytes / n,
             "bytes");
}

void ReportTails(const Samples& lookup_ms, const Samples& commit_ms,
                 Outcome* out) {
  out->Layer("lookup_ms_p90", lookup_ms.Quantile(0.9), "ms");
  out->Layer("commit_ms_p90", commit_ms.Quantile(0.9), "ms");
}

void ReportCommitIo(const IoSnapshot& io, int64_t commits, Outcome* out) {
  const double n = static_cast<double>(std::max<int64_t>(1, commits));
  const IoCounts all = io.Scope(FileScope::kData);
  out->Layer("storage.wal.bytes_per_commit",
             io.at(FileScope::kData, FileKind::kWal).write_bytes / n, "bytes");
  out->Layer("storage.syncs_per_commit", all.syncs / n, "count");
  out->Layer("storage.sync_ms_per_commit", all.sync_ns / 1e6 / n, "ms");
  out->Layer("storage.pagelog.bytes_per_commit",
             io.at(FileScope::kData, FileKind::kPagelog).write_bytes / n,
             "bytes");
  out->Layer("storage.maplog.bytes_per_commit",
             io.at(FileScope::kData, FileKind::kMaplog).write_bytes / n,
             "bytes");
}

std::string RefreshDml(rql::Random* rng, int64_t min_key, int64_t max_key) {
  constexpr int64_t kRange = 16;
  const int64_t lo = rng->UniformRange(min_key, std::max(min_key, max_key - kRange));
  const char* status = rng->Uniform(2) == 0 ? "O" : "F";
  return "UPDATE orders SET o_orderstatus = '" + std::string(status) +
         "', o_totalprice = o_totalprice + 1.0 WHERE o_orderkey >= " +
         std::to_string(lo) + " AND o_orderkey < " +
         std::to_string(lo + kRange);
}

rql::Result<std::vector<LookupKey>> MakeLookupKeys(
    rql::sql::Database* data, rql::Random* rng, rql::retro::SnapshotId first,
    rql::retro::SnapshotId last, int rounds) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (rql::retro::SnapshotId s = first; s <= last; ++s) {
    auto r = data->Query("SELECT AS OF " + std::to_string(s) +
                         " MIN(o_orderkey), MAX(o_orderkey) FROM orders");
    if (!r.ok()) return r.status();
    if (r->rows.size() != 1) return rql::Status::Internal("no key range");
    ranges.emplace_back(r->rows[0][0].AsInt(), r->rows[0][1].AsInt());
  }
  std::vector<LookupKey> keys;
  for (int round = 0; round < rounds; ++round) {
    for (rql::retro::SnapshotId s = first; s <= last; ++s) {
      const auto& [lo, hi] = ranges[s - first];
      keys.push_back({s, rng->UniformRange(lo, hi)});
    }
  }
  return keys;
}

rql::Result<std::vector<rql::sql::Row>> EmbeddedLookup(
    rql::sql::PreparedStatement* stmt, const LookupKey& key) {
  RQL_RETURN_IF_ERROR(stmt->BindAsOf(key.snap));
  RQL_RETURN_IF_ERROR(stmt->BindInt(2, key.key));
  std::vector<rql::sql::Row> rows;
  RQL_RETURN_IF_ERROR(stmt->Execute(
      [&rows](const std::vector<std::string>&, const rql::sql::Row& row) {
        rows.push_back(row);
        return rql::Status::OK();
      }));
  return rows;
}

void ReportTrace(const RunArgs& args, double measured_wall_ms,
                 int64_t run_device_ns, int64_t traced_runs, Outcome* out) {
  const std::vector<std::vector<Span>> threads = Tracer::Get().Collect();
  const TraceReport report = Summarize(threads);
  const int64_t written = WriteSpans(threads, args.trace_path, kMaxSpansWritten);
  out->Log("trace: " + std::to_string(report.spans) + " spans, " +
           std::to_string(written) + " written to " + args.trace_path);
  out->Layer("trace.spans", static_cast<double>(report.spans), "count");

  // Self-time table: one row per (top-level operation, layer).
  out->Log("self time by operation and layer (ms total, ms per op):");
  for (const auto& [key, ns] : report.layer_self_ns) {
    auto root = report.roots.find(key.first);
    const double ops = root == report.roots.end() ? 0 : root->second.count;
    out->Log("  " + key.first + " / " + key.second +
             Fmt(": %.3f ms total, %.4f ms per op", ns / 1e6,
                 ops > 0 ? ns / 1e6 / ops : 0));
  }
  out->Log("self time by span name (count, ms total, ms self):");
  for (const auto& [name, t] : report.by_name) {
    out->Log("  " + name + Fmt(": %.0f, %.3f, %.3f", t.count, t.total_ns / 1e6,
                               t.self_ns / 1e6));
  }

  const double runs = static_cast<double>(std::max<int64_t>(1, traced_runs));
  for (const char* layer : {"op", "rql", "sql", "server", "storage"}) {
    auto it = report.layer_self_ns.find({"op.run", layer});
    const double ns = it == report.layer_self_ns.end() ? 0 : it->second;
    out->Layer(std::string("trace.run.self_") + layer + "_ms", ns / 1e6 / runs,
               "ms");
  }
  auto dev = report.layer_self_ns.find({"thread", "storage"});
  out->Layer("trace.server_threads.storage_ms_per_run",
             dev == report.layer_self_ns.end() ? 0 : dev->second / 1e6 / runs,
             "ms");
  if (measured_wall_ms > 0) {
    // Self times partition each op.run tree, so this sum differs from the
    // measured run wall only by the clock reads around the op.run spans.
    double self_sum_ms = 0;
    for (const auto& [key, ns] : report.layer_self_ns) {
      if (key.first == "op.run") self_sum_ms += ns / 1e6;
    }
    const double err = std::fabs(self_sum_ms - measured_wall_ms) / measured_wall_ms;
    out->Layer("trace.run.self_sum_error_frac", err, "ratio");
    out->Log(Fmt("trace: top-level self times sum to %.3f ms; measured run "
                 "wall %.3f ms; relative difference %.5f (epsilon 0.01)",
                 self_sum_ms, measured_wall_ms, err));
  } else {
    out->Layer("trace.run.self_sum_error_frac", 0, "ratio");
  }
  if (run_device_ns >= 0) {
    // The storage spans under op.run and the Env's counters are two
    // accounts of the same file operations: a span lost, recorded on the
    // wrong thread or filed under the wrong tree breaks the equality.
    auto st = report.layer_self_ns.find({"op.run", "storage"});
    const int64_t span_ns = st == report.layer_self_ns.end() ? 0 : st->second;
    out->Log("trace: storage self time under op.run " + std::to_string(span_ns) +
             " ns; Env busy time of the traced runs " +
             std::to_string(run_device_ns) + " ns");
    if (span_ns != run_device_ns) {
      out->Fail("storage spans under op.run do not match the Env's busy time");
    }
  }
}

}  // namespace perfbench
