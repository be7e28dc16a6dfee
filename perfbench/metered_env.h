#ifndef PERFBENCH_METERED_ENV_H_
#define PERFBENCH_METERED_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "storage/env.h"

namespace perfbench {

/// What a file holds, recognised from the engine's file-name suffixes
/// (<store>.db, <store>.db.wal, <store>.pagelog, <store>.maplog).
enum class FileKind { kDb, kWal, kPagelog, kMaplog, kOther };
inline constexpr int kFileKinds = 5;
const char* FileKindName(FileKind kind);

/// Which database a file belongs to: the snapshotable data store
/// ("<history>_data.*") or anything else (the metadata database holding
/// SnapIds and result tables).
enum class FileScope { kData, kMeta };
inline constexpr int kFileScopes = 2;

FileKind ClassifyKind(const std::string& name);
FileScope ClassifyScope(const std::string& name);

/// Totals of one (scope, kind) cell. Times are wall nanoseconds the calls
/// spent inside the wrapped file, including any modeled device delay.
struct IoCounts {
  int64_t reads = 0;  // device reads (see MeteredEnv)
  int64_t read_bytes = 0;
  int64_t read_ns = 0;
  int64_t writes = 0;  // Write and Append calls
  int64_t write_bytes = 0;
  int64_t write_ns = 0;
  int64_t syncs = 0;
  int64_t sync_ns = 0;

  IoCounts& operator+=(const IoCounts& o);
  IoCounts operator-(const IoCounts& o) const;
};

/// All cells at one instant; subtract two to meter a phase.
struct IoSnapshot {
  std::array<std::array<IoCounts, kFileKinds>, kFileScopes> cells{};

  const IoCounts& at(FileScope scope, FileKind kind) const {
    return cells[static_cast<int>(scope)][static_cast<int>(kind)];
  }
  /// Sum over kinds for one scope.
  IoCounts Scope(FileScope scope) const;
  IoSnapshot operator-(const IoSnapshot& o) const;
  IoSnapshot& operator+=(const IoSnapshot& o);
};

/// An Env wrapper that counts and times every file operation per file
/// kind, per calling thread, and models the storage device:
///   * each device read of a data-store Pagelog file sleeps a fixed delay
///     before it is served (the archive device);
///   * Sync sleeps kSyncDelayUs instead of calling the wrapped file's Sync
///     (a flush device of fixed latency). On a shared virtual-machine disk,
///     fsync tails vary several-fold from minute to minute, which would
///     drown any engine change in commit latency; the count of syncs stays
///     exact.
///
/// A device read is one Read call, except that a read starting exactly
/// where the same thread's previous read of the same file ended, when that
/// previous read was a short record header (at most kHeaderBytes), is the
/// payload of the same record and counts as part of that device read. The
/// Pagelog reads a record as header then payload, so one archived page is
/// one device read and one delay.
///
/// Each thread that touches a file gets its own counters, so a workload can
/// split the traffic of an in-process server by the thread serving it.
///
/// Thread-safe: counters are atomics, and the wrapped files keep their own
/// concurrency guarantees.
class MeteredEnv : public rql::storage::Env {
 public:
  static constexpr uint64_t kHeaderBytes = 64;
  /// Modeled latency of every Sync.
  static constexpr int64_t kSyncDelayUs = 100;

  explicit MeteredEnv(rql::storage::Env* base);

  /// Delay per Pagelog device read of the data store; 0 disables it.
  void set_pagelog_read_delay_us(int64_t us) {
    pagelog_delay_us_.store(us, std::memory_order_relaxed);
  }
  int64_t pagelog_read_delay_us() const {
    return pagelog_delay_us_.load(std::memory_order_relaxed);
  }

  /// Totals over all threads.
  IoSnapshot Snapshot() const;
  /// Totals per calling thread.
  std::map<std::thread::id, IoSnapshot> SnapshotByThread() const;

  rql::Result<std::unique_ptr<rql::storage::File>> OpenFile(
      const std::string& name) override;
  rql::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  rql::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }

 private:
  friend class MeteredFile;

  struct Cell {
    std::atomic<int64_t> reads{0}, read_bytes{0}, read_ns{0};
    std::atomic<int64_t> writes{0}, write_bytes{0}, write_ns{0};
    std::atomic<int64_t> syncs{0}, sync_ns{0};
  };
  using Cells = std::array<std::array<Cell, kFileKinds>, kFileScopes>;

  /// The calling thread's cells, created on its first file operation.
  Cell* LocalCell(FileScope scope, FileKind kind);

  rql::storage::Env* base_;
  const uint64_t id_;  // tells this Env's cells apart in a thread's cache
  std::atomic<int64_t> pagelog_delay_us_{0};
  mutable std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<Cells>> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METERED_ENV_H_
