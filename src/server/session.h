#ifndef RQL_SERVER_SESSION_H_
#define RQL_SERVER_SESSION_H_

// One connected client of rql_serverd: an attached sql::Database handle
// over the server's SnapshotStore, a private in-memory metadata database
// (append-only SnapIds mirror, RQL result tables), an RqlEngine wired to
// the server's SharedScanCache, and the session's prepared-statement
// table with its per-statement plan state (PlanCache, AS OF binding).
//
// This is exactly the bench_concurrent_runs client shape, held
// server-side: concurrent sessions share the store — snapshot page cache,
// SharedScanCache single-flight decodes, coalesced SPT builds — while
// everything per-client (current_snapshot, run stats, result tables,
// prepared plans) stays isolated. Destroying the session releases it all:
// prepared statements drop their plan caches, the engine drops run state,
// and the attached handle detaches from the store.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "rql/rql.h"
#include "server/scheduler.h"
#include "sql/database.h"
#include "storage/env.h"

namespace rql::server {

/// The snapshot table every metadata database the server touches holds.
inline constexpr char kSnapIdsTable[] = "SnapIds";

/// Appends `rows` to SnapIds in `db` — after deleting every existing row
/// when `replace` — as one transaction, or inside the caller's open one.
Status WriteSnapIds(sql::Database* db, const std::vector<sql::Row>& rows,
                    bool replace);

/// What a session's SnapIds mirror lacks against the server's canonical
/// log (Server::RefreshSnapIds): the rows declared since its last refresh,
/// or — when the log's truncation epoch moved — every surviving row.
struct SnapIdsDelta {
  /// The log epoch `rows` belong to.
  uint64_t epoch = 0;
  /// Replace the mirror's contents with `rows` instead of appending them.
  bool rebuild = false;
  std::vector<sql::Row> rows;
};

class Session {
 public:
  /// Attaches to `store` and builds the private metadata database. `base`
  /// carries the server's engine wiring (shared_scan_cache, metrics); the
  /// session id is stamped into it for tracing.
  static Result<std::unique_ptr<Session>> Create(uint64_t id,
                                                 retro::SnapshotStore* store,
                                                 const RqlOptions& base);
  ~Session();

  uint64_t id() const { return id_; }
  sql::Database* data() { return data_.get(); }
  sql::Database* meta() { return meta_.get(); }
  RqlEngine* engine() { return engine_.get(); }

  /// Serializes everything touching the session's engine/handles: the
  /// connection thread's request handling and the scheduler's run bodies.
  /// kCancelRun and kStats deliberately do not take it, so they work while
  /// a run holds it.
  std::mutex mu;

  /// Where the private SnapIds mirror stands against the server's
  /// canonical log. Guarded by `mu`.
  struct SnapIdsMirror {
    /// Log epoch the mirrored rows belong to.
    uint64_t epoch = 0;
    /// How many of that epoch's rows, in log order, the mirror holds.
    size_t rows = 0;
    /// Contents unknown (a failed write, or mirror rows a client ROLLBACK
    /// may have undone): the next refresh rebuilds.
    bool stale = false;
    /// Rows were written inside the client's open metadata transaction,
    /// so they last only if that transaction commits.
    bool in_client_txn = false;
  };
  const SnapIdsMirror& snapids_mirror() const { return mirror_; }

  /// Brings the mirror up to `delta.epoch`: appends its rows, or rebuilds
  /// the table from them. O(rows in the delta). Caller holds `mu`.
  Status ApplySnapIds(const SnapIdsDelta& delta);

  /// A kMetaSql script ended the client's metadata transaction (COMMIT or
  /// ROLLBACK). When `may_have_undone` — a ROLLBACK, or a script that
  /// failed — mirror rows written inside that transaction may be gone, so
  /// the mirror is marked for rebuild. Caller holds `mu`.
  void EndClientTxn(bool may_have_undone);

  // --- prepared statements (wire kPrepare..kClosePrepared) ----------------
  Result<uint32_t> Prepare(const std::string& sql);
  Status BindAsOf(uint32_t stmt_id, retro::SnapshotId snap);
  Status BindValue(uint32_t stmt_id, int index, sql::Value value);
  Result<sql::QueryResult> ExecutePrepared(uint32_t stmt_id);
  Status ClosePrepared(uint32_t stmt_id);

  // --- in-flight runs (for kCancelRun and disconnect) ---------------------
  void TrackRun(uint64_t run_id, std::shared_ptr<RunScheduler::Ticket> t);
  std::shared_ptr<RunScheduler::Ticket> FindRun(uint64_t run_id);
  void ForgetRun(uint64_t run_id);

  // --- idle accounting (read by the server's reaper thread) ---------------
  void Touch() { last_active_us_.store(NowMicros()); }
  int64_t last_active_us() const { return last_active_us_.load(); }

 private:
  Session(uint64_t id) : id_(id) { Touch(); }

  Result<sql::PreparedStatement*> FindStmt(uint32_t stmt_id);

  const uint64_t id_;
  std::unique_ptr<storage::InMemoryEnv> meta_env_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<sql::Database> data_;  // attached; store outlives us
  std::unique_ptr<RqlEngine> engine_;
  SnapIdsMirror mirror_;

  std::map<uint32_t, std::unique_ptr<sql::PreparedStatement>> stmts_;
  uint32_t next_stmt_id_ = 1;

  std::mutex runs_mu_;
  std::map<uint64_t, std::shared_ptr<RunScheduler::Ticket>> runs_;

  std::atomic<int64_t> last_active_us_{0};
};

}  // namespace rql::server

#endif  // RQL_SERVER_SESSION_H_
