#ifndef RQL_SERVER_SERVER_H_
#define RQL_SERVER_SERVER_H_

// The RQL server: a Unix-domain-socket daemon front end over one
// SnapshotStore. Each connection is a Session (attached handle + private
// metadata database + engine, see session.h); RQL mechanism runs go
// through the RunScheduler (admission control, per-session fairness,
// worker budgets, cooperative cancel, see scheduler.h); frames are the
// wire.h protocol.
//
// Concurrency model:
//   * AS OF SELECT scripts run concurrently, each on its session's
//     attached handle — the store's reader locks, snapshot page cache,
//     SharedScanCache and coalesced SPT builds do the sharing, exactly as
//     bench_concurrent_runs exercises in-process.
//   * Everything that writes — non-AS-OF SQL, snapshot declaration,
//     truncation — executes on the owning handle under one server-wide
//     write mutex, and the canonical SnapIds table lives in the owner's
//     metadata database.
//   * The server also holds SnapIds in memory as a canonical log: loaded
//     once at Create, appended by kSnapshot, cut by kTruncate (which bumps
//     its truncation epoch). Each session keeps an append-only mirror in
//     its private metadata database and copies only the rows declared
//     since its last refresh — at run dispatch and before each .meta
//     statement — rebuilding once when the epoch moved. The mirror is
//     read-only to clients. Lock order: write_mu_ -> snapids_mu_ and
//     session->mu -> snapids_mu_; snapids_mu_ is a leaf.
//   * Attached catalogs are loaded at session creation and not refreshed
//     on concurrent DDL (the Database::Attach contract); schema listings
//     therefore always read the owner catalog.
//
// Shutdown and disconnect are cancellation-safe: the session's queued and
// running runs are cancelled and drained (scheduler slots and worker
// budget released, partial result tables dropped by the engine's failed-
// run path, store pins released by the attached handle's destructor)
// before the session is destroyed, so the store stays fully usable by the
// remaining sessions.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "retro/metrics.h"
#include "rql/rql.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/wire.h"
#include "sql/database.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"

namespace rql::server {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket (unlinked and
  /// rebound on Start).
  std::string socket_path;
  /// Concurrent sessions; kHello beyond it is rejected with kError.
  int max_sessions = 32;
  RunScheduler::Options scheduler;
  /// Sessions idle longer than this are disconnected by the reaper
  /// (their socket is shut down; teardown then runs the normal
  /// disconnect path). 0 disables the timeout.
  int64_t idle_timeout_us = 0;
  /// Base RqlOptions for session engines. The server injects
  /// shared_scan_cache, metrics, session_id and the per-run cancel/run_id
  /// wiring itself, enables cross-run SPT-build sharing on the store it
  /// owns and attaches the shared cache to it as a capture listener. It
  /// also forces cold_cache_per_run off on every session engine and the
  /// owner engine: the snapshot page cache is store-wide, so one run's
  /// cold start would wipe every other session's working set. Archived
  /// frames stay cached across runs until the store's
  /// snapshot_cache_pages evicts them or TruncateHistory clears the
  /// cache. Everything else (incremental_spt, ...) is taken as configured
  /// here.
  RqlOptions engine;
  /// Receives the server gauges (server.active_sessions,
  /// server.queued_runs, server.active_runs, server.admission_rejects,
  /// server.sessions_opened, server.runs_completed) and the per-run
  /// histograms server.queue_wait_us (submit -> dispatch) and
  /// server.run_us (dispatch -> completion). Defaults to
  /// MetricsRegistry::Default().
  retro::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// Serves databases owned by the caller (tests and benches over an
  /// existing tpch::History). `data`/`meta` must outlive the server.
  static Result<std::unique_ptr<Server>> Create(sql::Database* data,
                                                sql::Database* meta,
                                                ServerOptions options);

  /// Opens (or creates) `<prefix>_data` / `<prefix>_meta` in `env` and
  /// serves them — the rql_serverd entry point. `env` must outlive the
  /// server.
  static Result<std::unique_ptr<Server>> Open(storage::Env* env,
                                              const std::string& prefix,
                                              ServerOptions options);

  ~Server();

  /// Binds the socket and starts the accept, dispatcher and reaper
  /// threads.
  Status Start();

  /// Stops accepting, disconnects every session (cancelling its runs) and
  /// joins all threads. Idempotent; the destructor calls it.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }

  /// Declares a snapshot of the owner's current state labelled `label`
  /// through the owner engine and appends it to the canonical SnapIds
  /// log, under write_mu_ -> snapids_mu_. The kSnapshot handler and
  /// in-process seeding (before or after Start) both use it, so every
  /// declaration reaches the sessions' SnapIds mirrors.
  Result<retro::SnapshotId> DeclareSnapshot(const std::string& label);

  /// The kStats document (also returned over the wire): server, scheduler,
  /// shared scan cache, snapshot page cache, store and snapids sections.
  std::string StatsJson();

  RunScheduler* scheduler() { return scheduler_.get(); }
  sql::SharedScanCache* scan_cache() { return &scan_cache_; }
  sql::Database* data() { return data_; }
  sql::Database* meta() { return meta_; }
  int64_t sessions_opened() const { return sessions_opened_.load(); }
  int64_t active_sessions() const { return active_sessions_.load(); }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    /// Serializes frame writes: request replies from the connection
    /// thread interleave with out-of-band kRunDone frames pushed by
    /// scheduler dispatch threads.
    std::mutex write_mu;
    std::unique_ptr<Session> session;
    std::atomic<int64_t> last_active_us{0};
    std::atomic<bool> done{false};
  };

  Server() = default;
  static Result<std::unique_ptr<Server>> Finish(ServerOptions options,
                                                std::unique_ptr<Server> s);

  void AcceptLoop();
  void ReaperLoop();
  void HandleConn(Conn* conn);
  /// One request frame; returns false when the connection should close.
  bool HandleFrame(Conn* conn, const Frame& frame);
  Status SendReply(Conn* conn, MsgType type, const std::string& payload);
  Status SendError(Conn* conn, const Status& error);
  Status SendResult(Conn* conn, const sql::QueryResult& result);
  /// Copies the canonical-log rows `session`'s mirror lacks (under
  /// snapids_mu_) and applies them. Caller holds session->mu.
  Status RefreshSnapIds(Session* session);
  /// Drops log rows below `keep_from`, bumps the epoch and rewrites the
  /// owner table in log order. Caller holds write_mu_.
  Status TruncateSnapIds(retro::SnapshotId keep_from);
  /// True when every statement of `sql` is a SELECT with an AS OF clause —
  /// the read-only shape that may run on the session's attached handle
  /// without the write lock.
  static bool IsSnapshotReadScript(const std::string& sql);

  Status HandleRqlRun(Conn* conn, const Frame& frame);

  ServerOptions options_;
  retro::MetricsRegistry* metrics_ = nullptr;

  // Set by Open (owning) — Create leaves them empty and borrows.
  std::unique_ptr<sql::Database> owned_data_;
  std::unique_ptr<sql::Database> owned_meta_;
  sql::Database* data_ = nullptr;
  sql::Database* meta_ = nullptr;
  std::unique_ptr<RqlEngine> owner_engine_;
  /// Serializes every use of the owner handles (writes, schema listings,
  /// snapshot declaration, truncation).
  std::mutex write_mu_;

  /// The canonical SnapIds log: the owner table's rows in its scan order,
  /// and the truncation epoch (bumped whenever rows leave the log).
  std::mutex snapids_mu_;
  std::vector<std::string> snapids_columns_;
  std::vector<sql::Row> snapids_;
  uint64_t snapids_epoch_ = 0;
  /// Rows written into session mirrors, and mirror rebuilds.
  std::atomic<int64_t> snapids_mirrored_rows_{0};
  std::atomic<int64_t> snapids_rebuilds_{0};

  sql::SharedScanCache scan_cache_;
  /// Keeps scan_cache_ attached to the store's capture listeners for the
  /// server's lifetime (declared after it, so it detaches first).
  ScopedCleanup capture_attachment_;
  std::unique_ptr<RunScheduler> scheduler_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;
  std::thread reaper_thread_;

  std::mutex conns_mu_;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<int64_t> active_sessions_{0};
  std::atomic<int64_t> sessions_opened_{0};
  std::atomic<int64_t> runs_completed_{0};
  retro::MetricsRegistry::Histogram* queue_wait_hist_ = nullptr;
  retro::MetricsRegistry::Histogram* run_hist_ = nullptr;
};

}  // namespace rql::server

#endif  // RQL_SERVER_SERVER_H_
