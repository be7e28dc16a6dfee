#include "server/session.h"

#include <utility>

namespace rql::server {

Result<std::unique_ptr<Session>> Session::Create(
    uint64_t id, retro::SnapshotStore* store, const RqlOptions& base) {
  std::unique_ptr<Session> session(new Session(id));
  session->meta_env_ = std::make_unique<storage::InMemoryEnv>();
  RQL_ASSIGN_OR_RETURN(session->meta_,
                       sql::Database::Open(session->meta_env_.get(), "meta"));
  RQL_ASSIGN_OR_RETURN(session->data_, sql::Database::Attach(store));
  RqlOptions options = base;
  options.session_id = id;
  session->engine_ = std::make_unique<RqlEngine>(
      session->data_.get(), session->meta_.get(), options);
  RQL_RETURN_IF_ERROR(session->engine_->EnsureSnapIds());
  RQL_RETURN_IF_ERROR(session->engine_->RegisterUdfs());
  return session;
}

Session::~Session() = default;

Status WriteSnapIds(sql::Database* db, const std::vector<sql::Row>& rows,
                    bool replace) {
  const bool own_txn = !db->store()->in_transaction();
  if (own_txn) RQL_RETURN_IF_ERROR(db->Exec("BEGIN"));
  // The only whole-table delete of SnapIds: epoch rebuilds (truncation,
  // or a mirror whose contents are unknown). Deleting every row before
  // re-appending also keeps the heap's scan order equal to append order.
  Status st = replace ? db->Exec(std::string("DELETE FROM ") + kSnapIdsTable)
                      : Status::OK();
  for (size_t i = 0; st.ok() && i < rows.size(); ++i) {
    st = db->AppendRow(kSnapIdsTable, rows[i]).status();
  }
  if (!own_txn) return st;
  if (!st.ok()) {
    (void)db->Exec("ROLLBACK");
    return st;
  }
  return db->Exec("COMMIT");
}

Status Session::ApplySnapIds(const SnapIdsDelta& delta) {
  if (delta.rebuild || !delta.rows.empty()) {
    const bool in_client_txn = meta_->store()->in_transaction();
    Status st = WriteSnapIds(meta_.get(), delta.rows, delta.rebuild);
    if (!st.ok()) {
      mirror_.stale = true;
      return st;
    }
    mirror_.in_client_txn = mirror_.in_client_txn || in_client_txn;
  }
  mirror_.rows = delta.rebuild || delta.epoch != mirror_.epoch
                     ? delta.rows.size()
                     : mirror_.rows + delta.rows.size();
  mirror_.epoch = delta.epoch;
  mirror_.stale = false;
  return Status::OK();
}

void Session::EndClientTxn(bool may_have_undone) {
  if (mirror_.in_client_txn && may_have_undone) mirror_.stale = true;
  mirror_.in_client_txn = false;
}

Result<sql::PreparedStatement*> Session::FindStmt(uint32_t stmt_id) {
  auto it = stmts_.find(stmt_id);
  if (it == stmts_.end()) {
    return Status::InvalidArgument("unknown prepared statement " +
                                   std::to_string(stmt_id));
  }
  return it->second.get();
}

Result<uint32_t> Session::Prepare(const std::string& sql) {
  RQL_ASSIGN_OR_RETURN(auto stmt, data_->Prepare(sql));
  uint32_t stmt_id = next_stmt_id_++;
  stmts_[stmt_id] = std::move(stmt);
  return stmt_id;
}

Status Session::BindAsOf(uint32_t stmt_id, retro::SnapshotId snap) {
  RQL_ASSIGN_OR_RETURN(sql::PreparedStatement * stmt, FindStmt(stmt_id));
  return stmt->BindAsOf(snap);
}

Status Session::BindValue(uint32_t stmt_id, int index, sql::Value value) {
  RQL_ASSIGN_OR_RETURN(sql::PreparedStatement * stmt, FindStmt(stmt_id));
  return stmt->BindValue(index, std::move(value));
}

Result<sql::QueryResult> Session::ExecutePrepared(uint32_t stmt_id) {
  RQL_ASSIGN_OR_RETURN(sql::PreparedStatement * stmt, FindStmt(stmt_id));
  sql::QueryResult result;
  RQL_RETURN_IF_ERROR(stmt->Execute(
      [&result](const std::vector<std::string>& columns,
                const sql::Row& row) {
        if (result.columns.empty()) result.columns = columns;
        result.rows.push_back(row);
        return Status::OK();
      }));
  return result;
}

Status Session::ClosePrepared(uint32_t stmt_id) {
  if (stmts_.erase(stmt_id) == 0) {
    return Status::InvalidArgument("unknown prepared statement " +
                                   std::to_string(stmt_id));
  }
  return Status::OK();
}

void Session::TrackRun(uint64_t run_id,
                       std::shared_ptr<RunScheduler::Ticket> t) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  // Keep the registry bounded: finished runs no longer need a cancel
  // handle (cancelling a completed ticket is a no-op anyway).
  for (auto it = runs_.begin(); it != runs_.end();) {
    if (it->second->finished.load(std::memory_order_acquire)) {
      it = runs_.erase(it);
    } else {
      ++it;
    }
  }
  runs_[run_id] = std::move(t);
}

std::shared_ptr<RunScheduler::Ticket> Session::FindRun(uint64_t run_id) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  auto it = runs_.find(run_id);
  return it == runs_.end() ? nullptr : it->second;
}

void Session::ForgetRun(uint64_t run_id) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  runs_.erase(run_id);
}

}  // namespace rql::server
