#ifndef RQL_SERVER_SCHEDULER_H_
#define RQL_SERVER_SCHEDULER_H_

// The daemon's run scheduler: admission control over a bounded queue,
// fair FIFO-per-session dispatch, per-run worker budgets carved from one
// shared pool, and cooperative cancellation.
//
// Fairness: each session owns a FIFO of its pending runs; ready sessions
// rotate round-robin, so one chatty session cannot starve the others —
// it gets one dispatched run per rotation like everyone else. At most
// one run per session executes at a time (runs of a session share its
// engine and attached database handle, which are single-run by
// contract); dispatch slots freed by a session's completion go to the
// next ready session, not back to it.
//
// Admission: Submit rejects once `queue_limit` runs are pending across
// all sessions (the running ones do not count). Rejections are cheap and
// immediate — the overload signal a front end wants to surface to
// clients instead of queueing unboundedly.
//
// Worker budgets: a run asking for N parallel Qq workers is granted
// min(N, available) from a shared pool of `worker_budget` at dispatch
// time, never less than 1 (a sequential run borrows no budget). The
// grant is released when the run finishes, so concurrent runs divide the
// machine instead of oversubscribing it.
//
// Cancellation: every run carries an atomic flag the engine polls at
// iteration boundaries (RqlOptions::cancel). Cancelling a queued run
// completes it immediately with Status::Aborted without dispatching.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace rql::server {

class RunScheduler {
 public:
  struct Options {
    /// Concurrent runs (dispatcher threads).
    int dispatch_threads = 2;
    /// Pending (queued, not yet dispatched) runs across all sessions
    /// before Submit rejects.
    int queue_limit = 16;
    /// Total parallel-Qq workers shared by concurrently executing runs.
    int worker_budget = 4;
  };

  /// Shared state of one scheduled run. The scheduler owns completion;
  /// the submitter holds the shared_ptr to Wait on and Cancel through.
  struct Ticket {
    uint64_t run_id = 0;
    uint64_t session_id = 0;
    /// Polled by the engine at iteration boundaries (RqlOptions::cancel).
    std::atomic<bool> cancel{false};
    /// Workers granted from the shared pool (set at dispatch, before the
    /// body runs; 1 for runs that found the pool empty).
    int granted_workers = 1;

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    /// Lock-free mirror of `done` for cheap pruning of finished-run
    /// registries (Session::TrackRun).
    std::atomic<bool> finished{false};
    /// Invoked exactly once when the run completes — whether the body
    /// executed, the run was reaped while queued (cancel), or it was
    /// drained at shutdown. Runs after `status` is set and the scheduler's
    /// counters have settled, before `done` wakes Wait()ers, and before
    /// CancelSession can observe the run as gone, so a callback that
    /// notifies the submitting connection never outlives it. Called with
    /// no scheduler lock held.
    std::function<void(const Ticket&)> on_complete;
  };

  /// The run body, executed on a dispatcher thread. Reads
  /// `ticket->granted_workers` and must hand `&ticket->cancel` to the
  /// engine so cancellation can interrupt it.
  using RunFn = std::function<Status(Ticket* ticket)>;

  explicit RunScheduler(Options options);
  ~RunScheduler();

  /// Queues a run for `session_id`. Fails with Aborted("admission
  /// control: ...") when the queue is full and after Shutdown (the
  /// completion callback is NOT invoked for rejected submissions).
  Result<std::shared_ptr<Ticket>> Submit(
      uint64_t session_id, int workers_requested, RunFn fn,
      std::function<void(const Ticket&)> on_complete = nullptr);

  /// Raises the cancel flag. A still-queued run completes with Aborted at
  /// its dispatch turn; a running one aborts at its next iteration
  /// boundary. Never blocks.
  void Cancel(const std::shared_ptr<Ticket>& ticket);

  /// Blocks until the run completes; returns its final status.
  Status Wait(Ticket* ticket);

  /// Cancels every queued and running run of `session_id` and blocks
  /// until all of them have completed — the disconnect path: after this
  /// returns, nothing in the scheduler references the session.
  void CancelSession(uint64_t session_id);

  /// Cancels everything and joins the dispatcher threads.
  void Shutdown();

  int64_t queued() const;
  int64_t active() const;
  int64_t admission_rejects() const;
  int64_t completed() const;
  int64_t cancelled() const;
  int worker_budget() const { return options_.worker_budget; }
  int queue_limit() const { return options_.queue_limit; }

 private:
  struct Pending {
    std::shared_ptr<Ticket> ticket;
    RunFn fn;
    int workers_requested = 1;
  };
  struct SessionQueue {
    std::deque<Pending> q;
    /// True while a run of this session executes; the session is not in
    /// `rr_` meanwhile, enforcing one-run-per-session.
    bool busy = false;
  };

  void DispatchLoop();
  /// Completes a ticket. Everything the run held settles first: the
  /// `completed()` count and, for a dispatched run, its active slot, its
  /// `running_` entry and its `reserved` workers. Then on_complete runs,
  /// then `done` wakes Wait()ers — so a waiter never sees its run finished
  /// while the counters still show it in flight — and last the session's
  /// inflight count drops, releasing CancelSession. Call without `mu_`
  /// held.
  void Complete(const std::shared_ptr<Ticket>& ticket, Status status,
                bool dispatched = false, int reserved = 0);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  /// Signalled whenever a run completes (CancelSession waits on it).
  std::condition_variable done_cv_;
  std::map<uint64_t, SessionQueue> sessions_;
  /// Ready sessions (non-empty queue, not busy), round-robin order; each
  /// ready session appears exactly once.
  std::deque<uint64_t> rr_;
  /// Ticket of the run currently executing per session, for
  /// CancelSession to reach in-flight runs.
  std::map<uint64_t, std::shared_ptr<Ticket>> running_;
  /// Queued + running runs per session; entries removed at zero.
  std::map<uint64_t, int> inflight_;
  int queued_count_ = 0;
  int active_count_ = 0;
  int workers_avail_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
  std::atomic<int64_t> admission_rejects_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> cancelled_{0};
};

}  // namespace rql::server

#endif  // RQL_SERVER_SCHEDULER_H_
