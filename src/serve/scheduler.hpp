#pragma once

// Fair job scheduling for megflood_serve (ISSUE 8).  Every connected
// client gets its own FIFO of pending sub-jobs and workers pick the next
// sub-job round-robin across clients, so one client submitting a
// thousand-point sweep cannot starve another client's single scenario:
// the scheduling unit is the sub-job (one cache-keyed campaign), and
// between two sub-jobs the cursor always moves to the next client that
// has work.
//
// A submitted job is validated up front (scenario registry + process
// grammar + sweep expansion — the same code paths megflood_run uses), is
// expanded into its Cartesian sub-jobs, and has every sub-job answered
// from the result cache when possible; only cache misses are queued.
// Event emission (queued / running / trial_done / done / cancelled) and
// all bookkeeping happen under one scheduler mutex, which gives each job
// a totally ordered event stream by construction.
//
// `workers == 0` is manual mode: nothing runs until run_one() is called,
// which executes exactly one sub-job on the caller's thread.  Tests use
// it to make fairness ordering deterministic and inspectable.
//
// Robustness (ISSUE 9): admission control bounds the global and
// per-client queues (over-limit submissions get a `rejected` event with a
// retry_after_ms hint instead of unbounded queue growth); a submit-time
// `deadline_s` rides the cooperative per-trial watchdog so a runaway
// campaign frees its worker with a `deadline_exceeded` event; and with a
// journal directory configured every running sub-job checkpoints its
// trials through core/checkpoint, so a SIGKILLed daemon finds the
// orphaned journals on restart (recover_journals()) and completes the
// interrupted campaigns bit-identical to an uninterrupted run.
//
// Execution: both isolation modes run a sub-job through run_subjob()
// (serve/worker.hpp) and end in one finish() that stores the result and
// then deletes the spent `.mfj` journal; trial_done progress is credited
// forward-only, journal replays included.  With `isolation = kProcess`
// each pool thread supervises a WorkerProcess that runs it, spawned when
// the thread starts (manual mode spawns at its first run_one()): a worker
// death is detected via waitpid, classified (signal / exit code /
// heartbeat timeout) and the lost sub-job re-dispatched to a respawned
// worker, resuming from its journal; a campaign that crashes on
// `crash_limit` attempts is quarantined — terminal `failed` event,
// persistent `.mfq` marker, never executed again and never cached.
// Results come back verbatim, so process mode is byte-identical to
// thread mode.
//
// Pipelined dispatch (process pool threads only): once the running
// sub-job has reported all but its last trial, the pool thread picks the
// next sub-job (same round-robin, same cancel / cache-hit / quarantine
// checks, its `running` event now) and sends it, so the worker queues it
// and starts it the moment the running one ends instead of idling
// through the daemon's result handling.  A worker runs its jobs in
// order, so a death before the running sub-job's result line is charged
// to that sub-job alone; the sent one goes back, uncharged, to the head
// of its client's queue.  Thread mode and run_one() dispatch one sub-job
// at a time.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/worker.hpp"

namespace megflood {
class FaultPlan;
}

namespace megflood::serve {

// How campaign sub-jobs execute: on the scheduler's own pool threads
// (kThread, the default) or in supervised worker subprocesses
// (kProcess).
enum class IsolationMode { kThread, kProcess };

// Delivers one event line (no trailing newline) to a client.  Called with
// the scheduler mutex held — implementations must only do cheap,
// non-reentrant work (the server's implementation pushes into a
// connection outbox guarded by its own leaf mutex).
using EventFn = std::function<void(const std::string& line)>;

struct SchedulerConfig {
  std::size_t workers = 0;  // 0 = manual mode (run_one())
  // Admission limits on *queued* sub-jobs (cache hits are free and never
  // rejected); 0 = unbounded.  A submission whose misses would push a
  // queue past its limit is rejected whole.
  std::size_t max_queue = 0;
  std::size_t max_client_queue = 0;
  // Directory for per-campaign crash-recovery journals (the server passes
  // its --cache_dir); empty = no journaling.
  std::string journal_dir;
  // Server-side fault injection (--inject): trial-level sites fire inside
  // worker campaigns.  Not owned; may be null; must outlive the scheduler.
  FaultPlan* fault_plan = nullptr;
  // --- process isolation (ignored under kThread) ---
  IsolationMode isolation = IsolationMode::kThread;
  // The daemon's own executable, self-execed with --worker.  Required in
  // process mode.
  std::string worker_binary;
  // The raw --inject spec, forwarded to workers so trial-level sites
  // fire inside them (server-side sites still fire via fault_plan).
  std::string inject_spec;
  // Per-job RLIMIT_AS budget for workers, MiB; 0 = unlimited.
  std::uint64_t worker_memory_mb = 0;
  // Crashed attempts a single campaign is allowed before it is
  // quarantined (>= 1); concurrent dispatches of one campaign that die
  // on the same attempt count once.
  std::size_t crash_limit = 2;
  // A busy worker silent (no trial/heartbeat/result line) this long is
  // declared wedged: SIGKILLed and classified as heartbeat_timeout.
  int heartbeat_timeout_ms = 30000;
};

class Scheduler {
 public:
  // `cache` must outlive the scheduler.
  Scheduler(const SchedulerConfig& config, ResultCache* cache);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers an event sink; the returned client id scopes job ids and
  // fairness.  unregister_client cancels the client's jobs and drops its
  // queue — events for in-flight work are discarded, not delivered to a
  // dangling sink.
  std::uint64_t register_client(EventFn emit);
  void unregister_client(std::uint64_t client);

  // Validates and enqueues a submit request.  All failures (bad scenario
  // args, bad sweep, duplicate active id, draining, trials == 0) are
  // reported as an error event to the client; nothing throws.
  void submit(std::uint64_t client, const Request& request);

  // Cancels an active job: queued sub-jobs resolve immediately, the
  // running one (if any) is stopped cooperatively via the measure()
  // cancel hook.  Unknown ids get an error event.
  void cancel(std::uint64_t client, const std::string& job_id);

  // Manual mode: runs one queued sub-job on the calling thread.  Returns
  // false when no sub-job was queued.  Also usable with workers > 0 (the
  // caller just becomes one more competing worker).
  bool run_one();

  // Stops accepting submissions, cancels everything, resolves all queued
  // work and joins the workers.  Running trials finish and are recorded
  // (drain never tears a campaign mid-trial).  Idempotent.
  void drain();

  // Scans the journal directory for orphaned crash-recovery journals — a
  // predecessor daemon was killed mid-campaign — and queues each
  // interrupted campaign under an internal client so it completes (and
  // lands in the result cache) without any client attached.  Journals for
  // campaigns already cached, and unreadable/foreign journal files, are
  // removed.  Returns the number of campaigns queued for resumption.
  std::size_t recover_journals();

  StatsSnapshot stats() const;

 private:
  struct SubJob {
    ScenarioSpec spec;  // threads forced to 1 — the pool owns parallelism
    CampaignKey key;
    std::size_t index = 0;  // reply slot in the owning job
  };

  struct Job {
    std::uint64_t client = 0;
    std::string id;
    std::vector<SubJobReply> replies;
    std::size_t resolved = 0;       // replies filled in
    std::size_t cache_hits = 0;
    std::size_t completed = 0;      // trials finished (cached count fully)
    std::size_t total_trials = 0;
    double deadline_s = 0.0;        // per-trial watchdog budget (0 = none)
    bool running_emitted = false;
    bool cancelled = false;         // finalize as cancelled, not done
    std::atomic<bool> cancel{false};  // measure() cancel hook target
  };

  struct QueuedSubJob {
    std::shared_ptr<Job> job;
    SubJob work;
  };

  // A sub-job handed to a worker process, from its job line to its
  // result line, across crash-retries.
  struct Dispatch {
    QueuedSubJob item;
    SubJobReply reply;  // key; crash fields once quarantined
    WorkerJob wjob;
    std::size_t credited = 0;  // progress credited, across retries
    bool sent = false;         // job line on the live worker's channel
    bool cancel_sent = false;
  };

  struct Client {
    EventFn emit;
    std::map<std::string, std::shared_ptr<Job>> jobs;  // active, by id
    std::deque<QueuedSubJob> queue;
    std::size_t in_flight = 0;  // sub-jobs of this client running right now
  };

  // One worker-pool slot in process mode.  The WorkerProcess is touched
  // (spawned, written, read, reaped) only by the slot's owning thread
  // with mutex_ released; pid/busy/jobs are mutex_-guarded mirrors that
  // stats() reads without touching the process.
  struct WorkerSlot {
    std::unique_ptr<WorkerProcess> process;
    std::uint64_t pid = 0;
    bool busy = false;
    std::uint64_t jobs = 0;
  };

  // A quarantined campaign: key string -> how its workers died.
  struct QuarantineInfo {
    std::string signal;  // WorkerDeath::describe() of the final crash
    std::uint64_t crashes = 0;
  };

  // All private helpers below require mutex_ held unless noted.
  void emit_to(std::uint64_t client, const std::string& line);
  void resolve(const std::shared_ptr<Job>& job, std::size_t index,
               SubJobReply reply);
  void finalize(const std::shared_ptr<Job>& job);
  void cancel_queued(const std::shared_ptr<Job>& job);
  bool pick_next(QueuedSubJob& out);  // round-robin across clients
  // Puts a picked sub-job back at the head of its client's queue, as the
  // next pick; dropped if the client has gone.
  void push_front(QueuedSubJob item);
  bool has_queued_work() const;
  // Every dispatch's first step: a cancelled sub-job, a cache hit or a
  // quarantined campaign resolves here and false returns; otherwise the
  // sub-job is counted as running (its job's `running` event goes out
  // with its first) and true returns.
  bool begin_run(const QueuedSubJob& item);
  // `pipeline` lets a process pool thread send the next sub-job during
  // this one's last trial (run_in_worker).
  void execute(QueuedSubJob item, std::unique_lock<std::mutex>& lock,
               std::size_t slot, bool pipeline);
  // Process mode: runs the sub-job in the slot's worker, retrying across
  // crashes and quarantining past the limit, then finishes it; with
  // `pipeline`, goes on with each sub-job it sent behind the running one.
  // Called with mutex_ held; drops it around worker I/O.
  void run_in_worker(QueuedSubJob item, std::unique_lock<std::mutex>& lock,
                     std::size_t slot, bool pipeline);
  Dispatch make_dispatch(QueuedSubJob item, WorkerSlot& slot);
  // Process mode, mutex_ released: reads `cur`'s lines until its result
  // line (true, `outcome` filled) or the worker's death (false, `death`
  // filled).  With `pipeline`, once `cur` has reported all but its last
  // trial, it sends the next runnable sub-job into `next`.
  bool pump(WorkerSlot& slot, Dispatch& cur, std::optional<Dispatch>& next,
            bool pipeline, SubJobOutcome& outcome, WorkerDeath& death);
  // Picks and sends the sub-job to run after `cur` (mutex_ released).
  void send_next(WorkerSlot& slot, const Dispatch& cur,
                 std::optional<Dispatch>& next);
  // Process mode: spawns the slot's worker unless it is alive.  Called by
  // the slot's owning thread with mutex_ released, when a pool thread
  // starts and before each dispatch it does not pipeline.
  bool ensure_worker(WorkerSlot& slot, std::string& error);
  // Credits a sub-job's cumulative trial count `done` beyond `credited`
  // (what it already counted), so no replay or retry counts twice.
  void credit_progress(Job& job, std::size_t& credited, std::size_t done);
  // Both modes' finish path: releases the running slot, turns the outcome
  // into the reply, stores a result, then deletes its spent journal.
  void finish(const QueuedSubJob& item, SubJobReply reply,
              SubJobOutcome outcome, std::unique_lock<std::mutex>& lock);
  void worker_loop(std::size_t slot);
  std::uint64_t retry_after_ms() const;  // backoff hint from queue depth
  // Lock-free; empty without a journal directory.
  std::string journal_path(const std::string& key_string) const;
  std::string quarantine_path(const std::string& key_string) const;
  // Persists a .mfq marker and drops the campaign's journal (best
  // effort, lock-free file I/O).
  void persist_quarantine(const std::string& key_string,
                          const QuarantineInfo& info) const;
  // Loads .mfq markers from journal_dir_ into quarantined_ (startup).
  void load_quarantine_markers();

  ResultCache* cache_;
  const std::size_t max_queue_;
  const std::size_t max_client_queue_;
  const std::string journal_dir_;
  FaultPlan* const fault_plan_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::map<std::uint64_t, Client> clients_;
  std::uint64_t next_client_ = 1;
  std::uint64_t rr_cursor_ = 0;  // client id last served; next pick is after
  std::uint64_t recovery_client_ = 0;  // internal, sink-less; 0 = none yet
  bool draining_ = false;
  bool stop_ = false;
  std::uint64_t jobs_done_ = 0;
  std::uint64_t jobs_cancelled_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t jobs_rejected_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t subjobs_run_ = 0;
  std::uint64_t trials_done_ = 0;
  std::uint64_t queued_subjobs_ = 0;   // invariant: sum of queue sizes
  std::uint64_t running_subjobs_ = 0;  // invariant: sum of in_flight
  std::size_t idle_pool_threads_ = 0;  // pool threads waiting for work
  // --- process isolation ---
  const IsolationMode isolation_;
  const std::string worker_binary_;
  const std::string inject_spec_;
  const std::uint64_t worker_memory_mb_;
  const std::size_t crash_limit_;
  const int heartbeat_timeout_ms_;
  std::vector<WorkerSlot> worker_slots_;  // sized workers+1; last = run_one
  std::map<std::string, std::uint64_t> campaign_crashes_;  // key -> deaths
  std::map<std::string, QuarantineInfo> quarantined_;
  std::uint64_t worker_restarts_ = 0;
  std::uint64_t jobs_quarantined_ = 0;
  std::uint64_t next_dispatch_ = 1;  // worker-protocol job ids
  std::vector<std::thread> workers_;
};

}  // namespace megflood::serve
