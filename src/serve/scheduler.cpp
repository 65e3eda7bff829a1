#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/process.hpp"
#include "core/sweep.hpp"
#include "serve/json.hpp"
#include "serve/worker.hpp"

namespace megflood::serve {

namespace {

// A sweep submitted to the server expands into one sub-job per point;
// this caps what one request line can put on the queue.  (megflood_run
// has its own, larger expansion cap — a CLI user pays for their own
// sweep, a served client shares the pool with everyone else.)
constexpr std::size_t kMaxSubJobs = 4096;

// Crash-recovery journals live next to the disk cache entries, named by
// the same key hash with their own extension.
constexpr const char* kJournalSuffix = ".mfj";

// Quarantine markers for poison campaigns: same hash-derived name, so
// the marker, journal, and cache entry of one campaign sit side by side.
// Format: key line, signal line, crash-count line.
constexpr const char* kQuarantineSuffix = ".mfq";

// Crashed attempts a single campaign is allowed before it is
// quarantined; concurrent dispatches of one campaign that die on the
// same attempt count once.
constexpr std::uint64_t kCrashLimit = 2;

// A busy worker silent (no trial/heartbeat/result line) this long is
// declared wedged: SIGKILLed and classified as heartbeat_timeout.
constexpr int kHeartbeatTimeoutMs = 30000;

// How often the supervisor's pump wakes to check the heartbeat watchdog
// while waiting on a worker.  A cancel wakes it at once (wake_pumps).
constexpr int kWorkerPollMs = 250;

}  // namespace

Scheduler::Scheduler(const SchedulerConfig& config, ResultCache* cache)
    : cache_(cache),
      max_queue_(config.max_queue),
      max_client_queue_(config.max_client_queue),
      journal_dir_(config.journal_dir),
      worker_binary_(config.worker_binary),
      inject_spec_(config.inject_spec),
      worker_memory_mb_(config.worker_memory_mb) {
  if (worker_binary_.empty()) {
    throw std::invalid_argument("serve: no worker binary to run sub-jobs");
  }
  // One slot per pool thread plus a trailing slot for manual-mode
  // run_one() callers.
  worker_slots_.resize(config.workers + 1);
  load_quarantine_markers();
  workers_.reserve(config.workers);
  for (std::size_t i = 0; i < config.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() { drain(); }

Scheduler::SubJob Scheduler::make_subjob(ScenarioSpec spec,
                                         std::size_t index) {
  // The pool owns parallelism: every sub-job runs single-threaded on a
  // worker, which also makes the cache key independent of whatever
  // --threads the client happened to pass.
  spec.trial.threads = 1;
  (void)make_model_factory(spec);
  (void)make_process_factory(spec.process);
  SubJob sub;
  sub.key = campaign_key(spec);
  sub.index = index;
  return sub;
}

std::uint64_t Scheduler::register_client(EventFn emit) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_client_++;
  clients_[id].emit = std::move(emit);
  return id;
}

void Scheduler::unregister_client(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clients_.find(client);
  if (it == clients_.end()) return;
  // Cancel in-flight work so a running campaign stops promptly; queued
  // sub-jobs and the jobs map die with the client entry.  finalize() and
  // resolve() tolerate the missing client (events are dropped).
  for (auto& [id, job] : it->second.jobs) {
    job->cancel.store(true, std::memory_order_relaxed);
    job->cancelled = true;
  }
  queued_subjobs_ -= it->second.queue.size();
  clients_.erase(it);
  wake_pumps();
}

// Backoff hint for rejected submissions, scaled by how deep the global
// queue is: a lightly loaded server invites a quick retry, a saturated
// one pushes clients out far enough that retries cannot themselves
// become the overload.
std::uint64_t Scheduler::retry_after_ms() const {
  return std::clamp<std::uint64_t>(25 * (queued_subjobs_ + 1), 50, 5000);
}

void Scheduler::emit_to(std::uint64_t client, const std::string& line) {
  const auto it = clients_.find(client);
  if (it != clients_.end() && it->second.emit) it->second.emit(line);
}

void Scheduler::submit(std::uint64_t client, const Request& request) {
  // Validation runs outside the lock — registry building is pure.
  std::string error;
  bool too_large = false;
  ScenarioSpec base;
  std::vector<SubJob> subjobs;
  try {
    base = parse_scenario_args(request.args);
    if (base.trial.trials == 0) {
      throw std::invalid_argument("trials must be >= 1");
    }
    std::vector<SweepPoint> points;
    if (!request.sweep.empty()) {
      points = expand_sweep_points(parse_multi_sweep(request.sweep));
    } else {
      points.push_back({});
    }
    if (points.size() > kMaxSubJobs) {
      too_large = true;
      throw std::invalid_argument(
          "sweep expands to " + std::to_string(points.size()) +
          " sub-jobs (server limit " + std::to_string(kMaxSubJobs) + ")");
    }
    subjobs.reserve(points.size());
    for (const SweepPoint& point : points) {
      ScenarioSpec spec = base;
      for (const auto& [key, value] : point) {
        if (base.params.find(key) != base.params.end()) {
          throw std::invalid_argument("parameter '" + key +
                                      "' is both fixed in args and swept");
        }
        spec.params[key] = value;
      }
      // A bad point rejects the whole submission before anything is queued.
      subjobs.push_back(make_subjob(std::move(spec), subjobs.size()));
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (clients_.find(client) == clients_.end()) return;
  if (too_large) {
    // Structurally inadmissible: no backoff will make it fit.
    ++jobs_rejected_;
    emit_to(client,
            event_rejected(request.id, RejectReason::kTooLarge, 0, error));
    return;
  }
  if (!error.empty()) {
    emit_to(client, event_error(request.id, error));
    return;
  }
  if (draining_) {
    ++jobs_rejected_;
    emit_to(client, event_rejected(request.id, RejectReason::kDraining, 1000,
                                   "server is draining"));
    return;
  }
  Client& owner = clients_[client];
  if (owner.jobs.find(request.id) != owner.jobs.end()) {
    emit_to(client,
            event_error(request.id, "job id already active: " + request.id));
    return;
  }

  // Answer what the cache already knows before admission: hits are free
  // and must never be rejected, so only the misses count against the
  // queue limits.
  std::vector<std::optional<std::string>> hits(subjobs.size());
  std::size_t misses = 0;
  for (const SubJob& sub : subjobs) {
    hits[sub.index] = cache_->lookup(sub.key);
    if (!hits[sub.index]) ++misses;
  }
  if ((max_queue_ != 0 && queued_subjobs_ + misses > max_queue_) ||
      (max_client_queue_ != 0 &&
       owner.queue.size() + misses > max_client_queue_)) {
    ++jobs_rejected_;
    emit_to(client, event_rejected(request.id, RejectReason::kQueueFull,
                                   retry_after_ms(), ""));
    return;
  }

  auto job = std::make_shared<Job>();
  job->client = client;
  job->id = request.id;
  job->replies.resize(subjobs.size());
  job->total_trials = subjobs.size() * base.trial.trials;
  job->deadline_s = request.deadline_s;
  owner.jobs[request.id] = job;

  for (SubJob& sub : subjobs) {
    job->replies[sub.index].key = campaign_key_string(sub.key);
    if (hits[sub.index]) {
      SubJobReply& reply = job->replies[sub.index];
      reply.cached = true;
      reply.result_json = std::move(*hits[sub.index]);
      ++job->resolved;
      ++job->cache_hits;
      job->completed += sub.key.trials;
    } else {
      owner.queue.push_back(QueuedSubJob{job, std::move(sub)});
      ++queued_subjobs_;
    }
  }

  emit_to(client, event_queued(request.id, job->replies.size(),
                               job->total_trials, job->cache_hits));
  if (job->resolved == job->replies.size()) {
    finalize(job);
  } else if (misses > 0) {
    work_cv_.notify_all();
  }
}

void Scheduler::cancel(std::uint64_t client, const std::string& job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clients_.find(client);
  if (it == clients_.end()) return;
  const auto job_it = it->second.jobs.find(job_id);
  if (job_it == it->second.jobs.end()) {
    emit_to(client,
            event_error(job_id, "no active job with id: " + job_id));
    return;
  }
  const std::shared_ptr<Job> job = job_it->second;
  job->cancelled = true;
  job->cancel.store(true, std::memory_order_relaxed);
  cancel_queued(job);
  wake_pumps();
}

void Scheduler::wake_pumps() {
  for (WorkerSlot& slot : worker_slots_) slot.wake.notify();
}

// Resolves every still-queued sub-job of `job` as cancelled.  A sub-job a
// worker already picked resolves when the worker finishes (the cancel
// flag stops it between trials).
void Scheduler::cancel_queued(const std::shared_ptr<Job>& job) {
  const auto it = clients_.find(job->client);
  if (it == clients_.end()) return;
  auto& queue = it->second.queue;
  for (auto entry = queue.begin(); entry != queue.end();) {
    if (entry->job == job) {
      SubJobReply reply;
      reply.key = campaign_key_string(entry->work.key);
      reply.cancelled = true;
      const std::size_t index = entry->work.index;
      entry = queue.erase(entry);
      --queued_subjobs_;
      resolve(job, index, std::move(reply));
    } else {
      ++entry;
    }
  }
}

void Scheduler::resolve(const std::shared_ptr<Job>& job, std::size_t index,
                        SubJobReply reply) {
  job->replies[index] = std::move(reply);
  ++job->resolved;
  if (job->resolved == job->replies.size()) finalize(job);
}

void Scheduler::finalize(const std::shared_ptr<Job>& job) {
  const auto it = clients_.find(job->client);
  if (it != clients_.end()) it->second.jobs.erase(job->id);
  if (job->cancelled) {
    ++jobs_cancelled_;
    emit_to(job->client,
            event_cancelled(job->id, job->completed, job->total_trials));
    return;
  }
  bool failed = false;
  bool crashed = false;
  for (const SubJobReply& reply : job->replies) {
    if (!reply.error.empty()) failed = true;
    if (reply.worker_crash) crashed = true;
  }
  failed ? ++jobs_failed_ : ++jobs_done_;
  if (crashed) {
    // At least one sub-job killed its workers past the crash limit: the
    // terminal event is `failed` with the classified crash, not `done`.
    emit_to(job->client, event_failed(job->id, job->replies, job->cache_hits,
                                      job->completed, job->total_trials));
    return;
  }
  emit_to(job->client, event_done(job->id, job->replies, job->cache_hits,
                                  job->completed, job->total_trials));
}

bool Scheduler::has_queued_work() const {
  for (const auto& [id, client] : clients_) {
    if (!client.queue.empty()) return true;
  }
  return false;
}

// Round-robin: the next non-empty client queue strictly after rr_cursor_,
// wrapping — std::map keeps client ids ordered, so upper_bound is the
// cursor advance.
bool Scheduler::pick_next(QueuedSubJob& out) {
  if (clients_.empty()) return false;
  auto it = clients_.upper_bound(rr_cursor_);
  for (std::size_t scanned = 0; scanned < clients_.size() + 1; ++scanned) {
    if (it == clients_.end()) it = clients_.begin();
    if (!it->second.queue.empty()) {
      out = std::move(it->second.queue.front());
      it->second.queue.pop_front();
      --queued_subjobs_;
      rr_cursor_ = it->first;
      return true;
    }
    ++it;
  }
  return false;
}

void Scheduler::push_front(QueuedSubJob item) {
  const auto it = clients_.find(item.job->client);
  if (it == clients_.end()) return;
  it->second.queue.push_front(std::move(item));
  ++queued_subjobs_;
  rr_cursor_ = it->first - 1;  // ids start at 1; this client is next
}

bool Scheduler::begin_run(const QueuedSubJob& item) {
  const std::shared_ptr<Job>& job = item.job;
  SubJobReply reply;
  reply.key = campaign_key_string(item.work.key);

  if (job->cancel.load(std::memory_order_relaxed)) {
    reply.cancelled = true;
    resolve(job, item.work.index, std::move(reply));
    return false;
  }
  // An identical sub-job (same key, other client) may have landed in the
  // cache since this one was queued; re-checking here is what makes the
  // N-clients-same-scenario load pattern cost one campaign, not N.
  if (auto hit = cache_->lookup(item.work.key)) {
    reply.cached = true;
    reply.result_json = std::move(*hit);
    ++job->cache_hits;
    job->completed += item.work.key.trials;
    resolve(job, item.work.index, std::move(reply));
    return false;
  }
  // A quarantined campaign never executes again: it resolves straight to
  // its recorded crash verdict, so a resubmitted poison job costs a map
  // lookup, not another worker.
  const auto poisoned = quarantined_.find(reply.key);
  if (poisoned != quarantined_.end()) {
    reply.worker_crash = true;
    reply.crash_signal = poisoned->second.signal;
    reply.crashes = poisoned->second.crashes;
    reply.error = "quarantined: worker crashed (" + reply.crash_signal +
                  ") " + std::to_string(reply.crashes) + " times";
    resolve(job, item.work.index, std::move(reply));
    return false;
  }
  if (!job->running_emitted) {
    job->running_emitted = true;
    emit_to(job->client, event_running(job->id));
  }
  ++subjobs_run_;
  ++running_subjobs_;
  const auto owner = clients_.find(job->client);
  if (owner != clients_.end()) ++owner->second.in_flight;
  return true;
}

void Scheduler::credit_progress(Job& job, std::size_t& credited,
                                std::size_t done) {
  if (done <= credited) return;
  const std::size_t delta = done - credited;
  credited = done;
  job.completed += delta;
  trials_done_ += delta;
  emit_to(job.client,
          event_trial_done(job.id, job.completed, job.total_trials));
}

void Scheduler::finish(const QueuedSubJob& item, SubJobReply reply,
                       SubJobOutcome outcome,
                       std::unique_lock<std::mutex>& lock) {
  const std::shared_ptr<Job>& job = item.job;
  --running_subjobs_;
  {
    const auto owner = clients_.find(job->client);
    if (owner != clients_.end() && owner->second.in_flight > 0) {
      --owner->second.in_flight;
    }
  }
  if (outcome.deadline_exceeded) {
    reply.deadline_exceeded = true;
    reply.error = std::move(outcome.error);
    ++deadline_exceeded_;
    emit_to(job->client, event_deadline_exceeded(job->id, job->completed,
                                                 job->total_trials));
  } else if (!outcome.error.empty()) {
    reply.error = std::move(outcome.error);
  } else if (outcome.interrupted) {
    reply.cancelled = true;
  } else {
    cache_->store(item.work.key, outcome.result_json);
    reply.result_json = std::move(outcome.result_json);
    if (!journal_dir_.empty()) {
      // The cache owns the result now, so the journal is spent.  Every
      // other outcome keeps it for a later resume.
      lock.unlock();
      std::remove(journal_path(reply.key).c_str());
      lock.lock();
    }
  }
  resolve(job, item.work.index, std::move(reply));
}

Scheduler::Dispatch Scheduler::make_dispatch(QueuedSubJob item,
                                             WorkerSlot& slot) {
  Dispatch out;
  out.reply.key = campaign_key_string(item.work.key);
  out.wjob.job = next_dispatch_++;
  // The canonical CLI from the campaign key carries the full identity
  // (scenario args + --seed + --trials); the worker re-derives the spec
  // from it, which is exactly the recover_journals() round-trip.
  out.wjob.cli = item.work.key.scenario_cli;
  out.wjob.journal = journal_path(out.reply.key);
  out.wjob.deadline_s = item.job->deadline_s;
  out.wjob.memory_mb = worker_memory_mb_;
  const auto crashes = campaign_crashes_.find(out.reply.key);
  out.wjob.attempt = crashes == campaign_crashes_.end() ? 0 : crashes->second;
  out.item = std::move(item);
  ++slot.jobs;
  return out;
}

// Dispatches the sub-job to the slot's worker and pumps its event
// stream, crediting its trial lines.  A worker death charges the running
// campaign and retries it on a respawned worker until the crash limit,
// then quarantines it (filling its reply's crash fields); a sub-job sent
// behind it is put back uncharged.  Each sent sub-job then becomes the
// running one.  Entered with mutex_ held; returns with it held.
void Scheduler::run_in_worker(QueuedSubJob item,
                              std::unique_lock<std::mutex>& lock,
                              std::size_t slot_index, bool pipeline) {
  WorkerSlot& slot = worker_slots_[slot_index];
  slot.busy = true;
  std::optional<Dispatch> cur = make_dispatch(std::move(item), slot);
  std::optional<Dispatch> next;

  while (cur) {
    SubJobOutcome outcome;
    while (true) {
      // mutex_ held at the top of every attempt.
      if (!cur->sent &&
          cur->item.job->cancel.load(std::memory_order_relaxed)) {
        outcome.interrupted = true;
        break;
      }
      lock.unlock();

      // The slot's process is touched only by this (owning) thread with
      // the lock released; pid/busy/jobs mirrors are updated under it.
      WorkerDeath death;
      bool died = false;
      if (!cur->sent) {
        std::string spawn_error;
        if (!ensure_worker(slot, spawn_error)) {
          lock.lock();
          outcome.error = "worker spawn failed: " + spawn_error;
          break;
        }
        cur->sent = true;
        if (!slot.process->send_line(worker_job_line(cur->wjob))) {
          death = slot.process->reap_after_close();
          died = true;
        }
      }
      const bool got_result =
          !died && pump(slot, *cur, next, pipeline, outcome, death);
      lock.lock();
      if (got_result) break;

      // Worker died (or wedged) before the running sub-job's result line.
      // A sub-job sent behind it never started: back to the head of its
      // client's queue, uncharged.
      slot.pid = 0;
      ++worker_restarts_;
      cur->sent = false;
      if (next) {
        --subjobs_run_;
        --running_subjobs_;
        const auto owner = clients_.find(next->item.job->client);
        if (owner != clients_.end()) --owner->second.in_flight;
        push_front(std::move(next->item));
        next.reset();
      }
      // Charge the running campaign once per attempt (concurrent
      // dispatches of one campaign dying on the same attempt are one
      // crash), then retry or quarantine.
      std::uint64_t& charged = campaign_crashes_[cur->reply.key];
      if (charged == cur->wjob.attempt) ++charged;
      const std::uint64_t crashes = charged;
      std::fprintf(stderr,
                   "megflood_serve: worker died (%s) running %s "
                   "[crash %llu/%llu]\n",
                   death.describe().c_str(), cur->reply.key.c_str(),
                   static_cast<unsigned long long>(crashes),
                   static_cast<unsigned long long>(kCrashLimit));
      if (crashes >= kCrashLimit) {
        QuarantineInfo info;
        info.signal = death.describe();
        info.crashes = crashes;
        quarantined_[cur->reply.key] = info;
        ++jobs_quarantined_;
        persist_quarantine(cur->reply.key, info);
        cur->reply.worker_crash = true;
        cur->reply.crash_signal = info.signal;
        cur->reply.crashes = crashes;
        outcome.error = "quarantined: worker crashed (" + info.signal +
                        ") " + std::to_string(crashes) + " times";
        break;
      }
      // Below the limit: loop back and re-dispatch as the next attempt.
      // The journal the dead worker left behind makes the retry resume
      // bit-identically.
      cur->wjob.attempt = crashes;
    }
    finish(cur->item, std::move(cur->reply), std::move(outcome), lock);
    cur = std::move(next);
    next.reset();
  }
  slot.busy = false;
}

bool Scheduler::pump(WorkerSlot& slot, Dispatch& cur,
                     std::optional<Dispatch>& next, bool pipeline,
                     SubJobOutcome& outcome, WorkerDeath& death) {
  using Clock = std::chrono::steady_clock;
  WorkerProcess& process = *slot.process;
  const std::size_t trials = cur.item.work.key.trials;
  std::size_t reported = 0;  // trials this attempt has reported done
  auto last_activity = Clock::now();
  while (true) {
    if (pipeline && !next && reported + 1 >= trials) {
      send_next(slot, cur, next);
    }
    for (Dispatch* sent : {&cur, next ? &*next : nullptr}) {
      if (sent != nullptr && !sent->cancel_sent &&
          sent->item.job->cancel.load(std::memory_order_relaxed)) {
        sent->cancel_sent = true;
        process.send_line("{\"op\": \"cancel\", \"job\": " +
                          std::to_string(sent->wjob.job) + "}");
      }
    }
    std::string line;
    const auto status = process.read_line(kWorkerPollMs, line, slot.wake.fd());
    if (status == RecvStatus::kWoken) {
      slot.wake.drain();  // then the loop's top sends any new cancel
      continue;
    }
    if (status == RecvStatus::kClosed) {
      death = process.reap_after_close();
      return false;
    }
    if (status == RecvStatus::kTimeout) {
      const auto silent_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - last_activity)
              .count();
      if (silent_ms >= kHeartbeatTimeoutMs) {
        // Wedged, not dead: no trial, heartbeat, or result line for the
        // whole window.  SIGKILL and classify as heartbeat_timeout.
        death = process.kill_and_reap();
        return false;
      }
      continue;
    }
    last_activity = Clock::now();
    std::string parse_error;
    const auto event = parse_json(line, parse_error);
    if (!event || !event->is_object()) continue;  // garbage line: skip
    const JsonValue* kind = event->find("event");
    if (!kind || !kind->is_string()) continue;
    if (kind->string == "heartbeat") continue;
    const JsonValue* jid = event->find("job");
    if (!jid || !jid->is_number() ||
        static_cast<std::uint64_t>(jid->number) != cur.wjob.job) {
      continue;  // stale line from an earlier, abandoned dispatch
    }
    if (kind->string == "trial") {
      const JsonValue* done = event->find("done");
      if (!done || !done->is_number()) continue;
      const auto count = static_cast<std::size_t>(done->number);
      reported = std::max(reported, count);
      std::lock_guard<std::mutex> relock(mutex_);
      credit_progress(*cur.item.job, cur.credited, count);
    } else if (kind->string == "result") {
      outcome = parse_worker_result_line(*event, line);
      return true;
    }
  }
}

void Scheduler::send_next(WorkerSlot& slot, const Dispatch& cur,
                          std::optional<Dispatch>& next) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // An idle pool thread takes queued work at once; it goes first.
    if (idle_pool_threads_ > 0) return;
    QueuedSubJob item;
    while (pick_next(item)) {
      if (item.work.key == cur.item.work.key) {
        // Same campaign as the running one: once that is stored, this is
        // a cache hit, so it waits for its normal turn.
        push_front(std::move(item));
        return;
      }
      if (begin_run(item)) {
        next = make_dispatch(std::move(item), slot);
        break;
      }
    }
    if (!next) return;
  }
  next->sent = true;
  // A failed send means the worker is gone; the pump reads its death.
  slot.process->send_line(worker_job_line(next->wjob));
}

bool Scheduler::ensure_worker(WorkerSlot& slot, std::string& error) {
  if (!slot.process) {
    slot.process =
        std::make_unique<WorkerProcess>(worker_binary_, inject_spec_);
  }
  if (slot.process->alive()) return true;
  if (!slot.process->spawn(error)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  slot.pid = static_cast<std::uint64_t>(slot.process->pid());
  return true;
}

bool Scheduler::run_one() {
  std::unique_lock<std::mutex> lock(mutex_);
  QueuedSubJob item;
  if (!pick_next(item)) return false;
  // Manual-mode callers share the trailing slot, which no pool thread uses.
  if (begin_run(item)) {
    run_in_worker(std::move(item), lock, worker_slots_.size() - 1,
                  /*pipeline=*/false);
  }
  return true;
}

void Scheduler::worker_loop(std::size_t slot) {
  name_this_thread("serve-pool");
  // Start this thread's worker now rather than at its first dispatch, so
  // the first jobs do not wait for a cold worker.  A failed spawn is
  // retried, and reported, at dispatch.
  std::string spawn_error;
  ensure_worker(worker_slots_[slot], spawn_error);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    ++idle_pool_threads_;
    work_cv_.wait(lock, [this] { return stop_ || has_queued_work(); });
    --idle_pool_threads_;
    QueuedSubJob item;
    if (!pick_next(item)) {
      if (stop_) return;
      continue;
    }
    if (begin_run(item)) {
      run_in_worker(std::move(item), lock, slot, /*pipeline=*/true);
    }
  }
}

void Scheduler::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    draining_ = true;
    stop_ = true;
    for (auto& [client_id, client] : clients_) {
      for (auto& [job_id, job] : client.jobs) {
        job->cancelled = true;
        job->cancel.store(true, std::memory_order_relaxed);
      }
      // jobs map mutates under cancel_queued/finalize; snapshot first.
      std::vector<std::shared_ptr<Job>> jobs;
      jobs.reserve(client.jobs.size());
      for (auto& [job_id, job] : client.jobs) jobs.push_back(job);
      for (const auto& job : jobs) cancel_queued(job);
    }
    wake_pumps();
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Pool threads are gone; give every surviving worker a clean exit line
  // (SIGKILL fallback inside shutdown()).
  for (WorkerSlot& slot : worker_slots_) {
    if (slot.process) {
      slot.process->shutdown();
      slot.process.reset();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (WorkerSlot& slot : worker_slots_) {
      slot.pid = 0;
      slot.busy = false;
    }
  }
}

std::string Scheduler::journal_path(const std::string& key_string) const {
  if (journal_dir_.empty()) return "";
  return journal_dir_ + "/" + hex64(campaign_key_hash(key_string)) +
         kJournalSuffix;
}

std::string Scheduler::quarantine_path(const std::string& key_string) const {
  return journal_dir_ + "/" + hex64(campaign_key_hash(key_string)) +
         kQuarantineSuffix;
}

void Scheduler::persist_quarantine(const std::string& key_string,
                                   const QuarantineInfo& info) const {
  if (journal_dir_.empty()) return;
  // The campaign's journal is poison now: resuming it would crash a
  // worker on every daemon restart, so it dies with the quarantine.
  std::remove(journal_path(key_string).c_str());
  const std::string qpath = quarantine_path(key_string);
  std::FILE* file = std::fopen(qpath.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr,
                 "megflood_serve: warning: cannot write quarantine marker "
                 "%s (quarantine holds for this daemon only)\n",
                 qpath.c_str());
    return;
  }
  std::fprintf(file, "%s\n%s\n%llu\n", key_string.c_str(),
               info.signal.c_str(),
               static_cast<unsigned long long>(info.crashes));
  std::fclose(file);
}

void Scheduler::load_quarantine_markers() {
  // Ctor-time only: single-threaded, no lock needed.
  if (journal_dir_.empty()) return;
  for (const std::string& name :
       sorted_names(journal_dir_, {kQuarantineSuffix})) {
    const std::string path = journal_dir_ + "/" + name;
    const std::optional<std::string> marker = slurp(path);
    if (!marker) {
      std::fprintf(stderr,
                   "megflood_serve: warning: skipping unreadable quarantine "
                   "marker %s\n",
                   path.c_str());
      continue;
    }
    const std::string& text = *marker;
    const std::size_t first = text.find('\n');
    const std::size_t second =
        first == std::string::npos ? std::string::npos
                                   : text.find('\n', first + 1);
    if (second == std::string::npos) continue;  // malformed: ignore
    const std::string key_string = text.substr(0, first);
    QuarantineInfo info;
    info.signal = text.substr(first + 1, second - first - 1);
    info.crashes = std::strtoull(text.c_str() + second + 1, nullptr, 10);
    if (key_string.empty() || info.signal.empty() || info.crashes == 0) {
      continue;
    }
    quarantined_[key_string] = info;
    campaign_crashes_[key_string] = info.crashes;
  }
}

std::size_t Scheduler::recover_journals() {
  if (journal_dir_.empty()) return 0;
  std::size_t recovered = 0;
  for (const std::string& name : sorted_names(journal_dir_, {kJournalSuffix})) {
    const std::string path = journal_dir_ + "/" + name;
    // An unreadable journal (permissions, races with an external cleaner)
    // must not abort recovery of the readable ones: warn and leave it.
    if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
      std::fclose(probe);
    } else {
      std::fprintf(stderr,
                   "megflood_serve: warning: skipping unreadable journal "
                   "%s\n",
                   path.c_str());
      continue;
    }
    CheckpointKey key;
    // Daemon journals are always threads=1 (the pool owns parallelism); a
    // file that does not peek as one cannot be resumed here and can only
    // shadow a future journal at the same name — remove it.
    if (!peek_checkpoint_key(path, key) || key.threads != 1) {
      std::remove(path.c_str());
      continue;
    }
    {
      // A quarantined campaign's journal must not resurrect it into a
      // fresh crash loop on every restart.
      const std::string key_string = campaign_key_string(key.campaign);
      bool poisoned = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        poisoned = quarantined_.find(key_string) != quarantined_.end();
      }
      if (poisoned) {
        std::remove(path.c_str());
        continue;
      }
    }
    if (cache_->lookup(key.campaign)) {
      std::remove(path.c_str());  // already answered; the journal is spent
      continue;
    }
    SubJob sub;
    try {
      sub = make_subjob(parse_scenario_cli(key.campaign.scenario_cli), 0);
    } catch (const std::exception&) {
      std::remove(path.c_str());
      continue;
    }
    if (campaign_key_string(sub.key) != campaign_key_string(key.campaign)) {
      std::remove(path.c_str());  // header CLI is not canonical: not ours
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) break;
    if (recovery_client_ == 0) {
      // Internal sink-less client: recovered campaigns flow through the
      // normal queue/execute/cache path, their events go nowhere.
      recovery_client_ = next_client_++;
      clients_[recovery_client_].emit = EventFn{};
    }
    Client& owner = clients_[recovery_client_];
    auto job = std::make_shared<Job>();
    job->client = recovery_client_;
    job->id = "recover-" + hex64(campaign_key_hash(sub.key));
    if (owner.jobs.find(job->id) != owner.jobs.end()) continue;
    job->replies.resize(1);
    job->replies[0].key = campaign_key_string(sub.key);
    job->total_trials = sub.key.trials;
    owner.jobs[job->id] = job;
    owner.queue.push_back(QueuedSubJob{job, std::move(sub)});
    ++queued_subjobs_;
    ++recovered;
    work_cv_.notify_all();
  }
  return recovered;
}

StatsSnapshot Scheduler::stats() const {
  StatsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, client] : clients_) {
      out.jobs_active += client.jobs.size();
      // The internal recovery client is bookkeeping, not a peer: its
      // queued work shows in the queue counters but it is not a client.
      if (id == recovery_client_ && recovery_client_ != 0) continue;
      ++out.clients;
      ClientStats per;
      per.client = id;
      per.jobs_active = client.jobs.size();
      per.queued_subjobs = client.queue.size();
      per.in_flight = client.in_flight;
      out.per_client.push_back(per);
    }
    out.jobs_done = jobs_done_;
    out.jobs_cancelled = jobs_cancelled_;
    out.jobs_failed = jobs_failed_;
    out.jobs_rejected = jobs_rejected_;
    out.deadline_exceeded = deadline_exceeded_;
    out.subjobs_run = subjobs_run_;
    out.trials_done = trials_done_;
    out.queued_subjobs = queued_subjobs_;
    out.running_subjobs = running_subjobs_;
    out.max_queue = max_queue_;
    out.max_client_queue = max_client_queue_;
    out.worker_restarts = worker_restarts_;
    out.jobs_quarantined = jobs_quarantined_;
    out.workers.reserve(worker_slots_.size());
    for (std::size_t i = 0; i < worker_slots_.size(); ++i) {
      WorkerSlotStats row;
      row.slot = i;
      row.pid = worker_slots_[i].pid;
      row.busy = worker_slots_[i].busy;
      row.jobs = worker_slots_[i].jobs;
      out.workers.push_back(row);
    }
  }
  const CacheStats cache = cache_->stats();
  out.cache_entries = cache.entries;
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  return out;
}

}  // namespace megflood::serve
