#include "serve/worker.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/format.hpp"
#include "core/scenario.hpp"
#include "serve/json.hpp"
#include "serve/line_io.hpp"
#include "util/fault_injection.hpp"
#include "util/resource.hpp"

namespace megflood::serve {

namespace {

// Matches the daemon's fault-plan seed (server.cpp kInjectSeed): one
// --inject spec keys the same faults on every run, in the daemon (the
// server-side sites) and in its workers (the trial-level ones).
constexpr std::uint64_t kWorkerInjectSeed = 1;

constexpr int kHeartbeatIntervalMs = 500;

// Separates the result object, the last member of a result line.
constexpr const char* kResultMarker = ", \"result\": ";

std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string signal_name(int signal) {
  switch (signal) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    default: return "signal " + std::to_string(signal);
  }
}

// Per-job rlimit budgets.  Soft limits only — the hard limits stay where
// the operator put them — restored after the job so the worker runtime
// itself (the result line, the next job) is never constrained.
struct RlimitGuard {
  RlimitGuard(std::uint64_t memory_mb, double deadline_s) {
    // RLIMIT_AS starves ASan/TSan shadow memory long before it bounds the
    // campaign, so budgets apply only in uninstrumented builds; the
    // sanitizer lanes still exercise every other sandbox path.
    if (!rss_guard_reliable()) return;
    if (memory_mb > 0 && ::getrlimit(RLIMIT_AS, &saved_as_) == 0) {
      rlimit lim = saved_as_;
      const rlim_t budget = static_cast<rlim_t>(memory_mb) << 20;
      lim.rlim_cur =
          (lim.rlim_max == RLIM_INFINITY || budget < lim.rlim_max)
              ? budget
              : lim.rlim_max;
      if (::setrlimit(RLIMIT_AS, &lim) == 0) as_set_ = true;
    }
    if (deadline_s > 0.0 && ::getrlimit(RLIMIT_CPU, &saved_cpu_) == 0) {
      // The cooperative watchdog (deadline_s, wall clock) fires first in
      // every sane run; the CPU ceiling is the non-cooperative backstop
      // for a truly wedged kernel, so it gets generous headroom.
      rusage usage{};
      ::getrusage(RUSAGE_SELF, &usage);
      const rlim_t used = static_cast<rlim_t>(usage.ru_utime.tv_sec) +
                          static_cast<rlim_t>(usage.ru_stime.tv_sec);
      const rlim_t headroom = static_cast<rlim_t>(
          std::ceil(deadline_s) * 4.0 + 10.0);
      rlimit lim = saved_cpu_;
      const rlim_t budget = used + headroom;
      lim.rlim_cur =
          (lim.rlim_max == RLIM_INFINITY || budget < lim.rlim_max)
              ? budget
              : lim.rlim_max;
      if (::setrlimit(RLIMIT_CPU, &lim) == 0) cpu_set_ = true;
    }
  }
  ~RlimitGuard() {
    if (as_set_) ::setrlimit(RLIMIT_AS, &saved_as_);
    if (cpu_set_) ::setrlimit(RLIMIT_CPU, &saved_cpu_);
  }
  RlimitGuard(const RlimitGuard&) = delete;
  RlimitGuard& operator=(const RlimitGuard&) = delete;

 private:
  rlimit saved_as_{};
  rlimit saved_cpu_{};
  bool as_set_ = false;
  bool cpu_set_ = false;
};

// A parsed job line's fields; the worker's reader parses each line once
// and hands the object here.
bool worker_job_from_json(const JsonValue& parsed, WorkerJob& out,
                          std::string& error) {
  const JsonValue* op = parsed.find("op");
  if (op == nullptr || !op->is_string() || op->string != "job") {
    error = "job line has no op=job";
    return false;
  }
  const JsonValue* job = parsed.find("job");
  const JsonValue* cli = parsed.find("cli");
  if (job == nullptr || !job->is_number() || cli == nullptr ||
      !cli->is_string() || cli->string.empty()) {
    error = "job line needs numeric 'job' and non-empty string 'cli'";
    return false;
  }
  out = WorkerJob{};
  out.job = static_cast<std::uint64_t>(job->number);
  out.cli = cli->string;
  if (const JsonValue* journal = parsed.find("journal");
      journal != nullptr && journal->is_string()) {
    out.journal = journal->string;
  }
  if (const JsonValue* deadline = parsed.find("deadline_s");
      deadline != nullptr && deadline->is_number() && deadline->number > 0) {
    out.deadline_s = deadline->number;
  }
  if (const JsonValue* memory = parsed.find("memory_mb");
      memory != nullptr && memory->is_number() && memory->number > 0) {
    out.memory_mb = static_cast<std::uint64_t>(memory->number);
  }
  if (const JsonValue* attempt = parsed.find("attempt");
      attempt != nullptr && attempt->is_number() && attempt->number > 0) {
    out.attempt = static_cast<std::uint64_t>(attempt->number);
  }
  return true;
}

}  // namespace

std::string worker_job_line(const WorkerJob& job) {
  std::string line = "{\"op\": \"job\", \"job\": " + std::to_string(job.job);
  line += ", \"cli\": " + json_quote(job.cli);
  line += ", \"journal\": " + json_quote(job.journal);
  line += ", \"deadline_s\": " + format_double(job.deadline_s);
  line += ", \"memory_mb\": " + std::to_string(job.memory_mb);
  line += ", \"attempt\": " + std::to_string(job.attempt);
  line += "}";
  return line;
}

bool parse_worker_job_line(const std::string& line, WorkerJob& out,
                           std::string& error) {
  const auto parsed = parse_json(line, error);
  if (!parsed || !parsed->is_object()) {
    if (error.empty()) error = "job line is not a JSON object";
    return false;
  }
  return worker_job_from_json(*parsed, out, error);
}

namespace {

// Runs one sub-job of `spec` (threads = 1) and renders its result against
// `spec`; the run itself uses a copy carrying `deadline_s` (0 = none), so
// a deadline never reaches cache or journal identity.  A non-empty
// `journal_path` is opened or, when foreign, replaced (I/O failure runs
// unjournaled), and is left on disk for the daemon to delete once the
// result is stored.  `cancel` stops it between trials.  `plan` (null =
// none) fires its trial sites, with `attempt` the campaign's prior crash
// count.  `on_progress` gets the cumulative trial count: the journal's
// replayed trials, then each fresh trial.
SubJobOutcome run_subjob(const ScenarioSpec& spec,
                         const std::string& journal_path, double deadline_s,
                         const std::atomic<bool>& cancel, FaultPlan* plan,
                         std::uint64_t attempt,
                         const std::function<void(std::size_t done)>&
                             on_progress) {
  SubJobOutcome outcome;
  // Cancelled before it started (a worker's queued job, say): no journal
  // is opened, so none is left behind for a restart to resume.
  if (cancel.load(std::memory_order_relaxed)) {
    outcome.interrupted = true;
    return outcome;
  }
  // A journaled run loses at most its in-flight trial to a crash.  A
  // foreign header (a hash-named file from another experiment) is
  // replaced; I/O failure runs unjournaled — serving beats durability.
  std::optional<CheckpointJournal> journal;
  if (!journal_path.empty()) {
    const CheckpointKey key{campaign_key(spec), 1};
    for (int attempt = 0; attempt < 2 && !journal; ++attempt) {
      try {
        journal.emplace(journal_path, key);
      } catch (const std::invalid_argument&) {
        std::remove(journal_path.c_str());
      } catch (const std::exception&) {
        break;
      }
    }
  }
  const std::size_t replayed = journal ? journal->replayed_trials() : 0;
  if (replayed > 0) on_progress(replayed);

  std::atomic<std::size_t> fresh{0};
  MeasureHooks hooks;
  hooks.checkpoint = journal ? &*journal : nullptr;
  hooks.cancel = &cancel;
  if (plan != nullptr) {
    hooks.on_trial_start = [plan, attempt](std::size_t trial) {
      plan->fire_trial_start(trial, attempt);
    };
  }
  // kill:after= counts durable records and fires after the progress line
  // is out.
  hooks.on_trial_recorded = [&](std::size_t trial) {
    on_progress(replayed + fresh.fetch_add(1) + 1);
    if (plan != nullptr) plan->fire_trial_recorded(trial);
  };
  // The deadline rides a spec copy: identity and rendering use `spec`.
  ScenarioSpec run_spec = spec;
  if (deadline_s > 0.0) run_spec.trial.trial_deadline_s = deadline_s;

  try {
    const ScenarioResult result = run_scenario(run_spec, hooks);
    outcome.interrupted = result.measurement.interrupted;
    if (!outcome.interrupted) {
      outcome.result_json = result_json_object(spec, result, result.warnings);
    }
  } catch (const TrialDeadlineExceeded& e) {
    outcome.deadline_exceeded = true;
    outcome.error = e.what();
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

}  // namespace

std::string worker_result_line(std::uint64_t job,
                               const SubJobOutcome& outcome) {
  std::string line = "{\"event\": \"result\", \"job\": " + std::to_string(job);
  line += std::string(", \"deadline\": ") +
          (outcome.deadline_exceeded ? "true" : "false");
  line += std::string(", \"interrupted\": ") +
          (outcome.interrupted ? "true" : "false");
  line += ", \"error\": " + json_quote(outcome.error);
  // Last member, so its bytes can be spliced back out verbatim.
  if (!outcome.result_json.empty()) {
    line += kResultMarker + outcome.result_json;
  }
  line += "}";
  return line;
}

SubJobOutcome parse_worker_result_line(const JsonValue& parsed,
                                       const std::string& line) {
  SubJobOutcome out;
  if (parsed.is_object()) {
    const JsonValue* flag = parsed.find("deadline");
    out.deadline_exceeded = flag && flag->is_bool() && flag->boolean;
    flag = parsed.find("interrupted");
    out.interrupted = flag && flag->is_bool() && flag->boolean;
    if (const JsonValue* err = parsed.find("error");
        err != nullptr && err->is_string()) {
      out.error = err->string;
    }
    // The result object is spliced, never re-rendered, so cache entries
    // hold the worker's bytes.  The marker's first occurrence is the
    // member itself: `error` is the only free-form field before it and
    // json_quote escapes its quotes.
    const JsonValue* result = parsed.find("result");
    const std::size_t at = line.find(kResultMarker);
    if (result != nullptr && result->is_object() && at != std::string::npos) {
      const std::size_t begin = at + std::strlen(kResultMarker);
      out.result_json = line.substr(begin, line.size() - begin - 1);
    }
  }
  if (out.result_json.empty() && out.error.empty() && !out.interrupted) {
    out.error = "worker returned no result";
  }
  return out;
}

std::string WorkerDeath::describe() const {
  switch (kind) {
    case Kind::kSignal:
      return signal_name(code);
    case Kind::kExit:
      return "exit(" + std::to_string(code) + ")";
    case Kind::kHeartbeat:
      return "heartbeat_timeout";
  }
  return "unknown";
}

WorkerProcess::WorkerProcess(std::string binary, std::string inject_spec)
    : binary_(std::move(binary)), inject_spec_(std::move(inject_spec)) {}

WorkerProcess::~WorkerProcess() { shutdown(); }

void WorkerProcess::close_fd() noexcept {
  for (const int fd : {to_fd_, from_.fd()}) {
    if (fd >= 0) ::close(fd);
  }
  to_fd_ = -1;
  from_.reset();
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) return;
  for (const int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  read_fd_ = fds[0];
  write_fd_ = fds[1];
}

WakePipe::WakePipe(WakePipe&& other) noexcept
    : read_fd_(std::exchange(other.read_fd_, -1)),
      write_fd_(std::exchange(other.write_fd_, -1)) {}

WakePipe::~WakePipe() {
  for (const int fd : {read_fd_, write_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

void WakePipe::notify() noexcept {
  if (write_fd_ < 0) return;
  // A full pipe already holds a wake-up, so a failed write loses nothing.
  const char byte = 1;
  if (::write(write_fd_, &byte, 1) < 0) return;
}

void WakePipe::drain() noexcept {
  char bytes[64];
  while (read_fd_ >= 0 && ::read(read_fd_, bytes, sizeof(bytes)) > 0) {
  }
}

namespace {

bool cloexec_socketpair(int fds[2]) {
#if defined(SOCK_CLOEXEC)
  return ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0;
#else
  return ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
#endif
}

}  // namespace

bool WorkerProcess::spawn(std::string& error) {
  if (alive()) {
    error = "worker already running";
    return false;
  }
  // One socketpair per direction.  On a shared socket, every line the
  // daemon reads would also wake the worker's reader thread, blocked in
  // read() on the same socket, for nothing.
  int to_worker[2];
  int from_worker[2];
  if (!cloexec_socketpair(to_worker)) {
    error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  if (!cloexec_socketpair(from_worker)) {
    error = std::string("socketpair: ") + std::strerror(errno);
    ::close(to_worker[0]);
    ::close(to_worker[1]);
    return false;
  }
  // Everything the child needs is prepared before fork: the daemon is
  // multithreaded, so the child may only make async-signal-safe calls
  // (dup2/close/execv/_exit) between fork and exec.
  std::string inject_arg;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary_.c_str()));
  argv.push_back(const_cast<char*>("--worker"));
  if (!inject_spec_.empty()) {
    inject_arg = "--inject=" + inject_spec_;
    argv.push_back(const_cast<char*>(inject_arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    error = std::string("fork: ") + std::strerror(errno);
    for (const int fd : {to_worker[0], to_worker[1], from_worker[0],
                         from_worker[1]}) {
      ::close(fd);
    }
    return false;
  }
  if (pid == 0) {
    // Child: one end of each pair becomes stdin/stdout (dup2 clears
    // CLOEXEC on the copies); every other inherited descriptor — client
    // sockets, the listener, sibling workers' channels, however high its
    // number — is closed so a worker can never hold a connection open
    // past the daemon's intent.
    ::dup2(to_worker[1], 0);
    ::dup2(from_worker[1], 1);
    ::close_range(3, ~0U, 0);
    ::execv(binary_.c_str(), argv.data());
    _exit(127);
  }
  ::close(to_worker[1]);
  ::close(from_worker[1]);
  to_fd_ = to_worker[0];
  from_.reset(from_worker[0]);
  pid_ = pid;
  return true;
}

WorkerDeath WorkerProcess::reap_after_close() {
  WorkerDeath death;
  if (pid_ <= 0) return death;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    death.kind = WorkerDeath::Kind::kSignal;
    death.code = WTERMSIG(status);
  } else {
    death.kind = WorkerDeath::Kind::kExit;
    death.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  pid_ = -1;
  close_fd();
  return death;
}

WorkerDeath WorkerProcess::kill_and_reap() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
  WorkerDeath death = reap_after_close();
  death.kind = WorkerDeath::Kind::kHeartbeat;
  death.code = 0;
  return death;
}

void WorkerProcess::shutdown() {
  if (pid_ <= 0) {
    close_fd();
    return;
  }
  // The exit line lets a worker mid-trial finish the trial; the EOF
  // behind it ends a worker that missed the line at once.
  send_line("{\"op\": \"exit\"}");
  close_fd();
  // Bounded grace: one that has not exited within ~2 s is not coming
  // back.
  for (int waited_ms = 0; waited_ms < 2000; waited_ms += 20) {
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_ || (got < 0 && errno != EINTR)) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  kill_and_reap();
}

void name_this_thread(const char* name) {
#if defined(__linux__)
  ::pthread_setname_np(::pthread_self(), name);
#else
  (void)name;
#endif
}

std::string self_executable_path(const char* argv0) {
#if defined(__linux__)
  char buffer[4096];
  const ssize_t got = ::readlink("/proc/self/exe", buffer,
                                 sizeof(buffer) - 1);
  if (got > 0) {
    buffer[got] = '\0';
    return buffer;
  }
#endif
  return argv0 != nullptr ? argv0 : "";
}

// ---------------------------------------------------------------------------
// Worker-mode body
// ---------------------------------------------------------------------------

namespace {

// Shared state between the job loop, the reader thread, and the
// heartbeat thread of one worker process.
struct WorkerState {
  int out_fd = 1;
  std::mutex write_mutex;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;      // the job loop: work or stop
  std::condition_variable heartbeat_cv;  // the heartbeat: stop only
  // A queued job and whether a cancel for it arrived while it waited.
  struct Pending {
    WorkerJob job;
    bool cancelled = false;
  };
  std::deque<Pending> pending;
  std::uint64_t current_job = 0;
  bool have_current = false;
  bool stop = false;

  std::atomic<bool> cancel_current{false};

  bool write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    return send_line(out_fd, line);
  }
};

void worker_reader_loop(int in_fd, WorkerState& state) {
  name_this_thread("worker-reader");
  LineReader reader(in_fd);
  std::string line;
  bool exit_line = false;
  while (reader.read_line(-1, line) == RecvStatus::kLine) {
    std::string error;
    const auto parsed = parse_json(line, error);
    if (!parsed || !parsed->is_object()) continue;
    const JsonValue* op = parsed->find("op");
    if (op == nullptr || !op->is_string()) continue;
    if (op->string == "exit") {
      exit_line = true;
      break;
    }
    if (op->string == "cancel") {
      const JsonValue* job = parsed->find("job");
      if (job == nullptr || !job->is_number()) continue;
      const auto id = static_cast<std::uint64_t>(job->number);
      // Jobs and cancels arrive in send order: a cancel that finds its
      // job neither running nor queued is for a finished one; drop it.
      std::lock_guard<std::mutex> lock(state.queue_mutex);
      if (state.have_current && state.current_job == id) {
        state.cancel_current.store(true, std::memory_order_relaxed);
      } else {
        for (WorkerState::Pending& queued : state.pending) {
          if (queued.job.job == id) queued.cancelled = true;
        }
      }
      continue;
    }
    WorkerJob job;
    if (worker_job_from_json(*parsed, job, error)) {
      {
        std::lock_guard<std::mutex> lock(state.queue_mutex);
        state.pending.push_back({std::move(job)});
      }
      state.queue_cv.notify_one();  // the job loop is the one waiter
    }
  }
  // EOF with no exit line: the daemon died (a SIGKILL, say), and a
  // restarted one may already be resuming this worker's journal.  End
  // now, mid-trial if need be; a torn last record is what the journal's
  // reader already drops after a SIGKILL.
  if (!exit_line) _exit(1);
  // Exit line: stop after the current trial.
  {
    std::lock_guard<std::mutex> lock(state.queue_mutex);
    state.stop = true;
    state.cancel_current.store(true, std::memory_order_relaxed);
  }
  state.queue_cv.notify_all();
  state.heartbeat_cv.notify_all();
}

// Beats on its own timer: a job arriving does not wake it.
void worker_heartbeat_loop(WorkerState& state) {
  name_this_thread("worker-beat");
  std::unique_lock<std::mutex> lock(state.queue_mutex);
  while (true) {
    if (state.heartbeat_cv.wait_for(
            lock, std::chrono::milliseconds(kHeartbeatIntervalMs),
            [&] { return state.stop; })) {
      return;
    }
    lock.unlock();
    const bool ok = state.write_line("{\"event\": \"heartbeat\"}");
    lock.lock();
    if (!ok) return;  // supervisor gone; the reader's EOF ends the process
  }
}

void worker_run_job(WorkerState& state, const WorkerJob& job,
                    FaultPlan* plan) {
  SubJobOutcome outcome;
  ScenarioSpec spec;
  try {
    spec = parse_scenario_cli(job.cli);
    spec.trial.threads = 1;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  if (outcome.error.empty()) {
    const std::string prefix =
        "{\"event\": \"trial\", \"job\": " + std::to_string(job.job) +
        ", \"done\": ";
    const RlimitGuard budgets(job.memory_mb, job.deadline_s);
    outcome = run_subjob(spec, job.journal, job.deadline_s,
                         state.cancel_current, plan, job.attempt,
                         [&](std::size_t done) {
                           state.write_line(prefix + std::to_string(done) +
                                            "}");
                         });
  }
  state.write_line(worker_result_line(job.job, outcome));
}

}  // namespace

int run_worker_main(int in_fd, int out_fd, const std::string& inject_spec) {
  std::signal(SIGPIPE, SIG_IGN);
  FaultPlan plan;
  if (!inject_spec.empty()) {
    plan = FaultPlan::parse(inject_spec, kWorkerInjectSeed);
  }

  WorkerState state;
  state.out_fd = out_fd;
  std::thread reader([&] { worker_reader_loop(in_fd, state); });
  std::thread heartbeat([&] { worker_heartbeat_loop(state); });

  while (true) {
    WorkerJob job;
    {
      std::unique_lock<std::mutex> lock(state.queue_mutex);
      state.queue_cv.wait(
          lock, [&] { return state.stop || !state.pending.empty(); });
      if (state.pending.empty()) break;  // stop requested, queue drained
      const bool pre_cancelled = state.pending.front().cancelled || state.stop;
      job = std::move(state.pending.front().job);
      state.pending.pop_front();
      state.current_job = job.job;
      state.have_current = true;
      state.cancel_current.store(pre_cancelled, std::memory_order_relaxed);
    }
    worker_run_job(state, job, plan.empty() ? nullptr : &plan);
    std::lock_guard<std::mutex> lock(state.queue_mutex);
    state.have_current = false;
  }

  {
    std::lock_guard<std::mutex> lock(state.queue_mutex);
    state.stop = true;
  }
  state.heartbeat_cv.notify_all();
  // The loop above only exits after the reader saw the exit line, so the
  // join is immediate.
  if (reader.joinable()) reader.join();
  if (heartbeat.joinable()) heartbeat.join();
  return 0;
}

}  // namespace megflood::serve
