#include "serve/worker.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/format.hpp"
#include "core/scenario.hpp"
#include "serve/json.hpp"
#include "util/fault_injection.hpp"

namespace megflood::serve {

namespace {

// Matches the daemon's fault-plan seed (server.cpp kInjectSeed) so a
// given --inject spec fires identically under both isolation modes.
constexpr std::uint64_t kWorkerInjectSeed = 1;

constexpr int kHeartbeatIntervalMs = 500;

// Separates the result object, the last member of a result line.
constexpr const char* kResultMarker = ", \"result\": ";

// RLIMIT_AS starves ASan/TSan shadow memory long before it bounds the
// campaign, so budgets are applied only in uninstrumented builds — the
// sanitizer lanes still exercise every other sandbox path.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEGFLOOD_WORKER_RLIMITS_OFF 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MEGFLOOD_WORKER_RLIMITS_OFF 1
#endif
#endif

std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

#if defined(__unix__) || defined(__APPLE__)

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

// write() the whole line; EINTR-safe.  SIGPIPE is ignored process-wide in
// worker mode, so a vanished supervisor is a false return, not a signal.
bool write_all_fd(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t got = ::write(fd, data + sent, size - sent);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(got);
  }
  return true;
}

// Per-job rlimit budgets.  Soft limits only — the hard limits stay where
// the operator put them — restored after the job so the worker runtime
// itself (the result line, the next job) is never constrained.
struct RlimitGuard {
  RlimitGuard(std::uint64_t memory_mb, double deadline_s) {
#if !defined(MEGFLOOD_WORKER_RLIMITS_OFF)
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
#else
    (void)memory_mb;
    (void)deadline_s;
#endif
  }
  ~RlimitGuard() {
#if !defined(MEGFLOOD_WORKER_RLIMITS_OFF)
    if (as_set_) ::setrlimit(RLIMIT_AS, &saved_as_);
    if (cpu_set_) ::setrlimit(RLIMIT_CPU, &saved_cpu_);
#endif
  }
  RlimitGuard(const RlimitGuard&) = delete;
  RlimitGuard& operator=(const RlimitGuard&) = delete;

 private:
#if !defined(MEGFLOOD_WORKER_RLIMITS_OFF)
  rlimit saved_as_{};
  rlimit saved_cpu_{};
  bool as_set_ = false;
  bool cpu_set_ = false;
#endif
};

#endif  // unix

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
  const JsonValue* op = parsed->find("op");
  if (op == nullptr || !op->is_string() || op->string != "job") {
    error = "job line has no op=job";
    return false;
  }
  const JsonValue* job = parsed->find("job");
  const JsonValue* cli = parsed->find("cli");
  if (job == nullptr || !job->is_number() || cli == nullptr ||
      !cli->is_string() || cli->string.empty()) {
    error = "job line needs numeric 'job' and non-empty string 'cli'";
    return false;
  }
  out = WorkerJob{};
  out.job = static_cast<std::uint64_t>(job->number);
  out.cli = cli->string;
  if (const JsonValue* journal = parsed->find("journal");
      journal != nullptr && journal->is_string()) {
    out.journal = journal->string;
  }
  if (const JsonValue* deadline = parsed->find("deadline_s");
      deadline != nullptr && deadline->is_number() && deadline->number > 0) {
    out.deadline_s = deadline->number;
  }
  if (const JsonValue* memory = parsed->find("memory_mb");
      memory != nullptr && memory->is_number() && memory->number > 0) {
    out.memory_mb = static_cast<std::uint64_t>(memory->number);
  }
  if (const JsonValue* attempt = parsed->find("attempt");
      attempt != nullptr && attempt->is_number() && attempt->number > 0) {
    out.attempt = static_cast<std::uint64_t>(attempt->number);
  }
  return true;
}

SubJobOutcome run_subjob(const ScenarioSpec& spec,
                         const std::string& journal_path, double deadline_s,
                         MeasureHooks hooks,
                         const std::function<void(std::size_t done)>&
                             on_progress) {
  SubJobOutcome outcome;
  // Cancelled before it started (a worker's queued job, say): no journal
  // is opened, so none is left behind for a restart to resume.
  if (hooks.cancel != nullptr &&
      hooks.cancel->load(std::memory_order_relaxed)) {
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
  hooks.checkpoint = journal ? &*journal : nullptr;
  hooks.on_trial_recorded = [&, recorded = std::move(hooks.on_trial_recorded)](
                                std::size_t trial) {
    on_progress(replayed + fresh.fetch_add(1) + 1);
    if (recorded) recorded(trial);
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
    // stay byte-identical to thread mode.  The marker's first occurrence
    // is the member itself: `error` is the only free-form field before
    // it and json_quote escapes its quotes.
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
#if defined(__unix__) || defined(__APPLE__)
      return signal_name(code);
#else
      return "signal " + std::to_string(code);
#endif
    case Kind::kExit:
      return "exit(" + std::to_string(code) + ")";
    case Kind::kHeartbeat:
      return "heartbeat_timeout";
  }
  return "unknown";
}

#if defined(__unix__) || defined(__APPLE__)

WorkerProcess::WorkerProcess(std::string binary, std::string inject_spec)
    : binary_(std::move(binary)), inject_spec_(std::move(inject_spec)) {}

WorkerProcess::~WorkerProcess() { shutdown(); }

void WorkerProcess::close_fd() noexcept {
  for (int* fd : {&to_fd_, &from_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  buffer_.clear();
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
    // sockets, the listener, sibling workers' channels — is closed so a
    // worker can never hold a connection open past the daemon's intent.
    ::dup2(to_worker[1], 0);
    ::dup2(from_worker[1], 1);
    for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    ::execv(binary_.c_str(), argv.data());
    _exit(127);
  }
  ::close(to_worker[1]);
  ::close(from_worker[1]);
  to_fd_ = to_worker[0];
  from_fd_ = from_worker[0];
  pid_ = pid;
  buffer_.clear();
  return true;
}

bool WorkerProcess::send_line(const std::string& line) {
  if (to_fd_ < 0) return false;
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t got = ::send(to_fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(got);
  }
  return true;
}

WorkerProcess::ReadStatus WorkerProcess::read_line(int timeout_ms,
                                                   std::string& out) {
  if (from_fd_ < 0) return ReadStatus::kClosed;
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      out = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return ReadStatus::kLine;
    }
    pollfd poller{};
    poller.fd = from_fd_;
    poller.events = POLLIN;
    const int ready = ::poll(&poller, 1, timeout_ms);
    if (ready == 0) return ReadStatus::kTimeout;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    char chunk[4096];
    const ssize_t got = ::read(from_fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return ReadStatus::kClosed;  // EOF: the worker is gone
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
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
  send_line("{\"op\": \"exit\"}");
  close_fd();  // EOF is the second, unmissable shutdown signal
  // Bounded grace: a worker mid-trial finishes its write and exits on
  // the closed pipe; one that doesn't within ~2 s is not coming back.
  for (int waited_ms = 0; waited_ms < 2000; waited_ms += 20) {
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_ || (got < 0 && errno != EINTR)) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
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
  std::deque<WorkerJob> pending;
  std::set<std::uint64_t> cancelled_ids;
  std::uint64_t current_job = 0;
  bool have_current = false;
  bool stop = false;

  std::atomic<bool> cancel_current{false};

  bool write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    std::string framed = line;
    framed += '\n';
    return write_all_fd(out_fd, framed.data(), framed.size());
  }
};

void worker_reader_loop(int in_fd, WorkerState& state) {
  name_this_thread("worker-reader");
  std::string buffer;
  char chunk[4096];
  bool eof = false;
  while (!eof) {
    const ssize_t got = ::read(in_fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      eof = true;
    } else {
      buffer.append(chunk, static_cast<std::size_t>(got));
    }
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      std::string error;
      const auto parsed = parse_json(line, error);
      if (!parsed || !parsed->is_object()) continue;
      const JsonValue* op = parsed->find("op");
      if (op == nullptr || !op->is_string()) continue;
      if (op->string == "exit") {
        eof = true;
        break;
      }
      if (op->string == "cancel") {
        const JsonValue* job = parsed->find("job");
        if (job == nullptr || !job->is_number()) continue;
        const auto id = static_cast<std::uint64_t>(job->number);
        std::lock_guard<std::mutex> lock(state.queue_mutex);
        if (state.have_current && state.current_job == id) {
          state.cancel_current.store(true, std::memory_order_relaxed);
        } else {
          state.cancelled_ids.insert(id);
        }
        continue;
      }
      WorkerJob job;
      if (parse_worker_job_line(line, job, error)) {
        {
          std::lock_guard<std::mutex> lock(state.queue_mutex);
          state.pending.push_back(std::move(job));
        }
        state.queue_cv.notify_one();  // the job loop is the one waiter
      }
    }
  }
  // Supervisor gone (or explicit exit): stop after the current trial.
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
    if (!ok) return;  // supervisor gone; the reader sees EOF and stops us
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
    MeasureHooks hooks;
    hooks.cancel = &state.cancel_current;
    if (plan != nullptr) {
      const std::uint64_t attempt = job.attempt;
      hooks.on_trial_start = [plan, attempt](std::size_t trial) {
        plan->fire_trial_start(trial, attempt);
      };
      hooks.on_trial_recorded = [plan](std::size_t trial) {
        plan->fire_trial_recorded(trial);
      };
    }
    const std::string prefix =
        "{\"event\": \"trial\", \"job\": " + std::to_string(job.job) +
        ", \"done\": ";
    const RlimitGuard budgets(job.memory_mb, job.deadline_s);
    outcome = run_subjob(spec, job.journal, job.deadline_s, std::move(hooks),
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
      job = std::move(state.pending.front());
      state.pending.pop_front();
      state.current_job = job.job;
      state.have_current = true;
      const bool pre_cancelled =
          state.cancelled_ids.erase(job.job) > 0 || state.stop;
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
  // The reader blocks in read() until the supervisor closes the pipe;
  // since the loop above only exits after the reader saw EOF/exit, the
  // join is immediate in practice.
  if (reader.joinable()) reader.join();
  if (heartbeat.joinable()) heartbeat.join();
  return 0;
}

#else  // non-unix stubs: process isolation is a unix feature

WorkerProcess::WorkerProcess(std::string binary, std::string inject_spec)
    : binary_(std::move(binary)), inject_spec_(std::move(inject_spec)) {}
WorkerProcess::~WorkerProcess() = default;
void WorkerProcess::close_fd() noexcept {}
bool WorkerProcess::spawn(std::string& error) {
  error = "process isolation requires a unix platform";
  return false;
}
bool WorkerProcess::send_line(const std::string&) { return false; }
WorkerProcess::ReadStatus WorkerProcess::read_line(int, std::string&) {
  return ReadStatus::kClosed;
}
WorkerDeath WorkerProcess::reap_after_close() { return {}; }
WorkerDeath WorkerProcess::kill_and_reap() { return {}; }
void WorkerProcess::shutdown() {}
std::string self_executable_path(const char* argv0) {
  return argv0 != nullptr ? argv0 : "";
}
int run_worker_main(int, int, const std::string&) { return 2; }
void name_this_thread(const char*) {}

#endif

}  // namespace megflood::serve
