#pragma once

// Sub-job execution for megflood_serve.  Every campaign runs in a worker
// subprocess: each scheduler pool thread owns a WorkerProcess — a
// self-exec of the daemon binary in `--worker` mode — and ships sub-jobs
// to it as NDJSON lines over one socketpair per direction.  The worker's
// stdin and stdout are that pair's ends, so both sides are sockets and
// both speak through serve/line_io.hpp, the transport of every serve
// socket.  A scenario kernel that segfaults, aborts, or blows past its
// rlimit budget kills *the worker*, which the supervisor observes via
// waitpid and classifies (signal vs exit code vs heartbeat timeout); the
// daemon and every other client's work survive.
//
// Wire protocol (one JSON object per line, both directions):
//
//   supervisor -> worker
//     {"op": "job", "job": N, "cli": "<canonical scenario CLI>",
//      "journal": "<path or empty>", "deadline_s": D, "memory_mb": M,
//      "attempt": A}
//     {"op": "cancel", "job": N}        cooperative cancel
//     {"op": "exit"}                    graceful shutdown
//
//   worker -> supervisor
//     {"event": "trial", "job": N, "done": D}
//         progress; D is cumulative (trials replayed from the journal
//         plus fresh ones), so progress carries across a crash/retry
//     {"event": "heartbeat"}
//         emitted every ~500 ms by a side thread; its absence past the
//         supervisor's timeout classifies a wedged worker
//     {"event": "result", "job": N, "deadline": B, "interrupted": B,
//      "error": "...", "result": {...}}
//         terminal (worker_result_line).  On success `error` is "" and
//         `result` carries the campaign's result object *verbatim*
//         (spliced, never re-parsed).  On failure the `result` key is
//         absent.
//
// The worker queues job lines and runs them one at a time, in order, so
// the supervisor may send the next job before the running one's result.
// A job cancelled before it starts answers `interrupted` without opening
// its journal.  An exit line stops the worker after its current trial;
// EOF with no exit line before it means the daemon died, and the worker
// ends at once, so that it never appends to a journal a restarted
// daemon may already be resuming.
//
// The worker opens the supervisor-provided `.mfj` journal itself, so a
// crash leaves the journal on disk and the retried dispatch resumes
// bit-for-bit.  The supervisor deletes a spent journal after it stores
// the result.  `attempt` carries the campaign's prior crash count into
// the fault plan so `once=1` sites fire only on the first dispatch.
//
// Every raw process-control primitive (socketpair/fork/execv/waitpid/
// kill/setrlimit) lives in this translation unit; the megflood_lint
// `process-control` rule keeps it that way.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/json.hpp"
#include "serve/line_io.hpp"

namespace megflood::serve {

// How one sub-job run ended.  Exactly one of: a non-empty result_json
// (success), a non-empty error (deadline_exceeded marks a watchdog miss),
// or interrupted (cancelled between trials).
struct SubJobOutcome {
  std::string result_json;  // the campaign's result object, verbatim
  std::string error;
  bool deadline_exceeded = false;
  bool interrupted = false;
};

// The worker's terminal "result" line for dispatch `job`, and its
// inverse, which reads the line's parse `parsed` (the supervisor parses
// each line once) and splices the result object out of the raw `line`.
// A line with no result, error or flag, or one that is not a JSON
// object, reads as the error "worker returned no result".
std::string worker_result_line(std::uint64_t job,
                               const SubJobOutcome& outcome);
SubJobOutcome parse_worker_result_line(const JsonValue& parsed,
                                       const std::string& line);

// One dispatched sub-job, as carried by the "job" line.
struct WorkerJob {
  std::uint64_t job = 0;      // supervisor-side dispatch id
  std::string cli;            // canonical scenario CLI (scenario_to_cli)
  std::string journal;        // .mfj path, empty = unjournaled
  double deadline_s = 0.0;    // cooperative per-trial watchdog, 0 = off
  std::uint64_t memory_mb = 0;  // RLIMIT_AS budget, 0 = unlimited
  std::uint64_t attempt = 0;  // prior crash count for once= fault sites
};

std::string worker_job_line(const WorkerJob& job);
bool parse_worker_job_line(const std::string& line, WorkerJob& out,
                           std::string& error);

// How a worker process ended, classified from waitpid (or from the
// supervisor's own heartbeat watchdog).
struct WorkerDeath {
  enum class Kind { kExit, kSignal, kHeartbeat };
  Kind kind = Kind::kExit;
  int code = 0;  // exit status (kExit) or signal number (kSignal)
  // "SIGSEGV" / "exit(3)" / "heartbeat_timeout" — the `signal` field of
  // the terminal `failed` event and the quarantine marker.
  std::string describe() const;
};

// A self-pipe that ends a read_line wait early (a pool thread's wait for
// its worker, a daemon connection's wait for a request): any thread may
// notify(); the waiting thread's read returns RecvStatus::kWoken, and it
// drains the pipe before it looks again at what woke it.  A pipe that
// could not be made is inert (the wait runs to its timeout).
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(WakePipe&& other) noexcept;
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;
  WakePipe& operator=(WakePipe&&) = delete;

  void notify() noexcept;
  void drain() noexcept;
  int fd() const noexcept { return read_fd_; }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

// Supervisor-side handle for one worker subprocess.  Not thread-safe:
// exactly one scheduler thread owns a WorkerProcess at a time (stats
// reads go through the scheduler's own mirror fields, never this class).
class WorkerProcess {
 public:
  // `binary` is the daemon's own executable (self_executable_path);
  // `inject_spec` is forwarded as --inject= so trial-level fault sites
  // fire inside the worker, where the containment story needs them.
  WorkerProcess(std::string binary, std::string inject_spec);
  ~WorkerProcess();
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  // Two socketpairs + fork + execv.  False (with `error` set) when the kernel
  // refuses; a worker that fails *exec* surfaces later as exit(127).
  bool spawn(std::string& error);

  bool alive() const noexcept { return pid_ > 0; }
  pid_t pid() const noexcept { return pid_; }

  // False when the worker is gone (EPIPE and friends).
  bool send_line(const std::string& line) {
    return serve::send_line(to_fd_, line);
  }

  // Waits up to timeout_ms for a line; a readable `wake_fd` (a WakePipe's
  // fd(), or -1 for none) ends the wait with kWoken.
  RecvStatus read_line(int timeout_ms, std::string& out, int wake_fd = -1) {
    return from_.read_line(timeout_ms, out, wake_fd);
  }

  // Classification after read_line returned kClosed: reap via waitpid.
  WorkerDeath reap_after_close();
  // Heartbeat-timeout path: SIGKILL, reap, classify as kHeartbeat.
  WorkerDeath kill_and_reap();
  // Graceful stop for a healthy worker: "exit" line + close, bounded
  // wait, SIGKILL fallback.  Idempotent.
  void shutdown();

 private:
  void close_fd() noexcept;

  std::string binary_;
  std::string inject_spec_;
  pid_t pid_ = -1;
  int to_fd_ = -1;     // job and cancel lines: the worker's stdin
  LineReader from_;    // trial, heartbeat and result lines: its stdout
};

// The `--worker` mode body: consumes job lines on the socket `in_fd`,
// emits trial/heartbeat/result lines on the socket `out_fd`, runs until
// an "exit" line and returns the process exit code; an EOF before one
// ends the process (_exit) at once.  `inject_spec` arms the worker's own
// FaultPlan, seeded like the daemon's; a malformed spec throws
// std::invalid_argument for the tool's config-error exit.
int run_worker_main(int in_fd, int out_fd, const std::string& inject_spec);

// Names the calling thread (Linux; elsewhere a no-op) so per-thread
// views — bench/serve_threads.py, `top -H` — tell the serve threads
// apart.  The kernel keeps at most 15 characters.
void name_this_thread(const char* name);

// Resolves the running executable (/proc/self/exe when available,
// `argv0` otherwise) — what the daemon self-execs as `--worker`.
std::string self_executable_path(const char* argv0);

}  // namespace megflood::serve
