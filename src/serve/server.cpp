#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "util/fault_injection.hpp"

namespace megflood::serve {

namespace {

// Accept-loop poll tick: the latency bound on noticing the stop flag.
constexpr int kPollMs = 200;

// Server-side fault sites are seed-keyed like the trial-runner ones; the
// daemon has no campaign seed of its own, so its plan is keyed by a fixed
// seed — the same --inject spec injects the same faults on every run.
constexpr std::uint64_t kInjectSeed = 1;

SchedulerConfig scheduler_config(const ServerConfig& config,
                                 FaultPlan* plan) {
  SchedulerConfig out;
  out.workers = config.workers == 0
                    ? std::max<std::size_t>(
                          1, std::thread::hardware_concurrency())
                    : config.workers;
  out.max_queue = config.max_queue;
  out.max_client_queue = config.max_client_queue;
  // Journals live next to the disk cache entries: crash recovery is armed
  // exactly when result persistence is.
  out.journal_dir = config.cache_dir;
  out.fault_plan = (plan != nullptr && !plan->empty()) ? plan : nullptr;
  if (config.process_isolation) {
    if (config.worker_binary.empty()) {
      throw std::invalid_argument(
          "process isolation requires a worker binary path");
    }
    out.isolation = IsolationMode::kProcess;
    out.worker_binary = config.worker_binary;
    // Workers re-parse the spec themselves; forwarding the raw string
    // keeps trial-level sites firing inside them, identically to thread
    // mode (same kInjectSeed on both ends).
    out.inject_spec = config.inject;
    out.worker_memory_mb = config.worker_memory_mb;
  }
  return out;
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a client that hung up must surface as EPIPE here,
    // not as a process-killing SIGPIPE in the writer thread.
    const ssize_t got =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace

class ServerImpl {
 public:
  explicit ServerImpl(const ServerConfig& config);
  ~ServerImpl();

  std::uint16_t port() const { return port_; }
  std::size_t recovered_journals() const { return recovered_; }
  int serve(const std::atomic<bool>& stop);
  void request_shutdown() {
    shutdown_requested_.store(true, std::memory_order_relaxed);
  }

 private:
  // One accepted client: a reader thread (frame lines, dispatch requests)
  // and a writer thread (drain the outbox).  The outbox mutex is a leaf —
  // the scheduler's EventFn acquires it with the scheduler mutex held,
  // never the other way around.
  struct Connection {
    int fd = -1;
    std::uint64_t client = 0;  // scheduler client id
    std::mutex out_mutex;
    std::condition_variable out_cv;
    std::deque<std::string> outbox;
    bool closing = false;
    std::atomic<bool> reader_done{false};
    std::thread reader;
    std::thread writer;
  };

  void listen_unix(const std::string& path);
  void listen_tcp(std::uint16_t port);
  void accept_one();
  void enqueue(Connection& connection, const std::string& line);
  void dispatch(Connection& connection, const std::string& line);
  void reader_loop(Connection* connection);
  void writer_loop(Connection* connection);
  void close_connection(Connection& connection, bool flush);
  void reap_finished();

  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string unix_path_;  // unlinked on teardown
  FaultPlan fault_plan_;   // parsed --inject; empty = no sites
  ResultCache cache_;
  Scheduler scheduler_;
  std::size_t recovered_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

ServerImpl::ServerImpl(const ServerConfig& config)
    : config_(config),
      fault_plan_(config.inject.empty()
                      ? FaultPlan()
                      : FaultPlan::parse(config.inject, kInjectSeed)),
      cache_(config.cache_dir),
      scheduler_(scheduler_config(config, &fault_plan_), &cache_) {
  if (!fault_plan_.empty()) {
    cache_.set_disk_store_hook(
        [this](std::size_t index, const std::string& path) {
          fault_plan_.fire_disk_store(index, path);
        });
  }
  if (!config.unix_path.empty()) {
    listen_unix(config.unix_path);
  } else {
    listen_tcp(config.tcp_port);
  }
  // Resume whatever a killed predecessor left behind before accepting
  // traffic; the campaigns complete on the worker pool and land in the
  // cache, bit-identical to uninterrupted runs.
  recovered_ = scheduler_.recover_journals();
}

ServerImpl::~ServerImpl() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void ServerImpl::listen_unix(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("serve: unix socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  }
  // A stale socket file from a dead server would make bind fail forever;
  // unlink first — two live servers on one path is operator error anyway.
  ::unlink(path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    throw std::runtime_error("serve: cannot listen on '" + path +
                             "': " + std::strerror(errno));
  }
  unix_path_ = path;
}

void ServerImpl::listen_tcp(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  address.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    throw std::runtime_error("serve: cannot listen on port " +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_size) != 0) {
    throw std::runtime_error(std::string("serve: getsockname: ") +
                             std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
}

void ServerImpl::enqueue(Connection& connection, const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(connection.out_mutex);
    if (connection.closing) return;
    connection.outbox.push_back(line);
  }
  connection.out_cv.notify_one();
}

void ServerImpl::dispatch(Connection& connection, const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    enqueue(connection, event_error("", e.what()));
    return;
  }
  switch (request.op) {
    case RequestOp::kSubmit:
      scheduler_.submit(connection.client, request);
      break;
    case RequestOp::kCancel:
      scheduler_.cancel(connection.client, request.id);
      break;
    case RequestOp::kPing:
      enqueue(connection, event_pong());
      break;
    case RequestOp::kStats:
      enqueue(connection, event_stats(scheduler_.stats()));
      break;
    case RequestOp::kShutdown:
      enqueue(connection, event_draining());
      request_shutdown();
      break;
  }
}

void ServerImpl::reader_loop(Connection* connection) {
  std::string pending;
  bool discarding = false;  // inside an oversized line, until its newline
  char buffer[4096];
  while (true) {
    const ssize_t got = ::read(connection->fd, buffer, sizeof(buffer));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF or error: client is gone
    const auto too_long = [&] {
      enqueue(*connection,
              event_error("", "request line longer than " +
                                  std::to_string(config_.max_line) +
                                  " bytes"));
      pending.clear();
    };
    std::size_t start = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(got); ++i) {
      if (buffer[i] != '\n') continue;
      if (discarding) {
        discarding = false;  // the oversized line finally ended
      } else {
        pending.append(buffer + start, i - start);
        if (pending.size() > config_.max_line) {
          too_long();  // whole line arrived in one read
        } else {
          dispatch(*connection, pending);
          pending.clear();
        }
      }
      start = i + 1;
    }
    if (!discarding) {
      pending.append(buffer + start, static_cast<std::size_t>(got) - start);
      if (pending.size() > config_.max_line) {
        too_long();
        discarding = true;
      }
    }
  }
  // Unregister first: after this returns, the scheduler can never emit to
  // this connection again, so the writer can be told to finish.
  scheduler_.unregister_client(connection->client);
  {
    std::lock_guard<std::mutex> lock(connection->out_mutex);
    connection->closing = true;
  }
  connection->out_cv.notify_all();
  connection->reader_done.store(true, std::memory_order_release);
}

void ServerImpl::writer_loop(Connection* connection) {
  std::size_t written = 0;  // event lines attempted on this connection
  std::unique_lock<std::mutex> lock(connection->out_mutex);
  while (true) {
    connection->out_cv.wait(lock, [connection] {
      return !connection->outbox.empty() || connection->closing;
    });
    if (connection->outbox.empty()) return;  // closing and flushed
    std::string line = std::move(connection->outbox.front());
    connection->outbox.pop_front();
    line += '\n';
    lock.unlock();
    // Chaos seam: stallwrite sites sleep here (a slow network under one
    // client — never under the scheduler mutex), drop sites hard-close
    // the connection instead of writing, as if the network died.
    bool ok;
    if (!fault_plan_.empty() && fault_plan_.fire_event_write(++written)) {
      ::shutdown(connection->fd, SHUT_RDWR);
      ok = false;
    } else {
      ok = write_all(connection->fd, line.data(), line.size());
    }
    lock.lock();
    if (!ok) {
      // Client stopped reading; drop the rest and let the reader notice.
      connection->outbox.clear();
      ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
}

void ServerImpl::accept_one() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  auto connection = std::make_unique<Connection>();
  connection->fd = fd;
  Connection* raw = connection.get();
  connection->client = scheduler_.register_client(
      [this, raw](const std::string& line) { enqueue(*raw, line); });
  connection->reader = std::thread([this, raw] {
    name_this_thread("serve-conn-rd");
    reader_loop(raw);
  });
  connection->writer = std::thread([this, raw] {
    name_this_thread("serve-conn-wr");
    writer_loop(raw);
  });
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.push_back(std::move(connection));
}

// Joins and destroys connections whose reader exited (client hung up).
void ServerImpl::reap_finished() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->reader_done.load(std::memory_order_acquire)) {
      close_connection(**it, /*flush=*/false);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServerImpl::close_connection(Connection& connection, bool flush) {
  {
    std::lock_guard<std::mutex> lock(connection.out_mutex);
    if (!flush) connection.outbox.clear();
    connection.closing = true;
  }
  connection.out_cv.notify_all();
  if (connection.writer.joinable()) connection.writer.join();
  ::shutdown(connection.fd, SHUT_RDWR);  // unblocks a reader in read()
  if (connection.reader.joinable()) connection.reader.join();
  ::close(connection.fd);
}

int ServerImpl::serve(const std::atomic<bool>& stop) {
  pollfd poller{};
  poller.fd = listen_fd_;
  poller.events = POLLIN;
  while (!stop.load(std::memory_order_relaxed) &&
         !shutdown_requested_.load(std::memory_order_relaxed)) {
    const int ready = ::poll(&poller, 1, kPollMs);
    if (ready > 0 && (poller.revents & POLLIN) != 0) accept_one();
    reap_finished();
  }

  // Graceful drain: no new clients, cancel and resolve everything (the
  // resulting cancelled/done events land in the outboxes), then flush
  // each outbox before closing.
  ::close(listen_fd_);
  listen_fd_ = -1;
  scheduler_.drain();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const auto& connection : connections_) {
    close_connection(*connection, /*flush=*/true);
  }
  connections_.clear();
  return 0;
}

Server::Server(const ServerConfig& config) : impl_(new ServerImpl(config)) {}

Server::~Server() { delete impl_; }

std::uint16_t Server::port() const { return impl_->port(); }

std::size_t Server::recovered_journals() const {
  return impl_->recovered_journals();
}

int Server::serve(const std::atomic<bool>& stop) {
  return impl_->serve(stop);
}

void Server::request_shutdown() { impl_->request_shutdown(); }

}  // namespace megflood::serve
