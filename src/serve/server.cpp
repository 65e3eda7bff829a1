#include "serve/server.hpp"

#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/line_io.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/worker.hpp"
#include "util/fault_injection.hpp"

namespace megflood::serve {

namespace {

// Accept-loop poll tick: the latency bound on noticing the stop flag.
constexpr int kPollMs = 200;

// How long a drain lets the connections flush their outboxes: past it, a
// client that stopped reading loses the rest, so that the drain ends.
constexpr std::chrono::milliseconds kDrainFlush{2000};

using Clock = std::chrono::steady_clock;

// Server-side fault sites are seed-keyed like the trial-runner ones; the
// daemon has no campaign seed of its own, so its plan is keyed by a fixed
// seed — the same --inject spec injects the same faults on every run.
constexpr std::uint64_t kInjectSeed = 1;

SchedulerConfig scheduler_config(const ServerConfig& config) {
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
  out.worker_binary = config.worker_binary;
  // Workers re-parse the spec themselves and fire its trial-level sites;
  // the daemon's own plan fires only the server-side ones.
  out.inject_spec = config.inject;
  out.worker_memory_mb = config.worker_memory_mb;
  return out;
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
  // One accepted client, served by one thread that writes every queued
  // event line and then reads one request.  So the daemon reads a request
  // only after its answers to the earlier ones are on the wire: a client
  // that stops reading stops being read.  The outbox mutex is a leaf —
  // the scheduler's EventFn acquires it with the scheduler mutex held,
  // never the other way around.
  struct Connection {
    int fd = -1;
    std::uint64_t client = 0;  // scheduler client id
    WakePipe wake;  // a queued line or `closing` ends the thread's read
    std::mutex out_mutex;
    std::deque<std::string> outbox;
    bool closing = false;  // takes no more requests or lines
    std::future<void> thread;  // ready once the client is unregistered
  };

  void listen_on(const SocketAddress& address, const std::string& where);
  void accept_one();
  void enqueue(Connection& connection, const std::string& line);
  void dispatch(Connection& connection, const std::string& line);
  void serve_connection(Connection& connection);
  void close_connection(Connection& connection, Clock::time_point flush_until);
  void reap_finished();

  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string unix_path_;  // unlinked on teardown
  FaultPlan fault_plan_;   // parsed --inject; fires the server-side sites
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
      scheduler_(scheduler_config(config), &cache_) {
  if (!fault_plan_.empty()) {
    cache_.set_disk_store_hook(
        [this](std::size_t index, const std::string& path) {
          fault_plan_.fire_disk_store(index, path);
        });
  }
  if (!config.unix_path.empty()) {
    const std::string& path = config.unix_path;
    const SocketAddress address = unix_address(path);
    // A stale socket file from a dead server would make bind fail forever;
    // unlink first — two live servers on one path is operator error anyway.
    ::unlink(path.c_str());
    listen_on(address, "'" + path + "'");
    unix_path_ = path;
  } else {
    listen_on(loopback_address(config.tcp_port),
              "port " + std::to_string(config.tcp_port));
    sockaddr_in bound{};
    socklen_t bound_size = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_size) != 0) {
      throw std::runtime_error(std::string("serve: getsockname: ") +
                               std::strerror(errno));
    }
    port_ = ntohs(bound.sin_port);
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

void ServerImpl::listen_on(const SocketAddress& address,
                           const std::string& where) {
  // CLOEXEC here and on every accepted socket: a respawned worker must
  // not inherit the daemon's connections.
  listen_fd_ = ::socket(address.family(), SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ >= 0) {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (listen_fd_ < 0 || ::bind(listen_fd_, address.get(), address.size) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    throw std::runtime_error("serve: cannot listen on " + where + ": " +
                             std::strerror(errno));
  }
}

void ServerImpl::enqueue(Connection& connection, const std::string& line) {
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(connection.out_mutex);
    if (connection.closing) return;
    was_empty = connection.outbox.empty();
    connection.outbox.push_back(line);
  }
  // The thread takes the whole outbox after it drains the pipe, so the
  // first line of a batch is the only one that must wake it.
  if (was_empty) connection.wake.notify();
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

void ServerImpl::serve_connection(Connection& connection) {
  LineReader reader(connection.fd, config_.max_line);
  std::deque<std::string> batch;
  std::string request;
  std::size_t written = 0;  // event lines attempted on this connection
  bool open = true;         // false once the client or a write is gone
  while (open) {
    connection.wake.drain();
    bool closing;
    {
      std::lock_guard<std::mutex> lock(connection.out_mutex);
      batch.swap(connection.outbox);
      closing = connection.closing;
    }
    for (const std::string& line : batch) {
      // Chaos seam: stallwrite sites sleep here (a slow network under one
      // client — never under the scheduler mutex), drop sites hard-close
      // the connection instead of writing, as if the network died.
      const bool dropped =
          !fault_plan_.empty() && fault_plan_.fire_event_write(++written);
      open = !dropped && send_line(connection.fd, line);
      if (!open) break;
    }
    batch.clear();
    if (closing || !open) break;
    switch (reader.read_line(-1, request, connection.wake.fd())) {
      case RecvStatus::kLine:
        dispatch(connection, request);
        break;
      case RecvStatus::kTooLong:
        enqueue(connection, event_error("", "request line longer than " +
                                                std::to_string(
                                                    config_.max_line) +
                                                " bytes"));
        break;
      case RecvStatus::kWoken:
      case RecvStatus::kTimeout:
        break;
      case RecvStatus::kClosed:
        open = false;
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(connection.out_mutex);
    connection.closing = true;
  }
  // After this returns the scheduler never emits to this connection again.
  scheduler_.unregister_client(connection.client);
  ::shutdown(connection.fd, SHUT_RDWR);
}

void ServerImpl::accept_one() {
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return;
  auto connection = std::make_unique<Connection>();
  connection->fd = fd;
  if (connection->wake.fd() < 0) {  // nothing could wake its thread
    ::close(fd);
    return;
  }
  Connection* raw = connection.get();
  connection->client = scheduler_.register_client(
      [this, raw](const std::string& line) { enqueue(*raw, line); });
  // noexcept: an escaping exception ends the daemon, as it would from a
  // std::thread, instead of waiting in the future while the scheduler
  // still holds this connection.
  connection->thread =
      std::async(std::launch::async, [this, raw]() noexcept {
        name_this_thread("serve-conn");
        serve_connection(*raw);
      });
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.push_back(std::move(connection));
}

// Joins and destroys connections whose thread ended (client hung up).
void ServerImpl::reap_finished() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->thread.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      close_connection(**it, Clock::now());
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

// Lets the connection's thread flush the outbox until `flush_until`, then
// shuts the socket: a send stuck on a client that stopped reading fails,
// and the thread ends.
void ServerImpl::close_connection(Connection& connection,
                                  Clock::time_point flush_until) {
  {
    std::lock_guard<std::mutex> lock(connection.out_mutex);
    connection.closing = true;
  }
  connection.wake.notify();
  if (connection.thread.wait_until(flush_until) !=
      std::future_status::ready) {
    ::shutdown(connection.fd, SHUT_RDWR);
  }
  connection.thread.wait();
  ::close(connection.fd);
}

int ServerImpl::serve(const std::atomic<bool>& stop) {
  pollfd poller{listen_fd_, POLLIN, 0};
  while (!stop.load(std::memory_order_relaxed) &&
         !shutdown_requested_.load(std::memory_order_relaxed)) {
    const int ready = ::poll(&poller, 1, kPollMs);
    if (ready > 0 && (poller.revents & POLLIN) != 0) accept_one();
    reap_finished();
  }

  // Graceful drain: no new clients, cancel and resolve everything (the
  // resulting cancelled/done events land in the outboxes), then flush
  // the outboxes, for at most kDrainFlush in all, before closing.
  ::close(listen_fd_);
  listen_fd_ = -1;
  scheduler_.drain();
  const Clock::time_point flush_until = Clock::now() + kDrainFlush;
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const auto& connection : connections_) {
    close_connection(*connection, flush_until);
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
