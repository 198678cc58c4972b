// fsdep serve — a long-running analysis daemon. One process keeps the
// ComponentCache, the DiskCache, a scenario-result memo and a response
// memo warm across queries.
//
// Protocol: newline-delimited JSON over a local Unix stream socket, one
// response line per request line, any number per connection:
//
//   -> {"id":"1","type":"extract","scenario":"s1","json":false}
//   <- {"id":"1","ok":true,"cached":false,"wall_us":8123,"stdout":"..."}
//
// A request for a served command (tools/commands.h) is parsed into the
// Request the CLI builds from argv and run by the same function, so
// `stdout` is byte-identical to the one-shot command; the daemon itself
// answers ping, stats, invalidate and shutdown (docs/serve.md). A
// malformed request gets {"ok":false,"error":...} on the same
// connection; a line longer than kMaxRequestLineBytes gets that answer
// and then the connection is closed.
//
// Concurrency: every connection gets its own handler thread, not the
// global ThreadPool (parallelFor inside a request drains the pool, and a
// long-lived connection job would deadlock it); the accept loop joins
// the handlers that have finished.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus/pipeline.h"
#include "json/json.h"
#include "support/result.h"

namespace fsdep::tools {

/// Longest request line (without its newline) the daemon accepts.
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

struct ServeOptions {
  /// Unix socket path; the daemon unlinks a stale file on start and
  /// removes it on shutdown.
  std::string socket_path;
  /// Worker count for pipeline fan-out inside requests (0 = global).
  std::size_t jobs = 0;
};

/// FSDEP_SOCKET env var, else /tmp/fsdep.sock — shared by daemon and
/// client so `fsdep serve` + `fsdep query` agree without flags.
std::string defaultSocketPath();

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options) : options_(std::move(options)) {}
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds the socket and starts the accept loop. Errors (socket in
  /// use, bad path) are returned, not thrown.
  Result<bool> start();

  /// Blocks until a shutdown request arrives (or stop() is called).
  void wait();

  /// Stops the accept loop, joins every connection thread, removes the
  /// socket file. Idempotent.
  void stop();

  [[nodiscard]] const std::string& socketPath() const { return options_.socket_path; }
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

  /// Handles one request line and returns the response line (no
  /// trailing newline). Public so tests can exercise the protocol
  /// without sockets.
  std::string handleLine(const std::string& line);

  [[nodiscard]] std::uint64_t requestsServed() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t memoHits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }

 private:
  void acceptLoop();
  void handleConnection(int fd);
  /// Joins the connection threads that have finished.
  void reapConnections();
  /// Dispatches a parsed request; fills `out` (ok/stdout or error).
  void dispatch(const std::string& type, const json::Object& request, json::Object& out);

  ServeOptions options_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex conn_mu_;
  std::map<std::uint64_t, std::thread> connections_;  ///< by connection number
  std::vector<std::uint64_t> finished_;               ///< handlers that returned
  std::uint64_t next_connection_ = 0;

  /// Response memo: canonical request -> stdout payload. Serving a warm
  /// query is a map lookup; `invalidate` clears it together with the
  /// analysis memo and the component + disk caches.
  std::mutex memo_mu_;
  std::map<std::string, std::string> memo_;
  /// Analysis memo: scenario results of this cache generation, shared by
  /// every served command (blame on twenty parameters runs Table 5 once).
  corpus::ScenarioMemo analysis_memo_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> errors_{0};
};

/// One decoded daemon response.
struct ServeResponse {
  bool ok = false;
  std::string id;
  std::string stdout_text;  ///< the one-shot CLI's stdout, byte-identical
  std::string error;
  bool cached = false;      ///< answered from the daemon's response memo
  std::uint64_t wall_us = 0;
};

/// Connects to `socket_path`, sends one request line, reads one response
/// line. Returns a transport error (no daemon, refused) as Result error;
/// a daemon-side failure comes back as ServeResponse{ok:false,error}.
Result<ServeResponse> serveRequest(const std::string& socket_path,
                                   const json::Object& request);

/// Raw round trip for tests and the --raw client flag: sends `line`
/// verbatim (a newline is appended) and returns the raw response line.
Result<std::string> serveRoundTrip(const std::string& socket_path, const std::string& line);

}  // namespace fsdep::tools
