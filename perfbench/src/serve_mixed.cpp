// serve-mixed: the client's path. An in-process ServeDaemon on a Unix
// socket answers NDJSON requests from one generator thread over
// kConnections persistent connections: extract (s1-s4/all x text/json x
// inter/intra), blame on registry parameters, depgraph and docck, the
// four types equally often, extract and blame keys Zipf-skewed over a
// fixed popularity order, all drawn by the workload seed, with every
// kInvalidateEvery-th request an invalidate (the write: the
// daemon empties its memo and the ComponentCache). The daemon runs as
// `fsdep serve` does by default, without an on-disk result cache: with
// one, every miss writes and every invalidate unlinks files, and on a
// shared disk those stalls, not the daemon, set the tail.
//
// Every response is compared byte for byte with the rendering the
// benchmark computed through the pipeline during set-up; a refused,
// failed or mismatched request counts as failed (and, in the open loop,
// as over any latency limit).
//
// End to end, closed-loop rounds are timed: a mixed round (the refill
// path after each write) and a round of memo hits (the hit path). The
// traced run adds the open-loop view per layer: Poisson traffic at the
// nominal rate timed from each request's due time (p50/p99 as medians
// over segments, generator lateness, queueing, backlog), then a climb of
// a fixed rate ladder until p99 exceeds kLadderLimitMs or the backlog
// grows. On a shared host the open-loop tail follows the host's steal
// time, so those figures are reported without a bound.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "corpus/component_cache.h"
#include "corpus/corpus.h"
#include "corpus/pipeline.h"
#include "extract/scoring.h"
#include "model/config_model.h"
#include "model/serialization.h"
#include "obs/metrics.h"
#include "tools/condocck.h"
#include "tools/depgraph.h"
#include "tools/serve.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace corpus = fsdep::corpus;
namespace extract = fsdep::extract;
namespace model = fsdep::model;
namespace taint = fsdep::taint;
namespace tools = fsdep::tools;

namespace {

// The traffic parameters. Only the Zipf exponent has a published basis;
// every other value is this benchmark's own choice (perfbench/README.md
// lists them as such).
constexpr std::size_t kConnections = 3;  // + the generator thread = nproc
constexpr std::size_t kDaemonJobs = 4;
/// Nominal open-loop rate (chosen: well below the measured ladder knee).
constexpr double kNominalRps = 400.0;
constexpr double kWarmupSeconds = 2.0;
/// Every kInvalidateEvery-th request is an invalidate (chosen: a 1%
/// write share; a fixed stride, so every phase refills the caches the
/// same number of times).
constexpr std::size_t kInvalidateEvery = 100;
/// The generator busy-waits the last stretch before a due time.
constexpr std::int64_t kSpinNs = 300'000;
/// Key popularity: YCSB's default Zipfian constant (Cooper et al.,
/// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010). The four
/// request types are drawn with equal weight.
constexpr double kZipfS = 0.99;
constexpr std::uint64_t kPopularitySeed = 0x5EEDF00DULL;
/// The p99 limit of the ladder: about four cold seed Table 5 passes. The
/// latency curve is flat up to the knee and steep after it; a limit at
/// the knee's foot would make the crossing rate as noisy as the tail.
constexpr double kLadderLimitMs = 50.0;
constexpr std::size_t kRungRequests = 800;
/// How long unanswered requests are waited for before counting as failed.
constexpr std::int64_t kDrainNs = 10'000'000'000;
/// Closed-loop rounds, the e2e measurement (chosen sizes: a mixed round
/// holds ten invalidates; a hit round takes a third as long as a mixed one).
constexpr std::size_t kMixedRoundRequests = 1000;
constexpr std::size_t kHitRoundRequests = 16000;
/// Requests in flight per connection in the rounds (chosen): the daemon
/// reads them back to back, so a round measures its work rather than one
/// thread wake-up per request (which on a shared host follows the host's
/// load).
constexpr std::size_t kPipelineDepth = 8;
constexpr double kSegmentSeconds = 2.5;
constexpr double kLadder[] = {700, 800, 900, 1000, 1150, 1300, 1500, 1750, 2000, 2400, 2800};
/// Latency recorded for a failed request: over any limit.
constexpr double kFailedLatencyMs = 1e6;

// --- Request universe and its references ---------------------------------

struct RequestKind {
  json::Object request;  ///< without "id"
  std::string expected;  ///< the one-shot rendering; empty for invalidate
  bool invalidate = false;
};

std::string renderExtract(const std::vector<model::Dependency>& deps, bool as_json) {
  if (as_json) return json::writePretty(model::toJson(deps));
  std::string out;
  for (const model::Dependency& dep : deps) out += dep.summary() + "\n";
  out += '\n';
  out += std::to_string(deps.size());
  out += " dependencies extracted\n";
  return out;
}

std::string renderBlame(const std::string& param, const corpus::Table5Result& table5) {
  std::string out;
  const model::Parameter* registered = corpus::ecosystem().findParameter(param);
  if (registered != nullptr) {
    out = param + "  (" + registered->flag + ", " + model::configStageName(registered->stage) +
          " stage): " + registered->description + "\n\n";
  } else {
    out = param + "  (not in the parameter registry)\n\n";
  }
  int shown = 0;
  for (const model::Dependency& dep : table5.unique_deps) {
    if (dep.param != param && dep.other_param != param) continue;
    out += "  " + dep.summary() + "\n";
    for (const std::string& step : dep.trace) out += "      " + step + "\n";
    ++shown;
  }
  bool documented = false;
  for (const corpus::ManualEntry& entry : corpus::allManuals()) {
    if (entry.claim.param == param || entry.claim.other_param == param) {
      out += "  manual: \"" + entry.text + "\"\n";
      documented = true;
    }
  }
  if (shown == 0) out += "  no extracted dependencies involve this parameter\n";
  if (!documented) out += "  no manual claim mentions this parameter\n";
  return out;
}

std::string renderDocck() {
  const tools::DocCheckReport report = tools::runCorpusDocCheck();
  std::string out = report.summary() + "\n";
  for (const tools::DocIssue& issue : report.issues) {
    out += "  [" + std::string(tools::docIssueKindName(issue.kind)) + "] " + issue.explanation +
           "\n";
  }
  return out;
}

struct Universe {
  std::vector<RequestKind> extracts;  ///< in popularity order
  std::vector<RequestKind> blames;    ///< likewise
  std::vector<RequestKind> depgraphs;
  RequestKind docck;
  RequestKind invalidate;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.below(i)]);
}

/// Every request the mix can send, each with its reference rendering
/// computed here through the pipeline (runScenario / runTable5 and the
/// public renderers), never through the daemon.
Universe buildUniverse() {
  Universe u;
  const std::vector<corpus::Scenario> scenario_list = corpus::scenarios();
  for (const bool inter : {true, false}) {
    taint::AnalysisOptions topts;
    topts.inter_procedural = inter;
    extract::ExtractOptions eopts = corpus::extractOptions();
    eopts.enable_bridging = true;
    topts.field_bridging = true;
    std::vector<std::vector<model::Dependency>> per_scenario;
    std::vector<std::pair<std::string, const std::vector<model::Dependency>*>> targets;
    for (const corpus::Scenario& s : scenario_list) {
      per_scenario.push_back(
          corpus::runScenario(s, topts, &eopts, {.jobs = kJobs, .use_disk_cache = false}));
    }
    const std::vector<model::Dependency> all = extract::dedupeAcrossScenarios(per_scenario);
    for (std::size_t i = 0; i < scenario_list.size(); ++i) {
      targets.emplace_back(scenario_list[i].id, &per_scenario[i]);
    }
    targets.emplace_back("all", &all);
    for (const auto& [scenario, deps] : targets) {
      for (const bool as_json : {false, true}) {
        RequestKind kind;
        kind.request["type"] = "extract";
        kind.request["scenario"] = scenario;
        kind.request["json"] = as_json;
        kind.request[inter ? "inter" : "intra"] = true;
        kind.expected = renderExtract(*deps, as_json);
        u.extracts.push_back(std::move(kind));
      }
    }

    taint::AnalysisOptions table_opts;
    table_opts.inter_procedural = inter;
    const corpus::Table5Result table5 =
        corpus::runTable5(table_opts, nullptr, {.jobs = kJobs, .use_disk_cache = false});
    RequestKind graph;
    graph.request["type"] = "depgraph";
    graph.request[inter ? "inter" : "intra"] = true;
    graph.expected = tools::renderDependencyGraphDot(table5.unique_deps, {});
    u.depgraphs.push_back(std::move(graph));
    if (inter) {
      for (const model::Component& component : corpus::ecosystem().components()) {
        for (const model::Parameter& param : component.parameters) {
          RequestKind blame;
          blame.request["type"] = "blame";
          blame.request["param"] = param.qualifiedName();
          blame.request["inter"] = true;
          blame.expected = renderBlame(param.qualifiedName(), table5);
          u.blames.push_back(std::move(blame));
        }
      }
    }
  }
  u.docck.request["type"] = "docck";
  u.docck.expected = renderDocck();
  u.invalidate.request["type"] = "invalidate";
  u.invalidate.invalidate = true;
  // Popularity ranks are fixed; the workload seed draws the requests.
  Rng rng(kPopularitySeed);
  shuffle(u.extracts, rng);
  shuffle(u.blames, rng);
  return u;
}

/// The traffic mix: draws one request kind.
class Mix {
 public:
  explicit Mix(const Universe& u)
      : u_(u), extract_zipf_(u.extracts.size(), kZipfS), blame_zipf_(u.blames.size(), kZipfS) {}

  const RequestKind& draw(std::size_t index, Rng& rng) const {
    if (index % kInvalidateEvery == kInvalidateEvery - 1) return u_.invalidate;
    return drawQuery(rng);
  }

  /// A read-only request (never an invalidate).
  const RequestKind& drawQuery(Rng& rng) const {
    switch (rng.below(4)) {
      case 0: return u_.extracts[extract_zipf_.draw(rng)];
      case 1: return u_.blames[blame_zipf_.draw(rng)];
      case 2: return u_.depgraphs[rng.below(u_.depgraphs.size())];
      default: return u_.docck;
    }
  }

 private:
  const Universe& u_;
  Zipf extract_zipf_;
  Zipf blame_zipf_;
};

// --- The open-loop generator ---------------------------------------------

int connectTo(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Request {
  std::int64_t due = 0;
  std::int64_t send = -1;
  std::int64_t recv = -1;
  std::int64_t prev_recv = -1;  ///< the previous response on the same connection
  std::size_t conn = 0;
  std::uint64_t server_us = 0;
  double write_us = 0.0;
  double parse_us = 0.0;
  bool ok = false;
  bool cached = false;
  bool invalidate = false;
  std::size_t backlog = 0;  ///< outstanding requests when this one was sent
  [[nodiscard]] bool done() const { return recv >= 0; }
  [[nodiscard]] double latencyMs() const {
    return ok ? static_cast<double>(recv - due) / 1e6 : kFailedLatencyMs;
  }
};

struct Connection {
  int fd = -1;
  std::string out;          ///< bytes not yet written
  std::deque<std::pair<std::size_t, std::size_t>> unsent;  ///< (bytes left when sent, request)
  std::string in;
  std::deque<std::size_t> inflight;
  std::int64_t last_recv = 0;
};

struct Phase {
  std::vector<Request> requests;
  double elapsed_s = 0.0;
  std::size_t backlog_max = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
};

class Generator {
 public:
  Generator(const std::string& socket_path, const Mix& mix)
      : socket_path_(socket_path), mix_(mix) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      Connection c;
      c.fd = connectTo(socket_path);
      conns_.push_back(std::move(c));
    }
  }
  ~Generator() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  [[nodiscard]] bool connected() const {
    return std::all_of(conns_.begin(), conns_.end(), [](const Connection& c) { return c.fd >= 0; });
  }

  /// Sends a Poisson stream at `rate` for `seconds` (or `max_requests`,
  /// whichever ends first) and waits for every response.
  Phase run(double rate, double seconds, std::size_t max_requests, Rng& rng) {
    Phase phase;
    kinds_.clear();
    std::vector<Request>& reqs = phase.requests;
    reqs.reserve(max_requests);
    const std::int64_t start = trace::nowNs() + 1'000'000;
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const auto gap = [&] {
      return static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) / rate * 1e9);
    };
    std::int64_t next_due = start + gap();
    std::size_t outstanding = 0;
    std::int64_t drained_by = -1;  // set once sending stops
    for (;;) {
      const std::int64_t now = trace::nowNs();
      while (next_due <= now && next_due < end && reqs.size() < max_requests) {
        dispatch(reqs, mix_.draw(reqs.size(), rng), next_due, leastLoaded(), outstanding);
        next_due += gap();
      }
      flushAll(reqs);
      const bool sending = next_due < end && reqs.size() < max_requests;
      if (!sending && outstanding == 0) break;
      if (!sending && drained_by < 0) drained_by = now + kDrainNs;
      if (drained_by >= 0 && now > drained_by) break;
      phase.backlog_max = std::max(phase.backlog_max, outstanding);

      std::vector<pollfd> fds;
      for (const Connection& c : conns_) {
        fds.push_back(pollfd{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
      }
      // Sleep until shortly before the next due time, then spin: a timer
      // wake-up alone would add its own lateness to every request.
      std::int64_t wait_ns = sending ? std::max<std::int64_t>(
                                           0, next_due - trace::nowNs() - kSpinNs)
                                     : 5'000'000;
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) receive(i, reqs, outstanding);
      }
    }
    phase.elapsed_s = reqs.empty() ? 0.0 : static_cast<double>(reqs.back().due - start) / 1e9;
    finish(phase);
    return phase;
  }

  /// Closed loop: every connection keeps kPipelineDepth requests
  /// outstanding and sends the next of `kinds` as each response arrives.
  Phase runClosed(const std::vector<const RequestKind*>& kinds) {
    Phase phase;
    kinds_.clear();
    std::vector<Request>& reqs = phase.requests;
    reqs.reserve(kinds.size());
    std::size_t next = 0;
    std::size_t outstanding = 0;
    const std::int64_t start = trace::nowNs();
    const std::int64_t deadline = start + kDrainNs;
    for (;;) {
      for (std::size_t ci = 0; ci < conns_.size() && next < kinds.size(); ++ci) {
        while (conns_[ci].inflight.size() < kPipelineDepth && next < kinds.size()) {
          dispatch(reqs, *kinds[next++], trace::nowNs(), ci, outstanding);
        }
      }
      flushAll(reqs);
      if (next >= kinds.size() && outstanding == 0) break;
      if (trace::nowNs() > deadline) break;
      std::vector<pollfd> fds;
      for (const Connection& c : conns_) {
        fds.push_back(pollfd{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
      }
      if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) receive(i, reqs, outstanding);
      }
    }
    phase.elapsed_s = static_cast<double>(trace::nowNs() - start) / 1e9;
    finish(phase);
    return phase;
  }

 private:
  /// Marks unanswered requests failed and resets the connections. A
  /// connection that still owes responses is replaced, so a late answer
  /// is never taken for the next phase's request.
  void finish(Phase& phase) {
    for (Request& r : phase.requests) {
      if (!r.done()) {
        r.ok = false;
        r.recv = trace::nowNs();
      }
      if (!r.ok) ++phase.failed;
    }
    phase.mismatched = mismatched_;
    mismatched_ = 0;
    for (Connection& c : conns_) {
      if (!c.inflight.empty()) {
        ::close(c.fd);
        c.fd = connectTo(socket_path_);
        c.in.clear();
        c.last_recv = 0;
      }
      c.inflight.clear();
      c.unsent.clear();
      c.out.clear();
    }
  }

  [[nodiscard]] std::size_t leastLoaded() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < conns_.size(); ++i) {
      if (conns_[i].inflight.size() < conns_[best].inflight.size()) best = i;
    }
    return best;
  }

  void dispatch(std::vector<Request>& reqs, const RequestKind& kind, std::int64_t due,
                std::size_t conn, std::size_t& outstanding) {
    Request r;
    r.due = due;
    r.invalidate = kind.invalidate;
    r.conn = conn;
    Connection& c = conns_[conn];
    const std::int64_t w0 = trace::nowNs();
    json::Object request = kind.request;
    request["id"] = std::to_string(reqs.size());
    std::string line = json::writeCompact(json::Value(std::move(request)));
    r.write_us = static_cast<double>(trace::nowNs() - w0) / 1e3;
    line.push_back('\n');
    c.out += line;
    c.unsent.emplace_back(c.out.size(), reqs.size());
    c.inflight.push_back(reqs.size());
    r.backlog = outstanding;
    ++outstanding;
    kinds_.push_back(&kind);
    reqs.push_back(r);
  }

  void flushAll(std::vector<Request>& reqs) {
    for (Connection& c : conns_) {
      std::size_t written = 0;
      while (written < c.out.size()) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + written, c.out.size() - written, MSG_NOSIGNAL);
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
      }
      if (written == 0) continue;
      const std::int64_t now = trace::nowNs();
      c.out.erase(0, written);
      while (!c.unsent.empty() && c.unsent.front().first <= written) {
        reqs[c.unsent.front().second].send = now;
        c.unsent.pop_front();
      }
      for (auto& [end, index] : c.unsent) end -= written;
    }
  }

  void receive(std::size_t ci, std::vector<Request>& reqs, std::size_t& outstanding) {
    Connection& c = conns_[ci];
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      c.in.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t pos = 0;
    std::size_t nl = 0;
    while ((nl = c.in.find('\n', pos)) != std::string::npos) {
      const std::int64_t now = trace::nowNs();
      const std::string_view line(c.in.data() + pos, nl - pos);
      pos = nl + 1;
      if (c.inflight.empty()) continue;
      const std::size_t index = c.inflight.front();
      c.inflight.pop_front();
      --outstanding;
      Request& r = reqs[index];
      r.recv = now;
      r.prev_recv = c.last_recv;
      c.last_recv = now;
      const std::int64_t p0 = trace::nowNs();
      const fsdep::Result<json::Value> parsed = json::parse(line);
      r.parse_us = static_cast<double>(trace::nowNs() - p0) / 1e3;
      if (!parsed.ok() || !parsed.value().isObject()) continue;
      const json::Object& response = parsed.value().asObject();
      const json::Value* ok = response.find("ok");
      const json::Value* out = response.find("stdout");
      const json::Value* cached = response.find("cached");
      const json::Value* wall = response.find("wall_us");
      const json::Value* id = response.find("id");
      r.ok = ok != nullptr && ok->asBool() && id != nullptr && id->isString() &&
             id->asString() == std::to_string(index);
      r.cached = cached != nullptr && cached->asBool();
      r.server_us = wall != nullptr ? static_cast<std::uint64_t>(wall->asInt()) : 0;
      const RequestKind& kind = *kinds_[index];
      if (r.ok && !kind.invalidate &&
          (out == nullptr || !out->isString() || out->asString() != kind.expected)) {
        r.ok = false;
        ++mismatched_;
      }
    }
    c.in.erase(0, pos);
  }

  std::string socket_path_;
  const Mix& mix_;
  std::vector<Connection> conns_;
  std::vector<const RequestKind*> kinds_;  ///< parallel to the phase's requests
  std::uint64_t mismatched_ = 0;
};

// --- Phase statistics -----------------------------------------------------

struct NominalStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

NominalStats latencyOf(const Phase& phase) {
  std::vector<double> latency;
  latency.reserve(phase.requests.size());
  for (const Request& r : phase.requests) latency.push_back(r.latencyMs());
  return {quantile(latency, 0.5), quantile(latency, 0.99)};
}

/// The backlog grows when the rung's last quarter saw more than twice
/// the outstanding requests of its first quarter (plus one per
/// connection).
bool backlogGrows(const Phase& phase) {
  const std::size_t q = phase.requests.size() / 4;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += static_cast<double>(phase.requests[i].backlog);
    last += static_cast<double>(phase.requests[phase.requests.size() - 1 - i].backlog);
  }
  return last > 2.0 * first + static_cast<double>(kConnections * q);
}

struct Rung {
  double rate = 0.0;  ///< achieved: requests over the span of their due times
  double p99_ms = 0.0;
  bool passes = false;
};

Rung rungOf(const Phase& phase) {
  Rung rung;
  rung.rate = static_cast<double>(phase.requests.size()) / std::max(phase.elapsed_s, 1e-9);
  const NominalStats stats = latencyOf(phase);
  rung.p99_ms = stats.p99_ms;
  const bool grows = backlogGrows(phase);
  rung.passes = phase.failed == 0 && rung.p99_ms <= kLadderLimitMs && !grows;
  std::fprintf(stderr,
               "serve-mixed rung: %7.1f req/s  %zu requests  p50 %.3f ms  p99 %.3f ms  "
               "backlog max %zu%s%s\n",
               rung.rate, phase.requests.size(), stats.p50_ms, stats.p99_ms, phase.backlog_max,
               grows ? "  (backlog grows)" : "", rung.passes ? "" : "  FAILS");
  return rung;
}

/// Climbs the ladder until a rung fails. The maximum rate is where p99
/// crosses kLadderLimitMs, interpolated on log scales between the last
/// passing and the first failing rung; the top rung's achieved rate when
/// every rung passes, and the first rung's rate scaled down by its p99
/// overshoot when none does.
double maxRate(Generator& gen, Rng& rng, RunResult& result) {
  Rung below;
  for (const double rate : kLadder) {
    const Phase phase = gen.run(rate, 1e9, kRungRequests, rng);
    for (const Request& r : phase.requests) result.check(r.ok, "serve-mixed: ladder request");
    const Rung rung = rungOf(phase);
    if (!rung.passes) {
      if (below.rate == 0.0) return rung.rate * std::min(1.0, kLadderLimitMs / rung.p99_ms);
      const double p_lo = std::max(below.p99_ms, 1e-3);
      const double p_hi = std::max(rung.p99_ms, kLadderLimitMs * 1.0001);
      const double t = (std::log(kLadderLimitMs) - std::log(p_lo)) / (std::log(p_hi) - std::log(p_lo));
      return std::exp(std::log(below.rate) + t * (std::log(rung.rate) - std::log(below.rate)));
    }
    below = rung;
  }
  return below.rate;
}

/// The nominal-rate segments and the ladder climb of the open-loop view.
struct Measurement {
  double p50_ms = 0.0;  ///< median over segments
  double p99_ms = 0.0;  ///< median over segments
  double max_rps = 0.0;
  std::vector<Request> requests;  ///< every nominal-rate request
  std::size_t backlog_max = 0;
};

Measurement measure(Generator& gen, Rng& rng, RunResult& result, std::size_t segments) {
  Measurement m;
  std::vector<double> p50;
  std::vector<double> p99;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < segments; ++i) {
    const Phase phase = gen.run(kNominalRps, kSegmentSeconds, 1 << 20, rng);
    for (const Request& r : phase.requests) result.check(r.ok, "serve-mixed: request");
    const NominalStats stats = latencyOf(phase);
    std::fprintf(stderr, "serve-mixed segment: %zu requests  p50 %.3f ms  p99 %.3f ms\n",
                 phase.requests.size(), stats.p50_ms, stats.p99_ms);
    p50.push_back(stats.p50_ms);
    p99.push_back(stats.p99_ms);
    mismatched += phase.mismatched;
    m.backlog_max = std::max(m.backlog_max, phase.backlog_max);
    m.requests.insert(m.requests.end(), phase.requests.begin(), phase.requests.end());
  }
  if (mismatched > 0) {
    std::fprintf(stderr, "serve-mixed: %llu response(s) differ from the references\n",
                 static_cast<unsigned long long>(mismatched));
  }
  m.max_rps = maxRate(gen, rng, result);
  m.p50_ms = median(p50);
  m.p99_ms = median(p99);
  return m;
}

// --- Set-up ---------------------------------------------------------------

struct Served {
  std::unique_ptr<tools::ServeDaemon> daemon;
  std::string socket_path;
};

double setupOnce(RunResult& result, const Goldens& goldens,
                 std::unique_ptr<Universe>& universe, Served& served) {
  trace::Span span("serve.setup");
  const auto start = Clock::now();
  (void)checkTable5(result, goldens);
  {
    trace::Span refs("serve.references");
    universe = std::make_unique<Universe>(buildUniverse());
  }
  {
    trace::Span boot("serve.start");
    served.daemon.reset();
    served.daemon = std::make_unique<tools::ServeDaemon>(
        tools::ServeOptions{.socket_path = served.socket_path, .jobs = kDaemonJobs});
    const fsdep::Result<bool> started = served.daemon->start();
    result.check(started.ok(), "serve-mixed: daemon failed to start");
  }
  return msBetween(start, Clock::now()) / 1e3;
}

std::uint64_t statsField(const std::string& socket_path, const char* field) {
  json::Object request;
  request["type"] = "stats";
  const fsdep::Result<tools::ServeResponse> response = tools::serveRequest(socket_path, request);
  if (!response.ok()) return 0;
  const fsdep::Result<json::Value> stats = json::parse(response.value().stdout_text);
  if (!stats.ok() || !stats.value().isObject()) return 0;
  const json::Value* v = stats.value().asObject().find(field);
  return v != nullptr ? static_cast<std::uint64_t>(v->asInt()) : 0;
}

/// Per-layer view of one phase: client-side timings from the requests,
/// and, when tracing, one span per request split into generator
/// lateness, queueing behind the connection, daemon time and transport.
void recordSpansOf(const std::vector<Request>& requests, std::uint64_t parent) {
  for (const Request& r : requests) {
    if (!r.done() || r.send < 0) continue;
    const std::uint64_t id = trace::record("serve.request", r.due, r.recv, parent);
    const std::int64_t begin = std::max(r.send, r.prev_recv);
    const std::int64_t server_ns = static_cast<std::int64_t>(r.server_us) * 1000;
    trace::record("serve.gen_late", r.due, r.send, id);
    if (begin > r.send) trace::record("serve.queue", r.send, begin, id);
    const std::int64_t server_end = std::min(r.recv, begin + server_ns);
    trace::record("serve.server", begin, server_end, id);
    trace::record("serve.transport", server_end, r.recv, id);
  }
}

}  // namespace

/// Every key of the universe once: afterwards the memo holds them all.
std::vector<const RequestKind*> everyKey(const Universe& u) {
  std::vector<const RequestKind*> kinds;
  for (const auto* list : {&u.extracts, &u.blames, &u.depgraphs}) {
    for (const RequestKind& kind : *list) kinds.push_back(&kind);
  }
  kinds.push_back(&u.docck);
  return kinds;
}

/// One closed-loop round; returns its wall time in ms.
double closedRound(Generator& gen, const std::vector<const RequestKind*>& kinds,
                   RunResult& result, std::uint64_t parent_span, const char* what) {
  const Phase phase = gen.runClosed(kinds);
  for (const Request& r : phase.requests) result.check(r.ok, what);
  if (phase.mismatched > 0) {
    std::fprintf(stderr, "serve-mixed: %llu response(s) differ from the references\n",
                 static_cast<unsigned long long>(phase.mismatched));
  }
  recordSpansOf(phase.requests, parent_span);
  return phase.elapsed_s * 1e3;
}

struct RoundTimes {
  std::vector<double> mixed_ms;
  std::vector<double> hit_ms;
};

/// A mixed round (reads with every kInvalidateEvery-th request an
/// invalidate: the refill path), then a round of memo hits after every
/// key has been primed (the hit path).
void roundPair(Generator& gen, const Mix& mix, const Universe& u, Rng& rng, RunResult& result,
               RoundTimes& times) {
  std::vector<const RequestKind*> mixed;
  for (std::size_t i = 0; i < kMixedRoundRequests; ++i) mixed.push_back(&mix.draw(i, rng));
  std::vector<const RequestKind*> hits;
  for (std::size_t i = 0; i < kHitRoundRequests; ++i) hits.push_back(&mix.drawQuery(rng));
  {
    trace::Span span("serve.mixed_round");
    times.mixed_ms.push_back(closedRound(gen, mixed, result, span.id(), "serve-mixed: request"));
  }
  (void)closedRound(gen, everyKey(u), result, 0, "serve-mixed: priming request");
  trace::Span span("serve.hit_round");
  times.hit_ms.push_back(closedRound(gen, hits, result, span.id(), "serve-mixed: request"));
}

void measureServe(const Args& args, Generator& gen, const Mix& mix, const Universe& u, Rng& rng,
                  RunResult& result, const std::vector<double>& setup_s,
                  const std::vector<double>& traced_setup_s, const std::string& socket_path) {
  (void)closedRound(gen, everyKey(u), result, 0, "serve-mixed: priming request");
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds * (args.trace ? 0.5 : 1.0));
  RoundTimes untraced;
  RoundTimes traced;
  std::vector<trace::SpanRecord> spans;
  while (untraced.mixed_ms.empty() || Clock::now() < deadline) {
    roundPair(gen, mix, u, rng, result, untraced);
    if (!args.trace) continue;
    trace::setEnabled(true);
    roundPair(gen, mix, u, rng, result, traced);
    trace::setEnabled(false);
  }
  const double mixed = median(untraced.mixed_ms);
  if (!args.trace) {
    result.add("main_ms", mixed);
    result.add("second_ms", median(untraced.hit_ms));
    result.add("rate_per_s", static_cast<double>(kMixedRoundRequests) / (mixed / 1e3));
    result.add("peak_rss_mb", peakRssMb());
    return;
  }
  spans = trace::drain();

  // The open-loop view, per layer: Poisson traffic at the nominal rate
  // timed from due times, then one ladder climb.
  fsdep::obs::Registry& registry = fsdep::obs::Registry::global();
  registry.reset("pipeline.");
  const std::uint64_t hits0 = statsField(socket_path, "component_cache_hits");
  const std::uint64_t misses0 = statsField(socket_path, "component_cache_misses");
  (void)gen.run(kNominalRps, kWarmupSeconds, 1 << 20, rng);
  const std::size_t segments = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds * 0.25 / kSegmentSeconds));
  const Measurement open = measure(gen, rng, result, segments);
  const std::uint64_t hits1 = statsField(socket_path, "component_cache_hits");
  const std::uint64_t misses1 = statsField(socket_path, "component_cache_misses");

  std::vector<double> hit_ms, miss_ms, server_us, transport_ms, inval_ms, late_ms;
  double parse_us = 0.0, write_us = 0.0, queue_ms = 0.0;
  std::size_t analysis = 0, cached = 0;
  for (const Request& r : open.requests) {
    if (!r.done() || r.send < 0) continue;
    const std::int64_t begin = std::max(r.send, r.prev_recv);
    const double round_trip = static_cast<double>(r.recv - r.send) / 1e6;
    parse_us += r.parse_us;
    write_us += r.write_us;
    queue_ms += static_cast<double>(begin - r.send) / 1e6;
    late_ms.push_back(static_cast<double>(r.send - r.due) / 1e6);
    server_us.push_back(static_cast<double>(r.server_us));
    transport_ms.push_back(static_cast<double>(r.recv - begin) / 1e6 -
                           static_cast<double>(r.server_us) / 1e3);
    if (r.invalidate) {
      inval_ms.push_back(round_trip);
    } else {
      ++analysis;
      if (r.cached) {
        ++cached;
        hit_ms.push_back(round_trip);
      } else {
        miss_ms.push_back(round_trip);
      }
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, open.requests.size()));
  result.add("serve.p50_ms", open.p50_ms);
  result.add("serve.p99_ms", open.p99_ms);
  result.add("serve.max_rps", open.max_rps);
  result.add("serve.memo_hit_ratio",
             analysis > 0 ? static_cast<double>(cached) / static_cast<double>(analysis) : 0.0);
  result.add("serve.hit_ms", median(hit_ms));
  result.add("serve.miss_ms", median(miss_ms));
  result.add("serve.server_us", median(server_us));
  result.add("serve.transport_ms", median(transport_ms));
  result.add("serve.invalidate_ms", median(inval_ms));
  result.add("serve.gen_late_ms", quantile(late_ms, 0.99));
  result.add("serve.queue_ms", queue_ms / n);
  result.add("serve.backlog_max", static_cast<double>(open.backlog_max));
  result.add("json.parse_us", parse_us / n);
  result.add("json.write_us", write_us / n);
  result.add("corpus.pipeline_ms",
             static_cast<double>(registry.counterSum("pipeline.parse_ns") +
                                 registry.counterSum("pipeline.analyze_ns") +
                                 registry.counterSum("pipeline.extract_ns")) /
                 1e6);
  result.add("corpus.cache_hits", static_cast<double>(hits1 - hits0));
  result.add("corpus.cache_misses", static_cast<double>(misses1 - misses0));

  const auto layers = trace::aggregate(spans);
  result.add("trace.coverage_ratio",
             std::min(trace::coverage(spans, "serve.mixed_round"),
                      trace::coverage(spans, "serve.hit_round")));
  result.add("trace.unexplained_max_ratio", trace::maxUnexplainedShare(layers));
  const double traced_mixed = median(traced.mixed_ms);
  result.add("trace.overhead_main_ms", traced_mixed - mixed);
  result.add("trace.overhead_second_ms", median(traced.hit_ms) - median(untraced.hit_ms));
  result.add("trace.overhead_rate_per_s",
             static_cast<double>(kMixedRoundRequests) * (1e3 / traced_mixed - 1e3 / mixed));
  result.add("trace.overhead_peak_rss_mb",
             static_cast<double>(spans.size() * sizeof(trace::SpanRecord)) / (1024.0 * 1024.0));
  result.add("trace.overhead_setup_s", median(traced_setup_s) - median(setup_s));
  trace::printTable("serve-mixed layers (traced rounds and set-up)", layers);
  if (!args.trace_out.empty()) trace::writeChromeTrace(args.trace_out, spans);
}

RunResult runServeMixed(const Args& args, const Goldens& goldens) {
  RunResult result;
  Served served;
  std::filesystem::create_directories(args.work_dir);
  served.socket_path = args.work_dir + "/serve.sock";
  std::unique_ptr<Universe> universe;

  const int setup_reps = kSetupReps;
  std::vector<double> setup_s;
  warmUp([&] { (void)setupOnce(result, goldens, universe, served); });
  for (int i = 0; i < setup_reps; ++i) {
    setup_s.push_back(setupOnce(result, goldens, universe, served));
  }
  std::vector<double> traced_setup_s;
  if (args.trace) {
    trace::setEnabled(true);
    for (int i = 0; i < setup_reps; ++i) {
      traced_setup_s.push_back(setupOnce(result, goldens, universe, served));
    }
    trace::setEnabled(false);
  }

  const Mix mix(*universe);
  Rng rng(args.seed);
  {
    Generator gen(served.socket_path, mix);
    result.check(gen.connected(), "serve-mixed: cannot connect to the daemon");
    if (gen.connected()) measureServe(args, gen, mix, *universe, rng, result, setup_s,
                                      traced_setup_s, served.socket_path);
  }
  served.daemon->stop();
  served.daemon.reset();
  if (!args.trace) result.add("setup_s", median(setup_s));
  return result;
}

}  // namespace perfbench
