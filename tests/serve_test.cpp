// fsdep serve protocol tests: an in-process daemon on a temp socket,
// driven through both the raw line handler and real socket round trips.
// Byte-identity against the direct pipeline and the command layer,
// memoized warm queries, strict request parsing, malformed-request
// tolerance, hostile input, connection reaping, and clean shutdown.
#include "tools/serve.h"

#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/pipeline.h"
#include "extract/scoring.h"
#include "json/json.h"
#include "model/serialization.h"
#include "tools/commands.h"

namespace fsdep::tools {
namespace {

namespace fs = std::filesystem;

std::string testSocketPath(const char* name) {
  return (fs::temp_directory_path() /
          ("fsdep-serve-test-" + std::string(name) + "-" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

/// A raw client socket with a receive timeout, so a daemon that never
/// answers fails the test instead of hanging it. -1 on failure.
int connectRaw(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool sendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Everything the daemon sends until it closes the connection (or the
/// receive timeout expires).
std::string readToEof(int fd) {
  std::string text;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    text.append(chunk, static_cast<std::size_t>(n));
  }
  return text;
}

bool pingAnswered(const std::string& socket_path) {
  json::Object ping;
  ping["type"] = "ping";
  const Result<ServeResponse> pong = serveRequest(socket_path, ping);
  return pong.ok() && pong.value().ok && pong.value().stdout_text == "pong";
}

json::Object parseResponse(const std::string& line) {
  Result<json::Value> parsed = json::parse(line);
  EXPECT_TRUE(parsed.ok()) << "response is not JSON: " << line;
  EXPECT_TRUE(parsed.value().isObject());
  return parsed.value().asObject();
}

/// What the one-shot CLI prints for `fsdep extract --scenario <id>`.
std::string directExtractText(const std::string& scenario_id) {
  for (const corpus::Scenario& s : corpus::scenarios()) {
    if (s.id != scenario_id) continue;
    const std::vector<model::Dependency> deps = corpus::runScenario(s);
    std::string text;
    for (const model::Dependency& dep : deps) {
      text += dep.summary();
      text.push_back('\n');
    }
    text += "\n" + std::to_string(deps.size()) + " dependencies extracted\n";
    return text;
  }
  ADD_FAILURE() << "unknown scenario " << scenario_id;
  return {};
}

TEST(ServeProtocol, PingAndUnknownTypeAndMalformedLine) {
  ServeDaemon daemon(ServeOptions{testSocketPath("proto")});

  json::Object ping = parseResponse(daemon.handleLine(R"({"id":"7","type":"ping"})"));
  EXPECT_TRUE(ping.find("ok")->asBool());
  EXPECT_EQ(ping.find("id")->asString(), "7");
  EXPECT_EQ(ping.find("stdout")->asString(), "pong");
  EXPECT_TRUE(ping.contains("wall_us"));

  json::Object unknown = parseResponse(daemon.handleLine(R"({"type":"frobnicate"})"));
  EXPECT_FALSE(unknown.find("ok")->asBool());
  EXPECT_NE(unknown.find("error")->asString().find("unknown request type"), std::string::npos);

  json::Object missing = parseResponse(daemon.handleLine(R"({"id":"x"})"));
  EXPECT_FALSE(missing.find("ok")->asBool());

  json::Object garbage = parseResponse(daemon.handleLine("this is not json"));
  EXPECT_FALSE(garbage.find("ok")->asBool());
  EXPECT_NE(garbage.find("error")->asString().find("malformed"), std::string::npos);

  json::Object not_object = parseResponse(daemon.handleLine("[1,2,3]"));
  EXPECT_FALSE(not_object.find("ok")->asBool());
}

TEST(ServeProtocol, ExtractMatchesDirectPipelineByteForByte) {
  ServeDaemon daemon(ServeOptions{testSocketPath("extract")});
  const std::string expected = directExtractText("s1");

  json::Object cold =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s1"})"));
  ASSERT_TRUE(cold.find("ok")->asBool());
  EXPECT_EQ(cold.find("stdout")->asString(), expected);
  EXPECT_FALSE(cold.find("cached")->asBool());

  json::Object warm =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s1"})"));
  ASSERT_TRUE(warm.find("ok")->asBool());
  EXPECT_EQ(warm.find("stdout")->asString(), expected) << "memoized answer must not drift";
  EXPECT_TRUE(warm.find("cached")->asBool());
  EXPECT_EQ(daemon.memoHits(), 1u);

  // A different option string is a different memo slot, not a stale hit.
  json::Object other = parseResponse(
      daemon.handleLine(R"({"type":"extract","scenario":"s1","no_bridging":true})"));
  ASSERT_TRUE(other.find("ok")->asBool());
  EXPECT_FALSE(other.find("cached")->asBool());

  json::Object bad =
      parseResponse(daemon.handleLine(R"({"type":"extract","scenario":"s9"})"));
  EXPECT_FALSE(bad.find("ok")->asBool());
  EXPECT_NE(bad.find("error")->asString().find("unknown scenario"), std::string::npos);
}

TEST(ServeProtocol, BlameRequiresParamAndListsDependencies) {
  ServeDaemon daemon(ServeOptions{testSocketPath("blame")});

  json::Object missing = parseResponse(daemon.handleLine(R"({"type":"blame"})"));
  EXPECT_FALSE(missing.find("ok")->asBool());

  json::Object blame = parseResponse(
      daemon.handleLine(R"({"type":"blame","param":"mke2fs.sparse_super2"})"));
  ASSERT_TRUE(blame.find("ok")->asBool());
  EXPECT_NE(blame.find("stdout")->asString().find("mke2fs.sparse_super2"),
            std::string::npos);
}

// The memo key is Request::canonical(): JSON, so a value may contain any
// character, including the 0x1f that once separated fields. The first
// pair aliased under that old key (the type, then every field's value,
// joined by 0x1f); blame takes no scenario, so both are now rejected.
// The second pair uses only fields blame accepts and aliases under a
// key that joins the given values with 0x1f; it must get two answers.
TEST(ServeProtocol, MemoKeyKeepsFieldBoundaries) {
  ServeDaemon daemon(ServeOptions{testSocketPath("memo-key")});
  for (const char* line :
       {R"({"type":"blame","scenario":"x\u001fy","param":"mke2fs.blocksize"})",
        R"({"type":"blame","scenario":"x","param":"y\u001fmke2fs.blocksize"})"}) {
    json::Object rejected = parseResponse(daemon.handleLine(line));
    EXPECT_FALSE(rejected.find("ok")->asBool());
    EXPECT_NE(rejected.find("error")->asString().find("'scenario'"), std::string::npos);
  }

  json::Object first = parseResponse(
      daemon.handleLine(R"({"type":"blame","param":"mke2fs.blocksize\u001ftrue"})"));
  json::Object second = parseResponse(
      daemon.handleLine(R"({"type":"blame","param":"mke2fs.blocksize","inter":true})"));
  ASSERT_TRUE(first.find("ok")->asBool());
  ASSERT_TRUE(second.find("ok")->asBool());
  EXPECT_FALSE(second.find("cached")->asBool());
  EXPECT_NE(first.find("stdout")->asString().find("not in the parameter registry"),
            std::string::npos);
  EXPECT_EQ(second.find("stdout")->asString().find("not in the parameter registry"),
            std::string::npos);
}

// An unknown or wrongly typed field is an error, not an ignored option.
TEST(ServeProtocol, UnknownAndWronglyTypedFieldsAreRejected) {
  ServeDaemon daemon(ServeOptions{testSocketPath("strict")});
  const auto errorOf = [&](const std::string& line) {
    json::Object response = parseResponse(daemon.handleLine(line));
    EXPECT_FALSE(response.find("ok")->asBool()) << line;
    const json::Value* error = response.find("error");
    return error != nullptr && error->isString() ? error->asString() : std::string();
  };
  EXPECT_NE(errorOf(R"({"type":"extract","scenario":"s1","legacy_walk":true})")
                .find("field 'legacy_walk' is unknown"),
            std::string::npos);
  EXPECT_NE(errorOf(R"({"type":"blame","param":"mke2fs.blocksize","inter":"yes"})")
                .find("field 'inter' must be a bool"),
            std::string::npos);
  EXPECT_NE(errorOf(R"({"type":"extract","scenario":3})").find("field 'scenario' must be a string"),
            std::string::npos);
  EXPECT_NE(errorOf(R"({"type":"ping","verbose":true})").find("ping takes no fields"),
            std::string::npos);
  EXPECT_NE(errorOf(R"({"type":"table5"})").find("unknown request type 'table5'"),
            std::string::npos)
      << "only served commands are request types";
  EXPECT_EQ(daemon.memoHits(), 0u);
}

// Every served command, inter and intra: the daemon's answer is exactly
// what the command layer's run prints for the same Request.
TEST(ServeProtocol, DaemonAnswerEqualsTheCommandRunForEveryServedCommand) {
  ServeDaemon daemon(ServeOptions{testSocketPath("parity")});
  int compared = 0;
  for (const Command& command : commands()) {
    if (!command.served) continue;
    const auto takes = [&](std::string_view flag) {
      for (const FlagSpec& spec : command.flags) {
        if (spec.name == flag) return true;
      }
      return false;
    };
    for (const char* mode : {"inter", "intra"}) {
      json::Object request;
      request["type"] = std::string(command.alias.empty() ? command.name : command.alias);
      if (takes("param")) request["param"] = "mke2fs.sparse_super2";
      if (takes(mode)) request[mode] = true;
      const Result<Request> parsed = fromJson(command, request);
      ASSERT_TRUE(parsed.ok()) << parsed.error().message;
      const CommandResult direct = command.run(parsed.value());
      ASSERT_EQ(direct.exit_code, 0) << direct.error;

      const json::Object served =
          parseResponse(daemon.handleLine(json::writeCompact(json::Value(request))));
      ASSERT_TRUE(served.find("ok")->asBool()) << command.name << " " << mode;
      EXPECT_EQ(served.find("stdout")->asString(), direct.out) << command.name << " " << mode;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 8) << "extract, explain, graph and docck, each inter and intra";
}

std::uint64_t statsField(ServeDaemon& daemon, const char* field) {
  const json::Object response = parseResponse(daemon.handleLine(R"({"type":"stats"})"));
  const Result<json::Value> stats = json::parse(response.find("stdout")->asString());
  EXPECT_TRUE(stats.ok());
  const json::Value* value = stats.value().asObject().find(field);
  EXPECT_NE(value, nullptr) << field;
  return value != nullptr ? static_cast<std::uint64_t>(value->asInt()) : 0;
}

TEST(ServeProtocol, InvalidateClearsTheMemo) {
  ServeDaemon daemon(ServeOptions{testSocketPath("invalidate")});
  ASSERT_TRUE(parseResponse(daemon.handleLine(R"({"type":"docck"})")).find("ok")->asBool());
  EXPECT_TRUE(
      parseResponse(daemon.handleLine(R"({"type":"docck"})")).find("cached")->asBool());

  ASSERT_TRUE(
      parseResponse(daemon.handleLine(R"({"type":"invalidate"})")).find("ok")->asBool());
  EXPECT_FALSE(
      parseResponse(daemon.handleLine(R"({"type":"docck"})")).find("cached")->asBool())
      << "invalidate must clear the response memo";
  EXPECT_EQ(statsField(daemon, "analysis_memo_misses"), 8u)
      << "invalidate must clear the analysis memo: docck rebuilds its four scenarios";
}

// One generation of the daemon runs each analysis once. After an
// invalidate: 20 blames, depgraph for both engines, docck, and extract
// all/s1 as text and JSON for both engines all read the Table 5
// scenario results of their engine — 15 (scenario x component) pairs
// each — parsing each of the 6 components once.
TEST(ServeProtocol, OneGenerationAnalyzesEachScenarioOnce) {
  ServeDaemon daemon(ServeOptions{testSocketPath("generation")});
  ASSERT_TRUE(parseResponse(daemon.handleLine(R"({"type":"invalidate"})")).find("ok")->asBool());
  const std::uint64_t analyzed_before = corpus::pipelineStatsSnapshot().components_analyzed;
  const std::uint64_t parses_before = corpus::ComponentCache::global().misses();
  const std::uint64_t memo_misses_before = statsField(daemon, "analysis_memo_misses");

  std::vector<json::Object> requests;
  for (const model::Component& component : corpus::ecosystem().components()) {
    for (const model::Parameter& param : component.parameters) {
      if (requests.size() == 20) break;
      json::Object blame;
      blame["type"] = "blame";
      blame["param"] = param.qualifiedName();
      blame["inter"] = true;
      requests.push_back(std::move(blame));
    }
  }
  ASSERT_EQ(requests.size(), 20u);
  for (const char* mode : {"inter", "intra"}) {
    json::Object graph;
    graph["type"] = "depgraph";
    graph[mode] = true;
    requests.push_back(std::move(graph));
    for (const char* scenario : {"all", "s1"}) {
      for (const bool as_json : {false, true}) {
        json::Object extract;
        extract["type"] = "extract";
        extract["scenario"] = scenario;
        extract["json"] = as_json;
        extract[mode] = true;
        requests.push_back(std::move(extract));
      }
    }
  }
  json::Object docck;
  docck["type"] = "docck";
  requests.push_back(std::move(docck));

  for (const json::Object& request : requests) {
    const std::string line = json::writeCompact(json::Value(request));
    const json::Object response = parseResponse(daemon.handleLine(line));
    ASSERT_TRUE(response.find("ok")->asBool()) << line;
    EXPECT_FALSE(response.find("cached")->asBool()) << "every request is a distinct answer";
  }

  EXPECT_LE(corpus::pipelineStatsSnapshot().components_analyzed - analyzed_before, 30u);
  EXPECT_EQ(corpus::ComponentCache::global().misses() - parses_before, 6u)
      << "inter and intra share one parse per component";
  EXPECT_EQ(statsField(daemon, "analysis_memo_misses") - memo_misses_before, 8u)
      << "4 scenarios x 2 engines";
  EXPECT_GT(statsField(daemon, "analysis_memo_hits"), 0u);
}

// Singleflight through the socket: three clients send the same miss at
// once, and the scenario is analyzed once.
TEST(ServeSocket, ConcurrentIdenticalMissesAnalyzeOnce) {
  const std::string socket_path = testSocketPath("singleflight");
  ServeDaemon daemon(ServeOptions{socket_path});
  ASSERT_TRUE(daemon.start().ok());
  ASSERT_TRUE(parseResponse(daemon.handleLine(R"({"type":"invalidate"})")).find("ok")->asBool());
  std::size_t pairs = 0;
  for (const corpus::Scenario& s : corpus::scenarios()) {
    if (s.id == "s2") pairs = s.selection.size();
  }
  const std::uint64_t analyzed_before = corpus::pipelineStatsSnapshot().components_analyzed;
  const std::uint64_t memo_misses_before = statsField(daemon, "analysis_memo_misses");

  constexpr int kClients = 3;
  std::atomic<int> ready{0};
  std::vector<std::string> answers(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      const Result<std::string> raw =
          serveRoundTrip(socket_path, R"({"type":"extract","scenario":"s2","inter":true})");
      if (raw.ok()) answers[static_cast<std::size_t>(c)] = raw.value();
    });
  }
  for (std::thread& t : clients) t.join();

  std::string first_stdout;
  for (const std::string& answer : answers) {
    const json::Object response = parseResponse(answer);
    ASSERT_TRUE(response.find("ok")->asBool()) << answer;
    if (first_stdout.empty()) first_stdout = response.find("stdout")->asString();
    EXPECT_EQ(response.find("stdout")->asString(), first_stdout);
  }
  EXPECT_EQ(corpus::pipelineStatsSnapshot().components_analyzed - analyzed_before, pairs);
  EXPECT_EQ(statsField(daemon, "analysis_memo_misses") - memo_misses_before, 1u);
  daemon.stop();
}

TEST(ServeSocket, RoundTripAndConcurrentClientsAndShutdown) {
  const std::string socket_path = testSocketPath("socket");
  ServeDaemon daemon(ServeOptions{socket_path});
  const Result<bool> started = daemon.start();
  ASSERT_TRUE(started.ok()) << started.error().message;
  ASSERT_TRUE(daemon.running());

  // Typed client round trip.
  json::Object ping;
  ping["id"] = "t1";
  ping["type"] = "ping";
  const Result<ServeResponse> pong = serveRequest(socket_path, ping);
  ASSERT_TRUE(pong.ok()) << pong.error().message;
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(pong.value().stdout_text, "pong");
  EXPECT_EQ(pong.value().id, "t1");

  // Raw round trip (malformed request must produce an error response,
  // not a dropped connection).
  const Result<std::string> raw = serveRoundTrip(socket_path, "not json at all");
  ASSERT_TRUE(raw.ok()) << raw.error().message;
  EXPECT_FALSE(parseResponse(raw.value()).find("ok")->asBool());

  // Concurrent clients: every thread gets a correct, complete response.
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> good{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      json::Object request;
      request["type"] = "ping";
      const Result<ServeResponse> response = serveRequest(socket_path, request);
      if (response.ok() && response.value().ok && response.value().stdout_text == "pong") {
        good.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(good.load(), kClients);

  // Shutdown request unblocks wait(); the socket file disappears.
  json::Object shutdown;
  shutdown["type"] = "shutdown";
  ASSERT_TRUE(serveRequest(socket_path, shutdown).ok());
  daemon.wait();
  daemon.stop();
  EXPECT_FALSE(fs::exists(socket_path));

  // Clients now get a transport error, not a hang.
  EXPECT_FALSE(serveRoundTrip(socket_path, R"({"type":"ping"})").ok());
}

TEST(ServeSocket, ClientThatHangsUpBeforeItsResponseDoesNotKillTheDaemon) {
  const std::string socket_path = testSocketPath("hangup");
  ServeDaemon daemon(ServeOptions{socket_path});
  ASSERT_TRUE(daemon.start().ok());

  // The response to this extract goes to a closed socket.
  const int fd = connectRaw(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(sendAll(fd, "{\"type\":\"extract\",\"scenario\":\"s1\"}\n"));
  ::close(fd);

  EXPECT_TRUE(pingAnswered(socket_path));
  // stop() joins every connection thread, so the dropped client's
  // response has been sent (and failed) by now.
  daemon.stop();
  EXPECT_EQ(daemon.requestsServed(), 2u);
}

TEST(ServeSocket, OversizeRequestLineIsRejectedAndOtherClientsAreServed) {
  const std::string socket_path = testSocketPath("oversize");
  ServeDaemon daemon(ServeOptions{socket_path});
  ASSERT_TRUE(daemon.start().ok());

  // Half a line stays buffered without blocking anyone else.
  const int fd = connectRaw(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(sendAll(fd, std::string(kMaxRequestLineBytes / 2, 'x')));
  EXPECT_TRUE(pingAnswered(socket_path));

  // Past the cap with still no newline: one error line, then EOF.
  ASSERT_TRUE(sendAll(fd, std::string(kMaxRequestLineBytes / 2 + 1, 'x')));
  const std::string reply = readToEof(fd);
  ::close(fd);
  ASSERT_FALSE(reply.empty()) << "no response before the receive timeout";
  ASSERT_EQ(reply.back(), '\n');
  const json::Object error = parseResponse(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(error.find("ok")->asBool());
  EXPECT_NE(error.find("error")->asString().find("exceeds"), std::string::npos);

  EXPECT_TRUE(pingAnswered(socket_path));
  daemon.stop();
}

// A request nested far past any stack (under the line cap) is a typed
// error; the daemon keeps serving everyone else.
TEST(ServeSocket, DeeplyNestedRequestIsRejectedAndOtherClientsAreServed) {
  const std::string socket_path = testSocketPath("nesting");
  ServeDaemon daemon(ServeOptions{socket_path});
  ASSERT_TRUE(daemon.start().ok());

  const int fd = connectRaw(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(sendAll(fd, std::string(60000, '[') + "\n"));
  ::shutdown(fd, SHUT_WR);
  const std::string reply = readToEof(fd);
  ::close(fd);
  ASSERT_FALSE(reply.empty()) << "no response before the receive timeout";
  const json::Object error = parseResponse(reply.substr(0, reply.find('\n')));
  EXPECT_FALSE(error.find("ok")->asBool());
  EXPECT_NE(error.find("error")->asString().find("nesting exceeds"), std::string::npos);

  EXPECT_TRUE(pingAnswered(socket_path));
  daemon.stop();
}

std::uint64_t vmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

// Each finished connection thread is joined while the daemon runs, so
// its stack is released; a long-lived daemon does not grow per client.
// Every client waits for the daemon to close its end, so at most one
// handler is alive when the next connection is accepted. glibc reserves
// 64 MB of address space for each new malloc arena, at its discretion
// and at most 8 per core, so the test pins one arena: what is left to
// grow is per-connection state.
TEST(ServeSocket, FinishedConnectionsAreReaped) {
  mallopt(M_ARENA_MAX, 1);
  const std::string socket_path = testSocketPath("reap");
  ServeDaemon daemon(ServeOptions{socket_path});
  ASSERT_TRUE(daemon.start().ok());
  const auto pingAndWaitForClose = [&] {
    const int fd = connectRaw(socket_path);
    if (fd < 0 || !sendAll(fd, "{\"type\":\"ping\"}\n")) return false;
    ::shutdown(fd, SHUT_WR);
    const std::string reply = readToEof(fd);
    ::close(fd);
    return reply.find("\"pong\"") != std::string::npos;
  };
  ASSERT_TRUE(pingAndWaitForClose());
  const std::uint64_t before = vmSizeKb();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(pingAndWaitForClose());
  const std::uint64_t after = vmSizeKb();
  EXPECT_LT(after, before + 64 * 1024) << "VmSize grew from " << before << " kB to " << after
                                       << " kB over 64 sequential connections";
  daemon.stop();
}

}  // namespace
}  // namespace fsdep::tools
