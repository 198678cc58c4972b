// The command layer of the fsdep CLI and the serve daemon. Each command
// is declared once, in one table: its name, its flags and one run
// function that renders its stdout. The CLI parses argv and the daemon
// parses an NDJSON object into the same Request, and both call the same
// run, so a daemon answer is byte-identical to the one-shot command.
// An unknown flag or field, a missing value, a non-integer count or a
// wrongly typed JSON field is an error, never an ignored option.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "support/result.h"

namespace fsdep::obs {
class Counter;
}

namespace fsdep::corpus {
class ScenarioMemo;
}

namespace fsdep::tools {

enum class FlagKind { Bool, String, Count, List };  ///< List: a repeatable String

struct FlagSpec {
  std::string_view name;  ///< "--name"; the JSON field spells '-' as '_'
  FlagKind kind = FlagKind::Bool;
  std::string_view value;  ///< the value's placeholder in the help
  std::string_view help;
  /// A positional String is also filled by the next bare argument; a
  /// positional List takes every argument that no flag claims.
  bool positional = false;
};

class Request;

struct CommandResult {
  std::string out;  ///< stdout
  int exit_code = 0;
  std::string error = {};  ///< stderr, if any
};

struct Command {
  std::string_view name;
  std::string_view alias;  ///< a second name, or ""
  std::string_view help;
  std::vector<FlagSpec> flags;
  /// Null for `profile`, which the CLI runs itself.
  CommandResult (*run)(const Request&) = nullptr;
  bool served = false;  ///< the serve daemon answers it

  /// serve.requests{type=<name>}, registered on the first served request.
  [[nodiscard]] obs::Counter& requestCounter() const;
  mutable std::atomic<obs::Counter*> request_counter{nullptr};
};

std::span<const Command> commands();
/// The flags every command line takes; its positional List "args" gets
/// the command's own arguments.
const Command& globalOptions();
/// By name or alias; nullptr if there is none.
const Command* findCommand(std::string_view name);

class Request {
 public:
  explicit Request(const Command& command)
      : command_(&command), values_(command.flags.size()) {}

  [[nodiscard]] const Command& command() const { return *command_; }
  [[nodiscard]] bool has(std::string_view flag) const;
  [[nodiscard]] std::string string(std::string_view flag, std::string fallback = {}) const;
  [[nodiscard]] std::uint64_t count(std::string_view flag, std::uint64_t fallback) const;
  [[nodiscard]] std::vector<std::string> list(std::string_view flag) const;

  /// {"type": <name>, <field>: <value>, ...}, fields in table order.
  [[nodiscard]] json::Object toJson() const;
  /// Compact toJson(): equal requests, from either front end, give equal
  /// keys, and JSON quoting keeps different ones apart. The memo key.
  [[nodiscard]] std::string canonical() const;

  /// Pipeline workers (0 = the global setting); not part of canonical().
  std::size_t jobs = 0;
  /// The serve daemon's scenario-result memo (null: run the full
  /// pipeline); not part of canonical().
  corpus::ScenarioMemo* memo = nullptr;

 private:
  friend Result<Request> parseArgv(const Command& command, const std::vector<std::string>& args);
  friend Result<Request> fromJson(const Command& command, const json::Object& object);

  [[nodiscard]] const json::Value& value(std::string_view flag) const;

  const Command* command_;
  std::vector<json::Value> values_;  ///< parallel to command_->flags; null = not given
};

/// The arguments after the command name.
Result<Request> parseArgv(const Command& command, const std::vector<std::string>& args);
/// A daemon request; its "type" and "id" are the caller's.
Result<Request> fromJson(const Command& command, const json::Object& object);

/// `fsdep help`, generated from the tables.
std::string usageText();

}  // namespace fsdep::tools
