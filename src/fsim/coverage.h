// Coverage points: fsim code paths register the configuration-dependent
// branches they take. ConBugCk measures how deep a configuration drives
// the tools by counting distinct points (paper §4.2: "allow the enhanced
// tool to drive deeply into the target code area"). Campaign workers hit
// points concurrently, so the registry is synchronized.
#pragma once

#include <mutex>
#include <set>
#include <string>
#include <string_view>

namespace fsdep::fsim {

class CoverageRegistry {
 public:
  static CoverageRegistry& instance();

  void hit(std::string_view point);
  void reset();
  [[nodiscard]] std::size_t distinctPoints() const;
  /// A snapshot: later hits do not show in it.
  [[nodiscard]] std::set<std::string> points() const;
  [[nodiscard]] bool wasHit(std::string_view point) const;

 private:
  mutable std::mutex mu_;
  std::set<std::string, std::less<>> points_;  // guarded by mu_
};

/// Convenience wrapper used across fsim.
inline void coverPoint(std::string_view point) { CoverageRegistry::instance().hit(point); }

}  // namespace fsdep::fsim
