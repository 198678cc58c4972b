#include "fsim/coverage.h"

namespace fsdep::fsim {

CoverageRegistry& CoverageRegistry::instance() {
  static CoverageRegistry registry;
  return registry;
}

void CoverageRegistry::hit(std::string_view point) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!points_.contains(point)) points_.emplace(point);
}

void CoverageRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

std::size_t CoverageRegistry::distinctPoints() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return points_.size();
}

std::set<std::string> CoverageRegistry::points() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {points_.begin(), points_.end()};
}

bool CoverageRegistry::wasHit(std::string_view point) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return points_.contains(point);
}

}  // namespace fsdep::fsim
