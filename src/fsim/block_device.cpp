#include "fsim/block_device.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdep::fsim {

namespace {

/// splitmix64 — the deterministic mixer behind seeded torn prefixes.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Process-wide device traffic, aggregated over every BlockDevice in the
// run (CrashCk creates thousands of short-lived devices; per-instance
// numbers stay available via readCount()/writeCount()).
obs::Counter& writesCounter() {
  static obs::Counter& c = obs::Registry::global().counter("fsim.device.writes");
  return c;
}
obs::Counter& readsCounter() {
  static obs::Counter& c = obs::Registry::global().counter("fsim.device.reads");
  return c;
}
obs::Counter& retriesCounter() {
  static obs::Counter& c = obs::Registry::global().counter("fsim.device.retries");
  return c;
}

/// A fault-plan firing: counted always, traced as an instant event when
/// tracing is on (these are the interesting moments of a CrashCk run).
void noteFaultFired(const char* kind, std::uint64_t write_index) {
  static obs::Registry& registry = obs::Registry::global();
  registry.counter("fsim.fault.fired", {{"kind", kind}}).add();
  if (obs::Trace::enabled()) {
    std::string args;
    obs::appendArg(args, "kind", kind);
    obs::appendArg(args, "write_index", write_index);
    obs::Trace::instant("fsim", "fault-fired", std::move(args));
  }
}

}  // namespace

BlockDevice::BlockDevice(std::uint32_t block_count, std::uint32_t block_size)
    : block_count_(block_count), block_size_(block_size) {
  if (block_size == 0 || (block_size & (block_size - 1)) != 0) {
    throw IoError("block size must be a nonzero power of two");
  }
  blocks_.resize(block_count);
}

std::uint8_t* BlockDevice::writableBlock(std::uint32_t block) {
  std::unique_ptr<std::uint8_t[]>& slot = blocks_[block];
  if (!slot) slot = std::make_unique<std::uint8_t[]>(block_size_);
  return slot.get();
}

void BlockDevice::copyOut(std::uint64_t offset, std::span<std::uint8_t> out) const {
  while (!out.empty()) {
    const auto block = static_cast<std::uint32_t>(offset / block_size_);
    const std::size_t in_block = offset % block_size_;
    const std::size_t n = std::min<std::size_t>(out.size(), block_size_ - in_block);
    if (const std::uint8_t* src = blocks_[block].get()) {
      std::memcpy(out.data(), src + in_block, n);
    } else {
      std::memset(out.data(), 0, n);
    }
    out = out.subspan(n);
    offset += n;
  }
}

void BlockDevice::copyIn(std::uint64_t offset, std::span<const std::uint8_t> data) {
  while (!data.empty()) {
    const auto block = static_cast<std::uint32_t>(offset / block_size_);
    const std::size_t in_block = offset % block_size_;
    const std::size_t n = std::min<std::size_t>(data.size(), block_size_ - in_block);
    std::memcpy(writableBlock(block) + in_block, data.data(), n);
    data = data.subspan(n);
    offset += n;
  }
}

std::uint32_t BlockDevice::residentBlocks() const {
  return static_cast<std::uint32_t>(std::count_if(
      blocks_.begin(), blocks_.end(), [](const auto& slot) { return slot != nullptr; }));
}

void BlockDevice::checkRange(std::uint32_t block) const {
  if (block >= block_count_) {
    throw IoError("block " + std::to_string(block) + " out of range (device has " +
                  std::to_string(block_count_) + " blocks)");
  }
}

std::size_t BlockDevice::tornPrefixLength(std::size_t write_size) const {
  if (!plan_) return 0;
  switch (plan_->torn_mode) {
    case TornMode::None:
      return 0;
    case TornMode::Prefix:
      return std::min<std::size_t>(plan_->torn_prefix_bytes, write_size);
    case TornMode::Seeded:
      return static_cast<std::size_t>(mix64(plan_->seed ^ (plan_write_index_ + 1)) %
                                      (write_size + 1));
  }
  return 0;
}

void BlockDevice::attemptWrite(std::uint64_t offset, std::span<const std::uint8_t> data,
                               std::uint32_t block) {
  if (frozen_) throw IoError("device frozen by injected crash");
  if (dead_) throw IoError("device failed (fail-after fault)");
  if (plan_) {
    if (plan_->fail_after_writes && plan_write_index_ >= *plan_->fail_after_writes) {
      dead_ = true;
      noteFaultFired("fail_after", plan_write_index_);
      throw IoError("device failed after " + std::to_string(*plan_->fail_after_writes) +
                    " writes");
    }
    if (plan_->crash_at_write && plan_write_index_ == *plan_->crash_at_write) {
      // Persist only a torn prefix of this write, then lose power.
      const std::size_t keep = tornPrefixLength(data.size());
      copyIn(offset, data.first(keep));
      frozen_ = true;
      noteFaultFired("crash", plan_write_index_);
      throw IoError("crash injected at write index " +
                    std::to_string(*plan_->crash_at_write) + " (" + std::to_string(keep) +
                    " of " + std::to_string(data.size()) + " bytes persisted)");
    }
    for (TransientFault& t : plan_->transients) {
      if (t.on_write && t.failures > 0 && t.block == block) {
        --t.failures;
        noteFaultFired("transient_write", plan_write_index_);
        throw IoError("transient write error at block " + std::to_string(block));
      }
    }
  }
  if (bad_write_blocks_.contains(block)) {
    throw IoError("injected write error at block " + std::to_string(block));
  }
  copyIn(offset, data);
  ++writes_;
  ++plan_write_index_;
  writesCounter().add();
}

void BlockDevice::attemptRead(std::uint64_t offset, std::span<std::uint8_t> out,
                              std::uint32_t block) const {
  if (frozen_) throw IoError("device frozen by injected crash");
  if (plan_) {
    for (TransientFault& t : plan_->transients) {
      if (!t.on_write && t.failures > 0 && t.block == block) {
        --t.failures;
        noteFaultFired("transient_read", plan_write_index_);
        throw IoError("transient read error at block " + std::to_string(block));
      }
    }
  }
  if (bad_read_blocks_.contains(block)) {
    throw IoError("injected read error at block " + std::to_string(block));
  }
  copyOut(offset, out);
  ++reads_;
  readsCounter().add();
}

void BlockDevice::readBlock(std::uint32_t block, std::span<std::uint8_t> out) const {
  checkRange(block);
  if (out.size() != block_size_) throw IoError("short read buffer");
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      attemptRead(static_cast<std::uint64_t>(block) * block_size_, out, block);
      return;
    } catch (const IoError&) {
      if (frozen_ || attempt >= retry_policy_.max_attempts) throw;
      ++retries_;
      retriesCounter().add();
      backoff_ticks_ += static_cast<std::uint64_t>(retry_policy_.backoff_base)
                        << (attempt - 1);
    }
  }
}

void BlockDevice::writeBlock(std::uint32_t block, std::span<const std::uint8_t> data) {
  checkRange(block);
  if (data.size() != block_size_) throw IoError("short write buffer");
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      attemptWrite(static_cast<std::uint64_t>(block) * block_size_, data, block);
      return;
    } catch (const IoError&) {
      if (frozen_ || dead_ || attempt >= retry_policy_.max_attempts) throw;
      ++retries_;
      retriesCounter().add();
      backoff_ticks_ += static_cast<std::uint64_t>(retry_policy_.backoff_base)
                        << (attempt - 1);
    }
  }
}

void BlockDevice::readBytes(std::uint64_t offset, std::span<std::uint8_t> out) const {
  if (offset + out.size() > sizeBytes()) throw IoError("byte read out of range");
  const std::uint32_t block = static_cast<std::uint32_t>(offset / block_size_);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      attemptRead(offset, out, block);
      return;
    } catch (const IoError&) {
      if (frozen_ || attempt >= retry_policy_.max_attempts) throw;
      ++retries_;
      retriesCounter().add();
      backoff_ticks_ += static_cast<std::uint64_t>(retry_policy_.backoff_base)
                        << (attempt - 1);
    }
  }
}

void BlockDevice::writeBytes(std::uint64_t offset, std::span<const std::uint8_t> data) {
  if (offset + data.size() > sizeBytes()) throw IoError("byte write out of range");
  const std::uint32_t block = static_cast<std::uint32_t>(offset / block_size_);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      attemptWrite(offset, data, block);
      return;
    } catch (const IoError&) {
      if (frozen_ || dead_ || attempt >= retry_policy_.max_attempts) throw;
      ++retries_;
      retriesCounter().add();
      backoff_ticks_ += static_cast<std::uint64_t>(retry_policy_.backoff_base)
                        << (attempt - 1);
    }
  }
}

void BlockDevice::resize(std::uint32_t new_block_count) {
  if (frozen_) throw IoError("device frozen by injected crash");
  blocks_.resize(new_block_count);
  block_count_ = new_block_count;
}

void BlockDevice::corruptBlock(std::uint32_t block, std::uint32_t byte_offset) {
  checkRange(block);
  writableBlock(block)[byte_offset % block_size_] ^= 0xFF;
}

void BlockDevice::setFaultPlan(FaultPlan plan) {
  plan_ = std::move(plan);
  plan_write_index_ = 0;
  frozen_ = false;
  dead_ = false;
}

void BlockDevice::clearFaults() {
  bad_read_blocks_.clear();
  bad_write_blocks_.clear();
  plan_.reset();
  frozen_ = false;
  dead_ = false;
  plan_write_index_ = 0;
}

void BlockDevice::resetStats() {
  reads_ = 0;
  writes_ = 0;
  retries_ = 0;
  backoff_ticks_ = 0;
}

}  // namespace fsdep::fsim
