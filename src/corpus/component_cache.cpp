#include "corpus/component_cache.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "ast/parser.h"
#include "corpus/corpus.h"
#include "lex/preprocessor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdep::corpus {

std::shared_ptr<const ComponentEntry> ComponentCache::build(const std::string& name) {
  obs::Span span("pipeline", "parse");
  span.arg("component", name);
  const auto start = std::chrono::steady_clock::now();

  auto entry = std::make_shared<ComponentEntry>();
  entry->name = name;
  entry->is_kernel = isKernelComponent(name);

  const std::string_view source = componentSource(name);
  if (source.empty()) throw std::runtime_error("unknown corpus component: " + name);

  const FileId file = entry->sm.addBuffer(name + ".c", std::string(source));
  lex::Preprocessor pp(entry->sm, entry->diags,
                       [](std::string_view header) { return headerSource(header); });
  std::vector<lex::Token> tokens = pp.tokenize(file);
  if (entry->diags.hasErrors()) {
    throw std::runtime_error("corpus preprocessing failed for " + name + ":\n" +
                             entry->diags.render(entry->sm));
  }

  ast::Parser parser(std::move(tokens), entry->diags);
  entry->tu = parser.parseTranslationUnit(name + ".c");
  if (entry->diags.hasErrors()) {
    throw std::runtime_error("corpus parse failed for " + name + ":\n" +
                             entry->diags.render(entry->sm));
  }

  entry->sema = std::make_unique<sema::Sema>(*entry->tu, entry->diags);
  if (!entry->sema->run()) {
    throw std::runtime_error("corpus sema failed for " + name + ":\n" +
                             entry->diags.render(entry->sm));
  }

  entry->seeds = componentSeeds(name);
  entry->parse_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  return entry;
}

std::shared_ptr<const ComponentEntry> ComponentCache::get(const std::string& name,
                                                          bool* built) {
  static obs::Counter& hit_counter = obs::Registry::global().counter("cache.hits");
  static obs::Counter& miss_counter = obs::Registry::global().counter("cache.misses");
  static obs::Counter& wait_counter = obs::Registry::global().counter("cache.waits");
  static obs::Counter& failure_counter =
      obs::Registry::global().counter("cache.build_failures");

  std::shared_future<std::shared_ptr<const ComponentEntry>> future;
  std::promise<std::shared_ptr<const ComponentEntry>> promise;
  bool is_builder = false;
  bool is_hit = false;
  std::uint64_t ticket = 0;
  Builder builder;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const bool enabled = enabled_.load(std::memory_order_relaxed);
    const auto it = slots_.find(name);
    if (enabled && it != slots_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      is_hit = true;
      future = it->second.future;
    } else {
      // First request or caching disabled: build. The ticket identifies
      // the slot so failure eviction and clear() can't remove someone
      // else's. With caching disabled the build stays private — existing
      // entries are left untouched for when the cache is re-enabled
      // (ticket 0 never matches a slot, so the failure path leaves the
      // map alone too).
      misses_.fetch_add(1, std::memory_order_relaxed);
      future = promise.get_future().share();
      if (enabled) {
        ticket = next_ticket_++;
        slots_[name] = Slot{future, ticket};
      }
      is_builder = true;
      builder = builder_override_;
    }
  }

  // Registry lookups for the per-component labeled series walk the
  // registry's own lock-path; do them after mu_ is released so a serve
  // daemon's hot hit path never serializes cache traffic on them.
  if (is_hit) {
    hit_counter.add();
    obs::Registry::global().counter("cache.hits", {{"component", name}}).add();
  } else {
    miss_counter.add();
    obs::Registry::global().counter("cache.misses", {{"component", name}}).add();
  }

  if (built != nullptr) *built = is_builder;
  if (is_builder) {
    if (obs::Trace::enabled()) {
      std::string args;
      obs::appendArg(args, "component", name);
      obs::Trace::instant("cache", "cache-miss", std::move(args));
    }
    try {
      promise.set_value(builder ? builder(name) : build(name));
    } catch (...) {
      // A failed build must not poison the slot: waiters that already
      // hold the shared_future see this exception once, but the slot is
      // evicted so the next get() retries. Only evict our own ticket —
      // clear() or a replacement build may have raced us.
      {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto slot = slots_.find(name);
        if (slot != slots_.end() && slot->second.ticket == ticket) {
          slots_.erase(slot);
        }
      }
      build_failures_.fetch_add(1, std::memory_order_relaxed);
      failure_counter.add();
      obs::Registry::global().counter("cache.build_failures", {{"component", name}}).add();
      promise.set_exception(std::current_exception());
    }
  } else if (obs::Trace::enabled()) {
    std::string args;
    obs::appendArg(args, "component", name);
    obs::Trace::instant("cache", "cache-hit", std::move(args));
  }
  // A hit whose entry is still being parsed by another thread blocks
  // here; make that wait visible — it is the cache's whole contention
  // story (one parse, N waiters).
  if (!is_builder && future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    wait_counter.add();
    obs::Span wait_span("cache", "cache-wait");
    wait_span.arg("component", name);
    return future.get();
  }
  return future.get();  // waiters see a failed build's exception once
}

std::size_t ComponentCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void ComponentCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  // In-flight builders keep their promise/shared_future alive
  // independently of the map; dropping their slots here just means a
  // failure eviction later finds no matching ticket and does nothing.
  slots_.clear();
}

void ComponentCache::setBuilderForTesting(Builder builder) {
  const std::lock_guard<std::mutex> lock(mu_);
  builder_override_ = std::move(builder);
}

ComponentCache& ComponentCache::global() {
  static ComponentCache cache;
  return cache;
}

}  // namespace fsdep::corpus
