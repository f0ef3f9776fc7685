#include "core/failpoint.h"

#include <cstring>
#include <unordered_map>
#include <utility>

#include "core/hash.h"
#include "core/mutex.h"
#include "core/random.h"
#include "core/thread_annotations.h"

namespace sidq {

namespace internal_failpoint {

std::atomic<int> g_armed_sites{0};

namespace {

struct SiteState {
  FailPointConfig cfg;
  // Evaluation count per key; drives fail_first_n and the probability
  // substream index. An object is evaluated sequentially (its shard owns
  // it), so the count sequence per (site, key) is scheduling-independent.
  std::unordered_map<uint64_t, uint32_t> counts;
  size_t hits = 0;
};

struct Registry {
  Mutex mu;
  // Sites are looked up by name, never iterated -- site decisions must not
  // depend on map order (determinism contract, lint rule R11).
  std::unordered_map<std::string, SiteState> sites SIDQ_GUARDED_BY(mu);
};

Registry& GlobalRegistry() {
  static Registry registry;
  return registry;
}

// FNV-1a over the site name, mixed into the draw so two sites armed with
// the same seed still fire independently.
uint64_t HashSite(const char* site) {
  return FnvBytes(kFnvShortOffset, site, std::strlen(site));
}

}  // namespace

std::optional<FailPointConfig> EvaluateSlow(const char* site, uint64_t key) {
  Registry& registry = GlobalRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.sites.find(site);
  if (it == registry.sites.end()) return std::nullopt;
  SiteState& state = it->second;
  const uint32_t count = state.counts[key]++;

  bool fired;
  if (state.cfg.fail_first_n > 0) {
    fired = count < static_cast<uint32_t>(state.cfg.fail_first_n);
  } else {
    // Deterministic uniform in [0, 1): mix (seed, site, key, count) and
    // take the top 53 bits.
    const uint64_t stream = DeriveSeed(state.cfg.seed ^ HashSite(site), key);
    const uint64_t draw = DeriveSeed(stream, count);
    const double u =
        static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
    fired = u < state.cfg.probability;
  }
  if (!fired) return std::nullopt;
  ++state.hits;
  return state.cfg;
}

}  // namespace internal_failpoint

void ArmFailPoint(const std::string& site, FailPointConfig cfg) {
  auto& registry = internal_failpoint::GlobalRegistry();
  MutexLock lock(registry.mu);
  const bool inserted =
      registry.sites
          .insert_or_assign(site, internal_failpoint::SiteState{cfg, {}, 0})
          .second;
  if (inserted) {
    internal_failpoint::g_armed_sites.fetch_add(1,
                                                std::memory_order_relaxed);
  }
}

void DisarmAllFailPoints() {
  auto& registry = internal_failpoint::GlobalRegistry();
  MutexLock lock(registry.mu);
  internal_failpoint::g_armed_sites.fetch_sub(
      static_cast<int>(registry.sites.size()), std::memory_order_relaxed);
  registry.sites.clear();
}

size_t FailPointHits(const std::string& site) {
  auto& registry = internal_failpoint::GlobalRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.hits;
}

namespace {

std::atomic<FailPointObserver*> g_failpoint_observer{nullptr};

}  // namespace

FailPointObserver* ExchangeFailPointObserver(FailPointObserver* observer) {
  return g_failpoint_observer.exchange(observer, std::memory_order_acq_rel);
}

const char* FailPointActionName(FailPointAction action) {
  switch (action) {
    case FailPointAction::kTransientError:
      return "transient";
    case FailPointAction::kPermanentError:
      return "permanent";
    case FailPointAction::kStall:
      return "stall";
    case FailPointAction::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

Status MaybeInjectFailPoint(const char* site, uint64_t key,
                            const ExecContext* ctx, bool* corrupt) {
  const std::optional<FailPointConfig> hit = EvaluateFailPoint(site, key);
  if (!hit.has_value()) return Status::OK();
  // Notify before performing the action so a stall's timestamp is the
  // moment the fault fired, not the moment it finished.
  FailPointObserver* observer =
      g_failpoint_observer.load(std::memory_order_acquire);
  if (observer != nullptr) {
    observer->OnFailPointFired(site, key, hit->action,
                               ctx != nullptr ? ctx->clock() : nullptr);
  }
  switch (hit->action) {
    case FailPointAction::kTransientError:
      return Status::Unavailable(std::string("injected transient fault at ") +
                                 site);
    case FailPointAction::kPermanentError:
      return Status::DataLoss(std::string("injected permanent fault at ") +
                              site);
    case FailPointAction::kStall:
      if (ctx != nullptr) ctx->Stall(hit->stall_ms);
      return Status::OK();
    case FailPointAction::kCorrupt:
      if (corrupt != nullptr) *corrupt = true;
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace sidq
