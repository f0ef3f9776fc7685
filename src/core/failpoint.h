#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/exec_context.h"
#include "core/status.h"

namespace sidq {

// -------------------------------------------------------------------------
// FailPoint: chaos fault injection at named sites.
//
// Exec / refine / fault stages compile in named injection sites (e.g.
// "refine.hmm.viterbi_row"). Tests arm a site with a FailPointConfig --
// seeded probabilities or a deterministic fail-first-N count -- and the site
// then injects transient errors, permanent errors, stalls (consuming
// deadline budget through the caller's ExecContext clock), or flags the
// caller to corrupt its output. With nothing armed, a site is one relaxed
// atomic load: zero contention, no branches taken, safe to leave in
// production hot loops.
//
// Determinism: a site decision for (site, key) depends only on the config
// seed, the site name, the key (object id), and how many times that (site,
// key) pair has been evaluated -- never on thread interleaving. A fleet run
// under chaos therefore injects the *same* faults into the same objects for
// any worker count, which is what the chaos determinism property test pins.
// -------------------------------------------------------------------------

enum class FailPointAction : int {
  kTransientError = 0,  // Status::Unavailable -- retryable
  kPermanentError,      // Status::DataLoss -- not retryable
  kStall,               // sleep stall_ms on the caller's ExecContext clock
  kCorrupt,             // tell the caller to corrupt its output
};

struct FailPointConfig {
  FailPointAction action = FailPointAction::kTransientError;
  // Per-evaluation firing probability, drawn from the deterministic
  // (seed, site, key, evaluation#) substream. Ignored if fail_first_n > 0.
  double probability = 1.0;
  // > 0: fire on exactly the first N evaluations for each key, then pass.
  // The precise tool for "transient fault that retry must survive".
  int fail_first_n = 0;
  // Stall length for kStall.
  int64_t stall_ms = 0;
  // Substream salt for probability draws.
  uint64_t seed = 0;
};

namespace internal_failpoint {
// Number of armed sites; the fast-path gate for every site check.
extern std::atomic<int> g_armed_sites;
// Slow path: consults the registry under its mutex.
std::optional<FailPointConfig> EvaluateSlow(const char* site, uint64_t key);
}  // namespace internal_failpoint

// Observability hook for fired fail points. Installed process-wide (chaos is
// already a global registry, so its observer is too); implementations must
// be thread-safe -- workers fire sites concurrently. `clock` is the firing
// caller's ExecContext clock (nullptr at clockless sites), so recorded
// timestamps stay virtual-time deterministic.
class FailPointObserver {
 public:
  virtual ~FailPointObserver() = default;
  virtual void OnFailPointFired(const char* site, uint64_t key,
                                FailPointAction action, const Clock* clock) = 0;
};

// Installs `observer` (nullptr to uninstall) and returns the previous one.
// The caller keeps ownership; uninstall before destroying the observer.
FailPointObserver* ExchangeFailPointObserver(FailPointObserver* observer);

// Stable lowercase names for metric/span labels: "transient", "permanent",
// "stall", "corrupt".
const char* FailPointActionName(FailPointAction action);

// Arms `site` with `cfg`, resetting any per-key evaluation counts from a
// previous arming (so repeated test runs start identical). Thread-safe.
void ArmFailPoint(const std::string& site, FailPointConfig cfg);
// Disarms every site: the test-teardown hammer.
void DisarmAllFailPoints();
// Times `site` fired since it was last armed (0 when not armed).
size_t FailPointHits(const std::string& site);

// The site check: nullopt when the site should pass, the armed config when
// it fired. `key` is the determinism key -- object id at per-object sites.
inline std::optional<FailPointConfig> EvaluateFailPoint(const char* site,
                                                        uint64_t key) {
  if (internal_failpoint::g_armed_sites.load(std::memory_order_relaxed) ==
      0) {
    return std::nullopt;
  }
  return internal_failpoint::EvaluateSlow(site, key);
}

// One-call site helper: evaluates the site and performs the action --
// stalls on ctx's clock, sets *corrupt for kCorrupt (when the caller
// supports corruption), and returns the injected Status for error actions.
// Returns OK when the site passed, stalled, or corrupted.
Status MaybeInjectFailPoint(const char* site, uint64_t key,
                            const ExecContext* ctx, bool* corrupt = nullptr);

}  // namespace sidq
