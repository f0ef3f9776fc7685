#include "kernels/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/logging.h"

namespace sidq {
namespace kernels {
namespace detail {

// Exported by the per-ISA translation units (isa_*.cc). A getter returns
// nullptr when its tier is not compiled in.
const KernelOps* ScalarOps();
const KernelOps* Sse2Ops();
const KernelOps* Avx2Ops();
const KernelOps* Avx512Ops();

}  // namespace detail

namespace {

// Each tier is gated on every extension its translation unit's compile
// flags enable (src/kernels/CMakeLists.txt: isa_avx2.cc -mavx2 -mfma,
// isa_avx512.cc -mavx512f -mavx512dq): the compiler may emit any of them,
// so a CPU missing one would fault on the dispatched tier. Keep the two
// lists in step.
bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
    case Isa::kSse2:
      // SSE2 is the x86-64 ABI baseline; on non-x86 the "sse2" tier is the
      // plain auto-vectorized build, which any host runs.
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

const KernelOps* CompiledTable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::ScalarOps();
    case Isa::kSse2:
      return detail::Sse2Ops();
    case Isa::kAvx2:
      return detail::Avx2Ops();
    case Isa::kAvx512:
      return detail::Avx512Ops();
  }
  return nullptr;
}

bool TierAvailable(Isa isa) {
  return CompiledTable(isa) != nullptr && CpuSupports(isa);
}

Isa BestAvailable() {
  for (int i = kIsaCount - 1; i > 0; --i) {
    const Isa isa = static_cast<Isa>(i);
    if (TierAvailable(isa)) return isa;
  }
  return Isa::kScalar;
}

// Parses SIDQ_FORCE_ISA. Returns false when the variable is unset or does
// not name a tier (the latter warns); `out` is the tier to pin otherwise,
// already clamped to what this host can run.
bool ParseForcedIsa(Isa* out) {
  const char* env = std::getenv("SIDQ_FORCE_ISA");
  if (env == nullptr || *env == '\0') return false;
  Isa requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Isa::kScalar;
  } else if (std::strcmp(env, "sse2") == 0) {
    requested = Isa::kSse2;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Isa::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    requested = Isa::kAvx512;
  } else {
    SIDQ_WARN() << "SIDQ_FORCE_ISA=" << env
                << " is not one of scalar|sse2|avx2|avx512; using best tier";
    return false;
  }
  // Fall back to the widest runnable tier at or below the request, so a
  // CI matrix can force avx512 everywhere and still run on older hosts.
  for (int i = static_cast<int>(requested); i > 0; --i) {
    const Isa isa = static_cast<Isa>(i);
    if (TierAvailable(isa)) {
      if (isa != requested) {
        SIDQ_WARN() << "SIDQ_FORCE_ISA=" << env << " unavailable on this "
                    << "host; falling back to " << IsaName(isa);
      }
      *out = isa;
      return true;
    }
  }
  if (requested != Isa::kScalar) {
    SIDQ_WARN() << "SIDQ_FORCE_ISA=" << env << " unavailable on this host; "
                << "falling back to scalar";
  }
  *out = Isa::kScalar;
  return true;
}

const KernelOps* ResolveActive() {
  Isa forced;
  const Isa active = ParseForcedIsa(&forced) ? forced : BestAvailable();
  const KernelOps* table = CompiledTable(active);
  SIDQ_CHECK(table != nullptr) << "kernel tier " << IsaName(active)
                               << " resolved but not compiled in";
  return table;
}

// One-time resolution through an atomic pointer: every thread that loads a
// non-null value sees a fully constructed table (release/acquire), and
// racing first calls all resolve to the same answer because the inputs
// (CPUID, environment) are stable. No mutex needed (lint R10).
std::atomic<const KernelOps*> g_active{nullptr};

const KernelOps* ActiveTable() {
  const KernelOps* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = ResolveActive();
    g_active.store(table, std::memory_order_release);
  }
  return table;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const KernelOps& KernelDispatch::Get() { return *ActiveTable(); }

Isa KernelDispatch::Active() { return ActiveTable()->isa; }

const KernelOps* KernelDispatch::Table(Isa isa) {
  return TierAvailable(isa) ? CompiledTable(isa) : nullptr;
}

Isa KernelDispatch::Best() { return BestAvailable(); }

bool KernelDispatch::Available(Isa isa) { return TierAvailable(isa); }

void KernelDispatch::ReinitForTest() {
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace kernels
}  // namespace sidq
