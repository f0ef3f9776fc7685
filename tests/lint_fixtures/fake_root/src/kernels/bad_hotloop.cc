// R14 fixture: heap allocation inside kernel-layer hot loops. Kernel
// scratch comes from the arena (core/arena.h); the sanctioned growth
// paths are ArenaVec and vectors reserved before the loop. The naked-new
// case also trips R5.

#include <cstdlib>
#include <vector>

namespace bad {

void MallocPerIteration(int n) {
  for (int i = 0; i < n; ++i) {
    void* scratch = std::malloc(64);  // expect-lint: R14
    std::free(scratch);  // expect-lint: R14
  }
}

void NakedNewPerIteration(int n) {
  for (int i = 0; i < n; ++i) {
    double* row = new double[8];  // expect-lint: R5, R14
    delete[] row;  // expect-lint: R5, R14
  }
}

// NOTE: reserve evidence is per-file and name-based, so this vector must
// not share a name with the reserved one below.
int UnreservedPushBackPerIteration(int n) {
  std::vector<int> grown;
  for (int i = 0; i < n; ++i) {
    grown.push_back(i);  // expect-lint: R14
  }
  return static_cast<int>(grown.size());
}

// Clean pattern: reserve before the loop is the capacity evidence R14
// looks for.
int ReservedPushBack(int n) {
  std::vector<int> hits;
  hits.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    hits.push_back(i);
  }
  return static_cast<int>(hits.size());
}

// Clean pattern: ArenaVec growth is arena-backed, not heap traffic.
template <typename Arena>
int ArenaVecPushBack(Arena* arena, int n) {
  ArenaVec<int> stack(arena, 16);
  int sum = 0;
  while (n-- > 0) {
    stack.push_back(n);
    sum += stack.back();
  }
  return sum;
}

// Clean pattern: allocation outside any loop is construction, not a hot
// path.
std::vector<int> BuildOnce(int n) {
  std::vector<int> out;
  out.push_back(n);
  return out;
}

// Suppressed: a written reason waives the finding.
void SuppressedColdPath(int n) {
  std::vector<int> pages;
  for (int i = 0; i < n; ++i) {
    // sidq: allow-hotloop-heap-alloc(cold bulk-load construction, runs
    // once per tree build, not per query)
    pages.push_back(i);
  }
}

}  // namespace bad
