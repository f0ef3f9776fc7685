// R2 in examples/: nondeterministic and unpinned engines.
#include <random>

unsigned Seed() {
  std::random_device rd;  // expect-lint: R2
  std::default_random_engine e(rd());  // expect-lint: R2
  std::mt19937 m(e());  // expect-lint: R2
  return m();
}

// Clean: the sidq engine, and a distribution outside namespace std.
unsigned Clean(sidq::Mt19937_64& engine, my::normal_distribution& d) {
  return static_cast<unsigned>(d(engine));
}
