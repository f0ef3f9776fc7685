// Clean: tests hold the std:: oracles sidq::Rng is compared against.
#include <random>

double Oracle() {
  std::mt19937_64 ref(42);
  return std::exponential_distribution<double>(2.0)(ref);
}
