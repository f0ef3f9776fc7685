// R2 outside src/: a bench that draws through std:: directly.
#include <random>

double Noise() {
  std::mt19937_64 gen(7);  // expect-lint: R2
  std::normal_distribution<double> d(0.0, 1.0);  // expect-lint: R2
  // Comments may name std::uniform_real_distribution freely.
  return d(gen);
}
