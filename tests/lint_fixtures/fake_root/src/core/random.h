#pragma once
// Clean: the Rng implementation may use the std:: distributions.
#include <random>

inline int Draw(std::mt19937_64& e) {
  return std::uniform_int_distribution<int>(0, 9)(e);
}
