#include "util/rng.hpp"

#include <cmath>

namespace bas::util {

int Rng::uniform_int(int lo, int hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next_u64() % span);
}

std::size_t Rng::index(std::size_t n) noexcept {
  return static_cast<std::size_t>(next_u64() % n);
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

std::uint64_t derive_seed(std::uint64_t base, const std::uint64_t* tags,
                          std::size_t count) noexcept {
  std::uint64_t seed = Rng::mix(base);
  for (std::size_t i = 0; i < count; ++i) {
    seed = Rng::hash_combine(seed, tags[i]);
  }
  return seed;
}

std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> tags) noexcept {
  return derive_seed(base, tags.begin(), tags.size());
}

}  // namespace bas::util
