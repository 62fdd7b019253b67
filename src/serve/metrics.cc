#include "src/serve/metrics.h"

namespace zombie::serve {

std::uint64_t ServeMetrics::TotalShed() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : shed) {
    total += n;
  }
  return total;
}

double ServeMetrics::ShedRate() const {
  if (arrivals == 0) {
    return 0.0;
  }
  return static_cast<double>(TotalShed()) / static_cast<double>(arrivals);
}

}  // namespace zombie::serve
