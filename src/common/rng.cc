#include "common/rng.h"

#include <algorithm>

namespace hetis {

double Rng::lognormal_trunc(double mu, double sigma, double lo, double hi) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    double v = lognormal(mu, sigma);
    if (v >= lo && v <= hi) return v;
  }
  return std::clamp(lognormal(mu, sigma), lo, hi);
}

}  // namespace hetis
