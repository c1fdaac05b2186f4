#include "linalg/vector_ops.h"

#include <cmath>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/random.h"

namespace swsketch {

double Dot(std::span<const double> a, std::span<const double> b) {
  SWSKETCH_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double NormSq(std::span<const double> a) {
  double s = 0.0;
  for (double v : a) s += v * v;
  return s;
}

double IngestWeight(std::span<const double> row) {
  const double w = NormSq(row);
  if (std::isfinite(w)) return w;
  static Counter* const rejected =
      MetricScope("ingest").counter("rows_rejected");
  rejected->Add();
  return 0.0;
}

double Norm(std::span<const double> a) { return std::sqrt(NormSq(a)); }

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  SWSKETCH_DCHECK(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void ScaleInPlace(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

double Normalize(std::span<double> x, double tiny) {
  const double n = Norm(x);
  if (n <= tiny) {
    for (double& v : x) v = 0.0;
    return 0.0;
  }
  ScaleInPlace(x, 1.0 / n);
  return n;
}

std::vector<double> GaussianVector(size_t n, unsigned long long seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& e : v) e = rng.Gaussian();
  return v;
}

}  // namespace swsketch
