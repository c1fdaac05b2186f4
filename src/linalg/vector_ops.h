// Free-function kernels on contiguous vectors (spans). Shared by the
// decomposition routines and the sketches' hot paths.
#ifndef SWSKETCH_LINALG_VECTOR_OPS_H_
#define SWSKETCH_LINALG_VECTOR_OPS_H_

#include <span>
#include <vector>

namespace swsketch {

/// Dot product <a, b>; sizes must match.
double Dot(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean norm.
double NormSq(std::span<const double> a);

/// The weight a window sketch admits a row with: its squared norm, or 0
/// when that is not finite (a NaN or infinite entry, or a norm that
/// overflows), so such a row is handled exactly like an all-zero row.
/// Each rejected row counts once in ingest.rows_rejected.
double IngestWeight(std::span<const double> row);

/// Euclidean norm.
double Norm(std::span<const double> a);

/// y += alpha * x.
void Axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void ScaleInPlace(std::span<double> x, double alpha);

/// Normalizes x to unit norm; returns the original norm. Vectors with norm
/// below `tiny` are zeroed and 0 is returned.
double Normalize(std::span<double> x, double tiny = 1e-300);

/// Fills x with i.i.d. standard Gaussians using the caller's RNG callback
/// form is avoided: see random.h users; this overload takes a raw seed for
/// convenience in tests.
std::vector<double> GaussianVector(size_t n, unsigned long long seed);

}  // namespace swsketch

#endif  // SWSKETCH_LINALG_VECTOR_OPS_H_
