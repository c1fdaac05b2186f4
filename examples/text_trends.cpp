// Trending-topic directions over a time-based window of documents — the
// paper's text-analysis motivation ("analyze tweets posted in the last 24
// hours"). Maintains LM-FD over a WIKI-like tf-idf stream with a
// time-based window and periodically prints the features (words) with the
// largest weight in the window's top principal direction.
//
//   ./text_trends [--delta=300] [--ell=24]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/logarithmic_method.h"
#include "data/wiki.h"
#include "linalg/tridiag_eigen.h"
#include "util/flags.h"

using namespace swsketch;

namespace {

// Indices of the top-m entries (by absolute weight) of the leading right
// singular direction of B.
std::vector<size_t> TopFeatures(const Matrix& b, size_t d, size_t m) {
  Matrix gram(d, d);
  for (size_t i = 0; i < b.rows(); ++i) gram.AddOuterProduct(b.Row(i));
  SymmetricEigen eig = TridiagEigen(gram);
  std::vector<std::pair<double, size_t>> weighted(d);
  for (size_t j = 0; j < d; ++j) {
    weighted[j] = {std::fabs(eig.eigenvectors(j, 0)), j};
  }
  std::partial_sort(weighted.begin(), weighted.begin() + m, weighted.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<size_t> out(m);
  for (size_t t = 0; t < m; ++t) out[t] = weighted[t].second;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double delta = flags.GetDouble("delta", 300.0);
  const size_t ell = static_cast<size_t>(flags.GetInt("ell", 24));

  WikiStream stream(WikiStream::Options{
      .rows = 30000, .dim = 300, .nnz_min = 20, .nnz_max = 80,
      .span = 1500.0, .window = delta, .seed = 5});

  LmFd sketch(stream.dim(), WindowSpec::Time(delta),
              LmFd::Options{.ell = ell, .blocks_per_level = 8});

  size_t i = 0, windows_printed = 0;
  double next_report = delta;
  while (auto row = stream.Next()) {
    sketch.Update(row->view(), row->ts);
    ++i;
    if (row->ts >= next_report) {
      next_report += delta / 2.0;
      ++windows_printed;
      Matrix b = sketch.Query();
      if (b.rows() == 0) continue;
      auto top = TopFeatures(b, stream.dim(), 5);
      std::printf("t = %7.1f | %6zu docs seen | sketch rows %4zu | "
                  "trending features:",
                  row->ts, i, sketch.RowsStored());
      for (size_t f : top) std::printf(" w%zu", f);
      std::printf("\n");
    }
  }

  std::printf(
      "\nTracked the top direction of a %.0f-unit time window across an\n"
      "accelerating stream (%zu docs) with a sketch of %zu rows.\n",
      delta, i, sketch.RowsStored());
  return windows_printed > 0 ? 0 : 1;
}
