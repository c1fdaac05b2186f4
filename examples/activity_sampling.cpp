// Interpretable window samples on a sensor stream. The sampling sketches'
// key selling point (Table 1: "B ⊂ A") is that the approximation consists
// of actual stream rows — here we maintain an SWR sample over a PAMAP-like
// activity stream and show how the sampled rows track the currently
// dominant activity regime.
//
//   ./activity_sampling [--window=5000] [--ell=12]
#include <cstdio>

#include "core/window_sampler.h"
#include "data/pamap.h"
#include "linalg/vector_ops.h"
#include "util/flags.h"

using namespace swsketch;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t window = static_cast<uint64_t>(flags.GetInt("window", 5000));
  const size_t ell = static_cast<size_t>(flags.GetInt("ell", 12));

  PamapStream stream(PamapStream::Options{
      .rows = 60000, .window = window, .plant_skewed_window = false,
      .seed = 99});

  WindowSampler sketch(stream.dim(), WindowSpec::Sequence(window),
                       WindowSampler::Options{.ell = ell, .seed = 7});

  size_t i = 0;
  double window_mass = 0.0;  // For intensity context (decayed).
  std::printf(
      "Norm-proportional samples: vigorous activity rows dominate the\n"
      "sample exactly when they dominate the window's energy.\n\n");
  while (auto row = stream.Next()) {
    sketch.Update(row->view(), row->ts);
    window_mass = 0.999 * window_mass + row->NormSq();
    ++i;
    if (i % 10000 == 0) {
      Matrix b = sketch.Query();
      double mean_norm = 0.0;
      for (size_t s = 0; s < b.rows(); ++s) {
        mean_norm += Norm(b.Row(s));
      }
      mean_norm /= static_cast<double>(b.rows() == 0 ? 1 : b.rows());
      std::printf(
          "row %6zu | candidates stored %4zu (window %llu) | samples %2zu | "
          "mean sample magnitude %10.2f\n",
          i, sketch.RowsStored(), static_cast<unsigned long long>(window),
          b.rows(), mean_norm);
    }
  }

  std::printf(
      "\nEach sample above IS a real sensor reading from the last %llu\n"
      "rows (interpretability); the sketch kept only %zu candidate rows.\n",
      static_cast<unsigned long long>(window), sketch.RowsStored());
  return 0;
}
