// Ablation: SWR's shared-row storage (DESIGN.md §3). The paper counts
// every candidate entry as a stored row (each of the ell samplers owns its
// queue); our implementation shares the actual row payloads across
// samplers with shared_ptr. This sweep shows the candidate-entry count
// (the paper's accounting) against the number of distinct rows actually
// materialized — the memory the sharing saves.
//
//   ./ablate_swr_shared_rows [--rows=40000] [--window=4000]
#include <iostream>

#include "core/window_sampler.h"
#include "data/synthetic.h"
#include "eval/report.h"
#include "util/flags.h"

using namespace swsketch;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 40000));
  const uint64_t window = static_cast<uint64_t>(flags.GetInt("window", 4000));

  PrintBanner(std::cout, "Ablation: SWR candidate entries vs distinct rows");
  Table table({"ell", "candidate_entries(paper)", "distinct_rows(ours)",
               "sharing_factor"});
  for (size_t ell : {8, 16, 32, 64, 128}) {
    SyntheticStream stream(SyntheticStream::Options{
        .rows = rows, .dim = 100, .signal_dim = 20, .window = window});
    WindowSampler sketch(stream.dim(), WindowSpec::Sequence(window),
                         WindowSampler::Options{.ell = ell, .seed = 3});
    size_t max_entries = 0, max_unique = 0;
    size_t i = 0;
    while (auto row = stream.Next()) {
      sketch.Update(row->view(), row->ts);
      if (++i % 500 == 0) {
        max_entries = std::max(max_entries, sketch.RowsStored());
        max_unique = std::max(max_unique, sketch.UniqueRowsStored());
      }
    }
    table.AddRow({Table::Int(static_cast<long long>(ell)),
                  Table::Int(static_cast<long long>(max_entries)),
                  Table::Int(static_cast<long long>(max_unique)),
                  Table::Num(static_cast<double>(max_entries) /
                             static_cast<double>(std::max<size_t>(1,
                                                                  max_unique)))});
  }
  table.Print(std::cout);
  std::cout << "\nExpected: candidate entries grow ~ ell log(NR) (Lemma "
               "5.1) while the\ndistinct rows grow sublinearly in ell — "
               "sharing wins as ell grows.\n";
  return 0;
}
