// Ablation: the FD shrink (DESIGN.md §3, §8). Two sweeps over one stream:
//
//  1. Shrink position: the paper shrinks at sigma_{ell/2}^2 (leaving ell/2
//     free rows); shrinking later (closer to ell) sheds less mass per step
//     (better error) but shrinks more often (slower).
//  2. Buffer factor: the shrink at buffer factors {1, 1.5, 2, 3}. This is
//     the grid that picked the shipped --fd_buffer default; cells land in
//     BENCH_ablate_fd_shrink.json for scripts/bench_diff.py.
//
// The shrink's one eigensolver, tridiagonal QL, is measured against the
// Jacobi reference by micro_linalg (BM_JacobiEigen vs BM_TridiagEigen at
// n = 4..128).
//
//   ./ablate_fd_shrink [--ell=64] [--d=256] [--rows=20000] [--json=1]
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "eval/cov_err.h"
#include "eval/report.h"
#include "sketch/frequent_directions.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"

using namespace swsketch;

namespace {

struct GridCell {
  std::string algorithm;
  size_t ell = 0;
  double cova_err = 0.0;
  double update_ns = 0.0;
  size_t max_rows_stored = 0;
  size_t rows_processed = 0;
};

// Minimal cells-format emitter matching bench_util's WriteBenchJson, so
// scripts/bench_diff.py can diff ablation runs like any figure.
void WriteCellsJson(const std::string& path, size_t rows, size_t d,
                    const std::vector<GridCell>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"figure\": \"ablate_fd_shrink\",\n"
      << "  \"metric\": \"update_ns\",\n"
      << "  \"dataset\": \"SYNTH-decay\",\n"
      << "  \"n\": " << rows << ",\n  \"d\": " << d << ",\n"
      << "  \"window\": \"none\",\n  \"cells\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    const GridCell& c = cells[i];
    out << (i ? "," : "") << "\n    {\"algorithm\": \"" << c.algorithm
        << "\", \"ell\": " << c.ell << ", \"avg_err\": " << c.cova_err
        << ", \"max_err\": " << c.cova_err
        << ", \"update_ns\": " << c.update_ns
        << ", \"max_rows_stored\": " << c.max_rows_stored
        << ", \"best_err_avg\": 0, \"best_err_max\": 0"
        << ", \"zero_err_avg\": 0, \"rows_processed\": " << c.rows_processed
        << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "(wrote " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t ell = static_cast<size_t>(flags.GetInt("ell", 64));
  const size_t d = static_cast<size_t>(flags.GetInt("d", 256));
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 20000));

  // A stream with a decaying spectrum (FD's target regime).
  Rng rng(1);
  Matrix a(0, d);
  a.ReserveRows(rows);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> row(d);
    for (size_t j = 0; j < d; ++j) {
      const double decay = 1.0 / (1.0 + 0.15 * static_cast<double>(j));
      row[j] = decay * rng.Gaussian();
    }
    a.AppendRow(row);
  }
  const Matrix gram = a.Gram();
  const double frob_sq = a.FrobeniusNormSq();

  PrintBanner(std::cout, "Ablation: FD shrink rank (ell = " +
                             std::to_string(ell) + ")");
  Table rank_table({"shrink_rank", "cova_err", "shed_mass_fraction",
                    "update_ns_per_row"});
  for (size_t rank : {ell / 4, ell / 2, 3 * ell / 4, ell}) {
    if (rank == 0) continue;
    FrequentDirections fd(
        d, FrequentDirections::Options{.ell = ell, .shrink_rank = rank});
    Timer timer;
    for (size_t i = 0; i < rows; ++i) fd.Append(a.Row(i), i);
    const double ns_per_row =
        static_cast<double>(timer.ElapsedNanos()) / static_cast<double>(rows);
    const double err = CovarianceError(gram, frob_sq, fd.Approximation());
    rank_table.AddRow({Table::Int(static_cast<long long>(rank)),
                       Table::Num(err), Table::Num(fd.shed_mass() / frob_sq),
                       Table::Num(ns_per_row)});
  }
  rank_table.Print(std::cout);
  std::cout << "\nExpected: larger shrink ranks lower the error (less mass "
               "shed per\nshrink) but pay more frequent shrinks per row.\n\n";

  PrintBanner(std::cout, "Ablation: buffer factor");
  Table grid_table({"buffer_factor", "cova_err", "update_ns_per_row",
                    "shrinks", "max_rows"});
  std::vector<GridCell> cells;
  for (double factor : {1.0, 1.5, 2.0, 3.0}) {
    FrequentDirections fd(
        d, FrequentDirections::Options{.ell = ell, .buffer_factor = factor});
    size_t max_rows = 0;
    Timer timer;
    for (size_t i = 0; i < rows; ++i) {
      fd.Append(a.Row(i), i);
      max_rows = std::max(max_rows, fd.RowsStored());
    }
    const double ns_per_row = static_cast<double>(timer.ElapsedNanos()) /
                              static_cast<double>(rows);
    const double err = CovarianceError(gram, frob_sq, fd.Approximation());
    grid_table.AddRow({Table::Num(factor), Table::Num(err),
                       Table::Num(ns_per_row),
                       Table::Int(static_cast<long long>(fd.shrink_count())),
                       Table::Int(static_cast<long long>(max_rows))});
    GridCell cell;
    // Strip the trailing .0/.5 into a stable slug: f1, f1.5, f2, f3.
    std::string f = std::to_string(factor);
    f.erase(f.find_last_not_of('0') + 1);
    if (!f.empty() && f.back() == '.') f.pop_back();
    cell.algorithm = "fd-gram-eigen-f" + f;
    cell.ell = ell;
    cell.cova_err = err;
    cell.update_ns = ns_per_row;
    cell.max_rows_stored = max_rows;
    cell.rows_processed = rows;
    cells.push_back(cell);
  }
  grid_table.Print(std::cout);
  std::cout << "\nThe factor column picks the --fd_buffer default.\n";
  if (flags.GetBool("json", true)) {
    WriteCellsJson("BENCH_ablate_fd_shrink.json", rows, d, cells);
  }
  return 0;
}
