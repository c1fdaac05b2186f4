// Checkpoint/resume: persist a sliding-window sketch to disk mid-stream
// and continue from the saved state — the approximations of the resumed
// and the uninterrupted sketch match exactly.
//
//   ./checkpoint_resume [--rows=30000] [--window=3000]
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "data/synthetic.h"
#include "util/flags.h"
#include "util/serialize.h"

using namespace swsketch;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 30000));
  const uint64_t window = static_cast<uint64_t>(flags.GetInt("window", 3000));
  const std::string path = "/tmp/swsketch_checkpoint.bin";

  SyntheticStream stream(SyntheticStream::Options{
      .rows = rows, .dim = 80, .signal_dim = 16, .window = window});
  LmFd live(stream.dim(), WindowSpec::Sequence(window),
            LmFd::Options{.ell = 24});

  // Phase 1: process half the stream, then checkpoint.
  size_t i = 0;
  std::vector<Row> second_half;
  while (auto row = stream.Next()) {
    if (i < rows / 2) {
      live.Update(row->view(), row->ts);
    } else {
      second_half.push_back(std::move(*row));
    }
    ++i;
  }
  {
    ByteWriter writer;
    live.Serialize(&writer);
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
    std::printf("checkpointed %zu rows of state (%zu bytes) to %s\n",
                live.RowsStored(), writer.bytes().size(), path.c_str());
  }

  // Phase 2: "restart" — load the checkpoint into a fresh object.
  std::ifstream f(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  ByteReader reader(bytes);
  auto loaded = DeserializeSlidingWindowSketch(&reader);
  if (!loaded.ok()) {
    std::fprintf(stderr, "resume failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SlidingWindowSketch> resumed = loaded.take();

  // Both continue over the second half.
  for (const Row& row : second_half) {
    live.Update(row.view(), row.ts);
    resumed->Update(row.view(), row.ts);
  }
  const Matrix b_live = live.Query();
  const Matrix b_resumed = resumed->Query();
  const double diff = b_live.MaxAbsDiff(b_resumed);
  std::printf("after resuming and processing %zu more rows:\n"
              "  live sketch B: %zu rows; resumed sketch B: %zu rows\n"
              "  max |difference| = %.3g  (exact match expected)\n",
              second_half.size(), b_live.rows(), b_resumed.rows(), diff);
  std::remove(path.c_str());
  return diff == 0.0 ? 0 : 1;
}
