// Tests for the DS-FD dump-snapshot sliding-window sketch.
#include "core/dump_snapshot.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "eval/cov_err.h"
#include "stream/window_buffer.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d, double scale = 1.0) {
  std::vector<double> r(d);
  for (auto& v : r) v = scale * rng->Gaussian();
  return r;
}

double WindowErr(SlidingWindowSketch* sketch, const WindowBuffer& buffer,
                 size_t d) {
  return CovarianceError(buffer.GramMatrix(d), buffer.FrobeniusNormSq(),
                         sketch->Query());
}

TEST(DsFdTest, ErrorSmallOnStationaryStream) {
  const size_t d = 10, w = 500;
  DsFd sketch(d, WindowSpec::Sequence(w), DsFd::Options{.ell = 24});
  WindowBuffer buffer(WindowSpec::Sequence(w));
  Rng rng(1);
  for (int i = 0; i < 3000; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, i);
    buffer.Add(Row(row, i));
  }
  EXPECT_LT(WindowErr(&sketch, buffer, d), 0.30);
}

TEST(DsFdTest, ErrorDecreasesWithBudget) {
  const size_t d = 8, w = 400;
  Rng rng(2);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 2500; ++i) rows.push_back(RandomRow(&rng, d));

  auto run = [&](size_t ell, size_t k) {
    DsFd sketch(d, WindowSpec::Sequence(w),
                DsFd::Options{.ell = ell, .snapshots_per_window = k});
    WindowBuffer buffer(WindowSpec::Sequence(w));
    for (size_t i = 0; i < rows.size(); ++i) {
      sketch.Update(rows[i], static_cast<double>(i));
      buffer.Add(Row(rows[i], static_cast<double>(i)));
    }
    return WindowErr(&sketch, buffer, d);
  };
  const double coarse = run(4, 2);
  const double fine = run(32, 16);
  EXPECT_LT(fine, coarse);
}

TEST(DsFdTest, SpaceStaysBoundedWithoutLogFactor) {
  const size_t d = 6, w = 4000, ell = 16, k = 8;
  DsFd sketch(d, WindowSpec::Sequence(w),
              DsFd::Options{.ell = ell, .snapshots_per_window = k});
  Rng rng(3);
  size_t max_rows = 0;
  for (int i = 0; i < 12000; ++i) {
    sketch.Update(RandomRow(&rng, d), i);
    max_rows = std::max(max_rows, sketch.RowsStored());
    ASSERT_LE(sketch.num_frames(), 3u) << "frames must tile, not accumulate";
  }
  // ~3 frame FD buffers (at the 2x internal frame ell) plus a truncated
  // snapshot ladder: O(ell + k) rows, far below both the window and an
  // LM-style ell * log(w) budget.
  EXPECT_LT(max_rows, 6 * ell + 12 * k);
}

TEST(DsFdTest, TimeWindowWithGaps) {
  const size_t d = 4;
  DsFd sketch(d, WindowSpec::Time(50.0), DsFd::Options{.ell = 12});
  WindowBuffer buffer(WindowSpec::Time(50.0));
  Rng rng(5);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.Exponential(2.0);
    auto row = RandomRow(&rng, d);
    sketch.Update(row, t);
    buffer.Add(Row(row, t));
  }
  EXPECT_LT(WindowErr(&sketch, buffer, d), 0.35);
  // Long silence: window empties.
  sketch.AdvanceTo(t + 1000.0);
  EXPECT_EQ(sketch.Query().rows(), 0u);
  EXPECT_EQ(sketch.num_frames(), 0u);
  EXPECT_EQ(sketch.num_snapshots(), 0u);
}

TEST(DsFdTest, UpdateBatchMatchesSerialInNarrowRegime) {
  // capacity = frame ell * buffer_factor < d forces AppendBatch to replay
  // the serial schedule, so batched ingest must be bit-identical to
  // per-row (frame_ell_factor pinned to 1 to keep the frame FD narrow).
  const size_t d = 9, w = 250;
  const DsFd::Options opts{
      .ell = 8, .frame_ell_factor = 1.0, .fd_buffer_factor = 1.0};
  DsFd serial(d, WindowSpec::Sequence(w), opts);
  DsFd batched(d, WindowSpec::Sequence(w), opts);
  Rng rng(6);
  Matrix block(64, d);
  std::vector<double> ts(64);
  double t = 0.0;
  for (int round = 0; round < 12; ++round) {
    for (size_t i = 0; i < block.rows(); ++i) {
      auto row = RandomRow(&rng, d);
      std::copy(row.begin(), row.end(), block.Row(i).begin());
      ts[i] = t++;
      serial.Update(row, ts[i]);
    }
    batched.UpdateBatch(block, ts);
    ASSERT_EQ(serial.num_frames(), batched.num_frames());
    ASSERT_EQ(serial.num_snapshots(), batched.num_snapshots());
  }
  ByteWriter wa, wb;
  serial.Serialize(&wa);
  batched.Serialize(&wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

// Rows sharing one timestamp never cut a frame, also where the window
// extent is below that timestamp's ulp (Start(ts) == ts): the sketch must
// keep the footprint and answer of the same rows at ts = 1000 instead of
// opening one frame per row, on the per-row and the batch path.
TEST(DsFdTest, SharedHugeTimestampKeepsTheFootprint) {
  const size_t d = 8;
  for (const size_t n : {500, 1000, 2000}) {
    for (const double ts : {1.7e308, std::numeric_limits<double>::infinity()}) {
      for (const bool batch : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " ts=" << ts << " batch=" << batch);
        const DsFd::Options opt{.ell = 8};
        DsFd huge(d, WindowSpec::Time(100.0), opt);
        DsFd plain(d, WindowSpec::Time(100.0), opt);
        Rng rng(n);
        Matrix rows(n, d);
        for (double& v : rows.Data()) v = rng.Gaussian();
        if (batch) {
          huge.UpdateBatch(rows, std::vector<double>(n, ts));
          plain.UpdateBatch(rows, std::vector<double>(n, 1000.0));
        } else {
          for (size_t i = 0; i < n; ++i) {
            huge.Update(rows.Row(i), ts);
            plain.Update(rows.Row(i), 1000.0);
          }
        }
        EXPECT_EQ(huge.RowsStored(), plain.RowsStored());
        EXPECT_LE(huge.RowsStored(), 8 * d);
        EXPECT_EQ(huge.Query().MaxAbsDiff(plain.Query()), 0.0);
      }
    }
  }
}

TEST(DsFdTest, SerializeRoundTripIsByteStable) {
  const size_t d = 7;
  DsFd sketch(d, WindowSpec::Sequence(300),
              DsFd::Options{.ell = 10, .snapshots_per_window = 6});
  Rng rng(7);
  for (int i = 0; i < 1200; ++i) sketch.Update(RandomRow(&rng, d), i);

  ByteWriter w1;
  sketch.Serialize(&w1);
  ByteReader r1(w1.bytes());
  auto reloaded = DeserializeSlidingWindowSketch(&r1);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  auto* loaded = dynamic_cast<DsFd*>(reloaded->get());
  ASSERT_NE(loaded, nullptr);

  ByteWriter w2;
  loaded->Serialize(&w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
  EXPECT_EQ(loaded->num_frames(), sketch.num_frames());
  EXPECT_EQ(loaded->num_snapshots(), sketch.num_snapshots());
  EXPECT_EQ(loaded->RowsStored(), sketch.RowsStored());

  // Queries agree bit-for-bit, and the reload keeps ingesting correctly.
  Matrix qa = sketch.Query();
  Matrix qb = loaded->Query();
  ASSERT_EQ(qa.rows(), qb.rows());
  EXPECT_EQ(std::vector<double>(qa.Data().begin(), qa.Data().end()),
            std::vector<double>(qb.Data().begin(), qb.Data().end()));
  for (int i = 1200; i < 1500; ++i) {
    auto row = RandomRow(&rng, d);
    sketch.Update(row, i);
    loaded->Update(row, i);
  }
  ByteWriter w3, w4;
  sketch.Serialize(&w3);
  loaded->Serialize(&w4);
  EXPECT_EQ(w3.bytes(), w4.bytes());
}

TEST(DsFdTest, QueryCacheInvalidatesOnMutation) {
  const size_t d = 5;
  DsFd sketch(d, WindowSpec::Sequence(100), DsFd::Options{.ell = 8});
  Rng rng(8);
  for (int i = 0; i < 300; ++i) sketch.Update(RandomRow(&rng, d), i);
  const uint64_t v1 = sketch.StateVersion();
  Matrix q1 = sketch.Query();
  Matrix q2 = sketch.Query();  // Cache hit: identical object contents.
  EXPECT_EQ(sketch.StateVersion(), v1);
  EXPECT_EQ(std::vector<double>(q1.Data().begin(), q1.Data().end()),
            std::vector<double>(q2.Data().begin(), q2.Data().end()));
  sketch.Update(RandomRow(&rng, d), 300);
  EXPECT_GT(sketch.StateVersion(), v1);
}

TEST(DsFdTest, SnapshotTruncationKeepsLadderSmall) {
  // With truncation off, every snapshot holds up to ell rows; with the
  // default 0.25 quantum cutoff the ladder is much lighter and the error
  // stays comparable.
  const size_t d = 12, w = 800, ell = 16;
  Rng rng(9);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 4000; ++i) rows.push_back(RandomRow(&rng, d));

  auto run = [&](double trunc, size_t* max_rows) {
    DsFd sketch(d, WindowSpec::Sequence(w),
                DsFd::Options{.ell = ell, .snapshots_per_window = 8,
                              .snapshot_trunc = trunc});
    WindowBuffer buffer(WindowSpec::Sequence(w));
    *max_rows = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      sketch.Update(rows[i], static_cast<double>(i));
      buffer.Add(Row(rows[i], static_cast<double>(i)));
      *max_rows = std::max(*max_rows, sketch.RowsStored());
    }
    return WindowErr(&sketch, buffer, d);
  };
  size_t rows_full = 0, rows_trunc = 0;
  const double err_full = run(0.0, &rows_full);
  const double err_trunc = run(0.25, &rows_trunc);
  EXPECT_LT(rows_trunc, rows_full);
  EXPECT_LT(err_trunc, err_full + 0.10);
}

TEST(DsFdTest, NameWindowAndEmptyQuery) {
  DsFd sketch(4, WindowSpec::Time(9.0), DsFd::Options{});
  EXPECT_EQ(sketch.name(), "DS-FD");
  EXPECT_EQ(sketch.window().type(), WindowType::kTime);
  EXPECT_EQ(sketch.dim(), 4u);
  EXPECT_EQ(sketch.Query().rows(), 0u);
  EXPECT_EQ(sketch.RowsStored(), 0u);
}

}  // namespace
}  // namespace swsketch
