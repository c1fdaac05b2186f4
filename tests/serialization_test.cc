// Round-trip tests for checkpoint/resume serialization across the stack:
// after save + load, sketches must produce identical approximations and
// continue identically on further updates.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dyadic_interval.h"
#include "core/factory.h"
#include "core/logarithmic_method.h"
#include "core/window_sampler.h"
#include "linalg/matrix.h"
#include "sketch/frequent_directions.h"
#include "sketch/hash_sketch.h"
#include "sketch/random_projection.h"
#include "util/exponential_histogram.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

std::vector<double> RandomRow(Rng* rng, size_t d) {
  std::vector<double> r(d);
  for (auto& v : r) v = rng->Gaussian();
  return r;
}

TEST(SerializeTest, ByteRoundTripPrimitives) {
  ByteWriter w;
  w.Put<uint32_t>(42);
  w.Put(3.5);
  w.PutString("hello");
  w.PutVector(std::vector<double>{1.0, 2.0});
  ByteReader r(w.bytes());
  uint32_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<double> v;
  EXPECT_TRUE(r.Get(&i));
  EXPECT_TRUE(r.Get(&d));
  EXPECT_TRUE(r.GetString(&s));
  EXPECT_TRUE(r.GetVector(&v));
  EXPECT_EQ(i, 42u);
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedPayloadFailsCleanly) {
  ByteWriter w;
  w.Put<uint64_t>(1000);  // Claims a long vector that is not there.
  ByteReader r(w.bytes());
  std::vector<double> v;
  // Interpret the 8 bytes as a vector length: read must fail, not crash.
  ByteReader r2(w.bytes());
  EXPECT_FALSE(r2.GetVector(&v));
  EXPECT_FALSE(r2.ok());
  (void)r;
}

// A corrupt length prefix whose byte count wraps size_t must fail the
// bounds check instead of reaching resize()/assign() with a huge size.
TEST(SerializeTest, InflatedLengthPrefixFailsCleanly) {
  ByteWriter w;
  w.Put<uint64_t>(uint64_t{1} << 61);  // 2^61 doubles = 2^64 bytes = 0.
  w.Put<uint64_t>(0);
  {
    ByteReader r(w.bytes());
    std::vector<double> v;
    EXPECT_FALSE(r.GetVector(&v));
    EXPECT_FALSE(r.ok());
  }
  ByteWriter ws;
  ws.Put<uint64_t>(std::numeric_limits<uint64_t>::max());  // pos + n wraps.
  {
    ByteReader r(ws.bytes());
    std::string str;
    EXPECT_FALSE(r.GetString(&str));
    EXPECT_FALSE(r.ok());
  }
  ByteWriter wm;
  wm.Put<uint64_t>(uint64_t{1} << 62);  // rows * cols wraps to 0.
  wm.Put<uint64_t>(4);
  wm.PutVector(std::vector<double>{});
  {
    ByteReader r(wm.bytes());
    EXPECT_FALSE(Matrix::Deserialize(&r).ok());
  }
}

TEST(SerializeTest, InflatedRowLengthInSketchPayloadRejected) {
  const size_t d = 4;
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 8;
  auto sketch = MakeSlidingWindowSketch(d, WindowSpec::Sequence(100), config);
  ASSERT_TRUE(sketch.ok());
  // Light rows stay in the active block, so the payload carries them raw,
  // each behind a (dim) length prefix.
  const std::vector<double> row(d, 0.3125);
  for (int i = 0; i < 3; ++i) sketch.value()->Update(row, i);
  ByteWriter w;
  ASSERT_TRUE(sketch.value()->SerializeTo(&w).ok());
  std::vector<uint8_t> bytes = w.TakeBytes();

  // Locate the first raw row: its u64 length prefix followed by its values.
  ByteWriter needle;
  needle.PutVector(row);
  const auto it = std::search(bytes.begin(), bytes.end(),
                              needle.bytes().begin(), needle.bytes().end());
  ASSERT_NE(it, bytes.end());
  const uint64_t inflated = uint64_t{1} << 61;
  std::memcpy(&*it, &inflated, sizeof(inflated));

  ByteReader r(bytes);
  EXPECT_FALSE(DeserializeSlidingWindowSketch(&r).ok());
}

TEST(SerializeTest, MatrixRoundTrip) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  ByteWriter w;
  m.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = Matrix::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ApproxEquals(m, 0.0));
}

TEST(SerializeTest, RngRoundTripContinuesIdentically) {
  Rng a(7);
  for (int i = 0; i < 13; ++i) a.Next();
  a.Gaussian();  // Leaves a cached value.
  ByteWriter w;
  a.Serialize(&w);
  ByteReader r(w.bytes());
  Rng b(99);
  ASSERT_TRUE(b.Deserialize(&r));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Gaussian(), b.Gaussian());
}

TEST(SerializeTest, ExponentialHistogramRoundTrip) {
  ExponentialHistogram eh(0.1);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) eh.Add(1.0 + rng.Uniform01(), i);
  ByteWriter w;
  eh.Serialize(&w);
  ByteReader r(w.bytes());
  ExponentialHistogram loaded(0.5);
  ASSERT_TRUE(loaded.Deserialize(&r));
  for (double start : {0.0, 100.0, 499.0}) {
    EXPECT_EQ(loaded.Estimate(start), eh.Estimate(start));
  }
  EXPECT_EQ(loaded.NumBuckets(), eh.NumBuckets());
}

TEST(SerializeTest, FrequentDirectionsRoundTrip) {
  Rng rng(2);
  FrequentDirections fd(12, 8);
  for (int i = 0; i < 100; ++i) fd.Append(RandomRow(&rng, 12), i);
  ByteWriter w;
  fd.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = FrequentDirections::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(fd.Approximation(), 0.0));
  EXPECT_EQ(loaded->shed_mass(), fd.shed_mass());
  // Continue identically.
  for (int i = 0; i < 50; ++i) {
    auto row = RandomRow(&rng, 12);
    fd.Append(row, i);
    loaded->Append(row, i);
  }
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(fd.Approximation(), 0.0));
}

TEST(SerializeTest, HashSketchRoundTrip) {
  Rng rng(3);
  HashSketch hs(10, 16, 5);
  for (int i = 0; i < 60; ++i) hs.Append(RandomRow(&rng, 10), i);
  ByteWriter w;
  hs.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = HashSketch::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(hs.Approximation(), 0.0));
  // Same hash functions afterwards.
  auto row = RandomRow(&rng, 10);
  hs.Append(row, 1000);
  loaded->Append(row, 1000);
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(hs.Approximation(), 0.0));
}

TEST(SerializeTest, RandomProjectionRoundTripContinuesIdentically) {
  Rng rng(4);
  RandomProjection rp(9, 24, 6);
  for (int i = 0; i < 40; ++i) rp.Append(RandomRow(&rng, 9), i);
  ByteWriter w;
  rp.Serialize(&w);
  ByteReader r(w.bytes());
  auto loaded = RandomProjection::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  // The sign generator state is restored: future appends match exactly.
  for (int i = 0; i < 20; ++i) {
    auto row = RandomRow(&rng, 9);
    rp.Append(row, i);
    loaded->Append(row, i);
  }
  EXPECT_TRUE(loaded->Approximation().ApproxEquals(rp.Approximation(), 0.0));
}

TEST(SerializeTest, SwrSamplerRoundTrip) {
  Rng rng(5);
  WindowSampler sketch(6, WindowSpec::Sequence(100),
                       WindowSampler::Options{.ell = 8, .seed = 11});
  for (int i = 0; i < 300; ++i) sketch.Update(RandomRow(&rng, 6), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto reloaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_TRUE(reloaded.ok());
  SlidingWindowSketch* loaded = reloaded->get();
  EXPECT_EQ(loaded->RowsStored(), sketch.RowsStored());
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  // Continue identically (same RNG state).
  for (int i = 300; i < 400; ++i) {
    auto row = RandomRow(&rng, 6);
    sketch.Update(row, i);
    loaded->Update(row, i);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
}

TEST(SerializeTest, SworSamplerRoundTrip) {
  Rng rng(6);
  WindowSampler sketch(
      5, WindowSpec::Time(50.0),
      WindowSampler::Options{
          .ell = 6, .scheme = WindowSampler::Scheme::kSwor, .seed = 13});
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.Exponential(1.0);
    sketch.Update(RandomRow(&rng, 5), t);
  }
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto reloaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_TRUE(reloaded.ok());
  SlidingWindowSketch* loaded = reloaded->get();
  EXPECT_EQ(loaded->name(), "SWOR");
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  for (int i = 0; i < 100; ++i) {
    t += rng.Exponential(1.0);
    auto row = RandomRow(&rng, 5);
    sketch.Update(row, t);
    loaded->Update(row, t);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
}

TEST(SerializeTest, LmFdRoundTrip) {
  Rng rng(7);
  LmFd sketch(8, WindowSpec::Sequence(200),
              LmFd::Options{.ell = 12, .blocks_per_level = 4});
  for (int i = 0; i < 900; ++i) sketch.Update(RandomRow(&rng, 8), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto reloaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_TRUE(reloaded.ok());
  auto* loaded = dynamic_cast<LmFd*>(reloaded->get());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->RowsStored(), sketch.RowsStored());
  EXPECT_EQ(loaded->NumLevels(), sketch.NumLevels());
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  for (int i = 900; i < 1200; ++i) {
    auto row = RandomRow(&rng, 8);
    sketch.Update(row, i);
    loaded->Update(row, i);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  loaded->CheckInvariants();
}

TEST(SerializeTest, LmHashRoundTrip) {
  Rng rng(8);
  LmHash sketch(6, WindowSpec::Sequence(150),
                LmHash::Options{.ell = 32, .blocks_per_level = 4, .seed = 3});
  for (int i = 0; i < 700; ++i) sketch.Update(RandomRow(&rng, 6), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto reloaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_TRUE(reloaded.ok());
  SlidingWindowSketch* loaded = reloaded->get();
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
}

TEST(SerializeTest, DiFdRoundTrip) {
  Rng rng(9);
  DiFd sketch(7, DiFd::Options{.levels = 4, .window_size = 128,
                               .max_norm_sq = 20.0, .ell_top = 12});
  for (int i = 0; i < 600; ++i) sketch.Update(RandomRow(&rng, 7), i);
  ByteWriter w;
  sketch.Serialize(&w);
  ByteReader r(w.bytes());
  auto reloaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_TRUE(reloaded.ok());
  auto* loaded = dynamic_cast<DiFd*>(reloaded->get());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->RowsStored(), sketch.RowsStored());
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  for (int i = 600; i < 900; ++i) {
    auto row = RandomRow(&rng, 7);
    sketch.Update(row, i);
    loaded->Update(row, i);
  }
  EXPECT_TRUE(loaded->Query().ApproxEquals(sketch.Query(), 1e-12));
  loaded->CheckInvariants();
}

// A sketch reloaded through SketchPrototype::DeserializeAt (the tenant
// spill/reload path) keeps one FD shrink workspace for all its blocks,
// like its never-reloaded twin: feeding both the same rows creates no
// workspace in either, and they stay byte-identical.
TEST(SerializeTest, ReloadedFdBlocksShareTheOwnersShrinkScratch) {
  const size_t d = 16;
  Counter* creates = MetricsRegistry::Global().GetCounter("fd.scratch_creates");
  for (const char* algo : {"lm-fd", "di-fd"}) {
    SCOPED_TRACE(algo);
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    config.max_norm_sq = 4.0 * d;
    auto proto = SketchPrototype::Make(d, WindowSpec::Sequence(500), config);
    ASSERT_TRUE(proto.ok()) << proto.status().ToString();
    std::unique_ptr<SlidingWindowSketch> twin = proto->Construct();
    Rng rng(21);
    double t = 0.0;
    const auto feed = [&](size_t n, SlidingWindowSketch* a,
                          SlidingWindowSketch* b) {
      for (size_t i = 0; i < n; ++i) {
        const std::vector<double> row = RandomRow(&rng, d);
        a->Update(row, t);
        if (b != nullptr) b->Update(row, t);
        t += 1.0;
      }
    };
    feed(1000, twin.get(), nullptr);
    ByteWriter saved;
    ASSERT_TRUE(twin->SerializeTo(&saved).ok());
    std::vector<std::max_align_t> mem(
        proto->instance_size() / sizeof(std::max_align_t) + 1);
    ByteReader reader(saved.bytes());
    auto reloaded = proto->DeserializeAt(mem.data(), &reader);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

    const uint64_t creates0 = creates->Value();
    feed(2000, twin.get(), *reloaded);
    EXPECT_EQ(creates->Value() - creates0, 0u);
    ByteWriter a, b;
    ASSERT_TRUE(twin->SerializeTo(&a).ok());
    ASSERT_TRUE((*reloaded)->SerializeTo(&b).ok());
    EXPECT_EQ(a.bytes(), b.bytes());
    (*reloaded)->~SlidingWindowSketch();
  }
}

TEST(SerializeTest, CorruptHeadersRejected) {
  ByteWriter w;
  WriteHeader(&w, 0xDEADBEEF, 1);
  {
    ByteReader r(w.bytes());
    EXPECT_FALSE(FrequentDirections::Deserialize(&r).ok());
  }
  {
    ByteReader r(w.bytes());
    EXPECT_FALSE(DeserializeSlidingWindowSketch(&r).ok());
  }
}

TEST(SerializeTest, TruncatedSketchPayloadRejected) {
  Rng rng(10);
  FrequentDirections fd(5, 4);
  for (int i = 0; i < 20; ++i) fd.Append(RandomRow(&rng, 5), i);
  ByteWriter w;
  fd.Serialize(&w);
  auto bytes = w.TakeBytes();
  bytes.resize(bytes.size() / 2);
  ByteReader r(bytes);
  EXPECT_FALSE(FrequentDirections::Deserialize(&r).ok());
}

// A version-2 FD payload written field by field, so a test can state
// option values no constructor would accept.
std::vector<uint8_t> HandWrittenFdPayload(uint64_t ell, uint64_t shrink_opt,
                                          double buffer_factor) {
  const uint64_t dim = 4;
  ByteWriter w;
  WriteHeader(&w, 0x46440001, 2);
  w.Put<uint64_t>(dim);
  w.Put<uint64_t>(ell);
  w.Put<uint64_t>(shrink_opt);
  w.Put(buffer_factor);
  w.Put<uint64_t>(2);  // Resolved shrink rank, in range.
  w.Put<uint64_t>(0);  // Shrink count.
  Matrix(0, dim).Serialize(&w);
  w.Put(0.0);  // Shed mass.
  w.Put(0.0);  // Input mass.
  return w.TakeBytes();
}

TEST(SerializeTest, OutOfRangeFdOptionsRejected) {
  {
    const auto bytes = HandWrittenFdPayload(4, 2, 1.0);
    ByteReader r(bytes);
    EXPECT_TRUE(FrequentDirections::Deserialize(&r).ok());
  }
  for (const auto& bytes :
       {HandWrittenFdPayload(4, 9, 1.0),
        HandWrittenFdPayload(4, 2, std::numeric_limits<double>::quiet_NaN()),
        HandWrittenFdPayload(4, 2, std::numeric_limits<double>::infinity()),
        HandWrittenFdPayload(4, 2, 1e300)}) {
    ByteReader r(bytes);
    const auto loaded = FrequentDirections::Deserialize(&r);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SerializeTest, OutOfRangeShrinkRankInLmFdBlobRejected) {
  const size_t d = 4;
  SketchConfig config;
  config.algorithm = "lm-fd";
  config.ell = 4;
  auto sketch = MakeSlidingWindowSketch(d, WindowSpec::Sequence(100), config);
  ASSERT_TRUE(sketch.ok());
  Rng rng(11);
  for (int i = 0; i < 60; ++i) sketch.value()->Update(RandomRow(&rng, d), i);
  ByteWriter w;
  ASSERT_TRUE(sketch.value()->SerializeTo(&w).ok());
  std::vector<uint8_t> bytes = w.TakeBytes();

  // The first embedded FD payload: tag, version, dim, ell, shrink option.
  ByteWriter needle;
  WriteHeader(&needle, 0x46440001, 2);
  const auto it = std::search(bytes.begin(), bytes.end(),
                              needle.bytes().begin(), needle.bytes().end());
  ASSERT_NE(it, bytes.end());
  const size_t ell_at = static_cast<size_t>(it - bytes.begin()) + 16;
  uint64_t ell = 0;
  std::memcpy(&ell, &bytes[ell_at], sizeof(ell));
  ASSERT_EQ(ell, 4u);
  const uint64_t shrink_opt = 9;
  std::memcpy(&bytes[ell_at + 8], &shrink_opt, sizeof(shrink_opt));

  ByteReader r(bytes);
  const auto loaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Every config field a sketch deserializer reads is held to the factory's
// bound (NaN fails it too): a real blob with one field patched out of
// range reloads as InvalidArgument, never as an abort in a constructor or
// at the first block close after the load.
TEST(SerializeTest, OutOfRangeWireConfigFieldsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* algorithm;
    const char* field;
    size_t offset;     // Byte offset of the field in the blob.
    double original;   // The configured value found there.
    double patched;
    bool is_u64;       // The field is a uint64_t, not a double.
  };
  const Case cases[] = {
      {"di-fd", "fd_buffer_factor", 56, 1.5, nan, false},
      {"di-fd", "fd_buffer_factor", 56, 1.5, inf, false},
      {"di-fd", "fd_buffer_factor", 56, 1.5, 1e300, false},
      {"di-fd", "max_norm_sq", 32, 2.0, nan, false},
      {"di-fd", "levels", 16, 5, 2000, true},
      {"lm-fd", "fd_buffer_factor", 49, 1.5, nan, false},
      {"lm-fd", "fd_buffer_factor", 49, 1.5, inf, false},
      {"lm-fd", "fd_buffer_factor", 49, 1.5, 1e300, false},
      {"ds-fd", "snapshot_trunc", 41, 0.25, nan, false},
      {"ds-fd", "frame_ell_factor", 49, 1.5, nan, false},
      {"ds-fd", "fd_buffer_factor", 57, 3.0, nan, false},
      {"ds-fd", "fd_buffer_factor", 57, 3.0, inf, false},
      {"ds-fd", "fd_buffer_factor", 57, 3.0, 1e300, false},
      {"ds-fd", "frobenius_eps", 65, 0.05, nan, false},
      {"ds-fd", "frobenius_eps", 65, 0.05, 2.0, false},
      {"swr", "frobenius_eps", 33, 0.05, nan, false},
      {"swr", "frobenius_eps", 33, 0.05, 2.0, false},
      {"swor", "frobenius_eps", 34, 0.05, nan, false},
      {"swor", "frobenius_eps", 34, 0.05, 2.0, false},
      // Each field in range, but the sketch would reserve more than
      // 1 GiB (SketchPrototype::Make's footprint bound).
      {"di-fd", "ell_top", 40, 8, 0x1p40, true},
      {"lm-fd", "ell", 25, 8, 0x1p40, true},
      {"ds-fd", "ell", 25, 8, 0x1p40, true},
      {"swr", "ell", 25, 8, 0x1p40, true},
      // DI-FD's ell_min is not a config field: only the factory's 2 loads.
      {"di-fd", "ell_min", 48, 2, 3, true},
      // A sequence extent is an integer in [1, 2^53].
      {"lm-fd", "window extent", 17, 100, 0.5, false},
      {"lm-fd", "window extent", 17, 100, nan, false},
      {"lm-fd", "window extent", 17, 100, 100.5, false},
      {"lm-fd", "window extent", 17, 100, 1e300, false},
      {"swr", "window extent", 17, 100, 0x1p53 + 2, false},
  };
  const size_t d = 4;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algorithm) + " " + c.field + " = " +
                 std::to_string(c.patched));
    SketchConfig config;
    config.algorithm = c.algorithm;
    config.ell = 8;
    config.levels = 5;
    config.max_norm_sq = 2.0;
    config.fd_buffer_factor = 1.5;
    auto sketch =
        MakeSlidingWindowSketch(d, WindowSpec::Sequence(100), config);
    ASSERT_TRUE(sketch.ok()) << sketch.status().message();
    Rng rng(12);
    for (int i = 0; i < 50; ++i) {
      sketch.value()->Update(RandomRow(&rng, d), i);
    }
    ByteWriter w;
    ASSERT_TRUE(sketch.value()->SerializeTo(&w).ok());
    std::vector<uint8_t> bytes = w.TakeBytes();
    ASSERT_LE(c.offset + 8, bytes.size());
    if (c.is_u64) {
      uint64_t found = 0;
      std::memcpy(&found, &bytes[c.offset], sizeof(found));
      ASSERT_EQ(static_cast<double>(found), c.original);
      const uint64_t patched = static_cast<uint64_t>(c.patched);
      std::memcpy(&bytes[c.offset], &patched, sizeof(patched));
    } else {
      double found = 0.0;
      std::memcpy(&found, &bytes[c.offset], sizeof(found));
      ASSERT_EQ(found, c.original);
      std::memcpy(&bytes[c.offset], &c.patched, sizeof(c.patched));
    }

    ByteReader r(bytes);
    auto loaded = DeserializeSlidingWindowSketch(&r);
    if (loaded.ok()) {
      // A blob that loads must also survive ingest: some bad fields only
      // reach a CHECK at the first block close.
      for (int i = 0; i < 2000; ++i) {
        loaded.value()->Update(RandomRow(&rng, d), 50 + i);
      }
      (void)loaded.value()->Query();
    }
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

// WindowSpec::Deserialize accepts a finite positive time span, and for a
// sequence window only an integer row count in [1, 2^53].
TEST(SerializeTest, WindowSpecExtentsOutsideTheirDomainRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    uint8_t type;  // 0 = sequence, 1 = time.
    double extent;
    bool valid;
  };
  const Case cases[] = {
      {0, 1.0, true},    {0, 0x1p53, true},   {1, 0.5, true},
      {0, 0.5, false},   {0, nan, false},     {0, 100.5, false},
      {0, 1e300, false}, {0, 0x1p53 + 2, false}, {0, inf, false},
      {1, nan, false},   {1, inf, false},     {1, -1.0, false},
      {1, 0.0, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.type) + " " + std::to_string(c.extent));
    ByteWriter w;
    w.Put(c.type);
    w.Put(c.extent);
    ByteReader r(w.bytes());
    const auto window = WindowSpec::Deserialize(&r);
    EXPECT_EQ(window.ok(), c.valid);
    if (c.valid) {
      EXPECT_EQ(window->extent(), c.extent);
    }
  }
}

// Serializes `algorithm` at d = 4 after `rows` updates at ts = 0, 1, ...
std::vector<uint8_t> Checkpoint(const char* algorithm, int rows) {
  SketchConfig config;
  config.algorithm = algorithm;
  config.ell = 8;
  config.max_norm_sq = 2.0;
  auto sketch = MakeSlidingWindowSketch(4, WindowSpec::Sequence(100), config);
  EXPECT_TRUE(sketch.ok()) << sketch.status().message();
  Rng rng(13);
  for (int i = 0; i < rows; ++i) (*sketch)->Update(RandomRow(&rng, 4), i);
  ByteWriter w;
  EXPECT_TRUE((*sketch)->SerializeTo(&w).ok());
  return w.TakeBytes();
}

void ExpectRejected(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  const auto loaded = DeserializeSlidingWindowSketch(&r);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// An empty LM-FD or DS-FD ends with its level or frame count. Levels and
// frames are pushed as they parse, so a count no payload could hold runs
// out of payload (InvalidArgument) instead of sizing a buffer.
TEST(SerializeTest, WireCountsBeyondThePayloadRejected) {
  for (const char* algorithm : {"lm-fd", "ds-fd"}) {
    SCOPED_TRACE(algorithm);
    std::vector<uint8_t> bytes = Checkpoint(algorithm, 0);
    uint64_t count = 1;
    std::memcpy(&count, &bytes[bytes.size() - 8], sizeof(count));
    ASSERT_EQ(count, 0u);
    count = 1ULL << 59;
    std::memcpy(&bytes[bytes.size() - 8], &count, sizeof(count));
    ExpectRejected(bytes);
  }
}

// Every Update requires ts >= the sketch clock, so a NaN or +inf clock
// (the sketch's own, or its Frobenius histogram's) is rejected on load.
// The clock is the first double 49.0 after the header (50 rows at
// ts = 0..49); the histogram's follows it.
TEST(SerializeTest, NonFiniteLoadedClockRejected) {
  struct Case {
    const char* algorithm;
    int occurrence;  // 1 = the sketch clock, 2 = the histogram clock.
  };
  const Case cases[] = {{"lm-fd", 1}, {"di-fd", 1}, {"ds-fd", 1},
                        {"swr", 1},   {"swor", 1},  {"amm-exact", 1},
                        {"ds-fd", 2}, {"swr", 2},   {"swor", 2}};
  const double clock = 49.0;
  uint8_t pattern[8];
  std::memcpy(pattern, &clock, sizeof(clock));
  for (const Case& c : cases) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(std::string(c.algorithm) + " clock " +
                   std::to_string(c.occurrence) + " = " +
                   std::to_string(bad));
      std::vector<uint8_t> bytes = Checkpoint(c.algorithm, 50);
      auto at = bytes.begin() + 32;  // Past every header's dims.
      for (int k = 0; k < c.occurrence; ++k) {
        if (k != 0) ++at;
        at = std::search(at, bytes.end(), pattern, pattern + 8);
        ASSERT_NE(at, bytes.end());
      }
      std::memcpy(&*at, &bad, sizeof(bad));
      ExpectRejected(bytes);
    }
  }
}

// An AMM header carries the operand split it was built with: a zero
// width on either side is corrupt, not a request for the default split.
TEST(SerializeTest, AmmZeroOperandWidthRejected) {
  for (const char* algorithm : {"amm-exact", "amm-lm-fd"}) {
    for (size_t offset : {8, 16}) {  // dim_a, then dim_b.
      SCOPED_TRACE(std::string(algorithm) + " at " + std::to_string(offset));
      std::vector<uint8_t> bytes = Checkpoint(algorithm, 50);
      uint64_t width = 0;
      std::memcpy(&width, &bytes[offset], sizeof(width));
      ASSERT_EQ(width, 2u);
      width = 0;
      std::memcpy(&bytes[offset], &width, sizeof(width));
      ExpectRejected(bytes);
    }
  }
}

// A nested FD block must have the config its parent's block factory
// builds: the first embedded FD payload with its ell raised by one is
// rejected (LM-FD would abort merging it, DI-FD and DS-FD would run a
// level or frame at the wrong size).
TEST(SerializeTest, NestedBlockConfigMismatchRejected) {
  for (const char* algorithm : {"lm-fd", "di-fd", "ds-fd"}) {
    SCOPED_TRACE(algorithm);
    std::vector<uint8_t> bytes = Checkpoint(algorithm, 300);
    ByteWriter needle;
    WriteHeader(&needle, 0x46440001, 2);
    const auto it = std::search(bytes.begin(), bytes.end(),
                                needle.bytes().begin(), needle.bytes().end());
    ASSERT_NE(it, bytes.end());
    const size_t ell_at = static_cast<size_t>(it - bytes.begin()) + 16;
    uint64_t ell = 0;
    std::memcpy(&ell, &bytes[ell_at], sizeof(ell));
    ++ell;
    std::memcpy(&bytes[ell_at], &ell, sizeof(ell));
    ExpectRejected(bytes);
  }
}

}  // namespace
}  // namespace swsketch
