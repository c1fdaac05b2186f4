// Factory-level serialization contract, driven off KnownAlgorithms() so a
// newly registered backend is covered the day it lands: every algorithm
// whose SketchPrototype says `serializable()` must (a) SerializeTo
// successfully, (b) reload through the tag-dispatched
// DeserializeSlidingWindowSketch, (c) re-serialize to the EXACT same
// bytes, (d) answer the same Query() bit-for-bit, and (e) stay in byte
// lockstep under continued ingest. Algorithms the prototype marks
// non-serializable must say so through SerializeTo's status — the two
// signals may never disagree, because TenantManager spills through one
// and trusts the other.
//
// The same loop referees the two construction paths: a heap sketch from
// MakeSlidingWindowSketch and a ConstructAt instance in caller storage
// (the TenantManager slab path), fed the same stream, must agree byte for
// byte on name(), Query() and SerializeTo().
//
// Instances of one prototype may run on different threads: two of them
// fed from two threads must end byte-identical to twins fed serially.
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "linalg/matrix.h"
#include "util/random.h"
#include "util/serialize.h"

namespace swsketch {
namespace {

// A prototype instance placed into aligned caller storage, destroyed
// through the virtual destructor like a TenantManager slab tenant.
class PlacedSketch {
 public:
  explicit PlacedSketch(const SketchPrototype& proto)
      : align_(std::align_val_t(proto.instance_align())),
        mem_(::operator new(proto.instance_size(), align_)),
        sketch_(proto.ConstructAt(mem_)) {}
  ~PlacedSketch() {
    sketch_->~SlidingWindowSketch();
    ::operator delete(mem_, align_);
  }
  PlacedSketch(const PlacedSketch&) = delete;
  PlacedSketch& operator=(const PlacedSketch&) = delete;

  SlidingWindowSketch* get() const { return sketch_; }
  SlidingWindowSketch* operator->() const { return sketch_; }

 private:
  std::align_val_t align_;
  void* mem_;
  SlidingWindowSketch* sketch_;
};

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.Data().size() * sizeof(double)) == 0;
}

bool SameBytes(const ByteWriter& a, const ByteWriter& b) {
  return a.bytes().size() == b.bytes().size() &&
         std::memcmp(a.bytes().data(), b.bytes().data(),
                     a.bytes().size()) == 0;
}

void IngestRows(SlidingWindowSketch* sketch, size_t n, size_t d,
                uint64_t seed, double* t, size_t query_every = 0) {
  Rng rng(seed);
  std::vector<double> row(d);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.Gaussian();
    *t += 1.0;
    sketch->Update(row, *t);
    if (query_every != 0 && (i + 1) % query_every == 0) sketch->Query();
  }
}

ByteWriter Serialized(const SlidingWindowSketch& sketch) {
  ByteWriter w;
  EXPECT_TRUE(sketch.SerializeTo(&w).ok());
  return w;
}

TEST(FactoryRoundTripTest, EveryKnownAlgorithmRoundTripsOrDeclines) {
  const size_t d = 7;
  const WindowSpec window = WindowSpec::Sequence(64);
  size_t serializable_count = 0;
  for (const std::string& algo : KnownAlgorithms()) {
    SCOPED_TRACE(algo);
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    config.max_norm_sq = 16.0 * static_cast<double>(d);
    config.seed = 7;
    auto proto = SketchPrototype::Make(d, window, config);
    ASSERT_TRUE(proto.ok()) << proto.status().ToString();
    auto made = MakeSlidingWindowSketch(d, window, config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    auto& sketch = *made;
    PlacedSketch placed(*proto);

    double t = 0.0;
    IngestRows(sketch.get(), 300, d, 13, &t);
    double tp = 0.0;
    IngestRows(placed.get(), 300, d, 13, &tp);
    EXPECT_EQ(placed->name(), sketch->name());

    ByteWriter w1;
    const Status st = sketch->SerializeTo(&w1);
    ASSERT_EQ(st.ok(), proto->serializable())
        << "SketchPrototype::serializable() and SerializeTo() disagree";
    ByteWriter wp;
    ASSERT_EQ(placed->SerializeTo(&wp).ok(), st.ok());
    if (st.ok()) {
      EXPECT_TRUE(SameBytes(w1, wp)) << "heap and arena bytes differ";
    }
    EXPECT_TRUE(SameBytes(sketch->Query(), placed->Query()))
        << "heap and arena answers differ";
    if (!st.ok()) continue;
    ++serializable_count;

    ByteReader r(w1.bytes());
    auto loaded = DeserializeSlidingWindowSketch(&r);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(r.AtEnd()) << "trailing bytes after deserialize";

    // Re-serialize: the reloaded state must emit the original bytes.
    ByteWriter w2;
    ASSERT_TRUE((*loaded)->SerializeTo(&w2).ok());
    ASSERT_EQ(w1.bytes().size(), w2.bytes().size());
    EXPECT_EQ(std::memcmp(w1.bytes().data(), w2.bytes().data(),
                          w1.bytes().size()),
              0)
        << "serialize -> deserialize -> serialize changed bytes";

    // Identical answers, bit-for-bit.
    const Matrix qa = sketch->Query();
    const Matrix qb = (*loaded)->Query();
    ASSERT_EQ(qa.rows(), qb.rows());
    EXPECT_EQ(qa.MaxAbsDiff(qb), 0.0);

    // Continued ingest stays in lockstep (same rows, same timestamps).
    double t2 = t;
    IngestRows(sketch.get(), 80, d, 29, &t);
    IngestRows(loaded->get(), 80, d, 29, &t2);
    const Matrix ca = sketch->Query();
    const Matrix cb = (*loaded)->Query();
    ASSERT_EQ(ca.rows(), cb.rows());
    EXPECT_EQ(ca.MaxAbsDiff(cb), 0.0) << "post-reload ingest diverged";
  }
  // The serializable set (swr, swor, swor-all, lm-fd, lm-hash, di-fd,
  // ds-fd, amm-exact, amm-co-fd, amm-lm-fd, amm-di-fd today) may only
  // grow.
  EXPECT_GE(serializable_count, 11u);
}

TEST(FactoryRoundTripTest, InstancesOfOnePrototypeRunOnTwoThreads) {
  const size_t d = 32, rows = 1500, query_every = 100;
  const WindowSpec window = WindowSpec::Sequence(400);
  size_t fd_backed = 0;
  for (const std::string& algo : KnownAlgorithms()) {
    if (!algo.ends_with("-fd")) continue;
    SCOPED_TRACE(algo);
    ++fd_backed;
    SketchConfig config;
    config.algorithm = algo;
    config.ell = 8;
    config.max_norm_sq = 16.0 * static_cast<double>(d);
    auto proto = SketchPrototype::Make(d, window, config);
    ASSERT_TRUE(proto.ok()) << proto.status().ToString();

    std::unique_ptr<SlidingWindowSketch> a = proto->Construct();
    std::unique_ptr<SlidingWindowSketch> b = proto->Construct();
    std::thread ta([&] {
      double t = 0.0;
      IngestRows(a.get(), rows, d, 41, &t, query_every);
    });
    std::thread tb([&] {
      double t = 0.0;
      IngestRows(b.get(), rows, d, 43, &t, query_every);
    });
    ta.join();
    tb.join();

    std::unique_ptr<SlidingWindowSketch> twin_a = proto->Construct();
    std::unique_ptr<SlidingWindowSketch> twin_b = proto->Construct();
    double t = 0.0;
    IngestRows(twin_a.get(), rows, d, 41, &t, query_every);
    t = 0.0;
    IngestRows(twin_b.get(), rows, d, 43, &t, query_every);
    EXPECT_TRUE(SameBytes(Serialized(*a), Serialized(*twin_a)));
    EXPECT_TRUE(SameBytes(Serialized(*b), Serialized(*twin_b)));
  }
  // lm-fd, di-fd, ds-fd, amm-co-fd, amm-lm-fd, amm-di-fd.
  EXPECT_EQ(fd_backed, 6u);
}

}  // namespace
}  // namespace swsketch
