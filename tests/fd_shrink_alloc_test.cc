// Asserts the tentpole property of the Gram-eigen shrink: once warm, the
// FD steady state (Append loop including shrinks) performs zero heap
// allocations. The test binary replaces global operator new/delete with
// counting versions; counting is switched on only around the measured
// window so gtest's own bookkeeping stays invisible.
//
// Each tests/*.cc is its own gtest binary (see tests/CMakeLists.txt), so
// the global override is confined to this process.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/merge_reduce.h"
#include "sketch/frequent_directions.h"
#include "util/metrics.h"
#include "util/random.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// noinline: at -O1+ GCC inlines these malloc/free bodies into callers and
// then flags new/free pairs as -Wmismatched-new-delete; the replacement
// allocator is matched by construction, so keep the bodies opaque.
#if defined(__GNUC__)
#define SWSKETCH_NOINLINE __attribute__((noinline))
#else
#define SWSKETCH_NOINLINE
#endif

SWSKETCH_NOINLINE void* operator new(std::size_t size) {
  return CountedAlloc(size);
}
SWSKETCH_NOINLINE void* operator new[](std::size_t size) {
  return CountedAlloc(size);
}
SWSKETCH_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
SWSKETCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
SWSKETCH_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
SWSKETCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace swsketch {
namespace {

Matrix RandomMatrix(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

// Drives `fd` with pre-generated rows until it has performed `shrinks`
// more shrinks, returning the number of heap allocations observed.
size_t AllocationsOverShrinks(FrequentDirections* fd, const Matrix& rows,
                              size_t shrinks, size_t* cursor) {
  const size_t target = fd->shrink_count() + shrinks;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  while (fd->shrink_count() < target) {
    fd->Append(rows.Row(*cursor % rows.rows()), *cursor);
    ++*cursor;
  }
  g_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

// Note on shapes: both configs keep the W^T B product under the thread
// pool's parallel-dispatch flop threshold, so the shrink runs inline on
// the caller thread (pool task posting would allocate by design).

TEST(FdShrinkAllocTest, SteadyStateShrinkIsAllocationFreeTridiagRoute) {
  // ell = 40: a 40 x 40 Gram through the tridiagonal QL eigensolver and
  // its Householder scratch.
  const size_t d = 64, ell = 40;
  FrequentDirections fd(d, FrequentDirections::Options{.ell = ell});
  const Matrix rows = RandomMatrix(4 * ell, d, 5);
  size_t cursor = 0;
  // Warm-up: two shrinks size every scratch buffer to its steady shape.
  while (fd.shrink_count() < 2) {
    fd.Append(rows.Row(cursor % rows.rows()), cursor);
    ++cursor;
  }
  EXPECT_EQ(AllocationsOverShrinks(&fd, rows, 3, &cursor), 0u);
}

TEST(FdShrinkAllocTest, SteadyStateShrinkIsAllocationFreeSmallGram) {
  // ell = 16: the small Grams that LM/DI shrink most often, on the same
  // tridiagonal QL scratch.
  const size_t d = 64, ell = 16;
  FrequentDirections fd(d, FrequentDirections::Options{.ell = ell});
  const Matrix rows = RandomMatrix(4 * ell, d, 7);
  size_t cursor = 0;
  while (fd.shrink_count() < 2) {
    fd.Append(rows.Row(cursor % rows.rows()), cursor);
    ++cursor;
  }
  EXPECT_EQ(AllocationsOverShrinks(&fd, rows, 3, &cursor), 0u);
}

TEST(FdShrinkAllocTest, BufferedSteadyStateShrinkIsAllocationFree) {
  // buffer_factor > 1: the buffer oscillates between ~ell/2 and 2*ell
  // rows; the matrix storage was reserved at capacity up front, so the
  // grow-shrink cycle must still not touch the heap.
  const size_t d = 64, ell = 16;
  FrequentDirections fd(
      d, FrequentDirections::Options{.ell = ell, .buffer_factor = 2.0});
  const Matrix rows = RandomMatrix(8 * ell, d, 9);
  size_t cursor = 0;
  while (fd.shrink_count() < 2) {
    fd.Append(rows.Row(cursor % rows.rows()), cursor);
    ++cursor;
  }
  EXPECT_EQ(AllocationsOverShrinks(&fd, rows, 3, &cursor), 0u);
}

TEST(FdShrinkAllocTest, FreshFdOnWarmThreadShrinksWithoutAllocating) {
  // LM/DI block pattern: the shrink workspace belongs to the thread, so a
  // second sketch on a thread whose workspace is already warm must be
  // allocation-free from its very first shrink (after its own buffer
  // warm-up appends).
  const size_t d = 64, ell = 16;
  const Matrix rows = RandomMatrix(4 * ell, d, 11);

  FrequentDirections warm(d, FrequentDirections::Options{.ell = ell});
  size_t cursor = 0;
  while (warm.shrink_count() < 2) {
    warm.Append(rows.Row(cursor % rows.rows()), cursor);
    ++cursor;
  }

  FrequentDirections fresh(d, FrequentDirections::Options{.ell = ell});
  // Fill the fresh buffer to one row short of its first shrink, then
  // measure that shrink: the thread's workspace is already sized.
  size_t cursor2 = 0;
  while (fresh.RowsStored() < fresh.buffer_capacity()) {
    fresh.Append(rows.Row(cursor2 % rows.rows()), cursor2);
    ++cursor2;
  }
  EXPECT_EQ(AllocationsOverShrinks(&fresh, rows, 1, &cursor2), 0u);
}

// The sharded kFdMerge reduce builds a new FD per combined pair. On a
// thread that has shrunk before, none of those FDs creates a workspace.
TEST(FdShrinkAllocTest, FdMergeReduceReusesTheThreadsWorkspace) {
  const size_t d = 32;
  const QueryReduceSpec spec{.kind = QueryReduceKind::kFdMerge,
                             .reduce_ell = 8};
  const Matrix a = RandomMatrix(8, d, 13);
  const Matrix b = RandomMatrix(8, d, 17);
  Counter* creates =
      MetricsRegistry::Global().GetCounter("fd.scratch_creates");
  // Warm-up: the thread's first shrink.
  const Matrix first = CombineQueryPair(spec, d, a, b);
  const uint64_t creates0 = creates->Value();
  for (int i = 0; i < 50; ++i) {
    const Matrix again = CombineQueryPair(spec, d, a, b);
    ASSERT_EQ(again.rows(), first.rows());
    EXPECT_EQ(again.MaxAbsDiff(first), 0.0);
  }
  EXPECT_EQ(creates->Value(), creates0);
}

}  // namespace
}  // namespace swsketch
