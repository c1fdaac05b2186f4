// Multi-tenant sliding-window sketch manager (DESIGN.md §8 "Multi-tenant
// serving"): multiplexes a keyed row stream (tenant key -> row) across one
// SlidingWindowSketch per key, scaling the paper's per-window sketches to
// 100k+ concurrent windows.
//
// Systems layout:
//  - Key -> slot resolution is one probe of an open-addressing table
//    (power-of-two, linear probing, grown at 70% load). Tenants are never
//    deleted while the manager lives, so the table needs no tombstones.
//  - Sketch instances live in fixed-size slabs from a TenantArena pool,
//    stamped by a core/factory SketchPrototype: creating tenant #100,001
//    costs one bump-pointer hit plus a placement constructor with
//    pre-resolved metric handles, instead of a heap allocation plus a
//    dozen registry lookups. All tenants share the process-wide
//    ThreadPool for cold query merges.
//  - UpdateKeyed() groups a batch of keyed rows by tenant (stable, first
//    touch order, per-key stream order preserved) and forwards each group
//    through the tenant's UpdateBatch block fast path, amortizing
//    lookup + virtual dispatch + LRU/budget bookkeeping to once per group.
//    Per-tenant state is bit-identical to feeding that tenant's rows alone
//    (UpdateBatch documents its serial-equivalence per backend).
//  - Under a memory budget, the coldest tenants (LRU over every touching
//    op) serialize into a compacting SpillRegion using the existing v2
//    wire format and their slabs return to the arena pool. A spilled
//    tenant reloads lazily on next touch, bit-stably: serialization
//    round-trips the full sketch state and query caches are never
//    serialized, so a reloaded tenant answers Query() byte-identically to
//    a never-evicted twin.
//
// Not thread-safe: one manager serves one writer thread (shard a keyed
// stream across managers with distributed/sharded_sketch idioms for more).
#ifndef SWSKETCH_SERVICE_TENANT_MANAGER_H_
#define SWSKETCH_SERVICE_TENANT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/factory.h"
#include "core/sliding_window_sketch.h"
#include "linalg/matrix.h"
#include "service/tenant_arena.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/status.h"

namespace swsketch {

/// One row of a keyed stream: tenant key, timestamp, dense values (must
/// stay valid for the duration of the UpdateKeyed call).
struct KeyedRow {
  uint64_t key = 0;
  double ts = 0.0;
  std::span<const double> values;
};

/// Owner of per-key sliding-window sketches with arena allocation and
/// budget-driven eviction/spill.
class TenantManager {
 public:
  struct Options {
    /// Aggregate resident-bytes budget, enforced against the charged-bytes
    /// model reported by resident_bytes(). 0 disables eviction. A nonzero
    /// budget requires a serializable algorithm (swr, swor, swor-all,
    /// lm-fd, lm-hash, di-fd) so cold tenants can spill.
    size_t memory_budget_bytes = 0;
    /// Eviction never shrinks the resident set below this many tenants
    /// (the budget is a target, not a hard cap, once only this many
    /// remain).
    size_t min_resident_tenants = 1;
    /// Arena chunk granularity in slots.
    size_t slots_per_chunk = 1024;
    /// Metric name prefix ("tenant_manager.tenants", ...). Managers with
    /// the same prefix share counters, so ledger laws hold per prefix.
    std::string metrics_prefix = "tenant_manager";
  };

  /// Builds one SketchPrototype for every tenant, so a bad config gets
  /// the same InvalidArgument as MakeSlidingWindowSketch.
  static Result<std::unique_ptr<TenantManager>> Make(
      size_t dim, WindowSpec window, const SketchConfig& config,
      Options options);
  static Result<std::unique_ptr<TenantManager>> Make(
      size_t dim, WindowSpec window, const SketchConfig& config) {
    return Make(dim, window, config, Options());
  }

  ~TenantManager();
  TenantManager(const TenantManager&) = delete;
  TenantManager& operator=(const TenantManager&) = delete;

  /// Single-row ingest (the naive per-row path: one lookup + one virtual
  /// dispatch + bookkeeping per row). Creates the tenant on first touch.
  /// Timestamps, here and in UpdateKeyed and AdvanceTo, are finite and
  /// never older than the tenant's clock (its newest timestamp, 0 for a
  /// new tenant); anything else is InvalidArgument.
  Status Update(uint64_t key, std::span<const double> row, double ts);

  /// Keyed batch fast path: groups `rows` by tenant and forwards each
  /// group through UpdateBatch. Timestamps must be non-decreasing per key
  /// (continuing from that tenant's clock). The whole batch is checked
  /// before any tenant's state changes. Creates tenants on first touch.
  Status UpdateKeyed(std::span<const KeyedRow> rows);

  /// Pre-provisions a tenant without feeding rows (idempotent). Exposed
  /// for warm-up flows and the creation-cost benchmark.
  Status CreateTenant(uint64_t key);

  /// Advances one tenant's window clock without an arrival.
  Status AdvanceTo(uint64_t key, double now);

  /// Approximation for the tenant's current window; an empty 0 x dim
  /// matrix for a key that was never fed. Reloads a spilled tenant.
  Result<Matrix> Query(uint64_t key);

  size_t dim() const { return dim_; }
  size_t num_tenants() const { return tenants_.size(); }
  size_t resident_tenants() const { return resident_count_; }
  size_t spilled_tenants() const { return tenants_.size() - resident_count_; }

  /// Charged-bytes model of the resident set: per tenant, its slab stride
  /// plus fixed bookkeeping plus RowsStored() * (row payload + container
  /// overhead). This is what the budget bounds; it tracks real usage to
  /// within the model constants, not an allocator census.
  size_t resident_bytes() const { return resident_bytes_; }
  size_t spill_bytes() const { return spill_.live_bytes(); }
  size_t arena_reserved_bytes() const { return arena_.reserved_bytes(); }

  /// Force-evicts one tenant (test/bench hook). OK and a no-op when the
  /// tenant is already spilled; NotFound for unknown keys; Unimplemented
  /// when the algorithm cannot serialize.
  Status EvictTenant(uint64_t key);

  bool IsResident(uint64_t key) const;

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Tenant {
    uint64_t key = 0;
    SlidingWindowSketch* sketch = nullptr;  // Null while spilled.
    void* slab = nullptr;
    uint32_t spill_record = SpillRegion::kInvalidRecord;
    uint64_t charged_bytes = 0;
    double clock = 0.0;  // Newest timestamp seen; kept while spilled.
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
  };

  struct TableEntry {
    uint64_t key = 0;
    uint32_t slot_plus_1 = 0;  // 0 = empty.
  };

  // Tenant ledger (per metrics_prefix, settled at destruction):
  //   tenants_created == tenants + resident_discarded + spilled_discarded
  //   tenants_created + reloads
  //     == spills + resident_discarded + resident_tenants
  //   spills == reloads + spilled_discarded + spilled_tenants
  struct MetricSet {
    explicit MetricSet(const MetricScope& scope)
        : tenants_created(scope.counter("tenants_created")),
          rows_ingested(scope.counter("rows_ingested")),
          keyed_batches(scope.counter("keyed_batches")),
          keyed_groups(scope.counter("keyed_groups")),
          queries(scope.counter("queries")),
          spills(scope.counter("spills")),
          reloads(scope.counter("reloads")),
          resident_discarded(scope.counter("resident_discarded")),
          spilled_discarded(scope.counter("spilled_discarded")),
          spill_compactions(scope.counter("spill_compactions")),
          tenants(scope.gauge("tenants")),
          resident_tenants(scope.gauge("resident_tenants")),
          spilled_tenants(scope.gauge("spilled_tenants")),
          resident_bytes(scope.gauge("resident_bytes")),
          spill_bytes(scope.gauge("spill_bytes")),
          arena_reserved_bytes(scope.gauge("arena_reserved_bytes")) {}
    Counter* tenants_created;
    Counter* rows_ingested;
    Counter* keyed_batches;
    Counter* keyed_groups;
    Counter* queries;
    Counter* spills;
    Counter* reloads;
    Counter* resident_discarded;
    Counter* spilled_discarded;
    Counter* spill_compactions;
    Gauge* tenants;
    Gauge* resident_tenants;
    Gauge* spilled_tenants;
    Gauge* resident_bytes;
    Gauge* spill_bytes;
    Gauge* arena_reserved_bytes;
  };

  TenantManager(size_t dim, WindowSpec window, SketchPrototype proto,
                Options options);

  uint32_t FindSlot(uint64_t key) const;     // kNil when absent.
  uint32_t FindOrCreateSlot(uint64_t key);   // Creates resident on miss.
  // The clock a row for the tenant in `slot` must not precede: a new
  // tenant's when `slot` is kNil.
  double ClockOf(uint32_t slot) const {
    return slot == kNil ? Tenant{}.clock : tenants_[slot].clock;
  }
  Status EnsureResident(uint32_t slot);      // Lazy bit-stable reload.
  void EvictSlot(uint32_t slot);             // Spill + release slab.
  void EnforceBudget();                      // Evict LRU tail to budget.
  void Touch(uint32_t slot);                 // LRU move-to-front.
  void LruPushFront(uint32_t slot);
  void LruRemove(uint32_t slot);
  void Recharge(uint32_t slot);              // Refresh charged bytes.
  uint64_t ChargeOf(const Tenant& t) const;
  void SyncStorageGauges();
  void GrowTable();

  size_t dim_;
  WindowSpec window_;
  Options options_;
  SketchPrototype proto_;
  TenantArena arena_;
  SpillRegion spill_;
  MetricSet metrics_;

  std::vector<Tenant> tenants_;
  std::vector<TableEntry> table_;
  size_t table_mask_ = 0;
  size_t table_used_ = 0;

  uint32_t lru_head_ = kNil;
  uint32_t lru_tail_ = kNil;
  size_t resident_count_ = 0;
  size_t resident_bytes_ = 0;

  // UpdateKeyed scratch, reused across calls (allocation-free in steady
  // state). slot_group_/slot_group_epoch_ map slot -> group id for the
  // current batch without clearing between batches.
  struct Group {
    uint32_t slot = 0;
    uint32_t count = 0;
    uint32_t offset = 0;
    double clock = 0.0;  // The tenant's clock after this group's rows.
    uint64_t key = 0;
  };
  std::vector<uint32_t> row_group_;
  std::vector<Group> groups_;
  std::vector<uint32_t> grouped_rows_;
  std::vector<uint32_t> slot_group_;
  std::vector<uint64_t> slot_group_epoch_;
  std::unordered_map<uint64_t, uint32_t> new_key_group_;  // Key -> group.
  uint64_t group_epoch_ = 0;
  Matrix group_rows_{0, 0};
  std::vector<double> group_ts_;

  // Deltas already pushed into the shared gauges, so multiple managers
  // with one prefix settle exactly at destruction.
  int64_t gauge_spill_bytes_ = 0;
  int64_t gauge_arena_bytes_ = 0;
  size_t counted_compactions_ = 0;
};

}  // namespace swsketch

#endif  // SWSKETCH_SERVICE_TENANT_MANAGER_H_
