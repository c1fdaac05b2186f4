#include "service/tenant_manager.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "util/logging.h"

namespace swsketch {

namespace {

// Charged-bytes model constants (see resident_bytes() doc): fixed
// per-tenant bookkeeping outside the slab (table entry, Tenant record,
// allocator headers) and per-stored-row container overhead beyond the raw
// payload (block headers, vector slack).
constexpr uint64_t kTenantFixedBytes = 160;
constexpr uint64_t kPerRowBytes = 48;

constexpr size_t kInitialTableSize = 1024;  // Power of two.

// splitmix64 finalizer: full-avalanche mix for the open-addressing probe,
// so dense/sequential tenant keys spread uniformly.
uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// InvalidArgument unless `ts` is finite and not older than the tenant's
// clock.
Status CheckClock(uint64_t key, double ts, double clock) {
  if (std::isfinite(ts) && ts >= clock) return Status::OK();
  return Status::InvalidArgument(
      "timestamp " + std::to_string(ts) + " for tenant " +
      std::to_string(key) + " is not finite or is older than the tenant's "
      "clock " + std::to_string(clock));
}

}  // namespace

Result<std::unique_ptr<TenantManager>> TenantManager::Make(
    size_t dim, WindowSpec window, const SketchConfig& config,
    Options options) {
  auto proto = SketchPrototype::Make(dim, window, config);
  if (!proto.ok()) return proto.status();
  if (options.memory_budget_bytes > 0 && !proto.value().serializable()) {
    return Status::InvalidArgument(
        "memory_budget_bytes requires a serializable algorithm (got '" +
        config.algorithm + "'); use budget 0 for always-resident tenants");
  }
  if (options.min_resident_tenants == 0) options.min_resident_tenants = 1;
  return std::unique_ptr<TenantManager>(
      new TenantManager(dim, window, proto.take(), std::move(options)));
}

TenantManager::TenantManager(size_t dim, WindowSpec window,
                             SketchPrototype proto, Options options)
    : dim_(dim),
      window_(window),
      options_(std::move(options)),
      proto_(std::move(proto)),
      arena_(proto_.instance_size(), proto_.instance_align(),
             options_.slots_per_chunk),
      metrics_(MetricScope(options_.metrics_prefix)),
      table_(kInitialTableSize),
      table_mask_(kInitialTableSize - 1) {}

TenantManager::~TenantManager() {
  uint64_t resident = 0;
  uint64_t spilled = 0;
  for (Tenant& t : tenants_) {
    if (t.sketch != nullptr) {
      t.sketch->~SlidingWindowSketch();
      arena_.ReleaseSlot(t.slab);
      ++resident;
    } else {
      spill_.Free(t.spill_record);
      ++spilled;
    }
  }
  metrics_.resident_discarded->Add(resident);
  metrics_.spilled_discarded->Add(spilled);
  metrics_.tenants->Add(-static_cast<int64_t>(tenants_.size()));
  metrics_.resident_tenants->Add(-static_cast<int64_t>(resident));
  metrics_.spilled_tenants->Add(-static_cast<int64_t>(spilled));
  metrics_.resident_bytes->Add(-static_cast<int64_t>(resident_bytes_));
  SyncStorageGauges();  // Spill region is empty now -> settles to zero.
  // The arena only releases its chunks when it destructs (right after
  // this body), so retire our contribution to the shared gauge by hand.
  metrics_.arena_reserved_bytes->Add(-gauge_arena_bytes_);
  gauge_arena_bytes_ = 0;
}

uint32_t TenantManager::FindSlot(uint64_t key) const {
  size_t i = MixKey(key) & table_mask_;
  while (true) {
    const TableEntry& e = table_[i];
    if (e.slot_plus_1 == 0) return kNil;
    if (e.key == key) return e.slot_plus_1 - 1;
    i = (i + 1) & table_mask_;
  }
}

void TenantManager::GrowTable() {
  std::vector<TableEntry> old = std::move(table_);
  table_.assign(old.size() * 2, TableEntry{});
  table_mask_ = table_.size() - 1;
  for (const TableEntry& e : old) {
    if (e.slot_plus_1 == 0) continue;
    size_t i = MixKey(e.key) & table_mask_;
    while (table_[i].slot_plus_1 != 0) i = (i + 1) & table_mask_;
    table_[i] = e;
  }
}

uint32_t TenantManager::FindOrCreateSlot(uint64_t key) {
  size_t i = MixKey(key) & table_mask_;
  while (true) {
    TableEntry& e = table_[i];
    if (e.slot_plus_1 != 0) {
      if (e.key == key) return e.slot_plus_1 - 1;
      i = (i + 1) & table_mask_;
      continue;
    }
    // Miss: create a resident tenant in a fresh arena slot.
    const uint32_t slot = static_cast<uint32_t>(tenants_.size());
    void* slab = arena_.AllocateSlot();
    Tenant t;
    t.key = key;
    t.slab = slab;
    t.sketch = proto_.ConstructAt(slab);
    tenants_.push_back(t);
    e.key = key;
    e.slot_plus_1 = slot + 1;
    ++table_used_;
    LruPushFront(slot);
    ++resident_count_;
    metrics_.tenants_created->Add(1);
    metrics_.tenants->Add(1);
    metrics_.resident_tenants->Add(1);
    Recharge(slot);
    SyncStorageGauges();
    if (table_used_ * 10 >= table_.size() * 7) GrowTable();
    return slot;
  }
}

Status TenantManager::EnsureResident(uint32_t slot) {
  Tenant& t = tenants_[slot];
  if (t.sketch != nullptr) return Status::OK();
  void* slab = arena_.AllocateSlot();
  ByteReader reader(spill_.View(t.spill_record));
  auto loaded = proto_.DeserializeAt(slab, &reader);
  if (!loaded.ok()) {
    arena_.ReleaseSlot(slab);
    return loaded.status();
  }
  t.slab = slab;
  t.sketch = loaded.value();
  spill_.Free(t.spill_record);
  t.spill_record = SpillRegion::kInvalidRecord;
  LruPushFront(slot);
  ++resident_count_;
  metrics_.reloads->Add(1);
  metrics_.resident_tenants->Add(1);
  metrics_.spilled_tenants->Add(-1);
  Recharge(slot);  // charged_bytes was zeroed at eviction.
  SyncStorageGauges();
  return Status::OK();
}

void TenantManager::EvictSlot(uint32_t slot) {
  Tenant& t = tenants_[slot];
  SWSKETCH_CHECK(t.sketch != nullptr);
  ByteWriter writer;
  Status st = t.sketch->SerializeTo(&writer);
  // Make() rejected budgets for non-serializable algorithms, so a failure
  // here is a programming error, not an input error.
  SWSKETCH_CHECK(st.ok());
  t.spill_record = spill_.Append(writer.bytes());
  t.sketch->~SlidingWindowSketch();
  arena_.ReleaseSlot(t.slab);
  t.sketch = nullptr;
  t.slab = nullptr;
  LruRemove(slot);
  SWSKETCH_CHECK_GT(resident_count_, 0u);
  --resident_count_;
  resident_bytes_ -= t.charged_bytes;
  metrics_.resident_bytes->Add(-static_cast<int64_t>(t.charged_bytes));
  t.charged_bytes = 0;
  metrics_.spills->Add(1);
  metrics_.resident_tenants->Add(-1);
  metrics_.spilled_tenants->Add(1);
  SyncStorageGauges();
}

void TenantManager::EnforceBudget() {
  if (options_.memory_budget_bytes == 0) return;
  while (resident_bytes_ > options_.memory_budget_bytes &&
         resident_count_ > options_.min_resident_tenants &&
         lru_tail_ != kNil) {
    EvictSlot(lru_tail_);
  }
}

void TenantManager::Touch(uint32_t slot) {
  if (lru_head_ == slot) return;
  LruRemove(slot);
  LruPushFront(slot);
}

void TenantManager::LruPushFront(uint32_t slot) {
  Tenant& t = tenants_[slot];
  t.lru_prev = kNil;
  t.lru_next = lru_head_;
  if (lru_head_ != kNil) tenants_[lru_head_].lru_prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void TenantManager::LruRemove(uint32_t slot) {
  Tenant& t = tenants_[slot];
  if (t.lru_prev != kNil) {
    tenants_[t.lru_prev].lru_next = t.lru_next;
  } else {
    lru_head_ = t.lru_next;
  }
  if (t.lru_next != kNil) {
    tenants_[t.lru_next].lru_prev = t.lru_prev;
  } else {
    lru_tail_ = t.lru_prev;
  }
  t.lru_prev = kNil;
  t.lru_next = kNil;
}

uint64_t TenantManager::ChargeOf(const Tenant& t) const {
  return arena_.slot_bytes() + kTenantFixedBytes +
         static_cast<uint64_t>(t.sketch->RowsStored()) *
             (dim_ * sizeof(double) + kPerRowBytes);
}

void TenantManager::Recharge(uint32_t slot) {
  Tenant& t = tenants_[slot];
  const uint64_t now = ChargeOf(t);
  const int64_t delta =
      static_cast<int64_t>(now) - static_cast<int64_t>(t.charged_bytes);
  resident_bytes_ = static_cast<size_t>(
      static_cast<int64_t>(resident_bytes_) + delta);
  metrics_.resident_bytes->Add(delta);
  t.charged_bytes = now;
}

void TenantManager::SyncStorageGauges() {
  const int64_t spill_now = static_cast<int64_t>(spill_.live_bytes());
  if (spill_now != gauge_spill_bytes_) {
    metrics_.spill_bytes->Add(spill_now - gauge_spill_bytes_);
    gauge_spill_bytes_ = spill_now;
  }
  const int64_t arena_now = static_cast<int64_t>(arena_.reserved_bytes());
  if (arena_now != gauge_arena_bytes_) {
    metrics_.arena_reserved_bytes->Add(arena_now - gauge_arena_bytes_);
    gauge_arena_bytes_ = arena_now;
  }
  const size_t compactions_now = spill_.compactions();
  if (compactions_now != counted_compactions_) {
    metrics_.spill_compactions->Add(compactions_now - counted_compactions_);
    counted_compactions_ = compactions_now;
  }
}

Status TenantManager::Update(uint64_t key, std::span<const double> row,
                             double ts) {
  if (row.size() != dim_) {
    return Status::InvalidArgument("row has " + std::to_string(row.size()) +
                                   " values, manager dim is " +
                                   std::to_string(dim_));
  }
  // Checked before the tenant exists, so a rejected row creates none.
  uint32_t slot = FindSlot(key);
  if (Status st = CheckClock(key, ts, ClockOf(slot)); !st.ok()) return st;
  if (slot == kNil) slot = FindOrCreateSlot(key);
  if (Status st = EnsureResident(slot); !st.ok()) return st;
  tenants_[slot].sketch->Update(row, ts);
  tenants_[slot].clock = ts;
  metrics_.rows_ingested->Add(1);
  Touch(slot);
  Recharge(slot);
  EnforceBudget();
  return Status::OK();
}

Status TenantManager::UpdateKeyed(std::span<const KeyedRow> rows) {
  if (rows.empty()) return Status::OK();
  metrics_.keyed_batches->Add(1);
  // Pass 1: check every row and assign each its group (one per key, ids
  // in first-touch order) before any tenant is created or fed, so a
  // rejected batch changes nothing. A known key maps through its slot
  // (slot_group_epoch_ makes the slot -> group map batch-local without
  // clearing it between batches); a key without a tenant maps through
  // new_key_group_ and gets its slot once the whole batch has passed.
  ++group_epoch_;
  groups_.clear();
  new_key_group_.clear();
  row_group_.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].values.size() != dim_) {
      return Status::InvalidArgument(
          "keyed row " + std::to_string(i) + " has " +
          std::to_string(rows[i].values.size()) + " values, manager dim is " +
          std::to_string(dim_));
    }
    const uint64_t key = rows[i].key;
    const uint32_t slot = FindSlot(key);
    const auto next = static_cast<uint32_t>(groups_.size());
    uint32_t g = next;
    if (slot == kNil) {
      const auto it = new_key_group_.find(key);
      if (it == new_key_group_.end()) {
        new_key_group_.emplace(key, next);
      } else {
        g = it->second;
      }
    } else {
      if (slot >= slot_group_.size()) {
        slot_group_.resize(tenants_.size(), 0);
        slot_group_epoch_.resize(tenants_.size(), 0);
      }
      if (slot_group_epoch_[slot] != group_epoch_) {
        slot_group_epoch_[slot] = group_epoch_;
        slot_group_[slot] = next;
      }
      g = slot_group_[slot];
    }
    if (g == next) groups_.push_back(Group{slot, 0, 0, ClockOf(slot), key});
    if (Status st = CheckClock(key, rows[i].ts, groups_[g].clock); !st.ok()) {
      return st;
    }
    groups_[g].clock = rows[i].ts;
    ++groups_[g].count;
    row_group_[i] = g;
  }
  // The batch is valid: create the new keys' tenants in first-touch order.
  for (Group& g : groups_) {
    if (g.slot == kNil) g.slot = FindOrCreateSlot(g.key);
  }
  metrics_.keyed_groups->Add(groups_.size());
  // Prefix-sum the group offsets, then scatter row indices in ascending
  // order so each tenant sees its rows in stream order.
  uint32_t offset = 0;
  for (Group& g : groups_) {
    g.offset = offset;
    offset += g.count;
  }
  grouped_rows_.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    Group& g = groups_[row_group_[i]];
    grouped_rows_[g.offset++] = static_cast<uint32_t>(i);
  }
  // Pass 2: one UpdateBatch per tenant. g.offset now points one past the
  // group's rows (it served as the scatter cursor); the start is
  // offset - count. Budget enforcement is deferred to the end of the
  // batch so no group's tenant is evicted mid-flight.
  for (const Group& g : groups_) {
    if (Status st = EnsureResident(g.slot); !st.ok()) return st;
    const uint32_t start = g.offset - g.count;
    group_rows_.ResetShape(g.count, dim_);
    group_ts_.resize(g.count);
    for (uint32_t j = 0; j < g.count; ++j) {
      const KeyedRow& kr = rows[grouped_rows_[start + j]];
      std::memcpy(group_rows_.Row(j).data(), kr.values.data(),
                  dim_ * sizeof(double));
      group_ts_[j] = kr.ts;
    }
    tenants_[g.slot].sketch->UpdateBatch(group_rows_, group_ts_);
    tenants_[g.slot].clock = g.clock;
    metrics_.rows_ingested->Add(g.count);
    Touch(g.slot);
    Recharge(g.slot);
  }
  EnforceBudget();
  return Status::OK();
}

Status TenantManager::CreateTenant(uint64_t key) {
  FindOrCreateSlot(key);
  EnforceBudget();
  return Status::OK();
}

Status TenantManager::AdvanceTo(uint64_t key, double now) {
  uint32_t slot = FindSlot(key);
  if (Status st = CheckClock(key, now, ClockOf(slot)); !st.ok()) return st;
  if (slot == kNil) slot = FindOrCreateSlot(key);
  Tenant& t = tenants_[slot];
  if (Status st = EnsureResident(slot); !st.ok()) return st;
  t.sketch->AdvanceTo(now);
  t.clock = now;
  Touch(slot);
  Recharge(slot);
  EnforceBudget();
  return Status::OK();
}

Result<Matrix> TenantManager::Query(uint64_t key) {
  metrics_.queries->Add(1);
  const uint32_t slot = FindSlot(key);
  if (slot == kNil) return Matrix(0, dim_);
  if (Status st = EnsureResident(slot); !st.ok()) return st;
  Matrix out = tenants_[slot].sketch->Query();
  Touch(slot);
  Recharge(slot);
  EnforceBudget();
  return out;
}

Status TenantManager::EvictTenant(uint64_t key) {
  const uint32_t slot = FindSlot(key);
  if (slot == kNil) {
    return Status::NotFound("no tenant with key " + std::to_string(key));
  }
  if (!proto_.serializable()) {
    return Status::Unimplemented("algorithm cannot serialize, so tenants "
                                 "cannot spill");
  }
  if (tenants_[slot].sketch == nullptr) return Status::OK();  // Already out.
  EvictSlot(slot);
  return Status::OK();
}

bool TenantManager::IsResident(uint64_t key) const {
  const uint32_t slot = FindSlot(key);
  return slot != kNil && tenants_[slot].sketch != nullptr;
}

}  // namespace swsketch
