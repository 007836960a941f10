#include "storage/table.h"

#include <algorithm>

#include "common/dcheck.h"

namespace trac {

Table::~Table() {
  for (auto& shelf : shelves_) {
    delete[] shelf.load(std::memory_order_relaxed);
  }
}

size_t Table::AppendVersion(Row row, uint64_t begin_version) {
  const size_t vidx = append_size_;
  NoteWrite(begin_version);
  TRAC_DCHECK(vidx == 0 || Locate(vidx - 1)->begin <= begin_version,
              "shelf log must be begin-monotonic: commit versions only "
              "grow, so a new version may never predate its predecessor");
  const size_t q = (vidx >> kBaseShelfBits) + 1;
  const size_t shelf = std::bit_width(q) - 1;
  if (shelves_[shelf].load(std::memory_order_relaxed) == nullptr) {
    // First version landing on this shelf: allocate it. The store may be
    // relaxed — readers cannot reach this shelf until published_size_
    // (released below) covers it.
    shelves_[shelf].store(new RowVersion[kBaseShelfSize << shelf],
                          std::memory_order_relaxed);
  }
  RowVersion* v = Locate(vidx);
  v->begin = begin_version;
  v->end.store(RowVersion::kOpenVersion, std::memory_order_relaxed);
  v->values = std::move(row);
  {
    ReaderMutexLock lock(&indexes_mu_);
    for (auto& [col, index] : indexes_) {
      index->Insert(v->values[col], vidx);
    }
  }
  append_size_ = vidx + 1;
  published_size_.store(append_size_, std::memory_order_release);
  return vidx;
}

std::vector<size_t> Table::Matches(
    Snapshot snap, const std::vector<EqualityKey>& keys,
    const std::function<bool(const Row&)>& pred) const {
  std::vector<size_t> matches;
  for (const EqualityKey& key : keys) {
    if (key.value.is_null()) continue;
    const OrderedIndex* index = GetIndex(key.column);
    if (index == nullptr) continue;
    // ScanEqual yields entries in version order, as the scan below does.
    index->ScanEqual(key.value, [&](size_t vidx) {
      const RowVersion& v = version(vidx);
      if (Visible(v, snap) && pred(v.values)) matches.push_back(vidx);
    });
    return matches;
  }
  Scan(snap, [&](size_t vidx, const Row& row) {
    if (pred(row)) matches.push_back(vidx);
  });
  return matches;
}

size_t Table::CountVisible(Snapshot snap) const {
  size_t count = 0;
  Scan(snap, [&](size_t, const Row&) { ++count; });
  return count;
}

std::optional<TimestampBounds> Table::TimestampRange(Snapshot snap,
                                                     size_t column) const {
  const uint64_t state_version =
      std::min(snap.version, last_write_version());
  {
    MutexLock lock(&range_memo_mu_);
    if (range_memo_.valid && range_memo_.state_version == state_version &&
        range_memo_.column == column) {
      return range_memo_.range;
    }
  }
  std::optional<TimestampBounds> range;
  Scan(snap, [&](size_t, const Row& row) {
    const Value& v = row[column];
    if (v.is_null() || v.type() != TypeId::kTimestamp) return;
    const Timestamp ts = v.ts_val();
    if (!range.has_value()) {
      range = TimestampBounds{ts, ts};
    } else {
      range->lo = std::min(range->lo, ts);
      range->hi = std::max(range->hi, ts);
    }
  });
  MutexLock lock(&range_memo_mu_);
  range_memo_ = RangeMemo{true, state_version, column, range};
  return range;
}

Status Table::CreateIndex(size_t column) {
  if (column >= schema_->num_columns()) {
    return Status::InvalidArgument("index column out of range for table '" +
                                   schema_->name() + "'");
  }
  {
    ReaderMutexLock lock(&indexes_mu_);
    if (indexes_.count(column) != 0) {
      return Status::AlreadyExists("index already exists on column '" +
                                   schema_->column(column).name + "'");
    }
  }
  // Back-fill off to the side: no registry lock held, so concurrent
  // GetIndex callers are never blocked behind the O(versions) build.
  // The Database write mutex keeps the version log frozen meanwhile.
  auto index = std::make_unique<OrderedIndex>(column);
  const size_t n = num_versions();
  for (size_t i = 0; i < n; ++i) {
    index->Insert(version(i).values[column], i);
  }
  WriterMutexLock lock(&indexes_mu_);
  if (!indexes_.emplace(column, std::move(index)).second) {
    return Status::AlreadyExists("index already exists on column '" +
                                 schema_->column(column).name + "'");
  }
  return Status::OK();
}

const OrderedIndex* Table::GetIndex(size_t column) const {
  ReaderMutexLock lock(&indexes_mu_);
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<size_t> Table::IndexedColumns() const {
  ReaderMutexLock lock(&indexes_mu_);
  std::vector<size_t> columns;
  columns.reserve(indexes_.size());
  for (const auto& [column, index] : indexes_) columns.push_back(column);
  return columns;
}

}  // namespace trac
