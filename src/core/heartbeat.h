#ifndef TRAC_CORE_HEARTBEAT_H_
#define TRAC_CORE_HEARTBEAT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/timestamp.h"
#include "storage/database.h"

namespace trac {

/// Manages the system Heartbeat table (Section 3.3): one row per data
/// source, keyed by source id, holding that source's *recency timestamp*
/// — the most recent time before which all data generated by the source
/// is guaranteed to have reached the database.
///
/// Schema: heartbeat(source_id STRING, recency_timestamp TIMESTAMP),
/// with an ordered index on source_id (the paper's evaluation indexes
/// the data source columns of all tables). Each write is one commit that
/// finds the source's row through that index (a scan when an opened
/// table has none) and registers the source if absent, atomically: two
/// racing first heartbeats of one source leave exactly one row.
///
/// Rows written around this class (e.g. a plain INSERT) may carry a NULL
/// source or recency: readers skip NULL-source rows and read a NULL
/// recency as the epoch, like the relevance engine's heartbeat scan.
class HeartbeatTable {
 public:
  static constexpr std::string_view kDefaultName = "heartbeat";
  static constexpr std::string_view kSourceColumn = "source_id";
  static constexpr std::string_view kRecencyColumn = "recency_timestamp";

  /// Creates the table (with index) and returns a handle.
  [[nodiscard]] static Result<HeartbeatTable> Create(Database* db,
                                       std::string_view name = kDefaultName);

  /// Opens an existing heartbeat table by name. It must have a STRING
  /// source_id and a TIMESTAMP recency_timestamp column, at any position.
  [[nodiscard]] static Result<HeartbeatTable> Open(Database* db,
                                     std::string_view name = kDefaultName);

  /// Positions of the heartbeat columns in a table's schema.
  struct Columns {
    size_t source;
    size_t recency;
  };

  /// The one heartbeat schema check, shared by Open and the relevance
  /// engine: `schema` must have a STRING source_id and a TIMESTAMP
  /// recency_timestamp column, at any position; InvalidArgument naming
  /// `name` otherwise.
  [[nodiscard]] static Result<Columns> CheckSchema(const TableSchema& schema,
                                                   std::string_view name);

  const std::string& name() const { return name_; }
  TableId table_id() const { return table_id_; }

  /// Registers a source if new, otherwise advances its recency timestamp
  /// monotonically (a late-arriving older heartbeat never regresses it).
  [[nodiscard]] Status ReportHeartbeat(const std::string& source, Timestamp recency);

  /// Overwrites the recency timestamp unconditionally (tests and
  /// synthetic workloads).
  [[nodiscard]] Status SetRecency(const std::string& source, Timestamp recency);

  /// Recency of one source at `snap`; NotFound if the source has never
  /// reported.
  [[nodiscard]] Result<Timestamp> Get(const std::string& source, Snapshot snap) const;

  /// All (source, recency) pairs visible at `snap`, sorted by source id.
  std::vector<std::pair<std::string, Timestamp>> GetAll(Snapshot snap) const;

  /// Number of registered sources at `snap` (visible rows with a
  /// non-NULL source).
  size_t NumSources(Snapshot snap) const;

 private:
  HeartbeatTable(Database* db, TableId id, std::string name,
                 size_t source_col, size_t recency_col)
      : db_(db),
        table_id_(id),
        name_(std::move(name)),
        source_col_(source_col),
        recency_col_(recency_col) {}

  /// Opens table `id` after checking its heartbeat columns.
  [[nodiscard]] static Result<HeartbeatTable> Bind(Database* db, TableId id,
                                                   std::string_view name);

  /// Sets the source's recency in one commit, inserting its row when
  /// absent; with `advance_only`, a row already at least as recent is
  /// left as it is.
  [[nodiscard]] Status Write(const std::string& source, Timestamp recency,
                             bool advance_only);

  /// Whether `row` belongs to `source` (a NULL source belongs to none).
  bool IsSource(const Row& row, const std::string& source) const {
    const Value& v = row[source_col_];
    return !v.is_null() && v.str_val() == source;
  }

  /// The recency a row holds (a NULL recency reads as the epoch).
  Timestamp RecencyOf(const Row& row) const {
    const Value& v = row[recency_col_];
    return v.is_null() ? Timestamp() : v.ts_val();
  }

  Database* db_;
  TableId table_id_;
  std::string name_;
  /// Positions of the source_id and recency_timestamp columns.
  size_t source_col_;
  size_t recency_col_;
};

}  // namespace trac

#endif  // TRAC_CORE_HEARTBEAT_H_
