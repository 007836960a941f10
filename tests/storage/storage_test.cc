#include "storage/database.h"

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/random.h"

namespace trac {
namespace {

using testing_util::ExpectLogMatches;
using testing_util::ScanReferenceLog;

TableSchema KvSchema(const std::string& name) {
  return TableSchema(name, {ColumnDef("k", TypeId::kString),
                            ColumnDef("v", TypeId::kInt64)});
}

TEST(CatalogTest, CreateLookupDrop) {
  Catalog catalog;
  auto id = catalog.CreateTable(KvSchema("t1"));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(catalog.HasTable("t1"));
  EXPECT_TRUE(catalog.HasTable("T1"));  // Case-insensitive.
  EXPECT_FALSE(catalog.HasTable("t2"));
  EXPECT_EQ(catalog.schema(*id).name(), "t1");

  EXPECT_EQ(catalog.CreateTable(KvSchema("t1")).status().code(),
            StatusCode::kAlreadyExists);
  TRAC_ASSERT_OK(catalog.DropTable("t1"));
  EXPECT_FALSE(catalog.HasTable("t1"));
  EXPECT_FALSE(catalog.IsLive(*id));
  // Name can be reused; the id is fresh.
  auto id2 = catalog.CreateTable(KvSchema("t1"));
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id2, *id);
}

TEST(CatalogTest, TableNamesInCreationOrder) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(KvSchema("a")).ok());
  ASSERT_TRUE(catalog.CreateTable(KvSchema("b")).ok());
  ASSERT_TRUE(catalog.CreateTable(KvSchema("c")).ok());
  TRAC_ASSERT_OK(catalog.DropTable("b"));
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "c"}));
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  TableSchema schema = KvSchema("t");
  EXPECT_EQ(schema.FindColumn("K"), 0u);
  EXPECT_EQ(schema.FindColumn("v"), 1u);
  EXPECT_FALSE(schema.FindColumn("w").has_value());
}

TEST(SchemaTest, DataSourceColumnDesignation) {
  TableSchema schema = KvSchema("t");
  EXPECT_FALSE(schema.data_source_column().has_value());
  TRAC_ASSERT_OK(schema.SetDataSourceColumn("k"));
  EXPECT_EQ(schema.data_source_column(), 0u);
  EXPECT_TRUE(schema.IsDataSourceColumn(0));
  EXPECT_FALSE(schema.IsDataSourceColumn(1));
  EXPECT_EQ(schema.SetDataSourceColumn("nope").code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, ValidateRowChecksArityTypeAndDomain) {
  TableSchema schema(
      "t", {ColumnDef("k", TypeId::kString,
                      Domain::Finite(TypeId::kString,
                                     {Value::Str("a"), Value::Str("b")})),
            ColumnDef("v", TypeId::kInt64)});
  TRAC_EXPECT_OK(schema.ValidateRow({Value::Str("a"), Value::Int(1)}));
  TRAC_EXPECT_OK(schema.ValidateRow({Value::Null(), Value::Null()}));
  EXPECT_EQ(schema.ValidateRow({Value::Str("a")}).code(),
            StatusCode::kInvalidArgument);  // Arity.
  EXPECT_EQ(schema.ValidateRow({Value::Int(1), Value::Int(1)}).code(),
            StatusCode::kTypeError);  // Type.
  EXPECT_EQ(schema.ValidateRow({Value::Str("zz"), Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);  // Domain.
}

TEST(SchemaTest, IntLiteralAcceptedInDoubleColumn) {
  Database db;
  TableSchema schema("t", {ColumnDef("x", TypeId::kDouble)});
  ASSERT_TRUE(db.CreateTable(std::move(schema)).ok());
  TRAC_ASSERT_OK(db.Insert("t", {Value::Int(3)}));
  // Normalized to double in storage.
  const Table* t = db.GetTable(*db.FindTable("t"));
  EXPECT_EQ(t->version(0).values[0].type(), TypeId::kDouble);
}

TEST(TableTest, MvccInsertVisibility) {
  Database db;
  ASSERT_TRUE(db.CreateTable(KvSchema("t")).ok());
  Snapshot s0 = db.LatestSnapshot();
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("a"), Value::Int(1)}));
  Snapshot s1 = db.LatestSnapshot();

  const Table* t = db.GetTable(*db.FindTable("t"));
  EXPECT_EQ(t->CountVisible(s0), 0u);
  EXPECT_EQ(t->CountVisible(s1), 1u);
}

TEST(TableTest, MvccUpdatePreservesOldVersion) {
  Database db;
  ASSERT_TRUE(db.CreateTable(KvSchema("t")).ok());
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("a"), Value::Int(1)}));
  Snapshot before = db.LatestSnapshot();
  TRAC_ASSERT_OK_AND_ASSIGN(
      int updated,
      db.UpdateWhere(
          "t", [](const Row& r) { return r[0].str_val() == "a"; },
          [](Row* r) { (*r)[1] = Value::Int(2); }));
  EXPECT_EQ(updated, 1);
  Snapshot after = db.LatestSnapshot();

  const Table* t = db.GetTable(*db.FindTable("t"));
  int old_value = -1, new_value = -1;
  t->Scan(before, [&](size_t, const Row& r) {
    old_value = static_cast<int>(r[1].int_val());
  });
  t->Scan(after, [&](size_t, const Row& r) {
    new_value = static_cast<int>(r[1].int_val());
  });
  EXPECT_EQ(old_value, 1);
  EXPECT_EQ(new_value, 2);
  EXPECT_EQ(t->CountVisible(before), 1u);
  EXPECT_EQ(t->CountVisible(after), 1u);
  EXPECT_EQ(t->num_versions(), 2u);
}

TEST(TableTest, MvccDelete) {
  Database db;
  ASSERT_TRUE(db.CreateTable(KvSchema("t")).ok());
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("a"), Value::Int(1)}));
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("b"), Value::Int(2)}));
  Snapshot before = db.LatestSnapshot();
  TRAC_ASSERT_OK_AND_ASSIGN(
      int deleted,
      db.DeleteWhere("t",
                     [](const Row& r) { return r[0].str_val() == "a"; }));
  EXPECT_EQ(deleted, 1);
  const Table* t = db.GetTable(*db.FindTable("t"));
  EXPECT_EQ(t->CountVisible(before), 2u);
  EXPECT_EQ(t->CountVisible(db.LatestSnapshot()), 1u);
}

TEST(TableTest, InsertManyIsAtomicallyVisible) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(TableId id, db.CreateTable(KvSchema("t")));
  Snapshot before = db.LatestSnapshot();
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value::Str("k" + std::to_string(i)), Value::Int(i)});
  }
  TRAC_ASSERT_OK(db.InsertMany(id, std::move(rows)));
  const Table* t = db.GetTable(id);
  EXPECT_EQ(t->CountVisible(before), 0u);
  EXPECT_EQ(t->CountVisible(db.LatestSnapshot()), 100u);
  // All rows share one commit version.
  EXPECT_EQ(t->version(0).begin, t->version(99).begin);
}

TEST(IndexTest, EqualityScansAndKeyOrderWalk) {
  OrderedIndex index(0);
  index.Insert(Value::Int(5), 0);
  index.Insert(Value::Int(5), 1);
  index.Insert(Value::Int(7), 2);
  index.Insert(Value::Null(), 3);  // Not indexed.
  EXPECT_EQ(index.num_entries(), 3u);
  EXPECT_EQ(index.CountEqual(Value::Int(5)), 2u);
  EXPECT_EQ(index.CountEqual(Value::Int(6)), 0u);

  std::vector<size_t> hits;
  index.ScanEqual(Value::Int(5), [&](size_t v) { hits.push_back(v); });
  EXPECT_EQ(hits.size(), 2u);

  hits.clear();
  index.ScanInKeyOrder([&](size_t v) { hits.push_back(v); });
  EXPECT_EQ(hits, (std::vector<size_t>{0, 1, 2}));
}

TEST(IndexTest, IndexBackfillsAndTracksUpdates) {
  Database db;
  ASSERT_TRUE(db.CreateTable(KvSchema("t")).ok());
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("a"), Value::Int(1)}));
  TRAC_ASSERT_OK(db.CreateIndex("t", "k"));
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("b"), Value::Int(2)}));
  const Table* t = db.GetTable(*db.FindTable("t"));
  const OrderedIndex* index = t->GetIndex(0);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->CountEqual(Value::Str("a")), 1u);
  EXPECT_EQ(index->CountEqual(Value::Str("b")), 1u);

  // Updates add new versions; index entries accumulate and visibility
  // filters them.
  TRAC_ASSERT_OK(db.UpdateWhere(
                       "t", [](const Row& r) { return r[0].str_val() == "a"; },
                       [](Row* r) { (*r)[1] = Value::Int(10); })
                     .status());
  EXPECT_EQ(index->CountEqual(Value::Str("a")), 2u);  // Two versions.
  Snapshot now = db.LatestSnapshot();
  int visible = 0;
  index->ScanEqual(Value::Str("a"), [&](size_t vidx) {
    if (t->Visible(t->version(vidx), now)) ++visible;
  });
  EXPECT_EQ(visible, 1);

  EXPECT_EQ(db.CreateIndex("t", "k").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CreateIndex("t", "zz").code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, DropTableRemovesNameLookup) {
  Database db;
  ASSERT_TRUE(db.CreateTable(KvSchema("t")).ok());
  TRAC_ASSERT_OK(db.DropTable("t"));
  EXPECT_FALSE(db.FindTable("t").ok());
  EXPECT_EQ(db.DropTable("t").code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, InsertIntoMissingTableFails) {
  Database db;
  EXPECT_EQ(db.Insert("nope", {Value::Int(1)}).code(), StatusCode::kNotFound);
}

// Single writer + concurrent readers: every reader sees a consistent
// prefix (counts only ever grow, and pair-inserts are atomic per commit).
TEST(DatabaseTest, ConcurrentReadersSeeMonotonicConsistentSnapshots) {
  Database db;
  TRAC_ASSERT_OK_AND_ASSIGN(TableId id, db.CreateTable(KvSchema("t")));
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread reader([&]() {
    size_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Snapshot snap = db.LatestSnapshot();
      const Table* t = db.GetTable(id);
      size_t count = 0;
      t->Scan(snap, [&](size_t, const Row&) { ++count; });
      if (count < last_count || count % 2 != 0) {
        failed.store(true);
        break;
      }
      last_count = count;
    }
  });

  for (int i = 0; i < 500; ++i) {
    // Two rows per commit: readers must never observe an odd count.
    std::vector<Row> rows;
    rows.push_back({Value::Str("a" + std::to_string(i)), Value::Int(i)});
    rows.push_back({Value::Str("b" + std::to_string(i)), Value::Int(i)});
    TRAC_ASSERT_OK(db.InsertMany(id, std::move(rows)));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load());
}

// The keyed write path (UpdateWhere / DeleteWhere / Upsert with
// EqualityKeys) against the scan-based reference, over random
// histories. "probe" indexes the key column k, so its keyed writes go
// through the index; "scan" has no index, so the same writes take the
// scan fallback. Both logs must equal the reference version for
// version, as must every result. Keys range over a few strings plus
// NULL (never indexed, so a NULL key scans), and plain inserts stack
// several visible versions per key.
TEST(DatabaseTest, KeyedWritesMatchScanReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    Database probe;
    Database scan;
    for (Database* db : {&probe, &scan}) {
      TRAC_ASSERT_OK(db->CreateTable(TableSchema(
                                         "t",
                                         {ColumnDef("k", TypeId::kString),
                                          ColumnDef("g", TypeId::kInt64),
                                          ColumnDef("v", TypeId::kInt64)}))
                         .status());
      TRAC_ASSERT_OK(db->CreateTable(KvSchema("other")).status());
    }
    TRAC_ASSERT_OK(probe.CreateIndex("t", "k"));
    const Table* probe_t = probe.GetTable(*probe.FindTable("t"));
    const Table* scan_t = scan.GetTable(*scan.FindTable("t"));
    ScanReferenceLog ref;

    const std::vector<Value> keys = {Value::Str("a"), Value::Str("b"),
                                     Value::Str("c"), Value::Null()};
    auto random_key = [&] { return keys[rng.Uniform(keys.size())]; };
    // Earlier snapshots and what they showed when taken.
    std::vector<std::pair<Snapshot, std::vector<Row>>> frozen;
    auto visible = [](const Table& t, Snapshot snap) {
      std::vector<Row> rows;
      t.Scan(snap, [&](size_t, const Row& row) { rows.push_back(row); });
      return rows;
    };

    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const Value key = random_key();
      const int64_t g = rng.UniformInt(0, 2);
      const int64_t v = rng.UniformInt(0, 9);
      // A key on the unindexed column g first: the probe must skip it
      // and use k's index; half the writes also filter on v, which no
      // key names.
      const bool with_g = rng.Bernoulli(0.3);
      const bool odd_only = rng.Bernoulli(0.5);
      std::vector<EqualityKey> write_keys;
      if (with_g) write_keys.push_back({1, Value::Int(g)});
      write_keys.push_back({0, key});
      auto pred = [&](const Row& r) {
        return r[0] == key && (!with_g || r[1] == Value::Int(g)) &&
               (!odd_only || r[2].int_val() % 2 == 1);
      };
      // Leaves rows already holding v unchanged, so an upsert can match
      // without writing.
      auto set_v = [&](Row* r) {
        if ((*r)[2] == Value::Int(v)) return false;
        (*r)[2] = Value::Int(v);
        return true;
      };
      const Row row = {key, Value::Int(g), Value::Int(v)};

      const uint64_t commit = probe.LatestSnapshot().version + 1;
      ASSERT_EQ(scan.LatestSnapshot().version + 1, commit);
      switch (rng.Uniform(6)) {
        case 0:
        case 1:
          for (Database* db : {&probe, &scan}) {
            TRAC_ASSERT_OK(db->Insert("t", row));
          }
          ref.Insert(row, commit);
          break;
        case 2: {
          // UpdateWhere rewrites every match, even one left unchanged.
          auto rewrite = [&](Row* r) {
            set_v(r);
            return true;
          };
          const int want = ref.Update(pred, rewrite, commit);
          for (Database* db : {&probe, &scan}) {
            TRAC_ASSERT_OK_AND_ASSIGN(
                int got, db->UpdateWhere(
                             "t", pred, [&](Row* r) { rewrite(r); },
                             write_keys));
            EXPECT_EQ(got, want);
          }
          break;
        }
        case 3: {
          const int want = ref.Delete(pred, commit);
          for (Database* db : {&probe, &scan}) {
            TRAC_ASSERT_OK_AND_ASSIGN(int got,
                                      db->DeleteWhere("t", pred, write_keys));
            EXPECT_EQ(got, want);
          }
          break;
        }
        case 4: {
          const UpsertResult want = ref.Upsert(pred, set_v, row, commit);
          for (Database* db : {&probe, &scan}) {
            TRAC_ASSERT_OK_AND_ASSIGN(
                UpsertResult got, db->Upsert("t", pred, set_v, row, write_keys));
            EXPECT_EQ(got.updated, want.updated);
            EXPECT_EQ(got.inserted, want.inserted);
          }
          break;
        }
        default:
          // A commit to another table: t's last write version stays.
          for (Database* db : {&probe, &scan}) {
            TRAC_ASSERT_OK(
                db->Insert("other", {Value::Str("x"), Value::Int(step)}));
          }
          break;
      }
      ASSERT_EQ(probe.LatestSnapshot().version, commit);
      ASSERT_EQ(scan.LatestSnapshot().version, commit);
      ExpectLogMatches(*probe_t, ref);
      ExpectLogMatches(*scan_t, ref);
      if (step % 10 == 0) {
        frozen.emplace_back(Snapshot{commit},
                            visible(*probe_t, Snapshot{commit}));
      }
    }
    // Earlier snapshots still read the rows they read when taken.
    for (const auto& [snap, rows] : frozen) {
      EXPECT_EQ(visible(*probe_t, snap), rows) << "snapshot " << snap.version;
      EXPECT_EQ(visible(*scan_t, snap), rows) << "snapshot " << snap.version;
    }
  }
}

TEST(DatabaseTest, UpsertIsOneCommitAndMayWriteNothing) {
  Database db;
  TRAC_ASSERT_OK(db.CreateTable(KvSchema("t")).status());
  TRAC_ASSERT_OK(db.CreateIndex("t", "k"));
  const Table* t = db.GetTable(*db.FindTable("t"));
  const std::vector<EqualityKey> key = {{0, Value::Str("a")}};
  auto is_a = [](const Row& r) { return r[0] == Value::Str("a"); };
  auto bump = [](Row* r) {
    if ((*r)[1].int_val() >= 2) return false;
    (*r)[1] = Value::Int((*r)[1].int_val() + 1);
    return true;
  };

  // Absent: inserted in one commit.
  TRAC_ASSERT_OK_AND_ASSIGN(
      UpsertResult first,
      db.Upsert("t", is_a, bump, {Value::Str("a"), Value::Int(1)}, key));
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.updated, 0);
  EXPECT_EQ(db.LatestSnapshot().version, 1u);
  // Present: updated in place of an insert.
  TRAC_ASSERT_OK_AND_ASSIGN(
      UpsertResult second,
      db.Upsert("t", is_a, bump, {Value::Str("a"), Value::Int(1)}, key));
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(second.updated, 1);
  EXPECT_EQ(db.LatestSnapshot().version, 2u);
  // Present but left as it is: still a commit, with no version written.
  TRAC_ASSERT_OK_AND_ASSIGN(
      UpsertResult third,
      db.Upsert("t", is_a, bump, {Value::Str("a"), Value::Int(1)}, key));
  EXPECT_FALSE(third.inserted);
  EXPECT_EQ(third.updated, 0);
  EXPECT_EQ(db.LatestSnapshot().version, 3u);
  EXPECT_EQ(t->num_versions(), 2u);
  EXPECT_EQ(t->version(1).end.load(), RowVersion::kOpenVersion);
  EXPECT_EQ(t->CountVisible(db.LatestSnapshot()), 1u);
}

TEST(DatabaseTest, RejectedRewriteLeavesTableUnchanged) {
  // The second match's copy fails validation: the first must not have
  // been rewritten either, and the next commit must not expose it.
  Database db;
  TRAC_ASSERT_OK(db.CreateTable(KvSchema("t")).status());
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("a"), Value::Int(1)}));
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("a"), Value::Int(2)}));
  const Table* t = db.GetTable(*db.FindTable("t"));
  const Result<int> updated = db.UpdateWhere(
      "t", [](const Row&) { return true; },
      [](Row* r) {
        (*r)[1] = (*r)[1].int_val() == 2 ? Value::Str("bad") : Value::Int(9);
      });
  EXPECT_EQ(updated.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(t->num_versions(), 2u);
  TRAC_ASSERT_OK(db.Insert("t", {Value::Str("b"), Value::Int(3)}));
  std::vector<int64_t> values;
  t->Scan(db.LatestSnapshot(),
          [&](size_t, const Row& r) { values.push_back(r[1].int_val()); });
  EXPECT_EQ(values, (std::vector<int64_t>{1, 2, 3}));
}

}  // namespace
}  // namespace trac
