// The flat hash directory behind the aggregation and join hash tables
// (DESIGN.md §14). A HashDirectory numbers distinct hashes in first-seen
// order; HashAggregate built on it emits its groups in the order, and
// charges the Hash, Comp and Move counts, of the per-row
// std::unordered_map<hash, bucket> table it replaced (the reference
// below); a JoinHashTable emits a key's matches in insertion order and
// charges one Comp per bucket entry scanned, or one per miss.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash_directory.h"
#include "exec/aggregate.h"
#include "exec/join.h"

namespace mmdb {
namespace {

TEST(HashDirectoryTest, NumbersHashesInFirstSeenOrder) {
  std::mt19937_64 rng(7);
  HashDirectory dir;
  std::unordered_map<uint64_t, uint32_t> want;
  std::vector<uint64_t> seen;
  for (int i = 0; i < 20000; ++i) {
    // Hashes that share their low bits probe long runs.
    const uint64_t h = rng() % 3 == 0 ? (rng() % 64) << 40 : rng() % 5000;
    auto [it, fresh] = want.emplace(h, static_cast<uint32_t>(want.size()));
    if (fresh) seen.push_back(h);
    ASSERT_EQ(dir.FindOrAdd(h), it->second);
  }
  for (size_t id = 0; id < seen.size(); ++id) {
    EXPECT_EQ(dir.Find(seen[id]), id);
  }
  EXPECT_EQ(dir.Find(uint64_t{1} << 63), HashDirectory::kNone);
  EXPECT_EQ(HashDirectory().Find(0), HashDirectory::kNone);
}

// ---- Aggregation against the replaced unordered_map table ---------------

struct RefGroup {
  Row key;
  int64_t count = 0;
  double sum = 0;
  Value min_v;
  Value max_v;
};

/// One-pass aggregation as the executor did it before the directory: one
/// std::unordered_map lookup per row, a bucket per group-key hash scanned
/// in insertion order, groups emitted in the map's iteration order.
Relation ReferenceAggregate(const Relation& in, const AggregateSpec& spec,
                            CostCounters* counters) {
  std::unordered_map<uint64_t, std::vector<RefGroup>> table;
  for (const Row& row : in.rows()) {
    ++counters->hashes;
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (int c : spec.group_by) {
      h = HashCombine(h, HashValue(row[static_cast<size_t>(c)]));
    }
    std::vector<RefGroup>& bucket = table[h];
    RefGroup* group = nullptr;
    for (RefGroup& g : bucket) {
      ++counters->comparisons;
      bool equal = true;
      for (size_t i = 0; i < spec.group_by.size(); ++i) {
        equal = equal && ValuesEqual(row[static_cast<size_t>(spec.group_by[i])],
                                     g.key[i]);
      }
      if (equal) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      ++counters->moves;
      RefGroup g;
      for (int c : spec.group_by) g.key.push_back(row[static_cast<size_t>(c)]);
      bucket.push_back(std::move(g));
      group = &bucket.back();
    }
    // Every aggregate of the spec reads one column (`column`).
    const Value& v = row[static_cast<size_t>(spec.aggregates[0].column)];
    if (group->count == 0) {
      group->min_v = v;
      group->max_v = v;
    }
    ++group->count;
    group->sum += TypeOf(v) == ValueType::kInt64 ? double(std::get<int64_t>(v))
                                                 : std::get<double>(v);
    if (CompareValues(v, group->min_v) < 0) group->min_v = v;
    if (CompareValues(v, group->max_v) > 0) group->max_v = v;
  }
  // The result columns: the group-by columns, then COUNT, SUM, MIN, MAX
  // and AVG of the one aggregated column.
  std::vector<Column> cols = in.schema().Select(spec.group_by).columns();
  const Column& arg = in.schema().column(spec.aggregates[0].column);
  for (const Column& c : {Column::Int64("n"), Column::Double("s"), arg, arg,
                          Column::Double("avg")}) {
    cols.push_back(c);
  }
  Relation out{Schema(std::move(cols))};
  for (const auto& [h, bucket] : table) {
    for (const RefGroup& g : bucket) {
      Row row = g.key;
      row.emplace_back(g.count);
      row.emplace_back(g.sum);
      row.push_back(g.min_v);
      row.push_back(g.max_v);
      row.emplace_back(g.sum / double(g.count));
      out.Add(std::move(row));
    }
  }
  return out;
}

std::vector<std::string> RowStrings(const Relation& rel) {
  std::vector<std::string> out;
  for (const Row& row : rel.rows()) out.push_back(RowToString(row));
  return out;
}

/// t(a INT64, b CHAR(6), c DOUBLE, v INT64) with `domain` distinct values
/// per key column; c holds ±0.0, which group together.
Relation RandomTable(std::mt19937_64& rng, int64_t n, uint64_t domain) {
  Relation rel(Schema({Column::Int64("a"), Column::Char("b", 6),
                       Column::Double("c"), Column::Int64("v")}));
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t k = rng() % domain;
    double c = static_cast<double>(rng() % domain) / 4;
    if (c == 0 && rng() % 2 == 0) c = -0.0;
    rel.Add({Value{static_cast<int64_t>(k) - 3},
             Value{"g" + std::to_string(rng() % domain)}, Value{c},
             Value{static_cast<int64_t>(rng() % 1000) - 500}});
  }
  return rel;
}

TEST(HashDirectoryTest, AggregationMatchesUnorderedMapReference) {
  std::mt19937_64 rng(11);
  const std::vector<std::vector<int>> keys = {
      {0}, {1}, {2}, {0, 1}, {1, 2, 0}, {}};
  int trials = 0;
  for (const uint64_t domain : {1, 7, 300, 5000}) {
    for (const std::vector<int>& group_by : keys) {
      const Relation in = RandomTable(rng, 1 + int64_t(rng() % 6000), domain);
      AggregateSpec spec;
      spec.group_by = group_by;
      spec.aggregates = {{AggFn::kCount, 3, "n"},
                         {AggFn::kSum, 3, "s"},
                         {AggFn::kMin, 3, "lo"},
                         {AggFn::kMax, 3, "hi"},
                         {AggFn::kAvg, 3, "avg"}};
      CostCounters want_counters;
      const Relation want = ReferenceAggregate(in, spec, &want_counters);
      ExecEnv env(1 << 20);  // one pass
      AggStats stats;
      auto got = HashAggregate(in, spec, &env.ctx, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(stats.one_pass);
      const std::string what = "domain " + std::to_string(domain) +
                               " keys " + std::to_string(group_by.size());
      EXPECT_EQ(RowStrings(*got), RowStrings(want)) << what;
      EXPECT_EQ(env.clock.counters(), want_counters) << what;
      EXPECT_EQ(stats.groups, want.num_tuples()) << what;
      ++trials;
    }
  }
  EXPECT_EQ(trials, 24);
}

// ---- Join hash table ------------------------------------------------------

TEST(HashDirectoryTest, JoinTableEmitsDuplicateKeysInInsertionOrder) {
  std::mt19937_64 rng(5);
  CostClock clock;
  const Schema schema({Column::Int64("key"), Column::Int64("seq")});
  Relation rows(schema);
  exec_internal::JoinHashTable table(schema, 0);
  std::unordered_map<int64_t, std::vector<int64_t>> want;  // key -> seqs
  for (int64_t seq = 0; seq < 5000; ++seq) {
    const int64_t key = static_cast<int64_t>(rng() % 200) - 100;
    rows.Add({Value{key}, Value{seq}});
    table.Insert(rows.record(seq));
    want[key].push_back(seq);
  }
  EXPECT_EQ(table.size(), 5000);
  const Schema probe_schema({Column::Int64("k")});
  const Field key_field = Field::Of(probe_schema, 0);
  int64_t want_comps = 0;
  for (int64_t key = -150; key < 150; ++key) {
    Relation probe(probe_schema);
    probe.Add({Value{key}});
    std::vector<int64_t> got;
    clock.Comp(table.Match(key_field, probe.record(0), [&](const char* rec) {
      const Row row = DeserializeRow(schema, rec);
      EXPECT_EQ(std::get<int64_t>(row[0]), key);
      got.push_back(std::get<int64_t>(row[1]));
    }));
    auto it = want.find(key);
    if (it == want.end()) {
      EXPECT_TRUE(got.empty());
      ++want_comps;  // a miss still compares once
    } else {
      EXPECT_EQ(got, it->second) << "key " << key;
      want_comps += static_cast<int64_t>(it->second.size());
    }
  }
  EXPECT_EQ(clock.counters().comparisons, want_comps);
  EXPECT_EQ(clock.counters().hashes, 0);  // the caller charges the hash
}

}  // namespace
}  // namespace mmdb
