// The chained hash table behind the aggregation and join kernels
// (DESIGN.md §14). A HashDirectory numbers distinct hashes in first-seen
// order, and its batch lookups agree with its one-hash lookups;
// HashAggregate built on it charges the Hash, Comp and Move counts of the
// per-row std::unordered_map<hash, bucket> table it replaced (the
// reference below) and emits its groups in first-seen order; a
// JoinHashTable emits a key's matches in insertion order and charges one
// Comp per chain entry scanned, or one per miss. The batch kernels are
// checked at the batch boundaries, across a directory regrowth inside one
// batch and on hashes that share a home slot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
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

TEST(HashDirectoryTest, BatchLookupsMatchOneHashLookups) {
  // Hashes sharing their low 16 bits all start at one home slot, so the
  // batch lookups take their slow path; the first batch of distinct hashes
  // regrows the directory several times.
  std::mt19937_64 rng(3);
  HashDirectory batched;
  HashDirectory scalar;
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 3 * kHashBatch + 7; ++i) {
    if (i < kHashBatch) {
      hashes.push_back(rng());
    } else if (rng() % 3 == 0) {
      hashes.push_back((rng() << 16) | 0xBEEF);
    } else {
      hashes.push_back(hashes[rng() % hashes.size()]);
    }
  }
  for (size_t first = 0; first < hashes.size(); first += kHashBatch) {
    const int n = static_cast<int>(
        std::min<size_t>(kHashBatch, hashes.size() - first));
    uint32_t ids[kHashBatch];
    batched.FindOrAddBatch(&hashes[first], n, ids);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(ids[i], scalar.FindOrAdd(hashes[first + size_t(i)])) << i;
    }
  }
  EXPECT_EQ(batched.size(), scalar.size());
  std::vector<uint64_t> probes;
  for (int i = 0; i < kHashBatch; ++i) {
    probes.push_back(i % 2 == 0 ? hashes[rng() % hashes.size()]
                                : (rng() << 16) | 0xBEEF);
  }
  uint32_t ids[kHashBatch];
  batched.FindBatch(probes.data(), kHashBatch, ids);
  for (int i = 0; i < kHashBatch; ++i) {
    EXPECT_EQ(ids[i], scalar.Find(probes[size_t(i)])) << i;
  }
  HashDirectory().FindBatch(probes.data(), 3, ids);
  EXPECT_EQ(ids[2], HashDirectory::kNone);
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
/// in insertion order, groups emitted in first-seen order.
Relation ReferenceAggregate(const Relation& in, const AggregateSpec& spec,
                            CostCounters* counters) {
  std::unordered_map<uint64_t, std::vector<RefGroup>> table;
  std::vector<std::pair<uint64_t, size_t>> first_seen;  // (hash, index)
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
      first_seen.emplace_back(h, bucket.size());
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
  for (const auto& [h, index] : first_seen) {
    const RefGroup& g = table[h][index];
    Row row = g.key;
    row.emplace_back(g.count);
    row.emplace_back(g.sum);
    row.push_back(g.min_v);
    row.push_back(g.max_v);
    row.emplace_back(g.sum / double(g.count));
    out.Add(std::move(row));
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

// ---- Batch kernel edges ---------------------------------------------------

/// Runs HashAggregate over `in` and checks it against ReferenceAggregate:
/// output sequence, charges and group count.
void ExpectAggregateMatchesReference(const Relation& in,
                                     const std::vector<int>& group_by,
                                     const std::string& what) {
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
  EXPECT_EQ(RowStrings(*got), RowStrings(want)) << what;
  EXPECT_EQ(env.clock.counters(), want_counters) << what;
  EXPECT_EQ(stats.groups, want.num_tuples()) << what;
}

TEST(HashDirectoryTest, AggregationAtBatchBoundariesMatchesReference) {
  std::mt19937_64 rng(13);
  for (const int64_t n : {0, 1, kHashBatch - 1, kHashBatch, kHashBatch + 1}) {
    for (const std::vector<int>& group_by :
         std::vector<std::vector<int>>{{0}, {1, 2}, {}}) {
      ExpectAggregateMatchesReference(
          RandomTable(rng, n, 40), group_by,
          "rows " + std::to_string(n) + " keys " +
              std::to_string(group_by.size()));
    }
  }
}

TEST(HashDirectoryTest, AggregationRegrowsTheDirectoryInsideABatch) {
  // The first batch holds 100 groups; each row of the second is a new
  // group, so the directory doubles several times inside that batch; the
  // third mixes old and new groups.
  Relation in(Schema({Column::Int64("a"), Column::Char("b", 6),
                      Column::Double("c"), Column::Int64("v")}));
  for (int64_t i = 0; i < 3 * kHashBatch; ++i) {
    const int64_t key = i < kHashBatch       ? i % 100
                        : i < 2 * kHashBatch ? 1000 + i
                                             : (i * 7) % (3 * kHashBatch);
    in.Add({Value{key}, Value{std::string("x")}, Value{0.5},
            Value{(i * 31) % 97 - 40}});
  }
  ExpectAggregateMatchesReference(in, {0}, "regrowth");
}

TEST(HashDirectoryTest, OneInt64KeyFoldMatchesReference) {
  // Grouped on one INT64 column, a row's group is its chain's one group:
  // the key hash is HashCombine of a fixed seed and Mix64, both
  // bijections, so a chain holds one group. The keys here stress that
  // shortcut: keys whose group hashes share their low 16 bits (one home
  // slot at every directory size up to 65536 slots), negative keys and
  // INT64's extremes, first seen and then met again across several
  // batches.
  auto group_hash = [](int64_t k) {
    return HashCombine(0x9E3779B97F4A7C15ull,
                       Mix64(static_cast<uint64_t>(k)));
  };
  std::vector<int64_t> keys;
  const uint64_t home = group_hash(0) & 0xFFFF;
  for (int64_t k = 0; keys.size() < 40; ++k) {
    if ((group_hash(k) & 0xFFFF) == home) keys.push_back(k);
  }
  const size_t shared = keys.size();
  for (size_t i = 0; i < shared; i += 4) keys.push_back(-keys[i]);
  for (const int64_t k :
       {int64_t{-1}, int64_t{-1000}, std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::min() + 1,
        std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::max() - 1}) {
    keys.push_back(k);
  }
  Relation in(Schema({Column::Int64("a"), Column::Char("b", 6),
                      Column::Double("c"), Column::Int64("v")}));
  for (int64_t i = 0; i < 3 * kHashBatch + 11; ++i) {
    const int64_t key = keys[size_t(i * 7) % keys.size()];
    in.Add({Value{key}, Value{std::string("x")}, Value{0.5},
            Value{(i * 31) % 97 - 40}});
  }
  ExpectAggregateMatchesReference(in, {0}, "one INT64 key");
  // Every key once, in the order above: each row is a new group.
  Relation once(in.schema());
  for (const int64_t key : keys) {
    once.Add({Value{key}, Value{std::string("y")}, Value{1.5}, Value{key % 9}});
  }
  ExpectAggregateMatchesReference(once, {0}, "one INT64 key, all new");
}

TEST(HashDirectoryTest, DoubleSumAddsInRowOrder) {
  // Terms whose sum depends on the order they are added in, spread over
  // several batches and interleaved across groups.
  const double terms[] = {1e16, 1.0, -1e16, 3.0, 0.1, 1e-3, 2.5e15, -7.0};
  Relation in(Schema({Column::Int64("g"), Column::Double("x")}));
  std::vector<double> want(5, 0.0);
  for (int64_t i = 0; i < 3 * kHashBatch + 5; ++i) {
    const int64_t g = (i * 3) % 5;
    const double x = terms[(i + g) % 8] * double(1 + i % 3);
    in.Add({Value{g}, Value{x}});
    want[size_t(g)] += x;
  }
  std::vector<double> reversed(5, 0.0);
  for (int64_t i = in.num_tuples() - 1; i >= 0; --i) {
    const Row row = in.RowAt(i);
    reversed[size_t(std::get<int64_t>(row[0]))] += std::get<double>(row[1]);
  }
  EXPECT_NE(want, reversed) << "the sums do not depend on the order";
  AggregateSpec spec;
  spec.group_by = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}};
  ExecEnv env(1 << 20);
  auto got = HashAggregate(in, spec, &env.ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_tuples(), 5);
  for (const Row& row : got->rows()) {
    const double sum = std::get<double>(row[1]);
    const double row_order = want[size_t(std::get<int64_t>(row[0]))];
    uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &sum, sizeof(sum));
    std::memcpy(&want_bits, &row_order, sizeof(row_order));
    EXPECT_EQ(got_bits, want_bits) << "group " << RowToString(row);
  }
}

/// Probes a JoinHashTable over `build` (key column 0) with every row of
/// `probe` (key column 0) through ProbeHashTable, and checks the output
/// sequence and the charges against a key -> build rows reference: probe
/// order, build order within a key, and one Comp per build row of the
/// probe's key or one for a miss.
void ExpectProbeMatchesReference(const Relation& build, const Relation& probe,
                                 const std::string& what) {
  std::unordered_map<int64_t, std::vector<int64_t>> by_key;
  for (int64_t i = 0; i < build.num_tuples(); ++i) {
    by_key[std::get<int64_t>(build.RowAt(i)[0])].push_back(i);
  }
  Relation want(Schema::Concat(build.schema(), probe.schema()));
  int64_t want_comps = 0;
  for (int64_t j = 0; j < probe.num_tuples(); ++j) {
    auto it = by_key.find(std::get<int64_t>(probe.RowAt(j)[0]));
    if (it == by_key.end()) {
      ++want_comps;
      continue;
    }
    want_comps += static_cast<int64_t>(it->second.size());
    for (int64_t i : it->second) {
      exec_internal::EmitJoined(build.record(i),
                                build.schema().record_size(),
                                probe.record(j), &want);
    }
  }
  exec_internal::JoinHashTable table(build.schema(), 0);
  for (int64_t i = 0; i < build.num_tuples(); ++i) {
    table.Insert(build.record(i));
  }
  ExecEnv env;
  const RowView view(&probe);
  ViewBlocks source(view);
  int64_t probe_rows = 0;
  const Relation got = exec_internal::ProbeHashTable(
      table, build.schema(), &source, 0, &env.ctx, &probe_rows);
  EXPECT_EQ(RowStrings(got), RowStrings(want)) << what;
  EXPECT_EQ(env.clock.counters().comparisons, want_comps) << what;
  EXPECT_EQ(env.clock.counters().hashes, probe.num_tuples()) << what;
  EXPECT_EQ(probe_rows, probe.num_tuples()) << what;
}

Relation KeyedRows(const std::vector<int64_t>& keys) {
  Relation rel(Schema({Column::Int64("k"), Column::Int64("seq")}));
  for (size_t i = 0; i < keys.size(); ++i) {
    rel.Add({Value{keys[i]}, Value{static_cast<int64_t>(i)}});
  }
  return rel;
}

TEST(HashDirectoryTest, JoinProbeAtBatchBoundariesMatchesReference) {
  std::mt19937_64 rng(17);
  std::vector<int64_t> build_keys;
  for (int i = 0; i < 300; ++i) build_keys.push_back(int64_t(rng() % 200));
  const Relation build = KeyedRows(build_keys);
  for (const int n : {0, 1, kHashBatch - 1, kHashBatch, kHashBatch + 1}) {
    std::vector<int64_t> probe_keys;
    for (int i = 0; i < n; ++i) probe_keys.push_back(int64_t(rng() % 400));
    ExpectProbeMatchesReference(build, KeyedRows(probe_keys),
                                "probe rows " + std::to_string(n));
  }
  ExpectProbeMatchesReference(KeyedRows({}), KeyedRows({1, 2, 3}),
                              "empty build");
}

TEST(HashDirectoryTest, JoinProbeOnSharedHomeSlotsMatchesReference) {
  // Keys whose hashes share their low 16 bits share a home slot at every
  // directory size up to 65536 slots: build keys and absent probe keys
  // all start there, so most probes take the slow path.
  std::vector<int64_t> shared;
  const uint64_t home = Mix64(0) & 0xFFFF;
  for (int64_t k = 0; shared.size() < 48; ++k) {
    if ((Mix64(static_cast<uint64_t>(k)) & 0xFFFF) == home) shared.push_back(k);
  }
  std::vector<int64_t> build_keys;
  for (size_t i = 0; i < 24; ++i) {
    build_keys.push_back(shared[i]);
    if (i % 3 == 0) build_keys.push_back(shared[i]);  // duplicates chain
  }
  std::vector<int64_t> probe_keys;
  for (int i = 0; i < kHashBatch + 9; ++i) {
    probe_keys.push_back(shared[size_t(i * 7) % shared.size()]);
  }
  ExpectProbeMatchesReference(KeyedRows(build_keys), KeyedRows(probe_keys),
                              "shared home slot");
}

}  // namespace
}  // namespace mmdb
