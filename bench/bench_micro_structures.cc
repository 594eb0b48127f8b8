// Google-benchmark microbenchmarks for the substrates: index operations
// (AVL vs B+-tree vs hash — the CPU side of §2's Y factor), hash
// partitioning, replacement-selection run formation, record codecs, and
// the executor's two hash kernels (the join probe and the GROUP BY fold)
// over 30k selected rows. Build in Release for meaningful numbers.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "exec/aggregate.h"
#include "exec/external_sort.h"
#include "exec/join.h"
#include "exec/partitioner.h"
#include "index/avl_tree.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "storage/datagen.h"
#include "storage/row_view.h"

namespace mmdb {
namespace {

std::vector<int64_t> ShuffledKeys(int64_t n, uint64_t seed = 42) {
  std::vector<int64_t> keys(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) keys[size_t(i)] = i;
  Random rng(seed);
  rng.Shuffle(&keys);
  return keys;
}

void BM_AvlInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto keys = ShuffledKeys(n);
  for (auto _ : state) {
    AvlTree tree;
    for (int64_t k : keys) tree.Insert(Value{k}, k);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AvlInsert)->Arg(10'000)->Arg(100'000);

void BM_AvlFind(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto keys = ShuffledKeys(n);
  AvlTree tree;
  for (int64_t k : keys) tree.Insert(Value{k}, k);
  Random rng(1);
  for (auto _ : state) {
    auto found = tree.Find(Value{keys[rng.Uniform(uint64_t(n))]});
    benchmark::DoNotOptimize(found.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AvlFind)->Arg(10'000)->Arg(100'000);

void BM_BTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto keys = ShuffledKeys(n);
  for (auto _ : state) {
    SimulatedDisk disk(4096);
    BufferPool pool(&disk, 1 << 16);
    PageFile file(&disk, "bt");
    BPlusTree tree(&pool, &file, BTreeOptions{8, 8});
    char key[8], payload[8] = {};
    for (int64_t k : keys) {
      BPlusTree::EncodeInt64Key(k, key, 8);
      benchmark::DoNotOptimize(tree.Insert(key, payload).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(10'000)->Arg(100'000);

void BM_BTreeFind(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto keys = ShuffledKeys(n);
  SimulatedDisk disk(4096);
  BufferPool pool(&disk, 1 << 16);
  PageFile file(&disk, "bt");
  BPlusTree tree(&pool, &file, BTreeOptions{8, 8});
  char key[8], payload[8] = {};
  for (int64_t k : keys) {
    BPlusTree::EncodeInt64Key(k, key, 8);
    (void)tree.Insert(key, payload);
  }
  Random rng(1);
  for (auto _ : state) {
    BPlusTree::EncodeInt64Key(keys[rng.Uniform(uint64_t(n))], key, 8);
    benchmark::DoNotOptimize(tree.Find(key, payload).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeFind)->Arg(10'000)->Arg(100'000);

void BM_HashIndexFind(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto keys = ShuffledKeys(n);
  HashIndex index;
  for (int64_t k : keys) index.Insert(Value{k}, k);
  Random rng(1);
  for (auto _ : state) {
    auto found = index.Find(Value{keys[rng.Uniform(uint64_t(n))]});
    benchmark::DoNotOptimize(found.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexFind)->Arg(10'000)->Arg(100'000);

void BM_HashPartition(benchmark::State& state) {
  const int64_t parts = state.range(0);
  HashPartitioner partitioner(parts);
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.PartitionOf(
        HashValue(Value{int64_t(rng.NextUint64() >> 1)})));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashPartition)->Arg(8)->Arg(512);

void BM_ReplacementSelection(benchmark::State& state) {
  GenOptions opts;
  opts.num_tuples = state.range(0);
  opts.tuple_width = 100;
  const Relation input = MakeKeyedRelation(opts);
  for (auto _ : state) {
    ExecEnv env(16);
    SortStats stats;
    auto stream = SortRelation(input, 0, &env.ctx, &stats);
    benchmark::DoNotOptimize(stats.runs);
    while (true) {
      auto rec = (*stream)->Next();
      if (!rec.ok() || *rec == nullptr) break;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReplacementSelection)->Arg(20'000);

void BM_RowSerialize(benchmark::State& state) {
  Schema schema({Column::Int64("k"), Column::Char("s", 20),
                 Column::Double("d"), Column::Char("pad", 64)});
  Row row = {int64_t{42}, std::string("jones_000042"), 3.14,
             std::string("p")};
  std::vector<char> buf(static_cast<size_t>(schema.record_size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeRow(schema, row, buf.data()).ok());
    Row back = DeserializeRow(schema, buf.data());
    benchmark::DoNotOptimize(back.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowSerialize);

// ---- The executor's hash kernels -------------------------------------------

constexpr int64_t kKernelRows = 30'000;

/// An acct-shaped relation (id, bid, owner, bal) of 100k rows with bid in
/// [0, 1000) and owner a permutation of the ids, plus the view of the
/// kKernelRows rows with owner < kKernelRows: the rows a selective filter
/// hands a join or a GROUP BY.
struct KernelInput {
  KernelInput() : accounts(Schema({Column::Int64("id"), Column::Int64("bid"),
                                   Column::Int64("owner"),
                                   Column::Double("bal")})) {
    constexpr int64_t kAccounts = 100'000;
    const std::vector<int64_t> owners = ShuffledKeys(kAccounts, 7);
    Random rng(9);
    std::vector<int64_t> selected;
    for (int64_t i = 0; i < kAccounts; ++i) {
      const int64_t owner = owners[size_t(i)];
      accounts.Add({Value{i}, Value{int64_t(rng.Uniform(1000))}, Value{owner},
                    Value{double(rng.Uniform(100'000)) / 4}});
      if (owner < kKernelRows) selected.push_back(i);
    }
    view = RowView(&accounts);
    view.Select(std::move(selected));
  }

  Relation accounts;
  RowView view;
};

/// Reports the time per selected row as the counter per_row (printed in
/// ns, e.g. "12.3ns"; seconds in the JSON output).
void SetTimePerRow(benchmark::State& state) {
  state.counters["per_row"] = benchmark::Counter(
      double(kKernelRows), benchmark::Counter::kIsIterationInvariantRate |
                               benchmark::Counter::kInvert);
}

/// ProbeHashTable on bid against a build of distinct bids; the argument is
/// the percentage of probe rows that find a match (100: every row, one
/// match each; 10: the bids below 100).
void BM_JoinProbe(benchmark::State& state) {
  static const KernelInput input;
  const Schema build_schema({Column::Int64("bid"), Column::Int64("region")});
  Relation build(build_schema);
  for (int64_t b = 0; b < 10 * state.range(0); ++b) {
    build.Add({Value{b}, Value{b % 7}});
  }
  exec_internal::JoinHashTable table(build_schema, 0);
  for (int64_t i = 0; i < build.num_tuples(); ++i) {
    table.Insert(build.record(i));
  }
  for (auto _ : state) {
    ExecEnv env;
    Relation out = exec_internal::ProbeHashTable(table, build_schema,
                                                 input.view, 1, &env.ctx);
    benchmark::DoNotOptimize(out.num_tuples());
  }
  SetTimePerRow(state);
}
BENCHMARK(BM_JoinProbe)->Arg(100)->Arg(10);

/// AggregateView of SUM(bal) grouped on id modulo the argument (100 or
/// 10 000 groups).
void BM_GroupFold(benchmark::State& state) {
  static const KernelInput input;
  Relation keyed(Schema({Column::Int64("g"), Column::Double("bal")}));
  const Field id = Field::Of(input.accounts.schema(), 0);
  const Field bal = Field::Of(input.accounts.schema(), 3);
  for (int64_t i = 0; i < input.accounts.num_tuples(); ++i) {
    const char* rec = input.accounts.record(i);
    keyed.Add({Value{id.Int(rec) % state.range(0)}, Value{bal.Double(rec)}});
  }
  RowView view(&keyed);
  view.Select(std::vector<int64_t>(input.view.selection(),
                                   input.view.selection() + kKernelRows));
  AggregateSpec spec;
  spec.group_by = {0};
  spec.aggregates = {{AggFn::kSum, 1, "s"}};
  for (auto _ : state) {
    ExecEnv env(1 << 20);  // one pass
    auto out = AggregateView(view, spec, &env.ctx);
    benchmark::DoNotOptimize(out->num_tuples());
  }
  SetTimePerRow(state);
}
BENCHMARK(BM_GroupFold)->Arg(100)->Arg(10'000);

}  // namespace
}  // namespace mmdb
