// Google-benchmark microbenchmarks for the substrates: index operations
// (AVL vs B+-tree vs hash — the CPU side of §2's Y factor), hash
// partitioning, replacement-selection run formation, and record codecs.
// Build in Release for meaningful numbers.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "exec/external_sort.h"
#include "exec/partitioner.h"
#include "index/avl_tree.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "storage/datagen.h"

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

}  // namespace
}  // namespace mmdb
