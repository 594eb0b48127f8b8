#include "storage/datagen.h"

#include <cstdio>
#include <numeric>

#include "common/check.h"
#include "common/random.h"

namespace mmdb {

Relation MakeKeyedRelation(const GenOptions& opts) {
  MMDB_CHECK(opts.num_tuples >= 0);
  MMDB_CHECK_MSG(opts.tuple_width >= 16, "tuple_width must be >= 16");
  const int32_t pad = opts.tuple_width - 16;
  std::vector<Column> cols = {Column::Int64("key"), Column::Int64("payload")};
  if (pad > 0) cols.push_back(Column::Char("pad", pad));
  Relation rel(Schema{std::move(cols)});

  Random rng(opts.seed);
  std::vector<int64_t> keys;
  keys.reserve(static_cast<size_t>(opts.num_tuples));
  switch (opts.distribution) {
    case KeyDistribution::kUniqueShuffled: {
      keys.resize(static_cast<size_t>(opts.num_tuples));
      std::iota(keys.begin(), keys.end(), 0);
      rng.Shuffle(&keys);
      break;
    }
    case KeyDistribution::kUniform: {
      MMDB_CHECK(opts.key_range > 0);
      for (int64_t i = 0; i < opts.num_tuples; ++i) {
        keys.push_back(static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(opts.key_range))));
      }
      break;
    }
    case KeyDistribution::kZipf: {
      MMDB_CHECK(opts.key_range > 0);
      ZipfGenerator zipf(static_cast<uint64_t>(opts.key_range),
                         opts.zipf_theta, opts.seed);
      for (int64_t i = 0; i < opts.num_tuples; ++i) {
        keys.push_back(static_cast<int64_t>(zipf.Next()));
      }
      break;
    }
  }

  for (int64_t i = 0; i < opts.num_tuples; ++i) {
    Row row;
    row.emplace_back(keys[static_cast<size_t>(i)]);
    row.emplace_back(int64_t{i});  // payload = source index
    if (pad > 0) row.emplace_back(std::string());
    rel.Add(std::move(row));
  }
  return rel;
}

Relation MakeEmployeeRelation(int64_t num_tuples, int32_t tuple_width,
                              uint64_t seed) {
  const int32_t fixed = 8 + 20 + 8 + 8;  // id + name + dept + salary
  MMDB_CHECK_MSG(tuple_width >= fixed, "tuple_width must be >= 44");
  const int32_t pad = tuple_width - fixed;
  std::vector<Column> cols = {Column::Int64("emp_id"), Column::Char("name", 20),
                              Column::Int64("dept"), Column::Double("salary")};
  if (pad > 0) cols.push_back(Column::Char("pad", pad));
  Relation rel(Schema{std::move(cols)});

  // 26 surname stems so that prefix queries like name = "j*" select ~1/26.
  static const char* kStems[26] = {
      "adams", "brown", "clark", "davis", "evans", "fox",   "green",
      "hall",  "irwin", "jones", "kelly", "lewis", "moore", "nolan",
      "owens", "price", "quinn", "reed",  "smith", "turner", "usher",
      "vance", "walsh", "xi",    "young", "zhang"};

  Random rng(seed);
  std::vector<int64_t> ids(static_cast<size_t>(num_tuples));
  std::iota(ids.begin(), ids.end(), 0);
  rng.Shuffle(&ids);

  for (int64_t i = 0; i < num_tuples; ++i) {
    char name[21];
    std::snprintf(name, sizeof(name), "%s_%06lld",
                  kStems[rng.Uniform(26)],
                  static_cast<long long>(i % 1000000));
    Row row;
    row.emplace_back(ids[static_cast<size_t>(i)]);
    row.emplace_back(std::string(name));
    row.emplace_back(static_cast<int64_t>(rng.Uniform(100)));  // dept
    row.emplace_back(30000.0 + rng.NextDouble() * 90000.0);    // salary
    if (pad > 0) row.emplace_back(std::string());
    rel.Add(std::move(row));
  }
  return rel;
}

}  // namespace mmdb
