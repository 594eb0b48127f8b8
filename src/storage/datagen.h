#ifndef MMDB_STORAGE_DATAGEN_H_
#define MMDB_STORAGE_DATAGEN_H_

#include <cstdint>
#include <string>

#include "storage/relation.h"

namespace mmdb {

/// Synthetic workload generators matching the paper's parameterisation:
/// relations are characterised only by tuple count ||R||, tuple width L,
/// key width K, and key distribution. These stand in for the production
/// data the 1984 testbed used (see DESIGN.md §3).

/// How foreign-key/join columns are distributed.
enum class KeyDistribution {
  kUniqueShuffled,  ///< a random permutation of 0..n-1 (primary keys)
  kUniform,         ///< uniform over [0, key_range)
  kZipf,            ///< Zipf(theta) over [0, key_range)
};

struct GenOptions {
  int64_t num_tuples = 1000;
  /// Target tuple width L in bytes; padding is added to reach it.
  /// Minimum is 16 (key + 8 bytes of payload).
  int32_t tuple_width = 64;
  KeyDistribution distribution = KeyDistribution::kUniqueShuffled;
  /// Domain of the key column for kUniform / kZipf.
  int64_t key_range = 1000;
  double zipf_theta = 0.8;
  uint64_t seed = 1;
};

/// Builds a relation with schema (key:INT64, payload:INT64, pad:CHAR(w)).
/// `payload` is a deterministic function of the tuple index so tests can
/// verify join outputs carry the right partner tuples.
Relation MakeKeyedRelation(const GenOptions& opts);

/// The employee relation of the paper's §2 examples:
/// (emp_id:INT64, name:CHAR(20), dept:INT64, salary:DOUBLE, pad:CHAR(w)).
/// Names look like "jones_000042" so that prefix queries ("J*") match a
/// contiguous key range.
Relation MakeEmployeeRelation(int64_t num_tuples, int32_t tuple_width,
                              uint64_t seed);

}  // namespace mmdb

#endif  // MMDB_STORAGE_DATAGEN_H_
