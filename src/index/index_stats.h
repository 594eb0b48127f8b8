#ifndef MMDB_INDEX_INDEX_STATS_H_
#define MMDB_INDEX_INDEX_STATS_H_

#include <cstdint>

namespace mmdb {

/// Operation counters shared by all access methods, matching the two cost
/// drivers of the paper's §2 model: |comparisons| (CPU) and |page reads|
/// (I/O). `cost = Z * page_faults + comparisons` prices one lookup.
struct IndexStats {
  int64_t comparisons = 0;
  int64_t node_visits = 0;
  int64_t page_faults = 0;

  void Reset() { *this = IndexStats{}; }
};

}  // namespace mmdb

#endif  // MMDB_INDEX_INDEX_STATS_H_
