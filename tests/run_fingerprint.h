#ifndef MMDB_TESTS_RUN_FINGERPRINT_H_
#define MMDB_TESTS_RUN_FINGERPRINT_H_

#include <cstdio>
#include <string>

#include "common/hash.h"
#include "exec/exec_context.h"
#include "storage/relation.h"

namespace mmdb {

/// One operator run as a pinnable string: the row count and an
/// order-sensitive hash of the output rows (every value's type and exact
/// bits, rows in sequence), then the cost counters and the spill disk's
/// page transfers. Two runs print the same string only if they emit the
/// same rows in the same order and charge the same primitives.
inline std::string RunFingerprint(const Relation& out, const ExecEnv& env) {
  uint64_t h = 0;
  for (const Row& row : out.rows()) {
    uint64_t rh = 0;
    for (const Value& v : row) {
      rh = HashCombine(rh, HashCombine(v.index(), HashValue(v)));
    }
    h = HashCombine(h, rh);
  }
  const CostCounters c = env.clock.counters();
  const SimulatedDisk::Stats d = env.disk.stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "rows=%lld hash=%016llx comps=%lld hashes=%lld moves=%lld "
                "small_moves=%lld swaps=%lld seq_ios=%lld rand_ios=%lld "
                "reads=%lld writes=%lld",
                static_cast<long long>(out.num_tuples()),
                static_cast<unsigned long long>(h),
                static_cast<long long>(c.comparisons),
                static_cast<long long>(c.hashes),
                static_cast<long long>(c.moves),
                static_cast<long long>(c.small_moves),
                static_cast<long long>(c.swaps),
                static_cast<long long>(c.seq_ios),
                static_cast<long long>(c.rand_ios),
                static_cast<long long>(d.reads),
                static_cast<long long>(d.writes));
  return buf;
}

}  // namespace mmdb

#endif  // MMDB_TESTS_RUN_FINGERPRINT_H_
