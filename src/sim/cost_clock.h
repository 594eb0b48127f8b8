#ifndef MMDB_SIM_COST_CLOCK_H_
#define MMDB_SIM_COST_CLOCK_H_

#include <cstdint>
#include <string>

#include "sim/cost_params.h"

namespace mmdb {

/// Tallies of the six primitive operations the paper's cost model charges.
struct CostCounters {
  int64_t comparisons = 0;
  int64_t hashes = 0;
  int64_t moves = 0;
  /// Moves of TID-key pairs rather than whole tuples (§3.2: "if only
  /// TID-key pairs are used then the parameter measuring the time for a
  /// move will be smaller"). Priced at move/4 (a ~16-24-byte pair vs a
  /// ~100-byte tuple).
  int64_t small_moves = 0;
  int64_t swaps = 0;
  int64_t seq_ios = 0;
  int64_t rand_ios = 0;

  CostCounters& operator+=(const CostCounters& o) {
    comparisons += o.comparisons;
    hashes += o.hashes;
    moves += o.moves;
    small_moves += o.small_moves;
    swaps += o.swaps;
    seq_ios += o.seq_ios;
    rand_ios += o.rand_ios;
    return *this;
  }

  bool operator==(const CostCounters& o) const {
    return comparisons == o.comparisons && hashes == o.hashes &&
           moves == o.moves && small_moves == o.small_moves &&
           swaps == o.swaps && seq_ios == o.seq_ios &&
           rand_ios == o.rand_ios;
  }
  bool operator!=(const CostCounters& o) const { return !(*this == o); }
};

/// Simulated-time accounting clock. The executed join/sort/recovery
/// algorithms charge each primitive operation here; Seconds() then prices
/// the tallies with the CostParams machine model, reproducing the paper's
/// "analytic simulation" numbers from an actually-executed algorithm.
/// The paper assumes no CPU/I/O overlap (§3.2), so total time is the plain
/// sum — we keep that assumption.
class CostClock {
 public:
  explicit CostClock(CostParams params = CostParams::Table2Defaults())
      : params_(params) {}

  void Comp(int64_t n = 1) { counters_.comparisons += n; }
  void Hash(int64_t n = 1) { counters_.hashes += n; }
  void Move(int64_t n = 1) { counters_.moves += n; }
  void SmallMove(int64_t n = 1) { counters_.small_moves += n; }
  void Swap(int64_t n = 1) { counters_.swaps += n; }
  void IoSeq(int64_t n = 1) { counters_.seq_ios += n; }
  void IoRand(int64_t n = 1) { counters_.rand_ios += n; }

  const CostCounters& counters() const { return counters_; }
  const CostParams& params() const { return params_; }

  /// Folds another clock's tallies into this one. A SQL statement charges
  /// a private clock that is merged here when it finishes (DESIGN.md §8) —
  /// the clock itself stays lock-free, and totals are independent of how
  /// concurrent statements interleave.
  void MergeFrom(const CostClock& other) { counters_ += other.counters_; }

  /// Total simulated elapsed time in seconds under the machine model.
  double Seconds() const;
  /// CPU-only portion (comp/hash/move/swap), in seconds.
  double CpuSeconds() const;
  /// I/O-only portion, in seconds.
  double IoSeconds() const;

  void Reset() { counters_ = CostCounters{}; }

  /// One-line summary for logs: counts and priced seconds.
  std::string DebugString() const;

 private:
  CostParams params_;
  CostCounters counters_;
};

}  // namespace mmdb

#endif  // MMDB_SIM_COST_CLOCK_H_
