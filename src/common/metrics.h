#ifndef MMDB_COMMON_METRICS_H_
#define MMDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

namespace mmdb {

/// One named monotonic counter. Increments are relaxed atomics: safe for
/// the registries that are genuinely shared across threads (the buffer
/// pool under the checkpointer, the simulated disk under parallel spills)
/// and free on the single-owner per-worker shards.
class MetricCounter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Power-of-two bucketed histogram of non-negative values (run lengths,
/// partition sizes, commit-group sizes). Bucket i counts values whose bit
/// width is i, i.e. [2^(i-1), 2^i); values <= 0 land in bucket 0.
class MetricHistogram {
 public:
  static constexpr int kNumBuckets = 64;

  struct Data {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;  ///< meaningful only when count > 0
    int64_t max = 0;
    std::array<int64_t, kNumBuckets> buckets{};

    double Mean() const { return count > 0 ? double(sum) / double(count) : 0; }
    /// Nearest-rank `p`-quantile, 0 <= p <= 1: the largest value the
    /// bucket holding the ceil(p * count)-th smallest value admits,
    /// clamped to [min, max]. Exact for one value; 0 when empty.
    int64_t Percentile(double p) const;
    void MergeFrom(const Data& other);
    bool operator==(const Data& other) const;
  };

  void Record(int64_t value);
  void MergeFrom(const MetricHistogram& other);
  void MergeData(const Data& other);
  void Reset();
  Data data() const;

  /// Bucket index of `value` (exposed for tests).
  static int BucketOf(int64_t value);

 private:
  mutable std::mutex mu_;
  Data data_;
};

/// A registry of named counters and histograms — the engine's single
/// observability surface. Components bind counter handles once and count
/// where the event happens, under a dotted name ("buffer_pool.faults",
/// "txn.committed", "server.locks.waits", ...); the remaining Stats structs
/// are views over those handles.
///
/// Concurrency follows the CostClock merge discipline (DESIGN.md §8/§9):
/// parallel exec workers each get a private shard registry that the
/// parallel region merges into the parent once every worker has finished.
/// Addition commutes, so merged totals are independent of the morsel →
/// worker schedule — metrics stay deterministic at every DOP. Registries
/// that *are* shared across threads (the database's) are safe too: name
/// lookup takes a mutex, increments are atomic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The returned pointer is stable for the registry's
  /// lifetime — hot paths look a counter up once and increment the handle.
  MetricCounter* counter(std::string_view name);
  MetricHistogram* histogram(std::string_view name);

  /// One-shot conveniences for cold paths.
  void Add(std::string_view name, int64_t delta) { counter(name)->Add(delta); }
  void Set(std::string_view name, int64_t value) { counter(name)->Set(value); }
  void Record(std::string_view name, int64_t value) {
    histogram(name)->Record(value);
  }

  /// Current value of a counter; 0 when it has never been touched.
  int64_t Get(std::string_view name) const;

  /// Folds another registry's tallies into this one (counters add,
  /// histograms merge). Used by the parallel regions exactly like
  /// CostClock::MergeFrom.
  void MergeFrom(const MetricsRegistry& other);

  /// Zeroes every value; names survive (snapshot-vs-reset semantics: a
  /// snapshot taken before Reset keeps the old values).
  void Reset();

  /// Point-in-time copy of every metric, decoupled from later updates.
  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, MetricHistogram::Data> histograms;

    /// Deterministic (name-sorted) JSON rendering:
    /// {"counters":{...},"histograms":{"h":{"count":..,"sum":..,...}}}
    std::string ToJson() const;
  };
  Snapshot TakeSnapshot() const;
  std::string ToJson() const { return TakeSnapshot().ToJson(); }

 private:
  mutable std::mutex mu_;  ///< guards map structure, not the values
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>>
      histograms_;
};

/// A component's counters, bound once at construction: the slot of each
/// {slot, name} pair counts "<prefix>.<name>". They live in `host` or, when
/// it is null, in a private registry the component owns, so a component
/// built on its own still counts. Components name their slots by an enum.
template <int N>
class MetricCounters {
 public:
  MetricCounters(MetricsRegistry* host, std::string_view prefix,
                 std::initializer_list<std::pair<int, std::string_view>> names)
      : owned_(host != nullptr ? nullptr
                               : std::make_unique<MetricsRegistry>()),
        registry_(host != nullptr ? host : owned_.get()) {
    for (const auto& [slot, name] : names) {
      slots_[size_t(slot)] =
          registry_->counter(std::string(prefix) + "." + std::string(name));
    }
  }

  void Add(int slot, int64_t delta = 1) const {
    slots_[size_t(slot)]->Add(delta);
  }
  void Set(int slot, int64_t value) const { slots_[size_t(slot)]->Set(value); }
  int64_t Get(int slot) const { return slots_[size_t(slot)]->Get(); }
  void Reset() const { for (MetricCounter* c : slots_) c->Set(0); }
  MetricsRegistry* registry() const { return registry_; }

 private:
  std::unique_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_;
  std::array<MetricCounter*, N> slots_{};
};

}  // namespace mmdb

#endif  // MMDB_COMMON_METRICS_H_
