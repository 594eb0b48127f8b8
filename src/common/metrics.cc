#include "common/metrics.h"

#include <algorithm>
#include <cmath>

namespace mmdb {

int MetricHistogram::BucketOf(int64_t value) {
  if (value <= 0) return 0;
  int bits = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return std::min(bits, kNumBuckets - 1);
}

void MetricHistogram::Data::MergeFrom(const Data& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (int i = 0; i < kNumBuckets; ++i) buckets[size_t(i)] += other.buckets[size_t(i)];
}

int64_t MetricHistogram::Data::Percentile(double p) const {
  if (count == 0) return 0;
  // The epsilon keeps an exact product (0.07 * 100) from rounding up a rank.
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(p * double(count) - 1e-9)), 1, count);
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets[size_t(i)];
    if (seen < rank) continue;
    // Bucket i holds [2^(i-1), 2^i); bucket 0 holds values <= 0.
    const int64_t upper =
        i == 0 ? 0 : i == kNumBuckets - 1 ? max : (int64_t{1} << i) - 1;
    return std::clamp(upper, min, max);
  }
  return max;
}

bool MetricHistogram::Data::operator==(const Data& other) const {
  return count == other.count && sum == other.sum &&
         (count == 0 || (min == other.min && max == other.max)) &&
         buckets == other.buckets;
}

void MetricHistogram::Record(int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (data_.count == 0) {
    data_.min = value;
    data_.max = value;
  } else {
    data_.min = std::min(data_.min, value);
    data_.max = std::max(data_.max, value);
  }
  ++data_.count;
  data_.sum += value;
  ++data_.buckets[size_t(BucketOf(value))];
}

void MetricHistogram::MergeFrom(const MetricHistogram& other) {
  MergeData(other.data());
}

void MetricHistogram::MergeData(const Data& other) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.MergeFrom(other);
}

void MetricHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  data_ = Data{};
}

MetricHistogram::Data MetricHistogram::data() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

MetricCounter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  }
  return it->second.get();
}

MetricHistogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<MetricHistogram>())
             .first;
  }
  return it->second.get();
}

int64_t MetricsRegistry::Get(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Get();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Copy the other side's values first so the two registry mutexes are
  // never held together (merge direction is unconstrained for callers).
  Snapshot theirs = other.TakeSnapshot();
  for (const auto& [name, value] : theirs.counters) {
    if (value != 0) counter(name)->Add(value);
  }
  for (const auto& [name, data] : theirs.histograms) {
    if (data.count == 0) continue;
    histogram(name)->MergeData(data);
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Set(0);
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Get();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->data();
  return snap;
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string MetricsRegistry::Snapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, data] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(data.count) +
           ",\"sum\":" + std::to_string(data.sum) +
           ",\"min\":" + std::to_string(data.count > 0 ? data.min : 0) +
           ",\"max\":" + std::to_string(data.count > 0 ? data.max : 0) +
           ",\"buckets\":[";
    bool first_bucket = true;
    for (int i = 0; i < MetricHistogram::kNumBuckets; ++i) {
      const int64_t n = data.buckets[size_t(i)];
      if (n == 0) continue;
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      // [upper bound (exclusive, as a power of two), count]
      const int64_t upper = i >= 63 ? INT64_MAX : (int64_t{1} << i);
      out += "[" + std::to_string(upper) + "," + std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace mmdb
