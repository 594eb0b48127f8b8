#include "sim/simulated_disk.h"

#include <cstring>

#include "common/check.h"

namespace mmdb {

SimulatedDisk::SimulatedDisk(int64_t page_size_bytes, CostClock* clock,
                             MetricsRegistry* metrics)
    : page_size_(page_size_bytes),
      clock_(clock),
      counters_(metrics, "disk",
                {{kReads, "reads"}, {kWrites, "writes"}, {kSeqIos, "seq_ios"},
                 {kRandIos, "rand_ios"}, {kIoErrors, "io_errors"}}) {}

SimulatedDisk::Stats SimulatedDisk::stats() const {
  Stats s;
  s.reads = counters_.Get(kReads);
  s.writes = counters_.Get(kWrites);
  s.seq_ios = counters_.Get(kSeqIos);
  s.rand_ios = counters_.Get(kRandIos);
  s.io_errors = counters_.Get(kIoErrors);
  return s;
}

void SimulatedDisk::ResetStats() { counters_.Reset(); }

void SimulatedDisk::MergeClock(const CostClock& other) {
  std::lock_guard<std::mutex> lock(mu_);
  if (clock_ != nullptr) clock_->MergeFrom(other);
}

SimulatedDisk::FileId SimulatedDisk::CreateFile(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  FileId id = next_id_++;
  files_[id].name = std::move(name);
  return id;
}

void SimulatedDisk::DeleteFile(FileId id) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(id);
}

int64_t SimulatedDisk::NumPages(FileId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  if (it == files_.end()) return 0;
  return static_cast<int64_t>(it->second.pages.size());
}

void SimulatedDisk::Charge(File* f, int64_t page_no, IoKind kind) {
  if (clock_ != nullptr) {
    if (kind == IoKind::kSequential) {
      clock_->IoSeq();
    } else {
      clock_->IoRand();
    }
  }
  if (kind == IoKind::kSequential) {
    counters_.Add(kSeqIos);
  } else {
    counters_.Add(kRandIos);
  }
  f->last_page_accessed = page_no;
}

Status SimulatedDisk::WritePage(FileId id, int64_t page_no, const void* data,
                                IoKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  if (it == files_.end()) return Status::NotFound("no such file");
  if (page_no < 0) return Status::InvalidArgument("negative page number");
  File& f = it->second;
  std::vector<char> buf(static_cast<const char*>(data),
                        static_cast<const char*>(data) + page_size_);
  int64_t persist = page_size_;
  if (injector_ != nullptr) {
    Status s = injector_->OnWrite(FaultDevice::kDataDisk, id, page_no,
                                  buf.data(), page_size_, &persist);
    if (!s.ok()) {
      counters_.Add(kIoErrors);
      return s;
    }
  }
  if (page_no >= static_cast<int64_t>(f.pages.size())) {
    f.pages.resize(static_cast<size_t>(page_no) + 1);
  }
  auto& page = f.pages[static_cast<size_t>(page_no)];
  if (persist < page_size_) {
    // Torn write: the prefix is new, the suffix keeps the old sector
    // contents (zeros if the page was never written).
    if (page.empty()) page.assign(static_cast<size_t>(page_size_), 0);
    std::memcpy(page.data(), buf.data(), static_cast<size_t>(persist));
  } else {
    page = std::move(buf);
  }
  counters_.Add(kWrites);
  Charge(&f, page_no, kind);
  return Status::OK();
}

Status SimulatedDisk::ReadPage(FileId id, int64_t page_no, void* out,
                               IoKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  if (it == files_.end()) return Status::NotFound("no such file");
  File& f = it->second;
  if (page_no < 0 || page_no >= static_cast<int64_t>(f.pages.size())) {
    return Status::OutOfRange("page beyond end of file");
  }
  if (injector_ != nullptr) {
    Status s = injector_->OnRead(FaultDevice::kDataDisk, id, page_no);
    if (!s.ok()) {
      counters_.Add(kIoErrors);
      return s;
    }
  }
  const auto& page = f.pages[static_cast<size_t>(page_no)];
  if (page.empty()) {
    std::memset(out, 0, static_cast<size_t>(page_size_));
  } else {
    std::memcpy(out, page.data(), static_cast<size_t>(page_size_));
  }
  counters_.Add(kReads);
  Charge(&f, page_no, kind);
  return Status::OK();
}

StatusOr<int64_t> SimulatedDisk::AllocatePage(FileId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  if (it == files_.end()) return Status::NotFound("no such file");
  File& f = it->second;
  f.pages.emplace_back();  // empty vector reads back as zeros
  return static_cast<int64_t>(f.pages.size()) - 1;
}

int64_t SimulatedDisk::TotalPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [id, f] : files_) {
    total += static_cast<int64_t>(f.pages.size());
  }
  return total;
}

}  // namespace mmdb
