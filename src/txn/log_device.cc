#include "txn/log_device.h"

#include <thread>

#include "common/check.h"

namespace mmdb {

StatusOr<int64_t> LogDevice::WritePage(std::string data) {
  if (static_cast<int64_t>(data.size()) > page_size_) {
    return Status::InvalidArgument("log write larger than a device page");
  }
  std::unique_lock<std::mutex> lock(mu_);
  // The arm is busy for the whole transfer; concurrent writers serialize
  // behind the mutex exactly like requests queueing at one disk.
  if (write_latency_.count() > 0) {
    std::this_thread::sleep_for(write_latency_);
  }
  if (injector_ != nullptr) {
    int64_t persist = static_cast<int64_t>(data.size());
    MMDB_RETURN_IF_ERROR(injector_->OnWrite(
        FaultDevice::kLogDevice, device_index_,
        static_cast<int64_t>(pages_.size()), data.data(),
        static_cast<int64_t>(data.size()), &persist));
    if (persist < static_cast<int64_t>(data.size())) {
      data.resize(static_cast<size_t>(persist));  // torn: prefix only
    }
  }
  // Keep the payload only; reads pad it back to a full page. The device
  // is still charged a whole page per write.
  pages_.push_back(std::move(data));
  bytes_written_ += page_size_;
  return static_cast<int64_t>(pages_.size()) - 1;
}

StatusOr<std::string> LogDevice::ReadPage(int64_t page_no) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (page_no < 0 || page_no >= static_cast<int64_t>(pages_.size())) {
    return Status::OutOfRange("log page out of range");
  }
  if (injector_ != nullptr) {
    MMDB_RETURN_IF_ERROR(
        injector_->OnRead(FaultDevice::kLogDevice, device_index_, page_no));
  }
  std::string page = pages_[static_cast<size_t>(page_no)];
  page.resize(static_cast<size_t>(page_size_), '\0');
  return page;
}

int64_t LogDevice::num_pages() const {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<int64_t>(pages_.size());
}

int64_t LogDevice::bytes_written() const {
  std::unique_lock<std::mutex> lock(mu_);
  return bytes_written_;
}

std::string LogDevice::ReadAll(ReadStats* stats) const {
  std::unique_lock<std::mutex> lock(mu_);
  std::string out;
  out.reserve(pages_.size() * static_cast<size_t>(page_size_));
  for (size_t i = 0; i < pages_.size(); ++i) {
    bool readable = true;
    if (injector_ != nullptr) {
      readable = false;
      for (int attempt = 0; attempt < kDefaultMaxIoAttempts; ++attempt) {
        Status s = injector_->OnRead(FaultDevice::kLogDevice, device_index_,
                                     static_cast<int64_t>(i));
        if (s.ok()) {
          readable = true;
          break;
        }
        if (stats != nullptr) ++stats->retries;
      }
    }
    if (readable) {
      out += pages_[i];
    } else {
      // Zero-substitute: the record parser skips zeros as padding, so an
      // unreadable page costs its records but not the whole restart.
      if (stats != nullptr) ++stats->unreadable_pages;
    }
    out.resize((i + 1) * static_cast<size_t>(page_size_), '\0');
  }
  return out;
}

}  // namespace mmdb
