#ifndef MMDB_STORAGE_PAGE_FILE_H_
#define MMDB_STORAGE_PAGE_FILE_H_

#include <string>

#include "common/status.h"
#include "sim/simulated_disk.h"

namespace mmdb {

/// Thin typed wrapper over one SimulatedDisk file: a page-addressed file
/// with a stable id, used as the backing store for heap files, B+-trees,
/// database snapshots and log devices.
class PageFile {
 public:
  PageFile(SimulatedDisk* disk, std::string name)
      : disk_(disk), id_(disk->CreateFile(std::move(name))) {}

  ~PageFile() {
    if (disk_ != nullptr) disk_->DeleteFile(id_);
  }

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  PageFile(PageFile&& o) noexcept : disk_(o.disk_), id_(o.id_) {
    o.disk_ = nullptr;
  }

  SimulatedDisk* disk() const { return disk_; }
  SimulatedDisk::FileId id() const { return id_; }
  int64_t num_pages() const { return disk_->NumPages(id_); }
  int64_t page_size() const { return disk_->page_size(); }

  Status Read(int64_t page_no, void* out, IoKind kind) const {
    return disk_->ReadPage(id_, page_no, out, kind);
  }
  Status Write(int64_t page_no, const void* data, IoKind kind) {
    return disk_->WritePage(id_, page_no, data, kind);
  }
  StatusOr<int64_t> Allocate() { return disk_->AllocatePage(id_); }

 private:
  SimulatedDisk* disk_;
  SimulatedDisk::FileId id_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_PAGE_FILE_H_
