#include "storage/heap_file.h"

#include <cstring>

#include "common/check.h"

namespace mmdb {

HeapFile::HeapFile(BufferPool* pool, PageFile* file, int32_t record_size)
    : pool_(pool),
      file_(file),
      record_size_(record_size),
      records_per_page_(Page::Capacity(file->page_size(), record_size)),
      num_records_(0) {
  MMDB_CHECK_MSG(records_per_page_ > 0, "record too large for page");
  // Recount records if the file already has pages (e.g. after recovery).
  for (int64_t p = 0; p < file_->num_pages(); ++p) {
    auto ref = pool_->Fetch(file_->id(), p, IoKind::kSequential);
    MMDB_CHECK(ref.ok());
    Page page(ref->data(), file_->page_size(), record_size_);
    num_records_ += page.record_count();
  }
}

StatusOr<RecordId> HeapFile::Append(const char* record) {
  int64_t last = file_->num_pages() - 1;
  if (last >= 0) {
    MMDB_ASSIGN_OR_RETURN(auto ref,
                          pool_->Fetch(file_->id(), last, IoKind::kRandom));
    Page page(ref.data(), file_->page_size(), record_size_);
    if (!page.Full()) {
      int32_t slot = page.record_count();
      MMDB_RETURN_IF_ERROR(page.Append(record));
      ref.MarkDirty();
      ++num_records_;
      return RecordId{last, slot};
    }
  }
  MMDB_ASSIGN_OR_RETURN(auto ref, pool_->New(file_->id()));
  Page page(ref.data(), file_->page_size(), record_size_);
  page.Init();
  MMDB_RETURN_IF_ERROR(page.Append(record));
  ref.MarkDirty();
  ++num_records_;
  return RecordId{ref.page_no(), 0};
}

Status HeapFile::Get(RecordId rid, char* out) {
  MMDB_ASSIGN_OR_RETURN(auto ref,
                        pool_->Fetch(file_->id(), rid.page_no, IoKind::kRandom));
  Page page(ref.data(), file_->page_size(), record_size_);
  if (rid.slot < 0 || rid.slot >= page.record_count()) {
    return Status::OutOfRange("bad slot");
  }
  std::memcpy(out, page.Record(rid.slot), static_cast<size_t>(record_size_));
  return Status::OK();
}

Status HeapFile::Scan(const std::function<void(RecordId, const char*)>& fn) {
  for (int64_t p = 0; p < file_->num_pages(); ++p) {
    MMDB_ASSIGN_OR_RETURN(auto ref,
                          pool_->Fetch(file_->id(), p, IoKind::kSequential));
    Page page(ref.data(), file_->page_size(), record_size_);
    for (int32_t s = 0; s < page.record_count(); ++s) {
      fn(RecordId{p, s}, page.Record(s));
    }
  }
  return Status::OK();
}

PagedRecordWriter::PagedRecordWriter(SimulatedDisk* disk, int32_t record_size,
                                     IoKind kind, std::string name)
    : disk_(disk),
      file_id_(disk->CreateFile(std::move(name))),
      record_size_(record_size),
      kind_(kind),
      buffer_(static_cast<size_t>(disk->page_size()), 0) {
  MMDB_CHECK(Page::Capacity(disk->page_size(), record_size) > 0);
  Page page(buffer_.data(), disk_->page_size(), record_size_);
  page.Init();
}

PagedRecordWriter::~PagedRecordWriter() {
  if (owns_file_) disk_->DeleteFile(file_id_);
}

Status PagedRecordWriter::Append(const char* record) {
  MMDB_DCHECK(!finished_);
  Page page(buffer_.data(), disk_->page_size(), record_size_);
  if (page.Full()) {
    MMDB_RETURN_IF_ERROR(
        disk_->WritePage(file_id_, pages_written_, buffer_.data(), kind_));
    ++pages_written_;
    page.Init();
  }
  MMDB_RETURN_IF_ERROR(page.Append(record));
  ++records_written_;
  return Status::OK();
}

Status PagedRecordWriter::Finish() {
  if (finished_) return Status::OK();
  Page page(buffer_.data(), disk_->page_size(), record_size_);
  if (page.record_count() > 0) {
    MMDB_RETURN_IF_ERROR(
        disk_->WritePage(file_id_, pages_written_, buffer_.data(), kind_));
    ++pages_written_;
  }
  finished_ = true;
  return Status::OK();
}

SimulatedDisk::FileId PagedRecordWriter::ReleaseFile() {
  owns_file_ = false;
  return file_id_;
}

PagedRecordReader::PagedRecordReader(SimulatedDisk* disk,
                                     SimulatedDisk::FileId file,
                                     int32_t record_size, IoKind kind)
    : disk_(disk),
      file_(file),
      record_size_(record_size),
      kind_(kind),
      buffer_(static_cast<size_t>(disk->page_size()), 0),
      num_pages_(disk->NumPages(file)) {}

bool PagedRecordReader::Next(char* out) {
  while (next_slot_ >= records_in_page_) {
    if (next_page_ >= num_pages_) return false;
    Status s = disk_->ReadPage(file_, next_page_, buffer_.data(), kind_);
    MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
    ++next_page_;
    Page page(buffer_.data(), disk_->page_size(), record_size_);
    records_in_page_ = page.record_count();
    next_slot_ = 0;
  }
  Page page(buffer_.data(), disk_->page_size(), record_size_);
  std::memcpy(out, page.Record(next_slot_), static_cast<size_t>(record_size_));
  ++next_slot_;
  ++records_read_;
  return true;
}

}  // namespace mmdb
