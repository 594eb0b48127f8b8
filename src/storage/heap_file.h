#ifndef MMDB_STORAGE_HEAP_FILE_H_
#define MMDB_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace mmdb {

/// Location of a record in a heap file: (page, slot). The paper's "TID".
struct RecordId {
  int64_t page_no = -1;
  int32_t slot = -1;

  bool operator==(const RecordId& o) const {
    return page_no == o.page_no && slot == o.slot;
  }
};

/// A paged file of fixed-size records accessed through the buffer pool —
/// the disk-resident representation of a relation. Records are
/// append-only: the paper's workloads never update or shrink a relation on
/// disk.
class HeapFile {
 public:
  /// `record_size` must fit a page (see Page::Capacity).
  HeapFile(BufferPool* pool, PageFile* file, int32_t record_size);

  int32_t record_size() const { return record_size_; }
  int64_t num_pages() const { return file_->num_pages(); }
  int64_t num_records() const { return num_records_; }
  int32_t records_per_page() const { return records_per_page_; }
  PageFile* file() const { return file_; }

  /// Appends one serialized record, allocating pages as needed.
  StatusOr<RecordId> Append(const char* record);

  /// Copies the record at `rid` into `out` (record_size bytes). The fetch
  /// is charged as a random I/O on a fault.
  Status Get(RecordId rid, char* out);

  /// Full sequential scan; `fn` sees each record's bytes and its RecordId.
  /// Page fetches are charged as sequential I/O on faults.
  Status Scan(const std::function<void(RecordId, const char*)>& fn);

 private:
  BufferPool* pool_;
  PageFile* file_;
  int32_t record_size_;
  int32_t records_per_page_;
  int64_t num_records_;
};

/// Streams fixed-size records into a brand-new disk file page by page,
/// without going through the buffer pool — the write path for sort runs and
/// hash-join partitions (§3), where the algorithm owns one dedicated output
/// buffer page and each flush is charged as `kind` I/O.
class PagedRecordWriter {
 public:
  PagedRecordWriter(SimulatedDisk* disk, int32_t record_size, IoKind kind,
                    std::string name);
  ~PagedRecordWriter();

  PagedRecordWriter(const PagedRecordWriter&) = delete;
  PagedRecordWriter& operator=(const PagedRecordWriter&) = delete;

  Status Append(const char* record);

  /// Flushes the final partial page. Must be called before reading.
  Status Finish();

  SimulatedDisk::FileId file_id() const { return file_id_; }
  int64_t records_written() const { return records_written_; }
  int64_t pages_written() const { return pages_written_; }
  bool finished() const { return finished_; }

  /// Relinquishes ownership of the file (it will not be deleted on
  /// destruction); returns its id.
  SimulatedDisk::FileId ReleaseFile();

 private:
  SimulatedDisk* disk_;
  SimulatedDisk::FileId file_id_;
  int32_t record_size_;
  IoKind kind_;
  std::vector<char> buffer_;
  int64_t records_written_ = 0;
  int64_t pages_written_ = 0;
  bool finished_ = false;
  bool owns_file_ = true;
};

/// Sequentially streams the records of a file written by PagedRecordWriter.
class PagedRecordReader {
 public:
  PagedRecordReader(SimulatedDisk* disk, SimulatedDisk::FileId file,
                    int32_t record_size, IoKind kind);

  /// Copies the next record into `out`; returns false at end of file.
  /// Any read error is fatal (MMDB_CHECK) — the file is our own spill data.
  bool Next(char* out);

  int64_t records_read() const { return records_read_; }

 private:
  SimulatedDisk* disk_;
  SimulatedDisk::FileId file_;
  int32_t record_size_;
  IoKind kind_;
  std::vector<char> buffer_;
  int64_t num_pages_;
  int64_t next_page_ = 0;
  int32_t next_slot_ = 0;
  int32_t records_in_page_ = 0;
  int64_t records_read_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_HEAP_FILE_H_
