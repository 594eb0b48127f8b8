#ifndef MMDB_EXEC_PARTITIONER_H_
#define MMDB_EXEC_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "storage/heap_file.h"
#include "storage/relation.h"
#include "storage/row.h"

namespace mmdb {

/// §3.3: a partition of a relation "compatible with h" — every tuple with
/// the same hash value lands in the same subset, so R ⋈ S decomposes into
/// R_i ⋈ S_i. Partitioning both relations with the same function is the
/// foundation of the GRACE and hybrid joins.
///
/// `level` salts the hash so recursive re-partitioning of an overflowed
/// partition (the paper's recursive hybrid fallback) uses an independent
/// hash function.
class HashPartitioner {
 public:
  /// Uniform split into `num_partitions` buckets.
  HashPartitioner(int64_t num_partitions, uint32_t level = 0);

  /// Hybrid split: hash-space fraction `q0` goes to partition 0 (kept
  /// resident); the rest spreads uniformly over partitions 1..spilled.
  static HashPartitioner Hybrid(double q0, int64_t spilled, uint32_t level = 0);

  /// Partition of a key (the caller charges the clock for the hash).
  int64_t PartitionOf(const Value& key) const;

  int64_t num_partitions() const { return num_partitions_; }
  double q0() const { return q0_; }

 private:
  HashPartitioner(int64_t num_partitions, double q0, uint32_t level);

  int64_t num_partitions_;  // total, including partition 0
  double q0_;               // 0 => plain uniform split
  uint64_t salt_;
};

/// A set of per-partition spill files with one in-flight output buffer page
/// each (the paper's "one page of main memory as an output buffer for each
/// set"). Appends charge one tuple move; page flushes charge `kind` I/O.
class PartitionWriterSet {
 public:
  /// Descriptor of a finished partition spill file (ownership of the disk
  /// file passes to the holder; delete via disk->DeleteFile).
  struct PartitionFile {
    SimulatedDisk::FileId file = SimulatedDisk::kInvalidFile;
    int64_t records = 0;
    int64_t pages = 0;
  };

  PartitionWriterSet(ExecContext* ctx, const Schema& schema,
                     int64_t num_partitions, IoKind kind,
                     const std::string& name_prefix);

  /// Serializes `row` into partition `p`'s buffer.
  Status Append(int64_t p, const Row& row);

  /// Flushes all partial buffers; after this, Release() is valid.
  Status FinishAll();

  /// Transfers ownership of the partition files.
  std::vector<PartitionFile> Release();

 private:
  ExecContext* ctx_;
  const Schema& schema_;
  std::vector<std::unique_ptr<PagedRecordWriter>> writers_;
  std::vector<char> record_buf_;
};

/// Reads a whole spilled partition back into memory (sequential I/O),
/// deleting the file afterwards.
StatusOr<std::vector<Row>> ReadAndDeletePartition(
    ExecContext* ctx, const Schema& schema,
    const PartitionWriterSet::PartitionFile& pf);

}  // namespace mmdb

#endif  // MMDB_EXEC_PARTITIONER_H_
