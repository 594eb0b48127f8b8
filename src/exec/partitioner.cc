#include "exec/partitioner.h"

#include "common/check.h"
#include "common/hash.h"

namespace mmdb {

HashPartitioner::HashPartitioner(int64_t num_partitions, uint32_t level)
    : HashPartitioner(num_partitions, 0.0, level) {}

HashPartitioner::HashPartitioner(int64_t num_partitions, double q0,
                                 uint32_t level)
    : num_partitions_(num_partitions),
      q0_(q0),
      salt_(Mix64(0x5EEDF00Dull + level)) {
  MMDB_CHECK(num_partitions >= 1);
  MMDB_CHECK(q0 >= 0.0 && q0 <= 1.0);
}

HashPartitioner HashPartitioner::Hybrid(double q0, int64_t spilled,
                                        uint32_t level) {
  return HashPartitioner(spilled + 1, q0, level);
}

int64_t HashPartitioner::PartitionOf(const Value& key) const {
  const uint64_t h = Mix64(HashValue(key) ^ salt_);
  // One mapping for both shapes: project the hash onto [0,1) and carve the
  // unit interval. The uniform split is exactly the hybrid split with
  // q0 = 0, so the two constructors can never disagree for the same key
  // (an earlier version mixed this carve with `h % num_partitions_`, which
  // routed the same key differently across call sites).
  if (num_partitions_ == 1) return 0;
  const double x = double(h >> 11) * 0x1.0p-53;
  if (q0_ > 0.0) {
    if (x < q0_) return 0;
    const double rest = (x - q0_) / (1.0 - q0_);
    int64_t p = 1 + static_cast<int64_t>(rest * double(num_partitions_ - 1));
    if (p >= num_partitions_) p = num_partitions_ - 1;
    return p;
  }
  int64_t p = static_cast<int64_t>(x * double(num_partitions_));
  if (p >= num_partitions_) p = num_partitions_ - 1;
  return p;
}

PartitionWriterSet::PartitionWriterSet(ExecContext* ctx, const Schema& schema,
                                       int64_t num_partitions, IoKind kind,
                                       const std::string& name_prefix)
    : ctx_(ctx),
      schema_(schema),
      record_buf_(static_cast<size_t>(schema.record_size())) {
  writers_.reserve(static_cast<size_t>(num_partitions));
  for (int64_t i = 0; i < num_partitions; ++i) {
    writers_.push_back(std::make_unique<PagedRecordWriter>(
        ctx->disk, schema.record_size(), kind,
        name_prefix + "_" + std::to_string(i)));
  }
}

Status PartitionWriterSet::Append(int64_t p, const Row& row) {
  MMDB_DCHECK(p >= 0 && p < static_cast<int64_t>(writers_.size()));
  ctx_->clock->Move();
  MMDB_RETURN_IF_ERROR(SerializeRow(schema_, row, record_buf_.data()));
  return writers_[static_cast<size_t>(p)]->Append(record_buf_.data());
}

Status PartitionWriterSet::FinishAll() {
  for (auto& w : writers_) {
    MMDB_RETURN_IF_ERROR(w->Finish());
  }
  return Status::OK();
}

std::vector<PartitionWriterSet::PartitionFile> PartitionWriterSet::Release() {
  std::vector<PartitionFile> out;
  out.reserve(writers_.size());
  for (auto& w : writers_) {
    PartitionFile pf;
    pf.records = w->records_written();
    pf.pages = w->pages_written();
    pf.file = w->ReleaseFile();
    out.push_back(pf);
  }
  writers_.clear();
  // Release() runs exactly once per partitioning op, so spill totals
  // publish here, never per append.
  if (ctx_->metrics != nullptr) {
    int64_t parts = 0, pages = 0, records = 0;
    for (const PartitionFile& pf : out) {
      if (pf.records == 0) continue;
      ++parts;
      pages += pf.pages;
      records += pf.records;
      ctx_->metrics->Record("exec.spill.partition_pages", pf.pages);
    }
    if (parts > 0) {
      MetricsRegistry* m = ctx_->metrics;
      m->Add("exec.spill.partitions", parts);
      m->Add("exec.spill.pages", pages);
      m->Add("exec.spill.records", records);
      m->Add("exec.spill.bytes", pages * ctx_->page_size());
    }
  }
  return out;
}

StatusOr<std::vector<Row>> ReadAndDeletePartition(
    ExecContext* ctx, const Schema& schema,
    const PartitionWriterSet::PartitionFile& pf) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(pf.records));
  PagedRecordReader reader(ctx->disk, pf.file, schema.record_size(),
                           IoKind::kSequential);
  std::vector<char> buf(static_cast<size_t>(schema.record_size()));
  while (reader.Next(buf.data())) {
    rows.push_back(DeserializeRow(schema, buf.data()));
  }
  ctx->disk->DeleteFile(pf.file);
  return rows;
}

}  // namespace mmdb
