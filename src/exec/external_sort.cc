#include "exec/external_sort.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "storage/heap_file.h"

namespace mmdb {

namespace {

/// One sorted run: spilled to a disk file, or held in memory as the
/// input's records in order (the single run of a memory-resident sort).
struct SortRun {
  SimulatedDisk::FileId file = SimulatedDisk::kInvalidFile;
  int64_t pages = 0;
  std::vector<const char*> in_memory;  // used iff file == kInvalidFile
};

struct HeapItem {
  int64_t run_id;
  const char* rec;
};

using ItemHeap = CountingHeap<
    HeapItem, std::function<bool(const HeapItem&, const HeapItem&)>>;

class MemoryStream : public SortedStream {
 public:
  explicit MemoryStream(std::vector<const char*> records)
      : records_(std::move(records)) {}
  StatusOr<const char*> Next() override {
    return pos_ < records_.size() ? records_[pos_++] : nullptr;
  }

 private:
  std::vector<const char*> records_;
  size_t pos_ = 0;
};

/// K-way merge over disk runs; deletes the run files when destroyed. Each
/// run has one record buffer, which holds its record in the heap.
class MergeStream : public SortedStream {
 public:
  MergeStream(ExecContext* ctx, const Schema& schema, int key_column,
              std::vector<SortRun> runs)
      : ctx_(ctx),
        record_size_(static_cast<size_t>(schema.record_size())),
        runs_(std::move(runs)),
        bufs_(runs_.size() * record_size_),
        out_(record_size_),
        heap_(
            [key = Field::Of(schema, key_column)](const HeapItem& a,
                                                  const HeapItem& b) {
              return CompareFields(key, a.rec, key, b.rec) < 0;
            },
            ctx->clock) {
    for (size_t i = 0; i < runs_.size(); ++i) {
      // Merge reads hop between runs: random I/O (§3.4 cost formula).
      readers_.push_back(std::make_unique<PagedRecordReader>(
          ctx_->disk, runs_[i].file, schema.record_size(), IoKind::kRandom));
      Advance(i);
    }
  }

  ~MergeStream() override {
    for (const SortRun& run : runs_) ctx_->disk->DeleteFile(run.file);
  }

  StatusOr<const char*> Next() override {
    if (heap_.empty()) return nullptr;
    const HeapItem item = heap_.Pop();
    std::memcpy(out_.data(), item.rec, record_size_);
    Advance(static_cast<size_t>(item.run_id));
    return static_cast<const char*>(out_.data());
  }

 private:
  /// Reads run `i`'s next record into its buffer and queues it.
  void Advance(size_t i) {
    char* buf = bufs_.data() + i * record_size_;
    if (readers_[i]->Next(buf)) {
      heap_.Push(HeapItem{static_cast<int64_t>(i), buf});
    }
  }

  ExecContext* ctx_;
  size_t record_size_;
  std::vector<SortRun> runs_;
  std::vector<std::unique_ptr<PagedRecordReader>> readers_;
  std::vector<char> bufs_;
  std::vector<char> out_;
  ItemHeap heap_;
};

/// Replacement selection (§3.4 step 1): one pass over the input through a
/// priority queue of {M} tuples produces runs averaging 2|M| pages.
StatusOr<std::vector<SortRun>> FormRuns(const Relation& input, int key_column,
                                        ExecContext* ctx, bool* in_memory) {
  const Schema& schema = input.schema();
  const int64_t capacity =
      std::max<int64_t>(2, ctx->TuplesInPages(schema, ctx->memory_pages));

  const Field key = Field::Of(schema, key_column);
  ItemHeap heap(
      [key](const HeapItem& a, const HeapItem& b) {
        if (a.run_id != b.run_id) return a.run_id < b.run_id;
        return CompareFields(key, a.rec, key, b.rec) < 0;
      },
      ctx->clock);

  // Entirely in memory: one run, no spill, no I/O.
  if (input.num_tuples() <= capacity) {
    *in_memory = true;
    for (int64_t i = 0; i < input.num_tuples(); ++i) {
      heap.Push(HeapItem{0, input.record(i)});
    }
    SortRun run;
    run.in_memory.reserve(static_cast<size_t>(input.num_tuples()));
    while (!heap.empty()) run.in_memory.push_back(heap.Pop().rec);
    std::vector<SortRun> runs;
    runs.push_back(std::move(run));
    return runs;
  }

  *in_memory = false;
  std::vector<SortRun> runs;

  int64_t pos = 0;
  while (pos < capacity && pos < input.num_tuples()) {
    heap.Push(HeapItem{0, input.record(pos)});
    ++pos;
  }

  int64_t current_run = 0;
  std::unique_ptr<PagedRecordWriter> writer;
  auto open_writer = [&]() {
    writer = std::make_unique<PagedRecordWriter>(
        ctx->disk, schema.record_size(), IoKind::kSequential,
        "sort_run_" + std::to_string(runs.size()));
  };
  auto close_writer = [&]() -> Status {
    MMDB_RETURN_IF_ERROR(writer->Finish());
    SortRun run;
    run.pages = writer->pages_written();
    run.file = writer->ReleaseFile();
    runs.push_back(std::move(run));
    writer.reset();
    return Status::OK();
  };
  open_writer();

  while (!heap.empty()) {
    HeapItem item = heap.Pop();
    if (item.run_id != current_run) {
      MMDB_RETURN_IF_ERROR(close_writer());
      open_writer();
      current_run = item.run_id;
    }
    // Move the tuple into the run's output buffer.
    ctx->clock->Move();
    MMDB_RETURN_IF_ERROR(writer->Append(item.rec));

    if (pos < input.num_tuples()) {
      const char* next = input.record(pos++);
      // A new tuple smaller than the last output cannot join this run.
      const int64_t run_id =
          current_run + (CompareFields(key, next, key, item.rec) < 0 ? 1 : 0);
      if (ctx->clock != nullptr) ctx->clock->Comp();  // the fence test
      heap.Push(HeapItem{run_id, next});
    }
  }
  MMDB_RETURN_IF_ERROR(close_writer());
  return runs;
}

/// Merges groups of at most `fan_in` runs into longer runs (only needed
/// when the paper's sqrt assumption is violated).
StatusOr<std::vector<SortRun>> MergeLevel(std::vector<SortRun> runs,
                                          int64_t fan_in, const Schema& schema,
                                          int key_column, ExecContext* ctx) {
  std::vector<SortRun> out;
  for (size_t start = 0; start < runs.size();
       start += static_cast<size_t>(fan_in)) {
    size_t end = std::min(runs.size(), start + static_cast<size_t>(fan_in));
    std::vector<SortRun> group(std::make_move_iterator(runs.begin() + start),
                               std::make_move_iterator(runs.begin() + end));
    MergeStream merge(ctx, schema, key_column, std::move(group));
    PagedRecordWriter writer(ctx->disk, schema.record_size(),
                             IoKind::kSequential, "sort_merge_level");
    while (true) {
      MMDB_ASSIGN_OR_RETURN(const char* rec, merge.Next());
      if (rec == nullptr) break;
      ctx->clock->Move();
      MMDB_RETURN_IF_ERROR(writer.Append(rec));
    }
    MMDB_RETURN_IF_ERROR(writer.Finish());
    SortRun merged;
    merged.pages = writer.pages_written();
    merged.file = writer.ReleaseFile();
    out.push_back(std::move(merged));
  }
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<SortedStream>> SortRelation(const Relation& input,
                                                     int key_column,
                                                     ExecContext* ctx,
                                                     SortStats* stats) {
  MMDB_CHECK(key_column >= 0 &&
             key_column < input.schema().num_columns());
  bool in_memory = false;
  MMDB_ASSIGN_OR_RETURN(std::vector<SortRun> runs,
                        FormRuns(input, key_column, ctx, &in_memory));
  SortStats local;
  SortStats* st = stats != nullptr ? stats : &local;
  *st = SortStats{};
  st->runs = static_cast<int64_t>(runs.size());
  st->in_memory = in_memory;
  int64_t total_pages = 0;
  for (const SortRun& r : runs) {
    total_pages += r.pages;
    if (!in_memory && ctx->metrics != nullptr) {
      ctx->metrics->Record("exec.sort.run_length_pages", r.pages);
    }
  }
  st->avg_run_pages =
      runs.empty() ? 0 : double(total_pages) / double(runs.size());
  auto publish = [&] {
    if (ctx->metrics == nullptr) return;
    MetricsRegistry* m = ctx->metrics;
    m->Add("exec.sort.runs", 1);
    m->Add("exec.sort.input_tuples", input.num_tuples());
    m->Add("exec.sort.initial_runs", st->runs);
    m->Add("exec.sort.in_memory_runs", st->in_memory ? 1 : 0);
    m->Add("exec.sort.merge_levels", st->merge_levels);
    m->Add("exec.sort.run_pages", total_pages);
  };
  if (in_memory) {
    publish();
    return std::unique_ptr<SortedStream>(
        new MemoryStream(std::move(runs.front().in_memory)));
  }
  // Cascade intermediate merges while more runs exist than merge buffers.
  while (static_cast<int64_t>(runs.size()) > ctx->memory_pages) {
    MMDB_ASSIGN_OR_RETURN(
        runs, MergeLevel(std::move(runs), ctx->memory_pages, input.schema(),
                         key_column, ctx));
    ++st->merge_levels;
  }
  publish();
  return std::unique_ptr<SortedStream>(
      new MergeStream(ctx, input.schema(), key_column, std::move(runs)));
}

}  // namespace mmdb
