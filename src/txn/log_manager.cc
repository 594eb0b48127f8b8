#include "txn/log_manager.h"

#include <algorithm>

#include "common/check.h"

namespace mmdb {

Wal::Wal(MetricsRegistry* metrics)
    : counters_(metrics, "log",
                {{kDeviceWrites, "device_writes"},
                 {kDeviceBytes, "device_bytes"},
                 {kLogicalBytes, "logical_bytes"}, {kCommits, "commits"},
                 {kIoRetries, "io_retries"},
                 {kWriteFailures, "write_failures"}, {kLingers, "lingers"},
                 {kLingerTimeouts, "linger_timeouts"}}),
      group_size_(counters_.registry()->histogram("log.group_size")) {}

Wal::Stats Wal::stats() const {
  Stats s;
  s.device_writes = counters_.Get(kDeviceWrites);
  s.device_bytes = counters_.Get(kDeviceBytes);
  s.logical_bytes = counters_.Get(kLogicalBytes);
  s.commits = counters_.Get(kCommits);
  s.avg_commit_group = group_size_->data().Mean();
  s.io_retries = counters_.Get(kIoRetries);
  s.write_failures = counters_.Get(kWriteFailures);
  return s;
}

GroupCommitLog::GroupCommitLog(std::vector<LogDevice*> devices,
                               GroupCommitLogOptions options,
                               MetricsRegistry* metrics)
    : Wal(metrics),
      options_(options),
      write_us_(counters_.registry()->histogram("log.write_us")) {
  MMDB_CHECK_MSG(!devices.empty(), "need at least one log device");
  page_size_ = devices[0]->page_size();
  for (LogDevice* d : devices) {
    MMDB_CHECK(d->page_size() == page_size_);
    auto stripe = std::make_unique<Stripe>();
    stripe->device = d;
    stripes_.push_back(std::move(stripe));
  }
}

GroupCommitLog::~GroupCommitLog() { Stop(); }

void GroupCommitLog::Start() {
  stop_.store(false);
  crash_.store(false);
  for (auto& stripe : stripes_) {
    stripe->flusher = std::thread(&GroupCommitLog::FlusherLoop, this,
                                  stripe.get());
  }
}

void GroupCommitLog::Stop() {
  if (stripes_.empty() || !stripes_[0]->flusher.joinable()) return;
  StopFlushers(/*crash=*/false);
  for (auto& stripe : stripes_) {
    if (stripe->flusher.joinable()) stripe->flusher.join();
  }
}

void GroupCommitLog::CrashStop() {
  if (stripes_.empty() || !stripes_[0]->flusher.joinable()) return;
  StopFlushers(/*crash=*/true);
  for (auto& stripe : stripes_) {
    if (stripe->flusher.joinable()) stripe->flusher.join();
    // The power failed: buffered-but-unwritten bytes are gone.
    std::unique_lock<std::mutex> lock(stripe->mu);
    stripe->buffer.clear();
    stripe->pending.clear();
    stripe->commits_waiting = 0;
    stripe->awaiting_return = false;
    stripe->force_upto = kInvalidLsn;
  }
}

void GroupCommitLog::StopFlushers(bool crash) {
  // An idle flusher waits with no timeout, so the flag must change under
  // the mutex it checks the flag under: either it sees the flag before it
  // waits, or it is already waiting when the notify comes.
  for (auto& stripe : stripes_) {
    {
      std::lock_guard<std::mutex> lock(stripe->mu);
      if (crash) crash_.store(true);
      stop_.store(true);
    }
    stripe->cv.notify_all();
  }
}

Lsn GroupCommitLog::Append(LogRecord rec) {
  return AppendInternal(std::move(rec), false, {});
}

Lsn GroupCommitLog::AppendCommit(LogRecord rec,
                                 const std::vector<TxnId>& deps) {
  return AppendInternal(std::move(rec), true, deps);
}

Lsn GroupCommitLog::AppendInternal(LogRecord rec, bool is_commit,
                                   const std::vector<TxnId>& deps) {
  const int64_t size = rec.SerializedSize();
  counters_.Add(kLogicalBytes, size);
  Stripe& stripe = *stripes_[static_cast<size_t>(
      rec.txn_id >= 0 ? rec.txn_id % static_cast<int64_t>(stripes_.size())
                      : 0)];
  Lsn lsn;
  {
    std::unique_lock<std::mutex> lock(stripe.mu);
    // The LSN is assigned under the stripe mutex, together with the queue
    // insert: every stripe's pending queue is in LSN order, and no record
    // ever has an LSN without being visible in its queue. DurableHorizon
    // and WaitLsnDurable rely on both.
    lsn = next_lsn_.fetch_add(size);
    rec.lsn = lsn;
    rec.AppendTo(&stripe.buffer);
    PendingRecord pending;
    pending.lsn = lsn;
    pending.bytes_left = size;
    pending.is_commit = is_commit;
    pending.txn = rec.txn_id;
    pending.deps = deps;
    pending.record = std::make_shared<const LogRecord>(std::move(rec));
    if (is_commit) {
      pending.appended = Clock::now();
      if (stripe.commits_waiting++ == 0) {
        stripe.oldest_commit = pending.appended;
      }
      if (stripe.awaiting_return) {
        stripe.awaiting_return = false;
        stripe.gaps[size_t(stripe.gaps_seen++ % kGapRing)] =
            pending.appended - stripe.last_release;
      }
    }
    stripe.pending.push_back(std::move(pending));
  }
  stripe.cv.notify_all();
  return lsn;
}

int64_t GroupCommitLog::SafeBytes(Stripe* stripe) {
  // Caller holds stripe->mu. durable_mu_ is taken only once a commit
  // with dependencies turns up: commit waiters contend for it after every
  // write.
  int64_t safe = 0;
  std::unique_lock<std::mutex> dlock(durable_mu_, std::defer_lock);
  for (const PendingRecord& rec : stripe->pending) {
    if (rec.is_commit && !rec.deps.empty()) {
      if (!dlock.owns_lock()) dlock.lock();
      for (TxnId dep : rec.deps) {
        if (!durable_commits_.count(dep)) return safe;
      }
    }
    safe += rec.bytes_left;
  }
  return safe;
}

void GroupCommitLog::AccountFlushed(Stripe* stripe, int64_t n,
                                    Clock::time_point written) {
  // Caller holds stripe->mu.
  std::vector<TxnId> newly_durable;
  while (n > 0) {
    MMDB_CHECK(!stripe->pending.empty());
    PendingRecord& rec = stripe->pending.front();
    const int64_t take = std::min(n, rec.bytes_left);
    rec.bytes_left -= take;
    n -= take;
    if (rec.bytes_left == 0) {
      if (rec.is_commit) newly_durable.push_back(rec.txn);
      stripe->pending.pop_front();
    }
  }
  {
    std::unique_lock<std::mutex> dlock(durable_mu_);
    for (TxnId t : newly_durable) durable_commits_.insert(t);
    counters_.Add(kCommits, static_cast<int64_t>(newly_durable.size()));
    if (!newly_durable.empty()) {
      group_size_->Record(static_cast<int64_t>(newly_durable.size()));
    }
    // Wake WaitCommitDurable AND WaitLsnDurable waiters: durability
    // advanced even when no commit completed.
    durable_cv_.notify_all();
  }
  if (newly_durable.empty()) return;
  // Other stripes may have pages blocked on these commits.
  for (auto& other : stripes_) {
    if (other.get() != stripe) other->cv.notify_all();
  }
  stripe->commits_waiting -= static_cast<int64_t>(newly_durable.size());
  stripe->last_release = written;
  stripe->expect =
      static_cast<int64_t>(newly_durable.size()) + stripe->commits_waiting;
  stripe->awaiting_return = true;
  // The linger clock keeps running from the oldest remaining commit's
  // append; a partial flush does not restart it.
  for (const PendingRecord& rec : stripe->pending) {
    if (rec.is_commit) {
      stripe->oldest_commit = rec.appended;
      break;
    }
  }
}

std::optional<GroupCommitLog::Clock::time_point>
GroupCommitLog::ReturnDeadline(const Stripe& stripe) const {
  // Until a return has been seen there is nothing to predict.
  if (stripe.commits_waiting >= stripe.expect || stripe.gaps_seen == 0) {
    return std::nullopt;
  }
  // Nearest-rank p90 of the remembered gaps; the maximum of fewer than 10.
  std::array<Clock::duration, kGapRing> gaps = stripe.gaps;
  const int64_t n = std::min<int64_t>(stripe.gaps_seen, kGapRing);
  const auto p90 = gaps.begin() + (9 * n + 9) / 10 - 1;
  std::nth_element(gaps.begin(), p90, gaps.begin() + n);
  // Break-even: a return g after the release, had the page gone out at
  // the release, would wait out the rest of that write and then its own,
  // 2W - g; the hold charges each waiting commit g and the returner only
  // W. It pays while (waiting + 1) * g < W. Hold when the p90 return
  // falls inside that horizon, and no longer than the horizon.
  const Clock::duration horizon =
      stripe.write_time / (stripe.commits_waiting + 1);
  if (*p90 >= horizon) return std::nullopt;
  return stripe.last_release + horizon;
}

void GroupCommitLog::FlusherLoop(Stripe* stripe) {
  const bool linger =
      options_.group_commit && options_.flush_timeout.count() > 0;
  std::unique_lock<std::mutex> lock(stripe->mu);
  bool holding = false;  // a partial page with a commit waits on a deadline
  while (true) {
    if (crash_.load()) return;  // power failure: drop everything buffered
    const bool stopping = stop_.load();
    const int64_t safe = SafeBytes(stripe);

    // A full page always goes out. A partial page goes out when a commit
    // waits on it (after the fixed linger if one is configured, or once
    // the returning committers arrive or are overdue), when WaitLsnDurable
    // fences records in it, or at shutdown. The device is idle whenever
    // this thread is here, so a write starts at once; commits appended
    // during the write form the next group.
    bool flush = safe >= page_size_;
    std::optional<Clock::time_point> deadline;
    if (safe > 0 && !flush) {
      if (stopping) {
        flush = true;
      } else if (stripe->force_upto != kInvalidLsn &&
                 stripe->pending.front().lsn <= stripe->force_upto) {
        // The queue is in LSN order, so the front is its oldest record.
        flush = true;
      } else if (stripe->commits_waiting > 0) {
        if (linger) {
          deadline = stripe->oldest_commit + options_.flush_timeout;
        } else if (options_.group_commit) {
          deadline = ReturnDeadline(*stripe);
        }
        flush = !deadline.has_value() || Clock::now() >= *deadline;
        if (flush && deadline.has_value() && holding) {
          counters_.Add(kLingerTimeouts);
        }
      }
    }
    if (!flush && deadline.has_value() && !holding) counters_.Add(kLingers);
    holding = !flush && deadline.has_value();

    if (flush) {
      int64_t n = std::min(safe, page_size_);
      if (!options_.group_commit) {
        // Strict one-log-I/O-per-commit baseline: never let commits that
        // queued up during the previous write share this page. Cut the
        // chunk right after the first commit record.
        int64_t upto = 0;
        for (const PendingRecord& rec : stripe->pending) {
          upto += rec.bytes_left;
          if (upto >= n) break;
          if (rec.is_commit) {
            n = upto;
            break;
          }
        }
      }
      std::string chunk = stripe->buffer.substr(0, static_cast<size_t>(n));
      stripe->buffer.erase(0, static_cast<size_t>(n));
      // The records this write completes, for the shipping log.
      std::vector<std::shared_ptr<const LogRecord>> completed;
      int64_t upto = 0;
      for (const PendingRecord& rec : stripe->pending) {
        upto += rec.bytes_left;
        if (upto > n) break;
        completed.push_back(rec.record);
      }
      // Device write without the stripe lock: appends continue meanwhile.
      // Pending accounting happens after the write completes (durability).
      lock.unlock();
      const Clock::time_point write_start = Clock::now();
      bool written = false;
      for (int attempt = 0; attempt < kDefaultMaxIoAttempts; ++attempt) {
        if (stripe->device->WritePage(chunk).ok()) {
          written = true;
          break;
        }
        counters_.Add(kIoRetries);
        // Exponential backoff, capped well under the device latency.
        std::this_thread::sleep_for(std::chrono::microseconds(1 << attempt));
      }
      const Clock::time_point write_end = Clock::now();
      if (written) {
        write_us_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                              write_end - write_start)
                              .count());
        counters_.Add(kDeviceWrites);
        counters_.Add(kDeviceBytes, page_size_);
        // Publish to the shipping log before the records leave the queue
        // (AccountFlushed), so nothing below DurableHorizon is missing
        // from it. ship_mu_ is never taken inside a stripe mutex, so a
        // long ReadDurableRange cannot stall appends.
        std::unique_lock<std::mutex> ship(ship_mu_);
        for (std::shared_ptr<const LogRecord>& rec : completed) {
          const Lsn lsn = rec->lsn;
          ship_log_.emplace(lsn, std::move(rec));
        }
      }
      lock.lock();
      if (!written) {
        // Nothing persisted and nothing lost: put the chunk back at the
        // front (racing appends landed after it) and try again later.
        stripe->buffer.insert(0, chunk);
        counters_.Add(kWriteFailures);
        stripe->cv.wait_for(lock, std::chrono::microseconds(500));
        continue;
      }
      // Only the flusher reads or writes the write-time average.
      const Clock::duration took = write_end - write_start;
      stripe->write_time = stripe->write_time.count() == 0
                               ? took
                               : (7 * stripe->write_time + took) / 8;
      AccountFlushed(stripe, n, write_end);
      continue;  // there may be more to flush
    }

    if (stopping && stripe->pending.empty()) return;
    if (safe < static_cast<int64_t>(stripe->buffer.size())) {
      // Bytes blocked on another stripe's commits. That stripe wakes this
      // one when they become durable, but without this mutex, so poll too.
      stripe->cv.wait_for(lock, std::chrono::microseconds(200));
    } else if (deadline.has_value()) {
      stripe->cv.wait_until(lock, *deadline);
    } else {
      // Nothing due: an append, a fence, or a stop wakes the flusher.
      stripe->cv.wait(lock);
    }
  }
}

void GroupCommitLog::WaitCommitDurable(TxnId txn) {
  std::unique_lock<std::mutex> lock(durable_mu_);
  durable_cv_.wait(lock, [&] { return durable_commits_.count(txn) != 0; });
}

bool GroupCommitLog::IsCommitDurable(TxnId txn) const {
  std::unique_lock<std::mutex> lock(durable_mu_);
  return durable_commits_.count(txn) != 0;
}

void GroupCommitLog::WaitLsnDurable(Lsn lsn) {
  // Records assigned from here on get LSNs >= the counter; they are not
  // part of this fence, so a steady stream of appends cannot starve it.
  const Lsn fence = std::min(lsn, next_lsn_.load() - 1);
  // Raise the flush fence on every stripe still holding records <= fence.
  // Queues are in LSN order, and a record's LSN and queue entry appear
  // together, so each queue's front decides.
  auto anything_pending = [&]() {
    bool pending = false;
    for (auto& stripe : stripes_) {
      std::unique_lock<std::mutex> slock(stripe->mu);
      if (!stripe->pending.empty() && stripe->pending.front().lsn <= fence) {
        stripe->force_upto = std::max(stripe->force_upto, fence);
        stripe->cv.notify_all();
        pending = true;
      }
    }
    return pending;
  };
  while (anything_pending()) {
    std::unique_lock<std::mutex> dlock(durable_mu_);
    durable_cv_.wait_for(dlock, std::chrono::microseconds(200));
  }
}

std::vector<LogRecord> GroupCommitLog::ReadAllForRecovery(
    LogReadStats* stats) {
  // §5.2: "a single log is recreated by merging the log fragments, as in a
  // sort-merge" — our merge key is the global LSN.
  std::vector<LogRecord> all;
  for (auto& stripe : stripes_) {
    LogDevice::ReadStats rstats;
    std::string bytes = stripe->device->ReadAll(&rstats);
    LogParseStats pstats;
    std::vector<LogRecord> recs = LogRecord::ParseAll(
        bytes.data(), static_cast<int64_t>(bytes.size()), &pstats);
    if (stats != nullptr) {
      stats->corrupt_records_skipped += pstats.corrupt_skipped;
      stats->torn_tail_bytes += pstats.torn_tail_bytes;
      stats->unreadable_pages += rstats.unreadable_pages;
      stats->retries += rstats.retries;
    }
    all.insert(all.end(), std::make_move_iterator(recs.begin()),
               std::make_move_iterator(recs.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.lsn < b.lsn; });
  return all;
}

Lsn GroupCommitLog::DurableHorizon() const {
  // Read the counter first, then the queue fronts. A record assigned
  // before the read sits in its stripe's queue (its LSN and queue entry
  // appear under one stripe-mutex hold) until it is durable or dropped by
  // a crash; a record assigned after the read has lsn >= the counter. The
  // queues are in LSN order, so each front is its stripe's minimum.
  Lsn horizon = next_lsn_.load();
  for (const auto& stripe : stripes_) {
    std::unique_lock<std::mutex> lock(stripe->mu);
    if (!stripe->pending.empty()) {
      horizon = std::min(horizon, stripe->pending.front().lsn);
    }
  }
  return horizon;
}

std::vector<LogRecord> GroupCommitLog::ReadDurableRange(Lsn from, Lsn upto) {
  // Hold ship_mu_ only to collect references: a flush that completes
  // meanwhile waits for this lock, so the copy happens outside it.
  std::vector<std::shared_ptr<const LogRecord>> refs;
  {
    std::unique_lock<std::mutex> ship(ship_mu_);
    for (auto it = ship_log_.lower_bound(from);
         it != ship_log_.end() && it->first < upto; ++it) {
      refs.push_back(it->second);
    }
  }
  std::vector<LogRecord> out;
  out.reserve(refs.size());
  for (const std::shared_ptr<const LogRecord>& rec : refs) {
    out.push_back(*rec);
  }
  return out;
}

}  // namespace mmdb
