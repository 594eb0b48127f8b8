// sql_e2e: the end-to-end SQL benchmark.
//
// Drives SQL from one process through Server::OpenSession and
// Session::SubmitSql with four client threads, one session each, checks
// every answer, and prints the end-to-end metrics by name with units and
// sample counts. With --trace 1 the same statement streams are replayed
// through the public entry points Session::RunStatement uses, in its
// order, and each call is timed:
//   1. SqlScheduler::Submit
//   2. LockManager::Acquire on Server::TableLockId / Server::RowLockId,
//      with Database::RowLockEligible choosing between them
//   3. Database::ExecuteSqlPreCommit (SELECTs as EXPLAIN ANALYZE, so the
//      executor's own per-node figures come back)
//   4. LockManager::ReleaseAll
//   5. Database::WaitSqlDurable
// ParseStatement, Optimizer::Optimize and HashAggregate are timed directly
// only in a single-session pass that runs before any concurrent traffic,
// so no writer runs beside them and their counts repeat exactly per seed.
//
// Shared setup: acct(id, bid, owner, bal, grp) with 100 000 rows and
// branch(bid, region, name) with 1 000 rows, generated from the seed and
// loaded with 1 000-row INSERT statements through a session, then a hash
// index on acct.id. The transactional plane runs the group-commit WAL
// (WalKind::kSingle) with a 1 ms log page write on every run.
//
// Workloads:
//   oltp_point      4 closed-loop sessions: 90% indexed point SELECTs on
//                   uniform keys, 10% autocommit point UPDATEs, each
//                   session writing only its own quarter of the keys.
//   scan_analytics  4 closed-loop read-only sessions: an even, seeded mix
//                   of unindexed equality, 100-row range, GROUP BY and
//                   acct-branch join SELECTs.
//   htap_mixed      2 closed-loop UPDATE sessions on disjoint key halves
//                   beside 2 snapshot-isolation readers on a seeded
//                   open-loop schedule, one issuing point SELECTs and one
//                   GROUP BY and join SELECTs, with the 32 MB reuse cache
//                   on. Reader latency counts from when each statement was
//                   due.
//
// Usage:
//   sql_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--git-commit SHA]
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer stops the run and
// exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/query_parser.h"
#include "server/server.h"

namespace mmdb {
namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

constexpr int64_t kAccounts = 100'000;
constexpr int64_t kBranches = 1'000;
constexpr int kGroups = 100;
constexpr int kRegions = 10;
constexpr int kInsertBatch = 1'000;
constexpr int kSessions = 4;
constexpr int64_t kRangeWidth = 100;
/// A written balance is base + version * kVersionStep, so any value read
/// back names the write that produced it.
constexpr int64_t kVersionStep = 1'000'000;
/// Aggregate and join thresholds come from this many seeded values, so
/// their expected answers are computed before the timed window.
constexpr int kThresholds = 16;
constexpr int kSetupRepeats = 3;
/// Open-loop rates of the htap_mixed readers, statements per second. One
/// reader issues the point SELECTs and the other the GROUP BY and join
/// SELECTs, so a point read never queues behind its own session's scan
/// (a session runs its statements one at a time). Both rates are well
/// below what the readers sustain, so the schedule, not a backlog, sets
/// the load.
constexpr double kPointReaderRate = 100;
constexpr double kAnalyticReaderRate = 6;
/// Statements a reader keeps in flight, below the scheduler's per-session
/// cap, so the open loop is never refused for pipelining.
constexpr int kPipelineDepth = 2;
/// Statements in the single-session traced pass, per workload.
constexpr int kSerialStatements[] = {400, 80, 120};
/// Untimed traffic before each measured phase, so lazy set-up (the first
/// catalog rebuild, first-touch allocation) is not measured.
constexpr double kWarmupSeconds = 1;
/// Stream numbers: measured phases replay streams 0.., the warm-up runs
/// its own, and the single-session pass one more.
constexpr int kMeasuredStreams = 0;
constexpr int kWarmupStreams = 200;
constexpr int kSerialStream = 400;

enum class Workload { kOltpPoint, kScanAnalytics, kHtapMixed };

// ---- Data ---------------------------------------------------------------

struct Dataset {
  // acct, indexed by id.
  std::vector<int64_t> bid, owner, grp, base;
  std::vector<int64_t> id_of_owner;  // owner is a permutation of the ids
  // branch, indexed by bid.
  std::vector<int64_t> region;
  // Expected answers per threshold index t (rows with owner < threshold).
  std::array<int64_t, kThresholds> threshold{};
  std::vector<std::array<double, kGroups>> sum_bal, sum_owner;
  std::vector<int64_t> groups_present;
  std::vector<std::array<int64_t, kRegions>> join_rows;

  static Dataset Generate(uint64_t seed) {
    Dataset d;
    Random rng(seed * 0x9E3779B97F4A7C15ull + 17);
    d.bid.resize(kAccounts);
    d.grp.resize(kAccounts);
    d.base.resize(kAccounts);
    d.owner.resize(kAccounts);
    d.id_of_owner.resize(kAccounts);
    for (int64_t i = 0; i < kAccounts; ++i) {
      d.bid[i] = int64_t(rng.Uniform(kBranches));
      d.grp[i] = int64_t(rng.Uniform(kGroups));
      d.base[i] = int64_t(rng.Uniform(100'000));
      d.owner[i] = i;
    }
    rng.Shuffle(&d.owner);
    for (int64_t i = 0; i < kAccounts; ++i) d.id_of_owner[d.owner[i]] = i;
    d.region.resize(kBranches);
    for (int64_t b = 0; b < kBranches; ++b) {
      d.region[b] = int64_t(rng.Uniform(kRegions));
    }
    d.sum_bal.assign(kThresholds, {});
    d.sum_owner.assign(kThresholds, {});
    d.groups_present.assign(kThresholds, 0);
    d.join_rows.assign(kThresholds, {});
    for (int t = 0; t < kThresholds; ++t) {
      // One threshold in each of kThresholds equal strata of [10%, 50%) of
      // the rows, so a seed moves the statements but barely their cost.
      const int64_t stratum = kAccounts * 4 / 10 / kThresholds;
      d.threshold[t] =
          kAccounts / 10 + t * stratum + int64_t(rng.Uniform(stratum));
      std::array<int64_t, kGroups> rows{};
      for (int64_t i = 0; i < kAccounts; ++i) {
        if (d.owner[i] >= d.threshold[t]) continue;
        d.sum_bal[t][d.grp[i]] += double(d.base[i]);
        d.sum_owner[t][d.grp[i]] += double(d.owner[i]);
        ++rows[d.grp[i]];
        ++d.join_rows[t][d.region[d.bid[i]]];
      }
      for (int64_t r : rows) d.groups_present[t] += r > 0 ? 1 : 0;
    }
    return d;
  }
};

/// Per-key write versions. Each key has one writing session, which bumps
/// `issued` before submitting an UPDATE and `acked` once it is
/// acknowledged; a read of the key must see a version in
/// [acked when the read was submitted, issued when it completed].
struct Versions {
  Versions()
      : issued(new std::atomic<int64_t>[kAccounts]()),
        acked(new std::atomic<int64_t>[kAccounts]()) {}
  std::unique_ptr<std::atomic<int64_t>[]> issued;
  std::unique_ptr<std::atomic<int64_t>[]> acked;
};

// ---- Statements ---------------------------------------------------------

enum class Cls { kPoint, kUpdate, kEq, kRange, kAgg, kJoin };
constexpr int kClasses = 6;

bool IsScan(Cls c) {
  return c == Cls::kEq || c == Cls::kRange || c == Cls::kAgg ||
         c == Cls::kJoin;
}

struct Stmt {
  Cls cls = Cls::kPoint;
  int64_t key = 0;      // kPoint / kUpdate: id; kEq / kRange: owner
  int64_t version = 0;  // kUpdate: the version written
  int t = 0;            // kAgg / kJoin: threshold index
  int64_t region = 0;   // kJoin
  bool sum_owner = false;  // kAgg: SUM(owner), a column no writer touches
  std::string sql;
};

/// Deals 0..n-1 in seeded shuffled rounds: every round of n draws holds
/// each value once, so short runs still see a workload's exact mix.
class Deck {
 public:
  explicit Deck(int n) : cards_(size_t(n)) {
    for (int i = 0; i < n; ++i) cards_[size_t(i)] = i;
  }
  int Draw(Random* rng) {
    if (next_ == cards_.size()) {
      rng->Shuffle(&cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int> cards_;
  size_t next_ = cards_.size();
};

/// The statement stream of one client. A stream is seeded from the run's
/// seed and the client's index, so a seed replays the same sequence.
/// Statement classes, thresholds and regions are dealt from Decks.
class Stream {
 public:
  enum class Mix { kOltp, kScan, kWriter, kPointReader, kAnalyticReader,
                   kSerialHtap };

  Stream(Mix mix, uint64_t seed, int64_t key_lo, int64_t key_hi)
      : mix_(mix),
        rng_(seed),
        key_lo_(key_lo),
        key_hi_(key_hi),
        round_(RoundOf(mix)),
        classes_(int(round_.size())) {}

  Stmt Next(const Dataset& data, Versions* versions) {
    Stmt s;
    s.cls = round_[size_t(classes_.Draw(&rng_))];
    switch (s.cls) {
      case Cls::kPoint:
        s.key = int64_t(rng_.Uniform(kAccounts));
        s.sql = "SELECT id, bal FROM acct WHERE id = " + std::to_string(s.key);
        break;
      case Cls::kUpdate: {
        s.key = key_lo_ + int64_t(rng_.Uniform(uint64_t(key_hi_ - key_lo_)));
        s.version = versions->acked[s.key].load() + 1;
        versions->issued[s.key].store(s.version);
        s.sql = "UPDATE acct SET bal = " +
                std::to_string(data.base[s.key] + s.version * kVersionStep) +
                " WHERE id = " + std::to_string(s.key);
        break;
      }
      case Cls::kEq:
        s.key = int64_t(rng_.Uniform(kAccounts));
        s.sql = "SELECT id, owner FROM acct WHERE owner = " +
                std::to_string(s.key);
        break;
      case Cls::kRange:
        s.key = int64_t(rng_.Uniform(kAccounts - kRangeWidth + 1));
        s.sql = "SELECT id, owner FROM acct WHERE owner >= " +
                std::to_string(s.key) +
                " AND owner < " + std::to_string(s.key + kRangeWidth);
        break;
      case Cls::kAgg:
        s.t = thresholds_.Draw(&rng_);
        // Where UPDATEs run beside it, sum a column they never write.
        s.sum_owner = mix_ != Mix::kScan;
        s.sql = std::string("SELECT grp, SUM(") +
                (s.sum_owner ? "owner" : "bal") +
                ") FROM acct WHERE owner < " +
                std::to_string(data.threshold[s.t]) + " GROUP BY grp";
        break;
      case Cls::kJoin:
        s.t = thresholds_.Draw(&rng_);
        s.region = regions_.Draw(&rng_);
        s.sql =
            "SELECT acct.id, branch.name FROM acct, branch WHERE acct.bid = "
            "branch.bid AND branch.region = " +
            std::to_string(s.region) +
            " AND acct.owner < " + std::to_string(data.threshold[s.t]);
        break;
    }
    return s;
  }

 private:
  /// One round of the mix's statement classes.
  static std::vector<Cls> RoundOf(Mix mix) {
    switch (mix) {
      case Mix::kOltp: {  // 90% point reads, 10% updates
        std::vector<Cls> round(9, Cls::kPoint);
        round.push_back(Cls::kUpdate);
        return round;
      }
      case Mix::kScan:
        return {Cls::kEq, Cls::kRange, Cls::kAgg, Cls::kJoin};
      case Mix::kWriter:
        return {Cls::kUpdate};
      case Mix::kPointReader:
        return {Cls::kPoint};
      case Mix::kAnalyticReader:
        return {Cls::kAgg, Cls::kJoin};
      case Mix::kSerialHtap:  // htap_mixed's classes in one session
        return {Cls::kUpdate, Cls::kUpdate, Cls::kPoint,
                Cls::kPoint,  Cls::kAgg,    Cls::kJoin};
    }
    return {};
  }

  Mix mix_;
  Random rng_;
  int64_t key_lo_;
  int64_t key_hi_;
  std::vector<Cls> round_;
  Deck classes_;
  Deck thresholds_{kThresholds};
  Deck regions_{kRegions};
};

// ---- Answer checks ------------------------------------------------------

bool IntAt(const Row& row, size_t col, int64_t* out) {
  if (col >= row.size() || !std::holds_alternative<int64_t>(row[col])) {
    return false;
  }
  *out = std::get<int64_t>(row[col]);
  return true;
}

bool NumberAt(const Row& row, size_t col, double* out) {
  if (col >= row.size()) return false;
  if (std::holds_alternative<int64_t>(row[col])) {
    *out = double(std::get<int64_t>(row[col]));
    return true;
  }
  if (std::holds_alternative<double>(row[col])) {
    *out = std::get<double>(row[col]);
    return true;
  }
  return false;
}

/// Empty when `result` is the right answer to `s`; otherwise what is wrong.
/// `floor_version` is the key's acknowledged version when a point read was
/// submitted.
std::string CheckAnswer(const Stmt& s, const Database::SqlResult& result,
                        int64_t floor_version, const Dataset& data,
                        const Versions& versions) {
  const std::vector<Row>& rows = result.relation.rows();
  auto count_is = [&](int64_t want) -> std::string {
    if (int64_t(rows.size()) == want) return "";
    return "expected " + std::to_string(want) + " rows, got " +
           std::to_string(rows.size());
  };
  switch (s.cls) {
    case Cls::kUpdate:
      if (result.rows_affected == 1) return "";
      return "UPDATE affected " + std::to_string(result.rows_affected) +
             " rows";
    case Cls::kPoint: {
      if (std::string e = count_is(1); !e.empty()) return e;
      int64_t id = -1;
      double bal = 0;
      if (!IntAt(rows[0], 0, &id) || id != s.key ||
          !NumberAt(rows[0], 1, &bal)) {
        return "wrong row for id " + std::to_string(s.key);
      }
      const double delta = bal - double(data.base[s.key]);
      const int64_t version = int64_t(delta) / kVersionStep;
      if (delta < 0 || double(version * kVersionStep) != delta ||
          version < floor_version ||
          version > versions.issued[s.key].load()) {
        return "id " + std::to_string(s.key) + " read bal " +
               std::to_string(bal) + ", which no acknowledged or in-flight "
               "write produced";
      }
      return "";
    }
    case Cls::kEq: {
      if (std::string e = count_is(1); !e.empty()) return e;
      int64_t id = -1, owner = -1;
      if (!IntAt(rows[0], 0, &id) || !IntAt(rows[0], 1, &owner) ||
          owner != s.key || id != data.id_of_owner[s.key]) {
        return "wrong row for owner " + std::to_string(s.key);
      }
      return "";
    }
    case Cls::kRange: {
      if (std::string e = count_is(kRangeWidth); !e.empty()) return e;
      for (const Row& row : rows) {
        int64_t id = -1, owner = -1;
        if (!IntAt(row, 0, &id) || !IntAt(row, 1, &owner) ||
            owner < s.key || owner >= s.key + kRangeWidth ||
            id != data.id_of_owner[owner]) {
          return "range row outside [" + std::to_string(s.key) + ", +100)";
        }
      }
      return "";
    }
    case Cls::kAgg: {
      if (std::string e = count_is(data.groups_present[s.t]); !e.empty()) {
        return e;
      }
      const auto& want = s.sum_owner ? data.sum_owner[s.t] : data.sum_bal[s.t];
      for (const Row& row : rows) {
        int64_t g = -1;
        double sum = 0;
        if (!IntAt(row, 0, &g) || g < 0 || g >= kGroups ||
            !NumberAt(row, 1, &sum) || sum != want[g]) {
          return "wrong sum for a group";
        }
      }
      return "";
    }
    case Cls::kJoin:
      return count_is(data.join_rows[s.t][s.region]);
  }
  return "unknown statement class";
}

// ---- Percentiles --------------------------------------------------------

struct Pct {
  double value = 0;
  size_t n = 0;
  size_t beyond = 0;  ///< samples above the percentile's rank
};

/// Nearest-rank percentile `p` (0..1) of `v`; 0 with n = 0 when empty.
Pct Percentile(std::vector<double> v, double p) {
  Pct out;
  out.n = v.size();
  if (v.empty()) return out;
  size_t rank = size_t(std::ceil(p * double(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  return out;
}

double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5).value;
}

// ---- Recording ----------------------------------------------------------

/// Per-call timings of one traced statement, in microseconds.
struct Spans {
  double admit = 0;      ///< Submit until the work started
  double lock = 0;       ///< RowLockEligible + every Acquire
  double precommit = 0;  ///< ExecuteSqlPreCommit
  double release = 0;    ///< ReleaseAll
  double durable = 0;    ///< WaitSqlDurable
  std::vector<double> acquires;
};

/// One EXPLAIN ANALYZE node: kind, rows out, inclusive and self wall time.
struct PlanNodeFigures {
  std::string kind;
  int64_t rows = 0;
  double wall_us = 0;
  double self_us = 0;
};

/// Reads the per-node "(actual rows=... wall=...ms self_wall=...ms)" lines
/// RenderAnalyzedPlan appends under each node line.
std::vector<PlanNodeFigures> ParseAnalyzedPlan(const std::string& text) {
  std::vector<PlanNodeFigures> nodes;
  std::string kind;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    const size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    line.erase(0, first);
    if (line.rfind("(actual rows=", 0) == 0) {
      PlanNodeFigures f;
      f.kind = kind;
      long long rows = 0;
      double wall = 0, self = 0;
      const char* w = std::strstr(line.c_str(), " wall=");
      const char* sw = std::strstr(line.c_str(), " self_wall=");
      if (std::sscanf(line.c_str(), "(actual rows=%lld", &rows) != 1 ||
          w == nullptr || sw == nullptr ||
          std::sscanf(w, " wall=%lfms", &wall) != 1 ||
          std::sscanf(sw, " self_wall=%lfms", &self) != 1) {
        continue;
      }
      f.rows = rows;
      f.wall_us = wall * 1e3;
      f.self_us = self * 1e3;
      nodes.push_back(f);
      continue;
    }
    for (const char* k :
         {"IndexScan[", "Scan(", "Filter(", "Join[", "Project("}) {
      if (line.rfind(k, 0) == 0) {
        kind = std::string(k, std::strlen(k) - 1);
        break;
      }
    }
  }
  return nodes;
}

/// What one phase observed. Each client thread fills its own Recorder; the
/// phase merges them.
struct Recorder {
  int64_t attempted = 0;
  int64_t failed = 0;    ///< refused or failed (overload, deadlock, conflict)
  int64_t rejected = 0;  ///< the subset refused at admission (kOverloaded)
  int64_t completed = 0;
  std::array<std::vector<double>, kClasses> latency_ms;
  std::vector<double> lag_ms;  ///< open-loop generator lateness
  // Traced phase only (microseconds).
  std::vector<double> admit_us, acquire_us, write_precommit_us,
      durable_wait_us, unattributed_us, plan_us, scan_self_us,
      filter_self_us, join_self_us, index_self_us;
  int64_t rows_examined = 0;
  int64_t rows_returned = 0;

  void Merge(const Recorder& o) {
    attempted += o.attempted;
    failed += o.failed;
    rejected += o.rejected;
    completed += o.completed;
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    for (int c = 0; c < kClasses; ++c) cat(&latency_ms[c], o.latency_ms[c]);
    cat(&lag_ms, o.lag_ms);
    cat(&admit_us, o.admit_us);
    cat(&acquire_us, o.acquire_us);
    cat(&write_precommit_us, o.write_precommit_us);
    cat(&durable_wait_us, o.durable_wait_us);
    cat(&unattributed_us, o.unattributed_us);
    cat(&plan_us, o.plan_us);
    cat(&scan_self_us, o.scan_self_us);
    cat(&filter_self_us, o.filter_self_us);
    cat(&join_self_us, o.join_self_us);
    cat(&index_self_us, o.index_self_us);
    rows_examined += o.rows_examined;
    rows_returned += o.rows_returned;
  }

  std::vector<double> Latencies(bool (*keep)(Cls)) const {
    std::vector<double> out;
    for (int c = 0; c < kClasses; ++c) {
      if (keep(Cls(c))) {
        out.insert(out.end(), latency_ms[c].begin(), latency_ms[c].end());
      }
    }
    return out;
  }

  void AddTrace(const Stmt& s, const Spans& spans,
                const Database::SqlResult& result, double e2e) {
    admit_us.push_back(spans.admit);
    acquire_us.insert(acquire_us.end(), spans.acquires.begin(),
                      spans.acquires.end());
    unattributed_us.push_back(e2e - spans.admit - spans.lock -
                              spans.precommit - spans.release -
                              spans.durable);
    if (s.cls == Cls::kUpdate) {
      write_precommit_us.push_back(spans.precommit);
      durable_wait_us.push_back(spans.durable);
      return;
    }
    const std::vector<PlanNodeFigures> nodes =
        ParseAnalyzedPlan(result.plan_text);
    if (!nodes.empty()) plan_us.push_back(nodes.front().wall_us);
    for (const PlanNodeFigures& n : nodes) {
      if (n.kind == "Scan") {
        scan_self_us.push_back(n.self_us);
        rows_examined += n.rows;
      } else if (n.kind == "IndexScan") {
        index_self_us.push_back(n.self_us);
        rows_examined += n.rows;
      } else if (n.kind == "Filter") {
        filter_self_us.push_back(n.self_us);
      } else if (n.kind == "Join") {
        join_self_us.push_back(n.self_us);
      }
    }
    rows_returned += result.relation.num_tuples();
  }
};

// ---- The system under test ------------------------------------------------

struct Client {
  Session* session = nullptr;
  bool snapshot = false;
  /// The traced path's stand-in for the session's own statement mutex: a
  /// session runs its statements one at a time even when it pipelines.
  std::mutex stmt_mu;
};

/// One database with its server and client sessions. Members are declared
/// so that destruction stops the server before the database goes.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;
};

void Die(const std::string& what) {
  std::fprintf(stderr, "sql_e2e: %s\n", what.c_str());
  std::exit(1);
}

void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

std::vector<std::string> InsertStatements(const Dataset& d) {
  std::vector<std::string> out;
  std::string sql;
  for (int64_t i = 0; i < kAccounts; ++i) {
    if (i % kInsertBatch == 0) sql = "INSERT INTO acct VALUES ";
    sql += "(" + std::to_string(i) + ", " + std::to_string(d.bid[i]) + ", " +
           std::to_string(d.owner[i]) + ", " + std::to_string(d.base[i]) +
           ", " + std::to_string(d.grp[i]) + ")";
    if ((i + 1) % kInsertBatch == 0 || i + 1 == kAccounts) {
      out.push_back(std::move(sql));
    } else {
      sql += ", ";
    }
  }
  sql = "INSERT INTO branch VALUES ";
  for (int64_t b = 0; b < kBranches; ++b) {
    char name[16];
    std::snprintf(name, sizeof(name), "br%05lld", static_cast<long long>(b));
    sql += "(" + std::to_string(b) + ", " + std::to_string(d.region[b]) +
           ", '" + name + "')" + (b + 1 < kBranches ? ", " : "");
  }
  out.push_back(std::move(sql));
  return out;
}

/// Creates, loads and indexes the tables and opens the client sessions.
/// Returns the seconds from creating the database until the first
/// workload statement can be admitted.
double Setup(Workload w, const std::vector<std::string>& inserts,
             Instance* inst) {
  const Clock::time_point start = Clock::now();
  Database::Options db_options;
  if (w == Workload::kHtapMixed) db_options.reuse_cache_bytes = 32ll << 20;
  inst->db = std::make_unique<Database>(db_options);
  Database::TxnPlaneOptions txn;
  txn.wal_kind = Database::TxnPlaneOptions::WalKind::kSingle;
  txn.log_write_latency = std::chrono::microseconds(1000);
  MustOk(inst->db->EnableTransactions(txn), "EnableTransactions");
  Server::Options server_options;
  server_options.scheduler.num_workers = kSessions;
  inst->server = std::make_unique<Server>(inst->db.get(), server_options);
  for (int c = 0; c < kSessions; ++c) {
    auto client = std::make_unique<Client>();
    // htap_mixed: clients 0-1 write, clients 2-3 read at kSnapshot.
    client->snapshot = w == Workload::kHtapMixed && c >= 2;
    SessionOptions options;
    if (client->snapshot) options.isolation = IsolationLevel::kSnapshot;
    StatusOr<Session*> session = inst->server->OpenSession(options);
    MustOk(session.status(), "OpenSession");
    client->session = *session;
    inst->clients.push_back(std::move(client));
  }
  Session* loader = inst->clients[0]->session;
  for (const char* ddl :
       {"CREATE TABLE acct (id INT64, bid INT64, owner INT64, bal DOUBLE, "
        "grp INT64)",
        "CREATE TABLE branch (bid INT64, region INT64, name CHAR(8))"}) {
    MustOk(loader->ExecuteSql(ddl).status(), ddl);
  }
  for (const std::string& sql : inserts) {
    MustOk(loader->ExecuteSql(sql).status(), "INSERT");
  }
  MustOk(inst->db->CreateIndex("acct", "id", Database::IndexType::kHash),
         "CreateIndex");
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Running statements ---------------------------------------------------

struct Outcome {
  Status status = Status::OK();
  Database::SqlResult result;
  Spans spans;
};

struct Bench {
  Bench(Workload w, const Dataset* d, Versions* v, Instance* i)
      : workload(w), data(d), versions(v), inst(i) {}

  Workload workload;
  const Dataset* data;
  Versions* versions;
  Instance* inst;
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  std::string error;  ///< first wrong answer or unexpected failure

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (error.empty()) error = what;
    abort.store(true);
  }
};

/// Session::RunStatement's steps for one autocommit statement, each public
/// call timed. Runs on a scheduler worker.
void RunTraced(Bench& b, Client& c, const Stmt& s, Outcome* out) {
  std::lock_guard<std::mutex> statement(c.stmt_mu);
  Database* db = b.inst->db.get();
  LockManager* locks = b.inst->server->table_locks();
  const TxnId owner = c.session->id();
  bool held = false;
  Status status = Status::OK();
  auto acquire = [&](LockId id, LockMode mode) {
    if (!status.ok()) return;
    std::vector<TxnId> deps;
    const Clock::time_point t = Clock::now();
    status = locks->Acquire(owner, id, mode, &deps);
    out->spans.acquires.push_back(Us(t, Clock::now()));
    held = held || status.ok();
  };
  const Clock::time_point lock_start = Clock::now();
  if (s.cls == Cls::kUpdate) {
    if (db->RowLockEligible("acct", "id", {"bal"})) {
      acquire(Server::TableLockId("acct"), LockMode::kIntentionExclusive);
      acquire(Server::RowLockId("acct", std::to_string(s.key)),
              LockMode::kExclusive);
    } else {
      acquire(Server::TableLockId("acct"), LockMode::kExclusive);
    }
  } else if (!c.snapshot) {
    acquire(Server::TableLockId("acct"), LockMode::kShared);
    if (s.cls == Cls::kJoin) {
      acquire(Server::TableLockId("branch"), LockMode::kShared);
    }
  }
  out->spans.lock = Us(lock_start, Clock::now());
  if (!status.ok()) {
    if (held) locks->ReleaseAll(owner);
    out->status = status;
    return;
  }
  const std::string sql =
      s.cls == Cls::kUpdate ? s.sql : "EXPLAIN ANALYZE " + s.sql;
  TxnId durable_txn = kInvalidTxn;
  Clock::time_point t = Clock::now();
  StatusOr<Database::SqlResult> result =
      db->ExecuteSqlPreCommit(sql, &durable_txn);
  out->spans.precommit = Us(t, Clock::now());
  t = Clock::now();
  if (held) locks->ReleaseAll(owner);
  out->spans.release = Us(t, Clock::now());
  t = Clock::now();
  db->WaitSqlDurable(durable_txn);
  out->spans.durable = Us(t, Clock::now());
  if (result.ok()) {
    out->result = std::move(*result);
  } else {
    out->status = result.status();
  }
}

struct Pending {
  Stmt stmt;
  Clock::time_point due;        ///< latency counts from here
  Clock::time_point submitted;
  int64_t floor_version = 0;
  std::future<StatusOr<Database::SqlResult>> plain;
  std::future<Outcome> traced;
};

Pending Submit(Bench& b, Client& c, Stmt stmt, Clock::time_point due,
               bool traced) {
  Pending p;
  p.due = due;
  if (stmt.cls == Cls::kPoint) {
    p.floor_version = b.versions->acked[stmt.key].load();
  }
  p.submitted = Clock::now();
  if (!traced) {
    p.plain = c.session->SubmitSql(stmt.sql);
  } else {
    auto promise = std::make_shared<std::promise<Outcome>>();
    p.traced = promise->get_future();
    const Clock::time_point submitted = p.submitted;
    Status admitted = b.inst->server->scheduler()->Submit(
        c.session,
        [&b, &c, stmt, submitted, promise]() -> std::function<void()> {
          auto out = std::make_shared<Outcome>();
          out->spans.admit = Us(submitted, Clock::now());
          RunTraced(b, c, stmt, out.get());
          return [promise, out] { promise->set_value(std::move(*out)); };
        });
    if (!admitted.ok()) {
      Outcome rejected;
      rejected.status = admitted;
      promise->set_value(std::move(rejected));
    }
  }
  p.stmt = std::move(stmt);
  return p;
}

/// Waits for `p`, checks its answer and records it.
void Finish(Bench& b, Recorder* rec, Pending* p, bool traced) {
  Outcome out;
  if (traced) {
    out = p->traced.get();
  } else {
    StatusOr<Database::SqlResult> r = p->plain.get();
    if (r.ok()) {
      out.result = std::move(*r);
    } else {
      out.status = r.status();
    }
  }
  const Clock::time_point end = Clock::now();
  const Stmt& s = p->stmt;
  ++rec->attempted;
  if (!out.status.ok()) {
    const StatusCode code = out.status.code();
    if (code == StatusCode::kOverloaded || code == StatusCode::kDeadlock ||
        code == StatusCode::kConflict) {
      ++rec->failed;
      if (code == StatusCode::kOverloaded) ++rec->rejected;
      if (s.cls == Cls::kUpdate) {
        b.versions->issued[s.key].store(b.versions->acked[s.key].load());
      }
      return;
    }
    b.Fail("statement failed: " + s.sql + ": " + out.status.ToString());
    return;
  }
  const std::string wrong = CheckAnswer(s, out.result, p->floor_version,
                                        *b.data, *b.versions);
  if (!wrong.empty()) {
    b.Fail("wrong answer to `" + s.sql + "`: " + wrong);
    return;
  }
  if (s.cls == Cls::kUpdate) b.versions->acked[s.key].store(s.version);
  ++rec->completed;
  rec->latency_ms[int(s.cls)].push_back(Us(p->due, end) / 1e3);
  if (traced) rec->AddTrace(s, out.spans, out.result, Us(p->submitted, end));
}

uint64_t StreamSeed(uint64_t seed, int stream) {
  return (seed + 1) * 0xD1B54A32D192ED03ull + uint64_t(stream) * 0x9E37ull;
}

// ---- Phases -----------------------------------------------------------------

struct Phase {
  Recorder rec;
  double elapsed_s = 0;
  double sim_seconds = 0;
  LockManager::Stats locks_before, locks_after;
  ReuseCache::Stats cache_before, cache_after;
  Wal::Stats wal_before, wal_after;
};

void Snapshot(Instance* inst, LockManager::Stats* locks,
              ReuseCache::Stats* cache, Wal::Stats* wal) {
  *locks = inst->server->table_locks()->stats();
  if (inst->db->reuse_cache() != nullptr) {
    *cache = inst->db->reuse_cache()->stats();
  }
  *wal = inst->db->wal()->stats();
}

/// Runs the workload's concurrent traffic for `seconds`.
/// Statement streams are numbered from `first_stream`; a phase that reuses
/// a number replays the same statements.
Phase RunPhase(Bench& b, bool traced, double seconds, uint64_t seed,
               int first_stream) {
  Phase ph;
  Instance* inst = b.inst;
  Snapshot(inst, &ph.locks_before, &ph.cache_before, &ph.wal_before);
  const double sim_before = inst->db->clock()->Seconds();
  std::vector<Recorder> recs(kSessions);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  auto closed_loop = [&](int ci, Stream stream) {
    Client& c = *inst->clients[ci];
    while (!b.abort.load() && Clock::now() < deadline) {
      Stmt s = stream.Next(*b.data, b.versions);
      Pending p = Submit(b, c, std::move(s), Clock::now(), traced);
      Finish(b, &recs[ci], &p, traced);
    }
  };

  // A seeded schedule at `rate` statements per second: each gap is the
  // mean gap times a uniform factor in [0.5, 1.5). A collector thread
  // finishes statements in order. At most kPipelineDepth are in flight; a
  // generator that finds the pipeline full waits, and its lateness is
  // recorded.
  auto open_loop = [&](int ci, Stream stream, double rate) {
    Client& c = *inst->clients[ci];
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    int inflight = 0;
    bool done = false;
    std::thread collector([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || done; });
          if (queue.empty()) return;
          p = std::move(queue.front());
          queue.pop_front();
        }
        Finish(b, &recs[ci], &p, traced);
        {
          std::lock_guard<std::mutex> lock(mu);
          --inflight;
        }
        cv.notify_all();
      }
    });
    Random schedule(StreamSeed(seed, first_stream + 100 + ci));
    Clock::time_point due = start;
    for (;;) {
      const double gap_s = (0.5 + schedule.NextDouble()) / rate;
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_s));
      if (due >= deadline || b.abort.load()) break;
      std::this_thread::sleep_until(due);
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return inflight < kPipelineDepth; });
      }
      recs[ci].lag_ms.push_back(Us(due, Clock::now()) / 1e3);
      Pending p = Submit(b, c, stream.Next(*b.data, b.versions), due, traced);
      {
        std::lock_guard<std::mutex> lock(mu);
        ++inflight;
        queue.push_back(std::move(p));
      }
      cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    collector.join();
  };

  std::vector<std::thread> threads;
  const int64_t quarter = kAccounts / kSessions;
  for (int ci = 0; ci < kSessions; ++ci) {
    const uint64_t s = StreamSeed(seed, first_stream + ci);
    switch (b.workload) {
      case Workload::kOltpPoint:
        threads.emplace_back(closed_loop, ci,
                             Stream(Stream::Mix::kOltp, s, ci * quarter,
                                    (ci + 1) * quarter));
        break;
      case Workload::kScanAnalytics:
        threads.emplace_back(closed_loop, ci,
                             Stream(Stream::Mix::kScan, s, 0, kAccounts));
        break;
      case Workload::kHtapMixed:
        if (ci < 2) {
          threads.emplace_back(
              closed_loop, ci,
              Stream(Stream::Mix::kWriter, s, ci * kAccounts / 2,
                     (ci + 1) * kAccounts / 2));
        } else if (ci == 2) {
          threads.emplace_back(
              open_loop, ci, Stream(Stream::Mix::kPointReader, s, 0, kAccounts),
              kPointReaderRate);
        } else {
          threads.emplace_back(
              open_loop, ci,
              Stream(Stream::Mix::kAnalyticReader, s, 0, kAccounts),
              kAnalyticReaderRate);
        }
        break;
    }
  }
  for (std::thread& t : threads) t.join();
  ph.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  ph.sim_seconds = inst->db->clock()->Seconds() - sim_before;
  Snapshot(inst, &ph.locks_after, &ph.cache_after, &ph.wal_after);
  for (const Recorder& r : recs) ph.rec.Merge(r);
  return ph;
}

/// The single-session pass: no other statement runs, so parse, optimize
/// and HashAggregate are timed directly, and the cost-clock and WAL counts
/// it takes repeat exactly for a seed.
struct SerialPass {
  Recorder rec;
  std::vector<double> parse_us, optimize_us, aggregate_us;
  int64_t statements = 0;
  int64_t comparisons = 0;
  int64_t hashes = 0;
  int64_t commits = 0;
  int64_t device_bytes = 0;
};

SerialPass RunSerialPass(Bench& b, uint64_t seed) {
  SerialPass out;
  Database* db = b.inst->db.get();
  Client& c = *b.inst->clients[0];
  const Stream::Mix mix = b.workload == Workload::kOltpPoint
                              ? Stream::Mix::kOltp
                          : b.workload == Workload::kScanAnalytics
                              ? Stream::Mix::kScan
                              : Stream::Mix::kSerialHtap;
  Stream stream(mix, StreamSeed(seed, kSerialStream), 0,
                kAccounts / kSessions);
  // The planner settings Database uses for its own SQL statements.
  const Database::Options defaults;
  OptimizerOptions opts;
  opts.memory_pages = defaults.memory_pages;
  opts.cost_params = defaults.cost_params;
  opts.w_cpu = defaults.w_cpu;
  opts.hash_only = defaults.planner_hash_only;
  opts.vectorize = defaults.vectorize;
  opts.reuse_cache = db->reuse_cache();
  opts.reuse_cost_discounts = defaults.reuse_plan_discounts;

  auto ok = [&b](const Status& status, const char* call) {
    if (!status.ok()) b.Fail(std::string(call) + ": " + status.ToString());
    return status.ok();
  };
  const Wal::Stats wal_before = db->wal()->stats();
  const int count = kSerialStatements[int(b.workload)];
  for (int i = 0; i < count && !b.abort.load(); ++i) {
    Stmt s = stream.Next(*b.data, b.versions);
    const Catalog& catalog = db->catalog();
    Clock::time_point t = Clock::now();
    StatusOr<ParsedStatement> parsed = ParseStatement(s.sql, catalog);
    out.parse_us.push_back(Us(t, Clock::now()));
    if (!ok(parsed.status(), "ParseStatement")) break;
    if (s.cls != Cls::kUpdate) {
      Optimizer optimizer(&catalog, opts);
      t = Clock::now();
      StatusOr<std::unique_ptr<PlanNode>> plan =
          optimizer.Optimize(parsed->query);
      out.optimize_us.push_back(Us(t, Clock::now()));
      if (!ok(plan.status(), "Optimize")) break;
      if (s.cls == Cls::kAgg) {
        // A private clock and no reuse cache: this extra execution must
        // not change the counts taken below.
        CostClock clock(defaults.cost_params);
        ExecContext ctx = *db->exec_context();
        ctx.clock = &clock;
        ctx.metrics = nullptr;
        ctx.reuse_cache = nullptr;
        StatusOr<Relation> input = ExecutePlan(**plan, catalog, &ctx, db);
        if (!ok(input.status(), "ExecutePlan")) break;
        t = Clock::now();
        StatusOr<Relation> groups =
            HashAggregate(*input, *parsed->aggregate, &ctx);
        out.aggregate_us.push_back(Us(t, Clock::now()));
        if (!ok(groups.status(), "HashAggregate")) break;
        Database::SqlResult direct;
        direct.relation = std::move(*groups);
        const std::string wrong =
            CheckAnswer(s, direct, 0, *b.data, *b.versions);
        if (!wrong.empty()) b.Fail("HashAggregate: " + wrong);
      }
    }
    const CostCounters before = db->clock()->counters();
    Pending p = Submit(b, c, std::move(s), Clock::now(), /*traced=*/true);
    Finish(b, &out.rec, &p, /*traced=*/true);
    const CostCounters after = db->clock()->counters();
    out.comparisons += after.comparisons - before.comparisons;
    out.hashes += after.hashes - before.hashes;
    ++out.statements;
  }
  const Wal::Stats wal_after = db->wal()->stats();
  out.commits = wal_after.commits - wal_before.commits;
  out.device_bytes = wal_after.device_bytes - wal_before.device_bytes;
  return out;
}

/// Reads every account back; each must show its last acknowledged write.
void ReadBack(Bench& b) {
  if (b.abort.load()) return;
  StatusOr<Database::SqlResult> all =
      b.inst->clients[0]->session->ExecuteSql("SELECT id, bal FROM acct");
  if (!all.ok()) {
    b.Fail("read-back failed: " + all.status().ToString());
    return;
  }
  const std::vector<Row>& rows = all->relation.rows();
  if (int64_t(rows.size()) != kAccounts) {
    b.Fail("read-back returned " + std::to_string(rows.size()) + " rows");
    return;
  }
  std::vector<bool> seen(kAccounts, false);
  for (const Row& row : rows) {
    int64_t id = -1;
    double bal = 0;
    if (!IntAt(row, 0, &id) || id < 0 || id >= kAccounts || seen[id] ||
        !NumberAt(row, 1, &bal)) {
      b.Fail("read-back: malformed or duplicate row");
      return;
    }
    seen[id] = true;
    const int64_t version = b.versions->acked[id].load();
    if (bal != double(b.data->base[id] + version * kVersionStep)) {
      b.Fail("read-back: id " + std::to_string(id) + " lost write version " +
             std::to_string(version));
      return;
    }
  }
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One line per percentile, with its sample count; flagged when fewer than
/// ten samples lie beyond it.
void PrintPct(const char* name, const Pct& p, const char* unit) {
  std::printf("  %-34s %14.6f %-6s n=%zu beyond=%zu%s\n", name, p.value, unit,
              p.n, p.beyond, p.beyond < 10 ? "  LOW-SAMPLES" : "");
}

void PrintValue(const char* name, double value, const char* unit) {
  std::printf("  %-34s %14.6f %s\n", name, value, unit);
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintEnvironment(const std::string& git_commit) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("env: nproc=%u compiler=\"%s\" build_type=%s optimized=%s "
              "git_commit=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              SQL_E2E_BUILD_TYPE, optimized ? "yes" : "no",
              git_commit.c_str());
  if (!optimized) {
    std::printf("WARNING: unoptimised build; timings are not comparable\n");
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

bool IsPointRead(Cls c) { return c == Cls::kPoint; }
bool IsWrite(Cls c) { return c == Cls::kUpdate; }
bool IsRead(Cls c) { return c != Cls::kUpdate; }
bool IsAny(Cls) { return true; }

// ---- main -------------------------------------------------------------

struct Args {
  Workload workload = Workload::kOltpPoint;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = true;
      if (value == "oltp_point") {
        a.workload = Workload::kOltpPoint;
      } else if (value == "scan_analytics") {
        a.workload = Workload::kScanAnalytics;
      } else if (value == "htap_mixed") {
        a.workload = Workload::kHtapMixed;
      } else {
        Die("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Die("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 120) {
        Die("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--git-commit") {
      a.git_commit = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  return a;
}

int Run(const Args& args) {
  static const char* kNames[] = {"oltp_point", "scan_analytics", "htap_mixed"};
  std::printf("sql_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              kNames[int(args.workload)],
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  PrintEnvironment(args.git_commit);
  std::fflush(stdout);

  const Dataset data = Dataset::Generate(args.seed);
  const std::vector<std::string> inserts = InsertStatements(data);
  Versions versions;
  auto inst = std::make_unique<Instance>();
  const double first_setup_s = Setup(args.workload, inserts, inst.get());
  Bench b{args.workload, &data, &versions, inst.get()};

  std::vector<Metric> metrics;
  int64_t attempted = 0, failed = 0;
  if (!args.trace) {
    RunPhase(b, /*traced=*/false, kWarmupSeconds, args.seed, kWarmupStreams);
    Phase ph = RunPhase(b, /*traced=*/false, args.seconds, args.seed,
                        kMeasuredStreams);
    ReadBack(b);
    const double rss_mb = PeakRssMb();
    inst.reset();
    std::vector<double> setups{first_setup_s};
    for (int r = 1; r < kSetupRepeats && !b.abort.load(); ++r) {
      Instance again;
      setups.push_back(Setup(args.workload, inserts, &again));
    }
    const Recorder& rec = ph.rec;
    attempted = rec.attempted;
    failed = rec.failed;
    const double completed = double(std::max<int64_t>(rec.completed, 1));
    const double throughput = double(rec.completed) / ph.elapsed_s;
    auto pct = [&rec](bool (*keep)(Cls), double p) {
      return Percentile(rec.Latencies(keep), p);
    };
    const Pct read50 = pct(IsRead, 0.5);
    const Pct read99 = pct(IsRead, 0.99);
    const Pct all50 = pct(IsAny, 0.5);
    const Pct all99 = pct(IsAny, 0.99);
    const double setup_s = Median(setups);
    const double sim_ms = ph.sim_seconds * 1e3 / completed;

    std::printf("end-to-end (%.3f s measured, %lld statements):\n",
                ph.elapsed_s, static_cast<long long>(rec.completed));
    PrintValue("throughput_sps", throughput, "1/s");
    if (args.workload != Workload::kScanAnalytics) {
      PrintPct("point_read_p50_ms", pct(IsPointRead, 0.5), "ms");
      PrintPct("point_read_p99_ms", pct(IsPointRead, 0.99), "ms");
      PrintPct("write_p50_ms", pct(IsWrite, 0.5), "ms");
      PrintPct("write_p99_ms", pct(IsWrite, 0.99), "ms");
    }
    if (args.workload != Workload::kOltpPoint) {
      PrintPct("scan_read_p50_ms", pct(IsScan, 0.5), "ms");
      PrintPct("scan_read_p99_ms", pct(IsScan, 0.99), "ms");
    }
    PrintPct("read_p50_ms", read50, "ms");
    PrintPct("read_p99_ms", read99, "ms");
    PrintPct("stmt_p50_ms", all50, "ms");
    PrintPct("stmt_p99_ms", all99, "ms");
    PrintValue("failed_frac",
               double(rec.failed) / double(std::max<int64_t>(rec.attempted, 1)),
               "frac");
    std::printf("  %-34s %14.6f s      n=%zu (median)\n", "setup_s", setup_s,
                setups.size());
    PrintValue("sim_cost_ms_per_stmt", sim_ms, "ms");
    PrintValue("peak_rss_mb", rss_mb, "MB");
    if (args.workload == Workload::kHtapMixed) {
      PrintPct("gen.lag_ms.p99", Percentile(rec.lag_ms, 0.99), "ms");
    }
    // The JSON carries the metrics that every workload has and that hold
    // steady across seeds; the per-class percentiles above are printed only.
    metrics = {{"throughput_sps", throughput, "1/s"},
               {"stmt_p50_ms", all50.value, "ms"},
               {"setup_s", setup_s, "s"},
               {"sim_cost_ms_per_stmt", sim_ms, "ms"},
               {"peak_rss_mb", rss_mb, "MB"}};
  } else {
    SerialPass serial = RunSerialPass(b, args.seed);
    RunPhase(b, /*traced=*/false, kWarmupSeconds, args.seed, kWarmupStreams);
    Phase plain = RunPhase(b, /*traced=*/false, args.seconds, args.seed,
                           kMeasuredStreams);
    Phase traced = RunPhase(b, /*traced=*/true, args.seconds, args.seed,
                            kMeasuredStreams);
    ReadBack(b);
    const Recorder& rec = traced.rec;
    attempted = serial.rec.attempted + plain.rec.attempted + rec.attempted;
    failed = serial.rec.failed + plain.rec.failed + rec.failed;
    const double stmts = double(std::max<int64_t>(rec.completed, 1));
    const double kstmts = stmts / 1e3;
    const Pct admit50 = Percentile(rec.admit_us, 0.5);
    const Pct admit99 = Percentile(rec.admit_us, 0.99);
    const Pct acquire99 = Percentile(rec.acquire_us, 0.99);
    const Pct parse50 = Percentile(serial.parse_us, 0.5);
    const Pct optimize50 = Percentile(serial.optimize_us, 0.5);
    const Pct plan50 = Percentile(rec.plan_us, 0.5);
    const Pct scan50 = Percentile(rec.scan_self_us, 0.5);
    const Pct filter50 = Percentile(rec.filter_self_us, 0.5);
    const Pct join50 = Percentile(rec.join_self_us, 0.5);
    const Pct agg50 = Percentile(serial.aggregate_us, 0.5);
    const Pct index50 = Percentile(rec.index_self_us, 0.5);
    const Pct precommit50 = Percentile(rec.write_precommit_us, 0.5);
    const Pct precommit99 = Percentile(rec.write_precommit_us, 0.99);
    const Pct durable50 = Percentile(rec.durable_wait_us, 0.5);
    const Pct durable99 = Percentile(rec.durable_wait_us, 0.99);
    const Pct unattributed50 = Percentile(rec.unattributed_us, 0.5);
    const Pct lag99 = Percentile(plain.rec.lag_ms, 0.99);
    const double rejected_frac =
        double(rec.rejected) / double(std::max<int64_t>(rec.attempted, 1));
    const LockManager::Stats& l0 = traced.locks_before;
    const LockManager::Stats& l1 = traced.locks_after;
    const ReuseCache::Stats& c0 = traced.cache_before;
    const ReuseCache::Stats& c1 = traced.cache_after;
    const int64_t lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
    const double hit_rate =
        lookups > 0 ? double(c1.hits - c0.hits) / double(lookups) : 0;
    const int64_t flushes =
        traced.wal_after.device_writes - traced.wal_before.device_writes;
    const int64_t commits =
        traced.wal_after.commits - traced.wal_before.commits;
    const double serial_stmts = double(std::max<int64_t>(serial.statements, 1));
    const double untraced_median = Median(plain.rec.Latencies(IsAny));
    const double traced_median = Median(rec.Latencies(IsAny));

    metrics = {
        {"server.admit_wait_us.p50", admit50.value, "us"},
        {"server.admit_wait_us.p99", admit99.value, "us"},
        {"server.rejected_frac", rejected_frac, "frac"},
        {"lock.acquire_us.p99", acquire99.value, "us"},
        {"lock.waits_per_kstmt", double(l1.waits - l0.waits) / kstmts,
         "1/kstmt"},
        {"lock.deadlocks", double(l1.deadlocks - l0.deadlocks), "count"},
        {"db.parse_us.p50", parse50.value, "us"},
        {"optimizer.optimize_us.p50", optimize50.value, "us"},
        {"exec.plan_us.p50", plan50.value, "us"},
        {"exec.scan.self_us.p50", scan50.value, "us"},
        {"exec.filter.self_us.p50", filter50.value, "us"},
        {"exec.join.self_us.p50", join50.value, "us"},
        {"exec.aggregate_us.p50", agg50.value, "us"},
        {"exec.rows_examined_per_row",
         rec.rows_returned > 0
             ? double(rec.rows_examined) / double(rec.rows_returned)
             : 0,
         "ratio"},
        {"exec.comparisons_per_stmt", double(serial.comparisons) / serial_stmts,
         "count"},
        {"exec.hashes_per_stmt", double(serial.hashes) / serial_stmts, "count"},
        {"index.lookup_us.p50", index50.value, "us"},
        {"cache.hit_rate", hit_rate, "frac"},
        {"cache.build_hits_per_kstmt",
         double(c1.build_hits - c0.build_hits) / kstmts, "1/kstmt"},
        {"cache.invalidated_entries_per_kstmt",
         double(c1.invalidated_entries - c0.invalidated_entries) / kstmts,
         "1/kstmt"},
        {"cache.bytes", double(c1.bytes), "B"},
        {"txn.write_precommit_us.p50", precommit50.value, "us"},
        {"txn.write_precommit_us.p99", precommit99.value, "us"},
        {"txn.durable_wait_us.p50", durable50.value, "us"},
        {"txn.durable_wait_us.p99", durable99.value, "us"},
        {"wal.commits_per_flush",
         flushes > 0 ? double(commits) / double(flushes) : 0, "ratio"},
        {"wal.device_bytes_per_commit",
         serial.commits > 0
             ? double(serial.device_bytes) / double(serial.commits)
             : 0,
         "B"},
        {"trace.overhead_frac",
         untraced_median > 0 ? traced_median / untraced_median - 1 : 0,
         "frac"},
        {"trace.unattributed_us.p50", unattributed50.value, "us"},
        {"gen.lag_ms.p99", lag99.value, "ms"},
    };

    std::printf("per-layer (traced: %lld statements in %.3f s; untraced: "
                "%lld; single-session pass: %lld):\n",
                static_cast<long long>(rec.completed), traced.elapsed_s,
                static_cast<long long>(plain.rec.completed),
                static_cast<long long>(serial.statements));
    const std::pair<const char*, Pct> pcts[] = {
        {"server.admit_wait_us.p50", admit50},
        {"server.admit_wait_us.p99", admit99},
        {"lock.acquire_us.p99", acquire99},
        {"db.parse_us.p50", parse50},
        {"optimizer.optimize_us.p50", optimize50},
        {"exec.plan_us.p50", plan50},
        {"exec.scan.self_us.p50", scan50},
        {"exec.filter.self_us.p50", filter50},
        {"exec.join.self_us.p50", join50},
        {"exec.aggregate_us.p50", agg50},
        {"index.lookup_us.p50", index50},
        {"txn.write_precommit_us.p50", precommit50},
        {"txn.write_precommit_us.p99", precommit99},
        {"txn.durable_wait_us.p50", durable50},
        {"txn.durable_wait_us.p99", durable99},
        {"trace.unattributed_us.p50", unattributed50},
        {"gen.lag_ms.p99", lag99},
    };
    for (const Metric& m : metrics) {
      const Pct* pct = nullptr;
      for (const auto& [name, p] : pcts) {
        if (m.name == name) pct = &p;
      }
      if (pct == nullptr) {
        PrintValue(m.name.c_str(), m.value, m.unit.c_str());
      } else if (pct->n == 0) {
        std::printf("  %-34s %14s %-6s (layer not used by this workload)\n",
                    m.name.c_str(), "-", m.unit.c_str());
      } else {
        PrintPct(m.name.c_str(), *pct, m.unit.c_str());
      }
    }
    std::printf("exact counts (single-session pass): statements=%lld "
                "comparisons=%lld hashes=%lld commits=%lld "
                "device_bytes=%lld\n",
                static_cast<long long>(serial.statements),
                static_cast<long long>(serial.comparisons),
                static_cast<long long>(serial.hashes),
                static_cast<long long>(serial.commits),
                static_cast<long long>(serial.device_bytes));
  }
  inst.reset();
  const bool correct = !b.abort.load();
  if (!correct) std::printf("WRONG: %s\n", b.error.c_str());
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) {
  return mmdb::Run(mmdb::ParseArgs(argc, argv));
}
