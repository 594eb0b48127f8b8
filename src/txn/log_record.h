#ifndef MMDB_TXN_LOG_RECORD_H_
#define MMDB_TXN_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace mmdb {

/// Log sequence number: a byte offset into the (logical) log stream.
using Lsn = int64_t;
using TxnId = int64_t;

constexpr Lsn kInvalidLsn = -1;
constexpr TxnId kInvalidTxn = -1;

/// Transaction ids at or above this value are SQL-statement commit ids
/// (Database::next_sql_stmt_txn_); ids below it belong to the record
/// plane's TransactionManager. Recovery keeps the two namespaces disjoint
/// by seeding each restart counter only from ids on its own side of the
/// boundary — a shared max would let an aborted record-plane txn reuse the
/// id of a logged SQL commit and be replayed as a winner.
constexpr TxnId kSqlStmtTxnBase = TxnId{1} << 40;

/// §5.4: "The log entries for a particular transaction are of the form
/// Begin Transaction ... End Transaction", with old/new values per update.
enum class LogRecordType : uint8_t {
  kBegin = 1,
  kUpdate = 2,
  kCommit = 3,
  kAbort = 4,
  kCheckpoint = 5,
};

/// Counters produced by ParseAll: how much of the scanned byte stream was
/// usable. Recovery surfaces these through RecoveryStats.
struct LogParseStats {
  int64_t records = 0;          ///< records parsed successfully
  int64_t corrupt_skipped = 0;  ///< resync events past checksum/framing damage
  int64_t torn_tail_bytes = 0;  ///< trailing bytes discarded as a torn tail
};

/// One physical log record. The paper's "typical" transaction writes ~400
/// bytes of log: 40 bytes of begin/commit framing plus 360 bytes of
/// old/new values — the banking workload is calibrated to match.
///
/// Wire form: magic(4) crc(4) type(1) txn(8) lsn(8) record_id(8)
/// old_len(4) new_len(4) old new. The CRC-32C covers every byte after the
/// crc field, so a bit flip anywhere in the record (header or payload) is
/// detected at parse time.
struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  TxnId txn_id = kInvalidTxn;
  Lsn lsn = kInvalidLsn;  ///< assigned by the log manager at append

  // kUpdate only.
  int64_t record_id = -1;    ///< updated record in the RecoverableStore
  std::string old_value;     ///< undo image
  std::string new_value;     ///< redo image

  /// Serialized size in bytes (what the throughput arithmetic counts).
  int64_t SerializedSize() const;

  /// Appends the wire form to `out`.
  void AppendTo(std::string* out) const;

  /// Parses one record from `data` (at least `size` bytes); advances
  /// `*consumed`. Returns OutOfRange when `data` holds only a partial
  /// record (a torn tail after a crash), kCorruption when the checksum does
  /// not match (a bit flip), and InvalidArgument on bad framing.
  static StatusOr<LogRecord> Parse(const char* data, int64_t size,
                                   int64_t* consumed);

  /// Parses a concatenation of records, tolerating a torn tail and
  /// resynchronizing past corrupt records: on any parse failure the scan
  /// hunts forward for the next offset that parses as a whole valid record
  /// (magic AND checksum — framing alone is too easy to fake) and counts
  /// one corrupt_skipped event. If no later record validates, the remaining
  /// bytes are a torn tail and the scan stops.
  static std::vector<LogRecord> ParseAll(const char* data, int64_t size,
                                         LogParseStats* stats = nullptr);

  /// Strips the undo image (§5.4 log compression: "only new values are
  /// written to the disk based log ... approximately half of the size").
  LogRecord CompressForDisk() const;
};

}  // namespace mmdb

#endif  // MMDB_TXN_LOG_RECORD_H_
