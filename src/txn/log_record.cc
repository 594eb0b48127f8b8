#include "txn/log_record.h"

#include <cstring>

#include "common/crc32.h"

namespace mmdb {

namespace {

constexpr uint32_t kMagic = 0x4C52444Du;  // "MDRL"

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadPod(const char* data, int64_t size, int64_t* pos, T* out) {
  if (*pos + static_cast<int64_t>(sizeof(T)) > size) return false;
  std::memcpy(out, data + *pos, sizeof(T));
  *pos += static_cast<int64_t>(sizeof(T));
  return true;
}

}  // namespace

int64_t LogRecord::SerializedSize() const {
  // magic(4) crc(4) type(1) txn(8) lsn(8) record_id(8) old_len(4) new_len(4)
  return 4 + 4 + 1 + 8 + 8 + 8 + 4 + 4 +
         static_cast<int64_t>(old_value.size()) +
         static_cast<int64_t>(new_value.size());
}

void LogRecord::AppendTo(std::string* out) const {
  AppendPod(out, kMagic);
  const size_t crc_pos = out->size();
  AppendPod(out, uint32_t{0});  // patched below
  const size_t body_pos = out->size();
  AppendPod(out, static_cast<uint8_t>(type));
  AppendPod(out, txn_id);
  AppendPod(out, lsn);
  AppendPod(out, record_id);
  AppendPod(out, static_cast<uint32_t>(old_value.size()));
  AppendPod(out, static_cast<uint32_t>(new_value.size()));
  out->append(old_value);
  out->append(new_value);
  const uint32_t crc =
      Crc32c(out->data() + body_pos, out->size() - body_pos);
  std::memcpy(out->data() + crc_pos, &crc, sizeof(crc));
}

StatusOr<LogRecord> LogRecord::Parse(const char* data, int64_t size,
                                     int64_t* consumed) {
  int64_t pos = 0;
  uint32_t magic;
  uint32_t stored_crc;
  if (!ReadPod(data, size, &pos, &magic) ||
      !ReadPod(data, size, &pos, &stored_crc)) {
    return Status::OutOfRange("truncated record");
  }
  if (magic != kMagic) return Status::InvalidArgument("bad log magic");
  const int64_t body_pos = pos;
  LogRecord rec;
  uint8_t type;
  uint32_t old_len, new_len;
  if (!ReadPod(data, size, &pos, &type) ||
      !ReadPod(data, size, &pos, &rec.txn_id) ||
      !ReadPod(data, size, &pos, &rec.lsn) ||
      !ReadPod(data, size, &pos, &rec.record_id) ||
      !ReadPod(data, size, &pos, &old_len) ||
      !ReadPod(data, size, &pos, &new_len)) {
    return Status::OutOfRange("truncated record header");
  }
  if (pos + old_len + new_len > size) {
    return Status::OutOfRange("truncated record payload");
  }
  const int64_t end = pos + old_len + new_len;
  const uint32_t actual_crc =
      Crc32c(data + body_pos, static_cast<size_t>(end - body_pos));
  if (actual_crc != stored_crc) {
    return Status::Corruption("log record checksum mismatch");
  }
  rec.type = static_cast<LogRecordType>(type);
  rec.old_value.assign(data + pos, old_len);
  pos += old_len;
  rec.new_value.assign(data + pos, new_len);
  pos += new_len;
  *consumed = pos;
  return rec;
}

namespace {

/// Finds the next offset in [from, size) where a complete, checksum-valid
/// record parses; -1 if none. Used to resynchronize past damage.
int64_t FindNextValidRecord(const char* data, int64_t size, int64_t from) {
  for (int64_t pos = from; pos + 8 <= size; ++pos) {
    if (static_cast<unsigned char>(data[pos]) != (kMagic & 0xFFu)) continue;
    uint32_t magic;
    std::memcpy(&magic, data + pos, sizeof(magic));
    if (magic != kMagic) continue;
    int64_t consumed = 0;
    if (LogRecord::Parse(data + pos, size - pos, &consumed).ok()) return pos;
  }
  return -1;
}

}  // namespace

std::vector<LogRecord> LogRecord::ParseAll(const char* data, int64_t size,
                                           LogParseStats* stats) {
  std::vector<LogRecord> out;
  int64_t pos = 0;
  while (pos < size) {
    // Skip zero padding between page boundaries.
    if (data[pos] == '\0') {
      ++pos;
      continue;
    }
    int64_t consumed = 0;
    StatusOr<LogRecord> rec = Parse(data + pos, size - pos, &consumed);
    if (!rec.ok()) {
      // Damage. A torn tail and a mid-stream corrupt record look alike
      // from here (a flipped length field also reads as "truncated"), so
      // decide by whether any later bytes still parse as a valid record.
      int64_t next = FindNextValidRecord(data, size, pos + 1);
      if (next < 0) {
        if (stats != nullptr) stats->torn_tail_bytes += size - pos;
        break;
      }
      if (stats != nullptr) ++stats->corrupt_skipped;
      pos = next;
      continue;
    }
    out.push_back(std::move(rec).value());
    if (stats != nullptr) ++stats->records;
    pos += consumed;
  }
  return out;
}

LogRecord LogRecord::CompressForDisk() const {
  LogRecord out = *this;
  out.old_value.clear();
  return out;
}

}  // namespace mmdb
