// Write-ahead-log record codec (DESIGN.md §15). One record is the binary
// frame
//
//   [magic u8 = 0xA1][type u8][len u32 LE][payload len bytes][crc32 u32 LE]
//
// where the CRC covers type + len + payload, so a flipped bit anywhere in
// the record (including its header) is detected. Three record types journal
// everything the serving tier cannot re-derive after a crash:
//
//   kObserve   ingested samples: workload name, the absolute observation
//              index of the first value (`first_step`), and the values as
//              raw little-endian doubles — replay is idempotent because a
//              record whose first_step != the tenant's current count is a
//              duplicate (or post-gap) and is skipped whole.
//   kRegister  tenant registration (ensure_tenant on first contact).
//   kPromote   a retrain promotion: name + the published version. The model
//              bytes themselves live in the .ldm checkpoint; the WAL only
//              has to restore the version/retrain accounting.
//
// The decoder is incremental and NEVER throws: a prefix of a valid stream is
// kNeedMore (the torn tail a crash leaves behind), a corrupt record is kBad
// (replay truncates there), anything else is kRecord. The same contract as
// net/frame.hpp, and fuzzed the same way (verify::make_wal_target).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ld::wal {

inline constexpr std::uint8_t kRecordMagic = 0xA1;
/// Payload ceiling: far above any real record (an OBSERVE batch is capped by
/// the 1 MB protocol line / frame payload upstream) yet small enough that a
/// corrupt length can never drive replay into a giant allocation.
inline constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

enum class RecordType : std::uint8_t {
  kObserve = 1,
  kRegister = 2,
  kPromote = 3,
};

struct Record {
  RecordType type = RecordType::kObserve;
  std::string name;                 ///< workload id (all types)
  std::uint64_t first_step = 0;     ///< kObserve: absolute index of values[0]
  std::vector<double> values;       ///< kObserve: the ingested batch
  std::uint64_t version = 0;        ///< kPromote: published model version
};

/// Append one encoded record to `out`.
void append_observe(std::string& out, const std::string& name, std::uint64_t first_step,
                    const std::vector<double>& values);
void append_register(std::string& out, const std::string& name);
void append_promote(std::string& out, const std::string& name, std::uint64_t version);
void append_record(std::string& out, const Record& rec);

enum class DecodeStatus {
  kRecord,    ///< one record decoded; `consumed` bytes used
  kNeedMore,  ///< a valid prefix — wait for (or lose) the rest
  kBad,       ///< corrupt: bad magic, hostile length, or CRC mismatch
};

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  ///< bytes to drop from the stream (kRecord only)
  Record record;
  std::string error;  ///< human-readable reason when kBad
};

/// Decode the first record of `data`. Never throws.
[[nodiscard]] Decoded decode_record(std::string_view data) noexcept;

/// Replay every decodable record of one segment buffer.
struct BufferReplay {
  std::size_t records = 0;   ///< records handed to the callback
  std::size_t consumed = 0;  ///< clean prefix length in bytes
  bool torn = false;         ///< trailing kNeedMore bytes (a crash artifact)
  bool bad = false;          ///< stopped at a corrupt record
  std::string error;         ///< reason when bad
};

/// Walk `data` record by record, invoking `handler` for each, stopping at
/// the first kNeedMore (torn = true) or kBad (bad = true). The handler may
/// throw; decoding itself never does.
template <typename Handler>
BufferReplay replay_buffer(std::string_view data, Handler&& handler) {
  BufferReplay out;
  while (out.consumed < data.size()) {
    const Decoded d = decode_record(data.substr(out.consumed));
    if (d.status == DecodeStatus::kNeedMore) {
      out.torn = true;
      break;
    }
    if (d.status == DecodeStatus::kBad) {
      out.bad = true;
      out.error = d.error;
      break;
    }
    handler(d.record);
    out.consumed += d.consumed;
    ++out.records;
  }
  return out;
}

}  // namespace ld::wal
