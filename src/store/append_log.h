#ifndef P2DRM_STORE_APPEND_LOG_H_
#define P2DRM_STORE_APPEND_LOG_H_

/// \file append_log.h
/// \brief Append-only record log with per-record CRC32 and a
/// group-commit batch path.
///
/// Durability: an append returns once its bytes are handed to write(2);
/// the log never calls fsync. A record therefore survives a crash of
/// the process, but not an OS crash or power loss.
///
/// The content provider journals every redeemed license id and every
/// issued-license event here; on restart the spent set is rebuilt by
/// replaying the log. Records are `u32 length ‖ u32 crc32 ‖ payload`;
/// a torn tail (truncated record or bad CRC) stops replay cleanly.
///
/// Group commit (docs/storage.md): `AppendMany` encodes a whole batch of
/// fixed-width records as ONE log record — the block's payload is the
/// records back to back, and the CRC covers the whole block — then issues
/// a single write(). A crash mid-block therefore tears the block's CRC,
/// and replay truncates the WHOLE block back to the previous record
/// boundary: group-committed records are atomic as a group, never
/// partially replayed. Single-record `Append` runs through the same
/// retained encode buffer (header + payload coalesced into one write()
/// instead of two stdio writes plus a flush per record).
///
/// Crash recovery: a process killed mid-append leaves a partial record at
/// the end of the file. Replay skips it, and — crucially — opening the
/// log for appending TRUNCATES the torn tail first, so the next Append
/// lands right after the last intact record instead of behind
/// unreplayable garbage (records written after a surviving torn tail
/// would be silently lost on every future replay).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace p2drm {
namespace store {

/// CRC-32 (IEEE 802.3, reflected) of a byte string.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t len);

/// Append-only log file.
class AppendLog {
 public:
  /// What one replay pass saw.
  struct ReplayStats {
    std::size_t delivered = 0;     ///< intact records handed to the callback
    std::uint64_t valid_bytes = 0; ///< file offset just past the last intact record
    bool torn_tail = false;        ///< trailing partial/corrupt record skipped
  };

  /// Opens (creating if absent) the log at \p path for appending. If the
  /// file ends in a torn record — a crash mid-append — the torn tail is
  /// truncated away first so subsequent appends stay replayable.
  /// Throws std::runtime_error on I/O failure.
  explicit AppendLog(const std::string& path);
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Appends one record: encodes header + payload into the retained
  /// buffer and hands it to the OS in a single write().
  void Append(const std::vector<std::uint8_t>& record);

  /// Group commit: appends \p count fixed-width records (packed back to
  /// back at \p records, \p record_width bytes each) as one length-
  /// prefixed, CRC'd block per write() — one syscall amortized over the
  /// whole batch instead of one per record. Replay delivers the block as
  /// a single record whose payload is the concatenated batch; callers
  /// that journal fixed-width entries (the spend path journals 16-byte
  /// license ids) split it back by width. A tear anywhere inside the
  /// block invalidates the block CRC, so recovery truncates the whole
  /// block — no partially-applied group. Oversized batches are split
  /// into multiple blocks of at most ~4 MiB.
  void AppendMany(const std::uint8_t* records, std::size_t record_width,
                  std::size_t count);

  /// Number of logical records appended through this handle (a group-
  /// committed block of N counts as N).
  std::uint64_t AppendedRecords() const { return appended_; }

  const std::string& path() const { return path_; }

  /// Replays all intact records in \p path in order. Returns the number of
  /// records delivered; stops (without throwing) at the first torn or
  /// corrupt record. A missing file replays zero records.
  static std::size_t Replay(
      const std::string& path,
      const std::function<void(const std::vector<std::uint8_t>&)>& fn);

  /// Like Replay, but also reports where the intact prefix ends and
  /// whether a torn tail was skipped — what crash-recovery callers need
  /// to decide between "clean log" and "truncate and continue". \p fn may
  /// be null to scan without delivering.
  static ReplayStats ReplayWithStats(
      const std::string& path,
      const std::function<void(const std::vector<std::uint8_t>&)>& fn);

 private:
  /// Replaces buf_ with one encoded `len ‖ crc ‖ payload` record.
  void EncodeRecord(const std::uint8_t* payload, std::size_t len);
  /// Hands buf_ to the OS in a single write() (looping only on EINTR /
  /// short writes, which POSIX permits even for O_APPEND regular files).
  void WriteBuffer();

  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
  std::vector<std::uint8_t> buf_;  // retained encode arena; capacity sticks
};

}  // namespace store
}  // namespace p2drm

#endif  // P2DRM_STORE_APPEND_LOG_H_
