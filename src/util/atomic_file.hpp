// Crash-safe file writing.
//
// Two primitives cover every side-effecting write in the library:
//
//  * atomic_write_file — whole-file replacement via write-temp + fsync +
//    rename(2). Readers either see the old contents or the complete new
//    contents; a crash at any instant never leaves a torn file at the
//    final path. Used for replay dumps and other "publish a result"
//    writes.
//
//  * DurableAppendFile — an append-only handle whose append() is flushed
//    to disk before returning, for incremental logs (the sweep checkpoint
//    journal). A crash can tear at most the record being appended; the
//    journal layer detects and truncates that tail on resume via
//    truncate_to(). Each handle holds an exclusive flock(2) on its file,
//    so a file has at most one live writer; the kernel drops the lock
//    when the holder closes it or dies, so no stale lock survives a crash.
//
// All failures surface as ppg::Error (kIoError, or kJournalLocked for a
// second writer) with the path attached.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ppg {

/// Atomically replaces `path` with `contents`: writes `path` + ".tmp",
/// fsyncs it, then rename(2)s over the destination. Throws PpgException
/// (kIoError) on any failure; the destination is never left torn.
void atomic_write_file(const std::string& path, std::string_view contents);

/// Append-only file handle with durable appends. Move-only; the
/// destructor closes the descriptor and so releases the lock. Not
/// internally synchronized — callers that append from several threads
/// must serialize (SweepJournal holds a mutex around it).
class DurableAppendFile {
 public:
  DurableAppendFile() = default;
  ~DurableAppendFile();
  DurableAppendFile(DurableAppendFile&& other) noexcept;
  DurableAppendFile& operator=(DurableAppendFile&& other) noexcept;
  DurableAppendFile(const DurableAppendFile&) = delete;
  DurableAppendFile& operator=(const DurableAppendFile&) = delete;

  /// Opens `path` for appending, creating it if needed, and takes an
  /// exclusive non-blocking flock on it; `truncate` then starts the file
  /// over from zero bytes. Throws PpgException: kJournalLocked when
  /// another open handle holds the lock (the file is left untouched),
  /// kIoError otherwise.
  static DurableAppendFile open(const std::string& path, bool truncate);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Writes `bytes` at the end of the file and flushes them to disk
  /// before returning. Throws PpgException (kIoError).
  void append(std::string_view bytes);

  /// Shrinks the file to `size` bytes (drops a torn tail found during
  /// journal recovery). Throws PpgException (kIoError).
  void truncate_to(std::uint64_t size);

  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace ppg
