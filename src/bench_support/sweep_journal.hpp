// Sweep checkpoint journal — the PPGJRNL format.
//
// A sweep is a deterministic map over cell indices: cell i depends only
// on the enumeration index and read-only inputs (seeds come from
// cell_seed(base, i), results land in slot i). That contract makes
// resumption trivial *if* finished cells survive a crash. This journal is
// that persistence layer: each completed cell's encoded result is
// appended durably (write + fdatasync via util/atomic_file), so a sweep
// killed at cell 4,900 of 5,000 replays 4,900 decodes and recomputes 100.
//
// File layout (all integers little-endian, fixed width):
//
//   magic   8 bytes   "PPGJRNL\0"
//   u32     version   (currently 1)
//   u32     binding_len, then binding bytes — an identity string naming
//           the bench + the flags that shape cell enumeration; a resume
//           against a journal with a different binding is rejected
//           (kBadInput) instead of silently decoding garbage.
//   records, each:
//     u32   stage     (namespaces multiple sweeps within one bench)
//     u64   index     (cell index within the stage)
//     u64   payload_len
//     payload bytes   (CellWriter-encoded result)
//     u64   checksum  (FNV-1a 64 over stage|index|payload)
//
// Records appear in completion order (arbitrary under --jobs > 1); the
// reader indexes them by (stage, index). A crash can tear at most the
// final record: recovery scans the file, keeps the longest valid prefix,
// and truncates the torn tail in place. Torn or checksum-corrupt tails
// are recovered from, but a file that does not start with the PPGJRNL
// magic is refused — it is some other file, not a crashed journal.
//
// Single writer: the journal's append handle holds an exclusive flock(2)
// on the file (util/atomic_file), taken before any byte changes, so a
// second live writer is refused with kJournalLocked and leaves the
// owner's file untouched. A crashed owner's lock dies with it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/thread_annotations.hpp"

namespace ppg {

/// Thread-safe append/lookup store over one PPGJRNL file. Create via the
/// factories; the object is pinned (non-movable) because worker threads
/// hold pointers into it for the duration of a sweep.
class SweepJournal {
 public:
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;
  ~SweepJournal();

  /// Starts a fresh journal at `path` (truncating any existing file) and
  /// writes the header. Throws PpgException (kIoError; kJournalLocked
  /// when another live writer holds the journal).
  static std::unique_ptr<SweepJournal> create(const std::string& path,
                                              const std::string& binding);

  /// Opens `path` for resumption: loads every intact record, truncates a
  /// torn tail, and positions for appending. A missing or torn-header
  /// file becomes a fresh journal; a file with a foreign magic is refused
  /// (kBadInput), as is a binding mismatch or a duplicate (stage, index)
  /// record (two writers raced — neither copy can be trusted), and a
  /// journal another live writer holds (kJournalLocked). Every refusal
  /// leaves the file untouched.
  static std::unique_ptr<SweepJournal> open_resume(const std::string& path,
                                                   const std::string& binding);

  /// Encoded payload for (stage, index), or nullptr if not journaled.
  /// The pointee is stable for the journal's lifetime.
  const std::string* find(std::uint32_t stage, std::uint64_t index) const;

  /// Durably appends one completed cell. Thread-safe; the record is on
  /// disk when this returns.
  void append(std::uint32_t stage, std::uint64_t index,
              std::string_view payload);

  std::size_t num_records() const;
  std::uint64_t recovered_tail_bytes() const { return recovered_tail_bytes_; }
  const std::string& path() const { return path_; }
  const std::string& binding() const { return binding_; }

 private:
  SweepJournal() = default;

  /// A journal over `file` (locked, empty) holding only the header.
  static std::unique_ptr<SweepJournal> start_fresh(const std::string& path,
                                                   const std::string& binding,
                                                   DurableAppendFile file);
  static std::unique_ptr<SweepJournal> scan_existing(const std::string& path,
                                                     const std::string& bytes);

  mutable Mutex mutex_;
  /// Holds the journal's writer lock for the journal's lifetime.
  DurableAppendFile file_ PPG_GUARDED_BY(mutex_);
  // ppg-lint: allow(guard-annotation): set once in a factory, then immutable
  std::string path_;
  // ppg-lint: allow(guard-annotation): set once in a factory, then immutable
  std::string binding_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> records_
      PPG_GUARDED_BY(mutex_);
  // ppg-lint: allow(guard-annotation): set once on resume, then immutable
  std::uint64_t recovered_tail_bytes_ = 0;  ///< Torn bytes dropped on resume.
};

}  // namespace ppg
