#include "bench_support/sweep_journal.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/error.hpp"

namespace ppg {
namespace {

constexpr char kMagic[8] = {'P', 'P', 'G', 'J', 'R', 'N', 'L', '\0'};
constexpr std::uint32_t kVersion = 1;

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t record_checksum(std::uint32_t stage, std::uint64_t index,
                              std::string_view payload) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis.
  char header[12];
  std::memcpy(header, &stage, 4);
  std::memcpy(header + 4, &index, 8);
  hash = fnv1a64(std::string_view(header, sizeof header), hash);
  return fnv1a64(payload, hash);
}

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::string header_bytes(const std::string& binding) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(binding.size()));
  out.append(binding);
  return out;
}

std::string encode_record(std::uint32_t stage, std::uint64_t index,
                          std::string_view payload) {
  std::string out;
  put_u32(out, stage);
  put_u64(out, index);
  put_u64(out, payload.size());
  out.append(payload);
  put_u64(out, record_checksum(stage, index, payload));
  return out;
}

/// Bounds-checked sequential reader over the loaded journal bytes.
/// Returns false (instead of throwing) when the remaining bytes are too
/// short: that is exactly the torn-tail case recovery truncates away.
struct Scanner {
  const std::string& bytes;
  std::size_t pos = 0;

  bool take(void* out, std::size_t n) {
    if (bytes.size() - pos < n) return false;
    std::memcpy(out, bytes.data() + pos, n);
    pos += n;
    return true;
  }
  bool take_u32(std::uint32_t& v) { return take(&v, 4); }
  bool take_u64(std::uint64_t& v) { return take(&v, 8); }
};

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw_error(ErrorCode::kIoError, "cannot read journal", kNoOffset, path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

SweepJournal::~SweepJournal() {
  const MutexLock lock(mutex_);
  file_.close();
}

std::unique_ptr<SweepJournal> SweepJournal::start_fresh(
    const std::string& path, const std::string& binding,
    DurableAppendFile file) {
  std::unique_ptr<SweepJournal> journal(new SweepJournal());
  journal->path_ = path;
  journal->binding_ = binding;
  // The journal is not shared yet, but the guarded members are locked while
  // populated so clang's thread-safety analysis can verify the whole class.
  const MutexLock lock(journal->mutex_);
  journal->file_ = std::move(file);
  journal->file_.append(header_bytes(binding));
  return journal;
}

std::unique_ptr<SweepJournal> SweepJournal::create(const std::string& path,
                                                   const std::string& binding) {
  // open() locks before it truncates: a refused second writer must leave
  // the owner's file (and its records) untouched.
  return start_fresh(path, binding,
                     DurableAppendFile::open(path, /*truncate=*/true));
}

/// Parses header + records out of `bytes`: the longest valid prefix wins
/// and the torn byte count is recorded for truncation. Returns null when
/// even the header is torn (or the file is empty). A duplicate (stage,
/// index) among *intact* records is corruption: the single-writer
/// protocol appends each cell at most once, so two durable copies mean
/// two writers raced and neither copy can be trusted.
std::unique_ptr<SweepJournal> SweepJournal::scan_existing(
    const std::string& path, const std::string& bytes) {
  // A non-empty file whose leading bytes disagree with the magic is some
  // other file — refuse rather than clobber it.
  const std::size_t magic_prefix = std::min(bytes.size(), sizeof kMagic);
  if (std::memcmp(bytes.data(), kMagic, magic_prefix) != 0) {
    throw_error(ErrorCode::kBadInput,
                "not a PPGJRNL journal (magic mismatch); refusing to resume",
                0, path);
  }

  Scanner scan{bytes};
  char magic[sizeof kMagic];
  std::uint32_t version = 0;
  std::uint32_t binding_len = 0;
  const bool header_ok =
      scan.take(magic, sizeof magic) && scan.take_u32(version) &&
      scan.take_u32(binding_len) && bytes.size() - scan.pos >= binding_len;
  if (!header_ok) return nullptr;  // Torn during the very first append.
  if (version != kVersion) {
    throw_error(ErrorCode::kBadInput,
                "unsupported PPGJRNL version " + std::to_string(version),
                scan.pos, path);
  }
  std::unique_ptr<SweepJournal> journal(new SweepJournal());
  journal->path_ = path;
  journal->binding_.assign(bytes, scan.pos, binding_len);
  scan.pos += binding_len;

  // Not shared yet; locked so the guarded records_ writes below analyze
  // clean under -Wthread-safety.
  const MutexLock lock(journal->mutex_);
  // Keep the longest prefix of intact records; anything after the first
  // short or checksum-corrupt record is a torn tail from the crash.
  std::size_t valid_end = scan.pos;
  for (;;) {
    const std::size_t record_start = scan.pos;
    std::uint32_t stage = 0;
    std::uint64_t index = 0;
    std::uint64_t payload_len = 0;
    if (!scan.take_u32(stage) || !scan.take_u64(index) ||
        !scan.take_u64(payload_len)) {
      break;
    }
    if (bytes.size() - scan.pos < payload_len) break;
    const std::string_view payload(bytes.data() + scan.pos,
                                   static_cast<std::size_t>(payload_len));
    scan.pos += static_cast<std::size_t>(payload_len);
    std::uint64_t checksum = 0;
    if (!scan.take_u64(checksum)) break;
    if (checksum != record_checksum(stage, index, payload)) break;
    if (journal->records_.count({stage, index}) != 0) {
      throw_error(ErrorCode::kBadInput,
                  "duplicate journal record for (stage " +
                      std::to_string(stage) + ", index " +
                      std::to_string(index) +
                      "): a second writer raced this journal and neither "
                      "copy can be trusted; start over with a fresh "
                      "--journal path",
                  record_start, path);
    }
    journal->records_[{stage, index}] = std::string(payload);
    valid_end = scan.pos;
  }
  journal->recovered_tail_bytes_ = bytes.size() - valid_end;
  return journal;
}

std::unique_ptr<SweepJournal> SweepJournal::open_resume(
    const std::string& path, const std::string& binding) {
  // Lock first: the loser of a double-resume race must not scan (or later
  // truncate) a file the winner is appending to. open() creates a missing
  // file empty, which scans as torn below.
  DurableAppendFile file = DurableAppendFile::open(path, /*truncate=*/false);
  const std::string bytes = read_whole_file(path);
  std::unique_ptr<SweepJournal> journal = scan_existing(path, bytes);
  if (journal == nullptr) {
    // Missing file, or torn during the very first append (the header
    // write): nothing was journaled, start over.
    file.truncate_to(0);
    return start_fresh(path, binding, std::move(file));
  }
  if (journal->binding_ != binding) {
    throw_error(ErrorCode::kBadInput,
                "journal binding mismatch: file was written by \"" +
                    journal->binding_ + "\", this sweep is \"" + binding +
                    "\"; pass a fresh --journal path",
                kNoOffset, path);
  }
  if (journal->recovered_tail_bytes_ > 0)
    file.truncate_to(bytes.size() - journal->recovered_tail_bytes_);
  const MutexLock lock(journal->mutex_);
  journal->file_ = std::move(file);
  return journal;
}

const std::string* SweepJournal::find(std::uint32_t stage,
                                      std::uint64_t index) const {
  const MutexLock lock(mutex_);
  const auto it = records_.find({stage, index});
  // std::map nodes are stable: the pointee outlives the lock safely.
  return it == records_.end() ? nullptr : &it->second;
}

void SweepJournal::append(std::uint32_t stage, std::uint64_t index,
                          std::string_view payload) {
  const MutexLock lock(mutex_);
  file_.append(encode_record(stage, index, payload));
  records_[{stage, index}] = std::string(payload);
}

std::size_t SweepJournal::num_records() const {
  const MutexLock lock(mutex_);
  return records_.size();
}

}  // namespace ppg
