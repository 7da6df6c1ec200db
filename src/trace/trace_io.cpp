#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace ppg {

namespace {

constexpr char kMagic[8] = {'P', 'P', 'G', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;
/// Hostile-input guard for the text reader: a processor id beyond this is
/// a corrupt file, not a real instance (resizing per_proc to it would be
/// an attacker-controlled allocation).
constexpr std::uint64_t kMaxTextProcs = std::uint64_t{1} << 20;
/// Chunk size (in requests) for reading payloads from non-seekable
/// streams, where the declared length cannot be checked up front: memory
/// grows with bytes actually present, never with the declared u64.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

std::uint64_t stream_offset(std::istream& is) {
  const auto pos = is.tellg();
  return pos < 0 ? kNoOffset : static_cast<std::uint64_t>(pos);
}

[[noreturn]] void corrupt(std::istream& is, const std::string& message) {
  is.clear();  // tellg on a failed stream returns -1; recover the position.
  throw_error(ErrorCode::kCorruptTrace, message, stream_offset(is));
}

/// Bytes from the current position to the end, or kNoOffset when the
/// stream is not seekable (e.g. a pipe).
std::uint64_t remaining_bytes(std::istream& is) {
  const auto pos = is.tellg();
  if (pos < 0) return kNoOffset;
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(pos);
  if (end < pos) return kNoOffset;
  return static_cast<std::uint64_t>(end - pos);
}

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) corrupt(is, std::string("truncated trace stream reading ") + what);
  return value;
}

/// Reads `len` page ids without trusting `len` for the allocation size:
/// when the stream is seekable the declared length has already been
/// checked against the remaining bytes; otherwise grow chunk by chunk.
std::vector<PageId> read_payload(std::istream& is, std::uint64_t len,
                                 bool length_checked) {
  std::vector<PageId> reqs;
  if (length_checked) reqs.reserve(len);
  std::uint64_t done = 0;
  while (done < len) {
    const auto chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kReadChunk, len - done));
    reqs.resize(static_cast<std::size_t>(done) + chunk);
    is.read(reinterpret_cast<char*>(reqs.data() + done),
            static_cast<std::streamsize>(chunk * sizeof(PageId)));
    if (!is) corrupt(is, "truncated trace stream reading requests");
    done += chunk;
  }
  return reqs;
}

/// One processor's slice of a PPGTRACE file, streamed through a bounded
/// buffer. The slice was length-validated against the file size when the
/// source was opened; a short read afterwards means the file changed on
/// disk and surfaces as kCorruptTrace with the offending offset.
class FileTraceCursor final : public TraceCursor {
 public:
  FileTraceCursor(std::string path, std::uint64_t data_offset,
                  std::uint64_t num_requests, std::size_t chunk)
      : path_(std::move(path)),
        data_offset_(data_offset),
        num_requests_(num_requests),
        chunk_(chunk),
        is_(path_, std::ios::binary) {
    if (!is_)
      throw_error(ErrorCode::kIoError, "cannot open " + path_, kNoOffset,
                  path_);
  }

  std::uint64_t position() const override { return position_; }
  bool done() const override { return position_ >= num_requests_; }
  std::size_t next_span(PageId* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && !done()) {
      if (position_ - base_ >= buffer_.size()) refill();
      const std::size_t have =
          buffer_.size() - static_cast<std::size_t>(position_ - base_);
      const std::size_t take = std::min(max - n, have);
      std::memcpy(out + n,
                  buffer_.data() + static_cast<std::size_t>(position_ - base_),
                  take * sizeof(PageId));
      position_ += take;
      n += take;
    }
    return n;
  }
 private:
  void refill() {
    base_ = position_;
    const auto count = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_, num_requests_ - position_));
    buffer_.resize(count);
    const std::uint64_t byte_offset =
        data_offset_ + position_ * sizeof(PageId);
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(byte_offset));
    is_.read(reinterpret_cast<char*>(buffer_.data()),
             static_cast<std::streamsize>(count * sizeof(PageId)));
    if (!is_)
      throw_error(ErrorCode::kCorruptTrace,
                  "truncated trace stream reading requests", byte_offset,
                  path_);
  }

  std::string path_;
  std::uint64_t data_offset_;
  std::uint64_t num_requests_;
  std::size_t chunk_;
  std::ifstream is_;
  std::vector<PageId> buffer_;
  std::uint64_t base_ = 0;      ///< Position of buffer_[0].
  std::uint64_t position_ = 0;
};

class FileTraceSource final : public TraceSource {
 public:
  FileTraceSource(std::string path, std::uint64_t data_offset,
                  std::uint64_t num_requests, std::size_t chunk)
      : path_(std::move(path)),
        data_offset_(data_offset),
        num_requests_(num_requests),
        chunk_(chunk) {}

  std::uint64_t num_requests() const override { return num_requests_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<FileTraceCursor>(path_, data_offset_,
                                             num_requests_, chunk_);
  }

 private:
  std::string path_;
  std::uint64_t data_offset_;
  std::uint64_t num_requests_;
  std::size_t chunk_;
};

}  // namespace

MultiTraceSource open_multitrace_source(const std::string& path,
                                        std::size_t chunk_requests) {
  const std::size_t chunk = chunk_requests == 0 ? kReadChunk : chunk_requests;
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw_error(ErrorCode::kIoError, "cannot open " + path, kNoOffset, path);

  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    corrupt(is, "bad trace magic");
  const auto version = read_pod<std::uint32_t>(is, "version");
  if (version != kVersion)
    corrupt(is, "unsupported trace version " + std::to_string(version));
  const auto num = read_pod<std::uint32_t>(is, "trace count");
  const std::uint64_t remaining = remaining_bytes(is);
  PPG_CHECK(remaining != kNoOffset);  // regular files are seekable
  if (std::uint64_t{num} * sizeof(std::uint64_t) > remaining)
    corrupt(is, "declared trace count " + std::to_string(num) +
                    " exceeds remaining stream bytes (" +
                    std::to_string(remaining) + ")");

  MultiTraceSource sources;
  for (std::uint32_t i = 0; i < num; ++i) {
    const auto len = read_pod<std::uint64_t>(is, "trace length");
    const std::uint64_t left = remaining_bytes(is);
    if (len > left / sizeof(PageId))
      corrupt(is, "declared trace length " + std::to_string(len) +
                      " exceeds remaining stream bytes (" +
                      std::to_string(left) + ")");
    const auto data_offset = static_cast<std::uint64_t>(is.tellg());
    sources.add(std::make_shared<FileTraceSource>(path, data_offset, len,
                                                  chunk));
    is.seekg(static_cast<std::streamoff>(len * sizeof(PageId)),
             std::ios::cur);
  }
  return sources;
}

void write_multitrace(std::ostream& os, const MultiTrace& mt) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint32_t>(mt.num_procs()));
  for (ProcId i = 0; i < mt.num_procs(); ++i) {
    const auto& reqs = mt.trace(i).requests();
    write_pod(os, static_cast<std::uint64_t>(reqs.size()));
    os.write(reinterpret_cast<const char*>(reqs.data()),
             static_cast<std::streamsize>(reqs.size() * sizeof(PageId)));
  }
  if (!os) throw_error(ErrorCode::kIoError, "trace write failed");
}

MultiTrace read_multitrace(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    corrupt(is, "bad trace magic");
  const auto version = read_pod<std::uint32_t>(is, "version");
  if (version != kVersion)
    corrupt(is, "unsupported trace version " + std::to_string(version));
  const auto num = read_pod<std::uint32_t>(is, "trace count");

  // Every declared trace needs at least its 8-byte length header, so the
  // count is bounded by the remaining stream size — reject a corrupted
  // count before looping (and before any allocation keyed on it).
  const std::uint64_t remaining = remaining_bytes(is);
  const bool seekable = remaining != kNoOffset;
  if (seekable && std::uint64_t{num} * sizeof(std::uint64_t) > remaining)
    corrupt(is, "declared trace count " + std::to_string(num) +
                    " exceeds remaining stream bytes (" +
                    std::to_string(remaining) + ")");

  MultiTrace mt;
  for (std::uint32_t i = 0; i < num; ++i) {
    const auto len = read_pod<std::uint64_t>(is, "trace length");
    bool length_checked = false;
    if (seekable) {
      const std::uint64_t left = remaining_bytes(is);
      if (len > left / sizeof(PageId))
        corrupt(is, "declared trace length " + std::to_string(len) +
                        " exceeds remaining stream bytes (" +
                        std::to_string(left) + ")");
      length_checked = true;
    }
    mt.add(Trace(read_payload(is, len, length_checked)));
  }
  return mt;
}

void save_multitrace(const std::string& path, const MultiTrace& mt) {
  std::ofstream os(path, std::ios::binary);
  if (!os)
    throw_error(ErrorCode::kIoError, "cannot open " + path, kNoOffset, path);
  write_multitrace(os, mt);
}

MultiTrace load_multitrace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw_error(ErrorCode::kIoError, "cannot open " + path, kNoOffset, path);
  return read_multitrace(is);
}

void write_multitrace_text(std::ostream& os, const MultiTrace& mt) {
  os << "# ppg multitrace text v1: <proc> <page>\n";
  for (ProcId i = 0; i < mt.num_procs(); ++i)
    for (PageId page : mt.trace(i)) os << i << ' ' << page << '\n';
  if (!os) throw_error(ErrorCode::kIoError, "text trace write failed");
}

MultiTrace read_multitrace_text(std::istream& is) {
  std::vector<std::vector<PageId>> per_proc;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Skip blank / whitespace-only lines.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream fields(line);
    std::uint64_t proc = 0;
    PageId page = 0;
    if (!(fields >> proc >> page))
      throw_error(ErrorCode::kCorruptTrace,
                  "bad text trace line " + std::to_string(line_no));
    std::string extra;
    if (fields >> extra)
      throw_error(ErrorCode::kCorruptTrace,
                  "trailing tokens on text trace line " +
                      std::to_string(line_no));
    if (proc >= kMaxTextProcs)
      throw_error(ErrorCode::kCorruptTrace,
                  "processor id " + std::to_string(proc) +
                      " out of range on line " + std::to_string(line_no));
    if (per_proc.size() <= proc) per_proc.resize(proc + 1);
    per_proc[proc].push_back(page);
  }
  MultiTrace mt;
  for (auto& reqs : per_proc) mt.add(Trace(std::move(reqs)));
  return mt;
}

void save_multitrace_text(const std::string& path, const MultiTrace& mt) {
  std::ofstream os(path);
  if (!os)
    throw_error(ErrorCode::kIoError, "cannot open " + path, kNoOffset, path);
  write_multitrace_text(os, mt);
}

MultiTrace load_multitrace_text(const std::string& path) {
  std::ifstream is(path);
  if (!is)
    throw_error(ErrorCode::kIoError, "cannot open " + path, kNoOffset, path);
  return read_multitrace_text(is);
}

}  // namespace ppg
