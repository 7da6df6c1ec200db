#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace ppg {
namespace {

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw_error(ErrorCode::kIoError, what + ": " + std::strerror(errno),
              kNoOffset, path);
}

// EINTR-safe full write to a descriptor.
void write_all(int fd, std::string_view bytes, const std::string& path) {
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("write failed", path);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
}

// Best-effort fsync of the directory containing `path`, so the rename (or
// file creation) itself survives a crash. Failure is ignored: directory
// fsync is not supported on every filesystem and the data is already safe.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("cannot open temp file for atomic write", tmp);
  try {
    write_all(fd, contents, tmp);
    if (::fsync(fd) != 0) throw_io("fsync failed", tmp);
  } catch (...) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    throw_io("close failed", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw_io("rename into place failed", path);
  }
  sync_parent_dir(path);
}

DurableAppendFile::~DurableAppendFile() { close(); }

DurableAppendFile::DurableAppendFile(DurableAppendFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

DurableAppendFile& DurableAppendFile::operator=(
    DurableAppendFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

DurableAppendFile DurableAppendFile::open(const std::string& path,
                                          bool truncate) {
  DurableAppendFile file;
  // No O_TRUNC: the lock must be held before any byte changes, so a
  // refused second writer leaves the owner's file untouched.
  file.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
  if (file.fd_ < 0) throw_io("cannot open append file", path);
  file.path_ = path;
  if (::flock(file.fd_, LOCK_EX | LOCK_NB) != 0) {
    if (errno == EWOULDBLOCK) {
      throw_error(ErrorCode::kJournalLocked,
                  "another live writer holds this file; wait for it to "
                  "finish or pick a different path",
                  kNoOffset, path);
    }
    throw_io("flock failed", path);
  }
  if (truncate) file.truncate_to(0);
  sync_parent_dir(path);  // The file may have just been created.
  return file;
}

void DurableAppendFile::append(std::string_view bytes) {
  if (fd_ < 0)
    throw_error(ErrorCode::kIoError, "append on closed file", kNoOffset,
                path_);
  write_all(fd_, bytes, path_);
  if (::fdatasync(fd_) != 0) throw_io("fdatasync failed", path_);
}

void DurableAppendFile::truncate_to(std::uint64_t size) {
  if (fd_ < 0)
    throw_error(ErrorCode::kIoError, "truncate on closed file", kNoOffset,
                path_);
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0)
    throw_io("ftruncate failed", path_);
}

void DurableAppendFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ppg
