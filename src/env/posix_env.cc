#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/env.h"

namespace skyline {
namespace {

Status ErrnoStatus(const std::string& context) {
  return Status::IoError(context + ": " + std::strerror(errno));
}

/// Page I/O goes to the kernel in extents of this many bytes: appends are
/// buffered up to it, and sequential readers fetch this much at once. The
/// sorter holds one reader per merged run and key stream, so 64 KiB keeps
/// ~50 of them under one sort buffer.
constexpr size_t kExtentBytes = 64 * 1024;

Status WriteFully(int fd, const char* data, size_t size,
                  const std::string& path) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + path);
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PreadFully(int fd, uint64_t offset, size_t size, char* scratch,
                  const std::string& path) {
  while (size > 0) {
    ssize_t n = ::pread(fd, scratch, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread " + path);
    }
    if (n == 0) return Status::OutOfRange("unexpected EOF: " + path);
    scratch += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Write-behind file: appends collect in a kExtentBytes buffer that goes to
/// the kernel in one write when full and on Close, so a write error may
/// surface only at Close.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      (void)Flush();  // best effort, as an unbuffered file would have been
      ::close(fd_);
    }
  }

  Status Append(const char* data, size_t size) override {
    if (fd_ < 0) return Status::IoError("append to closed file: " + path_);
    size_ += size;
    if (buffer_.size() + size > kExtentBytes) {
      SKYLINE_RETURN_IF_ERROR(Flush());
      if (size >= kExtentBytes) return WriteFully(fd_, data, size, path_);
    }
    if (buffer_.capacity() < kExtentBytes) buffer_.reserve(kExtentBytes);
    buffer_.insert(buffer_.end(), data, data + size);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status flushed = Flush();
    const int rc = ::close(fd_);
    fd_ = -1;
    SKYLINE_RETURN_IF_ERROR(flushed);
    if (rc != 0) return ErrnoStatus("close " + path_);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  Status Flush() {
    if (buffer_.empty()) return Status::OK();
    Status st = WriteFully(fd_, buffer_.data(), buffer_.size(), path_);
    buffer_.clear();
    return st;
  }

  std::string path_;
  int fd_;
  uint64_t size_ = 0;
  std::vector<char> buffer_;
};

/// After a kSequential hint, a read that starts where the previous one
/// ended fetches a whole kExtentBytes extent and later reads inside it are
/// served from memory. A read anywhere else (a seek) is a single pread of
/// exactly what was asked, and only the next consecutive read starts a new
/// extent.
class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t size, char* scratch) const override {
    if (offset + size > size_) return Status::OutOfRange("read past EOF: " + path_);
    std::lock_guard<std::mutex> lock(mu_);
    if (sequential_ && size < kExtentBytes) {
      if (offset >= extent_start_ &&
          offset + size <= extent_start_ + extent_.size()) {
        std::memcpy(scratch, extent_.data() + (offset - extent_start_), size);
        next_offset_ = offset + size;
        return Status::OK();
      }
      if (offset == next_offset_) {
        const size_t len = static_cast<size_t>(
            std::min<uint64_t>(kExtentBytes, size_ - offset));
        extent_.resize(len);
        Status st = PreadFully(fd_, offset, len, extent_.data(), path_);
        if (!st.ok()) {
          extent_.clear();
          return st;
        }
        extent_start_ = offset;
        std::memcpy(scratch, extent_.data(), size);
        next_offset_ = offset + size;
        return Status::OK();
      }
      next_offset_ = offset + size;
    }
    return PreadFully(fd_, offset, size, scratch, path_);
  }

  uint64_t Size() const override { return size_; }

  void Hint(AccessPattern pattern, uint64_t offset,
            uint64_t size) const override {
    if (pattern == AccessPattern::kSequential) {
      std::lock_guard<std::mutex> lock(mu_);
      sequential_ = true;
      next_offset_ = offset;
    }
#if defined(POSIX_FADV_SEQUENTIAL)
    const int advice = pattern == AccessPattern::kSequential
                           ? POSIX_FADV_SEQUENTIAL
                           : POSIX_FADV_WILLNEED;
    // Advisory only; failure changes nothing observable.
    (void)::posix_fadvise(fd_, static_cast<off_t>(offset),
                          static_cast<off_t>(size), advice);
#else
    (void)offset;
    (void)size;
#endif
  }

 private:
  std::string path_;
  int fd_;
  uint64_t size_;
  // Read-ahead state; Read is const and may be called from any thread.
  mutable std::mutex mu_;
  mutable bool sequential_ = false;
  mutable uint64_t next_offset_ = 0;
  mutable uint64_t extent_start_ = 0;
  mutable std::vector<char> extent_;
};

class PosixEnv : public Env {
 public:
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) return ErrnoStatus("open for write " + path);
    *out = std::make_unique<PosixWritableFile>(path, fd);
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound(path);
      return ErrnoStatus("open for read " + path);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return ErrnoStatus("fstat " + path);
    }
    *out = std::make_unique<PosixRandomAccessFile>(
        path, fd, static_cast<uint64_t>(st.st_size));
    return Status::OK();
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound(path);
      return ErrnoStatus("unlink " + path);
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) const override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) const override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return Status::NotFound(path);
      return ErrnoStatus("stat " + path);
    }
    return static_cast<uint64_t>(st.st_size);
  }
};

}  // namespace

std::unique_ptr<Env> NewPosixEnv() { return std::make_unique<PosixEnv>(); }

}  // namespace skyline
