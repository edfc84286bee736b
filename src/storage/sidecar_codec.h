#ifndef SKYLINE_STORAGE_SIDECAR_CODEC_H_
#define SKYLINE_STORAGE_SIDECAR_CODEC_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/env.h"

namespace skyline {

/// Serialization shared by the checksummed sidecar formats (the column
/// file and the block index): little-endian scalars and vectors appended
/// to a byte string, an 8-byte magic up front and a trailing FNV-1a
/// checksum over everything before it.

inline uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
void PutScalar(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool GetScalar(const std::string& in, size_t* pos, T* out) {
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(out, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

template <typename T>
void PutVector(std::string* out, const std::vector<T>& v) {
  if (!v.empty()) {
    out->append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(T));
  }
}

template <typename T>
bool GetVector(const std::string& in, size_t* pos, size_t count,
               std::vector<T>* out) {
  const size_t bytes = count * sizeof(T);
  if (*pos + bytes > in.size()) return false;
  out->resize(count);
  if (bytes > 0) std::memcpy(out->data(), in.data() + *pos, bytes);
  *pos += bytes;
  return true;
}

/// Appends the checksum of `*out` and writes the whole buffer to `path`.
inline Status WriteSealedFile(Env* env, const std::string& path,
                              std::string* out) {
  PutScalar(out, Fnv1a(out->data(), out->size()));
  std::unique_ptr<WritableFile> file;
  SKYLINE_RETURN_IF_ERROR(env->NewWritableFile(path, &file));
  SKYLINE_RETURN_IF_ERROR(file->Append(out->data(), out->size()));
  return file->Close();
}

/// Reads `path` whole (hinted kWillNeed) into `*raw` and verifies the
/// trailing checksum, then the leading `magic`, before any structure is
/// trusted. Corruption errors read "<what> <path>: <reason>".
inline Status ReadSealedFile(Env* env, const std::string& path,
                             const char (&magic)[8], const char* what,
                             std::string* raw) {
  auto corrupt = [&](const char* reason) {
    return Status::Corruption(std::string(what) + " " + path + ": " + reason);
  };
  std::unique_ptr<RandomAccessFile> file;
  SKYLINE_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file));
  const uint64_t size = file->Size();
  if (size < sizeof(magic) + sizeof(uint64_t)) return corrupt("too small");
  file->Hint(RandomAccessFile::AccessPattern::kWillNeed, 0, size);
  raw->assign(size, '\0');
  SKYLINE_RETURN_IF_ERROR(file->Read(0, size, raw->data()));
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, raw->data() + size - sizeof(uint64_t),
              sizeof(uint64_t));
  if (Fnv1a(raw->data(), size - sizeof(uint64_t)) != stored_checksum) {
    return corrupt("checksum mismatch");
  }
  if (std::memcmp(raw->data(), magic, sizeof(magic)) != 0) {
    return corrupt("bad magic");
  }
  return Status::OK();
}

}  // namespace skyline

#endif  // SKYLINE_STORAGE_SIDECAR_CODEC_H_
