#include "server/protocol.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <sys/socket.h>
#include <sys/uio.h>

namespace skyline {
namespace {

/// recv() the full `count`, looping over short reads and EINTR. Returns
/// the bytes read — short only at end-of-stream.
Result<size_t> ReadFull(int fd, char* buffer, size_t count) {
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::recv(fd, buffer + done, count - done, 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + ::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return done;
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, uint32_t max_bytes) {
  unsigned char prefix[4];
  SKYLINE_ASSIGN_OR_RETURN(
      size_t got, ReadFull(fd, reinterpret_cast<char*>(prefix), sizeof(prefix)));
  if (got == 0) return Status::NotFound("peer closed the connection");
  if (got < sizeof(prefix)) {
    return Status::IoError("connection closed mid-frame (length prefix)");
  }
  const uint32_t length = (static_cast<uint32_t>(prefix[0]) << 24) |
                          (static_cast<uint32_t>(prefix[1]) << 16) |
                          (static_cast<uint32_t>(prefix[2]) << 8) |
                          static_cast<uint32_t>(prefix[3]);
  if (length > max_bytes) {
    return Status::IoError("frame of " + std::to_string(length) +
                           " bytes exceeds the " + std::to_string(max_bytes) +
                           "-byte limit");
  }
  payload->resize(length);
  if (length > 0) {
    SKYLINE_ASSIGN_OR_RETURN(got, ReadFull(fd, payload->data(), length));
    if (got < length) {
      return Status::IoError("connection closed mid-frame (payload)");
    }
  }
  return Status::OK();
}

Status WriteFrame(int fd, const std::string& payload, uint32_t max_bytes) {
  if (payload.size() > max_bytes) {
    return Status::ResourceExhausted(
        "response of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(max_bytes) +
        "-byte frame limit");
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  unsigned char prefix[4] = {static_cast<unsigned char>(length >> 24),
                             static_cast<unsigned char>(length >> 16),
                             static_cast<unsigned char>(length >> 8),
                             static_cast<unsigned char>(length)};
  // The prefix and the payload leave in one sendmsg: sent as two sends,
  // Nagle holds the payload until the peer ACKs the 4-byte prefix, and a
  // delayed ACK makes that wait 40+ ms on every small frame. The iovecs
  // point at the caller's payload, so nothing is copied.
  iovec iov[2] = {{prefix, sizeof(prefix)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL (which writev cannot take): a peer that vanished
    // mid-response must surface as EPIPE, not kill the process with
    // SIGPIPE.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + ::strerror(errno));
    }
    // Resume a short send at the first unsent byte.
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

}  // namespace skyline
