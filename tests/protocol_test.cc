#include "server/protocol.h"

#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

// Frame-level tests over a local socketpair: round trips through tiny
// socket buffers, sends cut short by signals, a vanished peer, and the
// oversized-payload refusal.

/// A connected AF_UNIX stream pair; both ends closed on destruction.
class SocketPair {
 public:
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      fds_[0] = fds_[1] = -1;
    }
  }
  ~SocketPair() {
    CloseReader();
    if (fds_[0] >= 0) ::close(fds_[0]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  /// Shrinks both ends' kernel buffers so a multi-MiB frame needs many
  /// blocking rounds to get through.
  void ShrinkBuffers() {
    const int small = 4096;
    ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  }
  void CloseReader() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

  int writer() const { return fds_[0]; }
  int reader() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

/// `size` bytes of a non-repeating-looking pattern, so a byte dropped or
/// repeated at a resume point shows as a mismatch.
std::string Pattern(size_t size) {
  std::string bytes(size, '\0');
  uint32_t state = 2463534242u;
  for (char& byte : bytes) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    byte = static_cast<char>(state);
  }
  return bytes;
}

TEST(ProtocolTest, LargeAndEmptyFramesSurviveSmallSendBuffer) {
  SocketPair pair;
  ASSERT_GE(pair.writer(), 0);
  pair.ShrinkBuffers();
  const std::string big = Pattern(3 * 1024 * 1024 + 7);
  Status write_status;
  std::thread writer([&] {
    write_status = WriteFrame(pair.writer(), big);
    if (write_status.ok()) write_status = WriteFrame(pair.writer(), "");
    if (write_status.ok()) write_status = WriteFrame(pair.writer(), "tail");
    ::shutdown(pair.writer(), SHUT_WR);  // a failed write ends the reads
  });
  std::string got_big;
  std::string got_empty = "not empty";
  std::string got_tail;
  const Status read_big = ReadFrame(pair.reader(), &got_big);
  const Status read_empty = ReadFrame(pair.reader(), &got_empty);
  const Status read_tail = ReadFrame(pair.reader(), &got_tail);
  writer.join();
  ASSERT_OK(write_status);
  ASSERT_OK(read_big);
  EXPECT_TRUE(got_big == big) << "multi-MiB frame came back altered";
  ASSERT_OK(read_empty);
  EXPECT_EQ(got_empty, "");
  ASSERT_OK(read_tail);
  EXPECT_EQ(got_tail, "tail");
}

std::atomic<int> g_interrupts{0};
void CountInterrupt(int) {
  g_interrupts.fetch_add(1, std::memory_order_relaxed);
}

TEST(ProtocolTest, InterruptedSendsResumeAtTheRightByte) {
  // A signal that lands while sendmsg waits for buffer space makes it
  // return short (or fail with EINTR when nothing went out yet), so the
  // writer must resume at the first unsent byte.
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = CountInterrupt;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: an interrupted send returns
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  g_interrupts.store(0);

  SocketPair pair;
  ASSERT_GE(pair.writer(), 0);
  pair.ShrinkBuffers();
  const std::string payload = Pattern(2 * 1024 * 1024 + 3);
  std::string expected(4, '\0');
  const uint32_t length = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    expected[i] = static_cast<char>(length >> (24 - 8 * i));
  }
  expected += payload;

  Status write_status;
  std::thread writer([&] {
    write_status = WriteFrame(pair.writer(), payload);
    ::shutdown(pair.writer(), SHUT_WR);  // a failed write ends the reads
  });
  // Read the raw stream in small pieces and interrupt the writer after
  // each one, while it is mostly blocked on the full buffer.
  std::string got;
  char chunk[1024];
  while (true) {
    const ssize_t n = ::recv(pair.reader(), chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got.append(chunk, static_cast<size_t>(n));
    ::pthread_kill(writer.native_handle(), SIGUSR1);
  }
  writer.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);
  ASSERT_OK(write_status);
  EXPECT_GT(g_interrupts.load(), 0);
  EXPECT_TRUE(got == expected) << "frame bytes differ on the wire";
}

TEST(ProtocolTest, WriteToClosedPeerIsIoErrorNotSigpipe) {
  // With SIGPIPE at its default action, a plain send to a closed peer
  // would kill this process; WriteFrame must report it instead.
  struct sigaction default_action {};
  struct sigaction previous {};
  default_action.sa_handler = SIG_DFL;
  sigemptyset(&default_action.sa_mask);
  ASSERT_EQ(::sigaction(SIGPIPE, &default_action, &previous), 0);
  SocketPair pair;
  ASSERT_GE(pair.writer(), 0);
  pair.CloseReader();
  const Status status = WriteFrame(pair.writer(), "{\"op\": \"ping\"}");
  ASSERT_EQ(::sigaction(SIGPIPE, &previous, nullptr), 0);
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
}

TEST(ProtocolTest, OversizedPayloadIsRefusedBeforeSending) {
  SocketPair pair;
  ASSERT_GE(pair.writer(), 0);
  const Status status =
      WriteFrame(pair.writer(), std::string(100, 'x'), /*max_bytes=*/99);
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_NE(status.message().find("100 bytes"), std::string::npos);
  EXPECT_NE(status.message().find("99-byte"), std::string::npos);
  // Nothing of the refused frame went out: the next frame reads cleanly.
  ASSERT_OK(WriteFrame(pair.writer(), "next"));
  std::string got;
  ASSERT_OK(ReadFrame(pair.reader(), &got));
  EXPECT_EQ(got, "next");
}

}  // namespace
}  // namespace skyline
