#include "env/env.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/random.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

class EnvTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      env_owned_ = NewMemEnv();
      env_ = env_owned_.get();
      prefix_ = "envtest_";
    } else {
      env_ = Env::Posix();
      prefix_ = ::testing::TempDir() + "skyline_envtest_" +
                std::to_string(::getpid()) + "_";
    }
  }

  std::string Path(const std::string& name) { return prefix_ + name; }

  std::unique_ptr<Env> env_owned_;
  Env* env_ = nullptr;
  std::string prefix_;
};

TEST_P(EnvTest, WriteThenRead) {
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("a"), &w));
  ASSERT_OK(w->Append("hello", 5));
  ASSERT_OK(w->Append(" world", 6));
  EXPECT_EQ(w->Size(), 11u);
  ASSERT_OK(w->Close());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(env_->NewRandomAccessFile(Path("a"), &r));
  EXPECT_EQ(r->Size(), 11u);
  char buf[12] = {};
  ASSERT_OK(r->Read(0, 11, buf));
  EXPECT_STREQ(buf, "hello world");
}

TEST_P(EnvTest, ReadAtOffset) {
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("b"), &w));
  ASSERT_OK(w->Append("0123456789", 10));
  ASSERT_OK(w->Close());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(env_->NewRandomAccessFile(Path("b"), &r));
  char buf[4] = {};
  ASSERT_OK(r->Read(3, 3, buf));
  EXPECT_STREQ(buf, "345");
}

TEST_P(EnvTest, ReadPastEndIsOutOfRange) {
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("c"), &w));
  ASSERT_OK(w->Append("xy", 2));
  ASSERT_OK(w->Close());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(env_->NewRandomAccessFile(Path("c"), &r));
  char buf[8];
  EXPECT_TRUE(r->Read(0, 3, buf).IsOutOfRange());
  EXPECT_TRUE(r->Read(2, 1, buf).IsOutOfRange());
}

TEST_P(EnvTest, OpenMissingFileIsNotFound) {
  std::unique_ptr<RandomAccessFile> r;
  EXPECT_TRUE(env_->NewRandomAccessFile(Path("nope"), &r).IsNotFound());
}

TEST_P(EnvTest, FileExistsAndDelete) {
  EXPECT_FALSE(env_->FileExists(Path("d")));
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("d"), &w));
  ASSERT_OK(w->Close());
  EXPECT_TRUE(env_->FileExists(Path("d")));
  ASSERT_OK(env_->DeleteFile(Path("d")));
  EXPECT_FALSE(env_->FileExists(Path("d")));
  EXPECT_TRUE(env_->DeleteFile(Path("d")).IsNotFound());
}

TEST_P(EnvTest, FileSize) {
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("e"), &w));
  ASSERT_OK(w->Append("abcd", 4));
  ASSERT_OK(w->Close());
  ASSERT_OK_AND_ASSIGN(uint64_t size, env_->FileSize(Path("e")));
  EXPECT_EQ(size, 4u);
  EXPECT_TRUE(env_->FileSize(Path("missing")).status().IsNotFound());
}

TEST_P(EnvTest, TruncateOnRecreate) {
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_OK(w->Append("long content", 12));
  ASSERT_OK(w->Close());
  ASSERT_OK(env_->NewWritableFile(Path("f"), &w));
  ASSERT_OK(w->Append("hi", 2));
  ASSERT_OK(w->Close());
  ASSERT_OK_AND_ASSIGN(uint64_t size, env_->FileSize(Path("f")));
  EXPECT_EQ(size, 2u);
}

TEST_P(EnvTest, EmptyFile) {
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("g"), &w));
  ASSERT_OK(w->Close());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(env_->NewRandomAccessFile(Path("g"), &r));
  EXPECT_EQ(r->Size(), 0u);
}

TEST_P(EnvTest, CloseIsIdempotent) {
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("h"), &w));
  ASSERT_OK(w->Close());
  ASSERT_OK(w->Close());
}

TEST_P(EnvTest, LargeWrite) {
  std::string big(1 << 20, 'z');
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("i"), &w));
  ASSERT_OK(w->Append(big.data(), big.size()));
  ASSERT_OK(w->Close());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(env_->NewRandomAccessFile(Path("i"), &r));
  std::string back(big.size(), '\0');
  ASSERT_OK(r->Read(0, back.size(), back.data()));
  EXPECT_EQ(back, big);
  ASSERT_OK(env_->DeleteFile(Path("i")));
}

TEST_P(EnvTest, ManySmallAppendsReadBackThroughAnyReadPattern) {
  // Appends of odd sizes straddle every write-behind extent boundary.
  std::string data;
  Random rng(73);
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env_->NewWritableFile(Path("j"), &w));
  while (data.size() < 300 * 1024) {
    std::string piece(1 + rng.Uniform(300), '\0');
    for (char& c : piece) c = static_cast<char>(rng.Uniform(256));
    ASSERT_OK(w->Append(piece.data(), piece.size()));
    data += piece;
  }
  EXPECT_EQ(w->Size(), data.size());
  ASSERT_OK(w->Close());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(env_->NewRandomAccessFile(Path("j"), &r));
  ASSERT_EQ(r->Size(), data.size());
  r->Hint(RandomAccessFile::AccessPattern::kSequential, 0, 0);
  // Consecutive page reads, the last one short: the read-ahead path.
  std::string back(data.size(), '\0');
  for (size_t off = 0; off < data.size(); off += 4096) {
    const size_t n = std::min<size_t>(4096, data.size() - off);
    ASSERT_OK(r->Read(off, n, back.data() + off));
  }
  EXPECT_EQ(back, data);
  // Seeks, each followed by a few consecutive reads.
  for (int i = 0; i < 200; ++i) {
    uint64_t off = rng.Uniform(data.size());
    for (int step = 0; step < 3 && off < data.size(); ++step) {
      const size_t n = std::min<size_t>(1 + rng.Uniform(5000),
                                        data.size() - off);
      std::string got(n, '\0');
      ASSERT_OK(r->Read(off, n, got.data()));
      ASSERT_EQ(got, data.substr(off, n)) << "offset " << off;
      off += n;
    }
  }
  char past[2];
  EXPECT_TRUE(r->Read(data.size() - 1, 2, past).IsOutOfRange());
  ASSERT_OK(env_->DeleteFile(Path("j")));
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "MemEnv" : "PosixEnv";
                         });

TEST(MemEnv, IndependentNamespaces) {
  auto env1 = NewMemEnv();
  auto env2 = NewMemEnv();
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env1->NewWritableFile("x", &w));
  ASSERT_OK(w->Close());
  EXPECT_TRUE(env1->FileExists("x"));
  EXPECT_FALSE(env2->FileExists("x"));
}

TEST(MemEnv, OpenReaderSurvivesDelete) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(env->NewWritableFile("x", &w));
  ASSERT_OK(w->Append("data", 4));
  ASSERT_OK(w->Close());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(env->NewRandomAccessFile("x", &r));
  ASSERT_OK(env->DeleteFile("x"));
  char buf[4];
  EXPECT_OK(r->Read(0, 4, buf));
}

TEST(PosixEnv, WriteErrorSurfacesAtClose) {
  // /dev/full fails every write with ENOSPC; appends that fit the
  // write-behind buffer only reach it when Close flushes.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  std::unique_ptr<WritableFile> w;
  ASSERT_OK(Env::Posix()->NewWritableFile("/dev/full", &w));
  ASSERT_OK(w->Append("page", 4));
  Status closed = w->Close();
  EXPECT_TRUE(closed.IsIoError()) << closed.ToString();
  EXPECT_OK(w->Close());
}

TEST(Env, SingletonsAreStable) {
  EXPECT_EQ(Env::Memory(), Env::Memory());
  EXPECT_EQ(Env::Posix(), Env::Posix());
  EXPECT_NE(Env::Memory(), Env::Posix());
}

}  // namespace
}  // namespace skyline
