#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "workload/generator.h"

namespace dj::compress {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string block = CompressBlock(input);
  auto out = DecompressBlock(block, input.size());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out.value() : "";
}

TEST(DjlzTest, EmptyInput) { EXPECT_EQ(RoundTrip(""), ""); }

TEST(DjlzTest, TinyInput) { EXPECT_EQ(RoundTrip("abc"), "abc"); }

TEST(DjlzTest, RepetitiveTextCompressesWell) {
  std::string input;
  for (int i = 0; i < 200; ++i) input += "the quick brown fox ";
  std::string block = CompressBlock(input);
  EXPECT_LT(block.size(), input.size() / 5);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(DjlzTest, RunLengthViaOverlappingMatch) {
  std::string input(10000, 'a');
  std::string block = CompressBlock(input);
  EXPECT_LT(block.size(), 100u);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(DjlzTest, IncompressibleRandomBytesRoundTrip) {
  Rng rng(42);
  std::string input;
  for (int i = 0; i < 5000; ++i) {
    input.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(DjlzTest, BinaryWithEmbeddedNulls) {
  std::string input("a\0b\0\0c", 6);
  input += std::string(100, '\0');
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(DjlzTest, DecompressRejectsWrongExpectedSize) {
  std::string block = CompressBlock("hello world hello world");
  EXPECT_FALSE(DecompressBlock(block, 5).ok());
}

TEST(DjlzTest, DecompressRejectsTruncatedBlock) {
  std::string input;
  for (int i = 0; i < 50; ++i) input += "repeat me please ";
  std::string block = CompressBlock(input);
  std::string truncated = block.substr(0, block.size() / 2);
  EXPECT_FALSE(DecompressBlock(truncated, input.size()).ok());
}

TEST(DjlzFrameTest, FrameRoundTrip) {
  std::string input = "framed content framed content framed content";
  std::string frame = CompressFrame(input);
  EXPECT_TRUE(IsFrame(frame));
  auto out = DecompressFrame(frame);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), input);
}

TEST(DjlzFrameTest, DetectsCorruption) {
  std::string input(1000, 'z');
  std::string frame = CompressFrame(input);
  // Flip a byte in the payload.
  frame[frame.size() - 3] ^= 0x40;
  EXPECT_FALSE(DecompressFrame(frame).ok());
}

TEST(DjlzFrameTest, RejectsNonFrame) {
  EXPECT_FALSE(DecompressFrame("definitely not a frame").ok());
  EXPECT_FALSE(IsFrame("XXXX"));
}

TEST(DjlzFrameTest, RejectsWrongVersion) {
  std::string frame = CompressFrame("x");
  frame[4] = 99;
  EXPECT_FALSE(DecompressFrame(frame).ok());
}

// Property-style sweep: every corpus style round-trips and text compresses.
class DjlzCorpusTest : public ::testing::TestWithParam<workload::Style> {};

TEST_P(DjlzCorpusTest, CorpusRoundTripAndRatio) {
  workload::CorpusOptions options;
  options.style = GetParam();
  options.num_docs = 30;
  options.seed = 99;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  std::string all;
  for (size_t i = 0; i < ds.NumRows(); ++i) {
    all += ds.GetTextAt(i);
    all.push_back('\n');
  }
  std::string frame = CompressFrame(all);
  auto out = DecompressFrame(frame);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), all);
  // Natural-language corpora built from word banks compress well.
  EXPECT_LT(frame.size(), all.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStyles, DjlzCorpusTest,
    ::testing::Values(workload::Style::kWiki, workload::Style::kBooks,
                      workload::Style::kArxiv, workload::Style::kStackExchange,
                      workload::Style::kCode, workload::Style::kWeb,
                      workload::Style::kCrawl, workload::Style::kChinese),
    [](const ::testing::TestParamInfo<workload::Style>& info) {
      return workload::StyleName(info.param);
    });

// Random-content fuzz sweep at several sizes.
class DjlzRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DjlzRandomTest, MixedEntropyRoundTrip) {
  Rng rng(GetParam());
  std::string input;
  size_t target = 100 + rng.NextBelow(20000);
  while (input.size() < target) {
    if (rng.Bernoulli(0.5)) {
      // Compressible run.
      input.append(rng.NextBelow(50) + 4, static_cast<char>(rng.NextBelow(4) + 'a'));
    } else {
      for (int i = 0; i < 16; ++i) {
        input.push_back(static_cast<char>(rng.NextBelow(256)));
      }
    }
  }
  auto out = DecompressBlock(CompressBlock(input), input.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DjlzRandomTest, ::testing::Range(1, 13));

// Mixed text, runs and noise: every token shape (long literal runs, short
// and long matches, overlapping runs) appears in each block.
std::string MixedInput(uint64_t seed, size_t size) {
  Rng rng(seed);
  std::string input;
  while (input.size() < size) {
    switch (rng.NextBelow(3)) {
      case 0:
        input.append(rng.NextBelow(300) + 4,
                     static_cast<char>('a' + rng.NextBelow(3)));
        break;
      case 1:
        input += "{\"text\": \"the quick brown fox\", \"id\": ";
        input += std::to_string(rng.NextBelow(100000));
        input += "}\n";
        break;
      default:
        for (int i = 0; i < 40; ++i) {
          input.push_back(static_cast<char>(rng.NextBelow(256)));
        }
    }
  }
  input.resize(size);
  return input;
}

TEST(DjlzTest, DecompressIntoExactSlot) {
  const std::string input = MixedInput(5, 70000);
  const std::string block = CompressBlock(input);
  std::unique_ptr<char[]> slot(new char[input.size()]);
  ASSERT_TRUE(DecompressBlockInto(block, slot.get(), input.size()).ok());
  EXPECT_EQ(std::string(slot.get(), input.size()), input);
  // One byte short or long is a size mismatch, never a write past the slot.
  std::unique_ptr<char[]> short_slot(new char[input.size() - 1]);
  EXPECT_EQ(DecompressBlockInto(block, short_slot.get(), input.size() - 1)
                .code(),
            StatusCode::kCorruption);
  std::unique_ptr<char[]> long_slot(new char[input.size() + 1]);
  EXPECT_EQ(
      DecompressBlockInto(block, long_slot.get(), input.size() + 1).code(),
      StatusCode::kCorruption);
  EXPECT_TRUE(DecompressBlockInto(CompressBlock(""), nullptr, 0).ok());
}

// Seeded mutation sweep over raw blocks. Each corrupted block decodes into
// a heap buffer of exactly the slot size, so under ASan any write past the
// slot is a reported overflow. A mutated block has no checksum, so it may
// still decode (to other bytes); what it may not do is crash or overrun.
TEST(DjlzTest, MutatedBlocksNeverWritePastTheirSlot) {
  Rng rng(1019);
  for (int round = 0; round < 40; ++round) {
    const std::string input =
        MixedInput(round, 200 + rng.NextBelow(6000));
    const std::string block = CompressBlock(input);
    for (int m = 0; m < 60; ++m) {
      std::string bad = block;
      switch (rng.NextBelow(4)) {
        case 0:  // flip one byte
          bad[rng.NextBelow(bad.size())] ^=
              static_cast<char>(1 + rng.NextBelow(255));
          break;
        case 1:  // truncate
          bad.resize(rng.NextBelow(bad.size()));
          break;
        case 2:  // overwrite a byte with a length-extension value
          bad[rng.NextBelow(bad.size())] = static_cast<char>(
              rng.Bernoulli(0.5) ? 0xFF : 0xF0 | rng.NextBelow(16));
          break;
        default:  // splice in random bytes
          bad.insert(rng.NextBelow(bad.size() + 1), 1 + rng.NextBelow(8),
                     static_cast<char>(rng.NextBelow(256)));
      }
      const size_t size =
          rng.Bernoulli(0.8) ? input.size() : rng.NextBelow(input.size() + 64);
      std::unique_ptr<char[]> slot(new char[size == 0 ? 1 : size]);
      const Status s = DecompressBlockInto(bad, slot.get(), size);
      ASSERT_TRUE(s.ok() || s.code() == StatusCode::kCorruption)
          << s.ToString();
    }
  }
}

// The same sweep over whole frames: the per-block checksums and the header
// bounds must turn every mutation into Corruption.
TEST(DjlzFrameTest, EveryMutatedFrameIsCorruption) {
  Rng rng(2024);
  ThreadPool pool(3);
  const std::string input = MixedInput(11, 2 * kFrameBlockSize + 12345);
  const std::string frame = CompressFrame(input, &pool);
  for (int m = 0; m < 300; ++m) {
    std::string bad = frame;
    // Header and block table are hit as often as the payload.
    const size_t at = rng.Bernoulli(0.5) ? rng.NextBelow(21 + 3 * 16)
                                         : rng.NextBelow(bad.size());
    if (rng.Bernoulli(0.8)) {
      bad[at] ^= static_cast<char>(1 + rng.NextBelow(255));
    } else {
      bad.resize(at);
    }
    auto out = DecompressFrame(bad, rng.Bernoulli(0.5) ? &pool : nullptr);
    ASSERT_FALSE(out.ok()) << "mutation " << m << " at byte " << at;
    ASSERT_EQ(out.status().code(), StatusCode::kCorruption)
        << out.status().ToString();
  }
}

TEST(DjlzFrameTest, ForgedRawSizeIsRejectedBeforeAllocating) {
  std::string frame = CompressFrame("tiny");
  // Claim 2^40 raw bytes: the block count check rejects it first...
  std::string forged = frame;
  forged[5 + 5] = 1;
  EXPECT_EQ(DecompressFrame(forged).status().code(), StatusCode::kCorruption);
  // ...and a raw size consistent with the block count but far beyond what a
  // 5-byte block can expand to is rejected by the expansion bound, before
  // the output is sized from it.
  forged = frame;
  const uint64_t raw = kFrameBlockSize;
  for (int i = 0; i < 8; ++i) {
    forged[5 + i] = static_cast<char>((raw >> (8 * i)) & 0xFF);
  }
  auto out = DecompressFrame(forged);
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
  EXPECT_NE(out.status().message().find("too short for its raw size"),
            std::string::npos)
      << out.status().ToString();
}

TEST(DjlzFrameTest, PooledDecodeEqualsSerialDecode) {
  ThreadPool pool(4);
  for (size_t size : {size_t{0}, size_t{1}, kFrameBlockSize - 1,
                      kFrameBlockSize, kFrameBlockSize + 1,
                      3 * kFrameBlockSize + 777}) {
    const std::string input = MixedInput(size, size);
    const std::string frame = CompressFrame(input, &pool);
    ASSERT_EQ(frame, CompressFrame(input));
    auto serial = DecompressFrame(frame);
    auto pooled = DecompressFrame(frame, &pool);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    EXPECT_EQ(serial.value(), input) << "size " << size;
    EXPECT_EQ(pooled.value(), input) << "size " << size;
  }
}

}  // namespace
}  // namespace dj::compress
