// Tests for the parallel data plane: chunked JSONL parse/serialize, the
// sharded DJDS v3 container, and the block-parallel djlz frame. The central
// property throughout is determinism — a pool must never change the bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/swar.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "data/dataset.h"
#include "data/io.h"
#include "fault/fault.h"
#include "json/value.h"
#include "test_sha256.h"

namespace dj::data {
namespace {

using test_util::Sha256Hex;

/// Random dataset with mixed cell types (nulls, bools, ints, doubles,
/// strings, nested arrays/objects) across `cols` columns.
Dataset RandomDataset(Rng* rng, size_t rows, size_t cols) {
  Dataset ds;
  for (size_t r = 0; r < rows; ++r) {
    json::Object fields;
    for (size_t c = 0; c < cols; ++c) {
      std::string name = "col" + std::to_string(c);
      switch (rng->NextBelow(7)) {
        case 0:
          fields.Set(name, json::Value(nullptr));
          break;
        case 1:
          fields.Set(name, json::Value(rng->NextBelow(2) == 0));
          break;
        case 2:
          fields.Set(name, json::Value(static_cast<int64_t>(rng->Next())));
          break;
        case 3:
          fields.Set(name, json::Value(rng->NextDouble() * 1e6));
          break;
        case 4: {
          std::string s;
          size_t len = rng->NextBelow(40);
          for (size_t i = 0; i < len; ++i) {
            s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
          }
          fields.Set(name, json::Value(std::move(s)));
          break;
        }
        case 5: {
          json::Array arr;
          size_t len = rng->NextBelow(5);
          for (size_t i = 0; i < len; ++i) {
            arr.push_back(json::Value(static_cast<int64_t>(rng->NextBelow(100))));
          }
          fields.Set(name, json::Value(std::move(arr)));
          break;
        }
        default: {
          json::Object nested;
          nested.Set("k", json::Value(static_cast<int64_t>(rng->NextBelow(10))));
          fields.Set(name, json::Value(std::move(nested)));
          break;
        }
      }
    }
    ds.AppendSample(Sample(std::move(fields)));
  }
  return ds;
}

/// Canonical byte form for dataset equality: a single-shard blob depends
/// only on the dataset, nulls and column order included.
std::string Fingerprint(const Dataset& ds) {
  return SerializeDataset(ds, nullptr, /*num_shards=*/1);
}

// ------------------------------------------------------------ DJDS v3 ----

TEST(DjdsV2Test, RoundTripRandomDatasetsAcrossShardCounts) {
  Rng rng(7);
  ThreadPool pool(4);
  for (size_t rows : {0u, 1u, 2u, 17u, 100u, 1000u}) {
    Dataset ds = RandomDataset(&rng, rows, 4);
    for (size_t shards : {0u, 1u, 2u, 3u, 7u, 64u}) {
      std::string blob = SerializeDataset(ds, nullptr, shards);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        auto back = DeserializeDataset(blob, p);
        ASSERT_TRUE(back.ok()) << back.status().ToString()
                               << " rows=" << rows << " shards=" << shards;
        EXPECT_EQ(Fingerprint(back.value()), Fingerprint(ds));
        EXPECT_EQ(back.value().ColumnNames(), ds.ColumnNames());
      }
    }
  }
}

TEST(DjdsV2Test, SerialAndParallelSerializationAreByteIdentical) {
  Rng rng(11);
  Dataset ds = RandomDataset(&rng, 5000, 3);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::string serial = SerializeDataset(ds);
  EXPECT_EQ(SerializeDataset(ds, &pool2), serial);
  EXPECT_EQ(SerializeDataset(ds, &pool8), serial);
  // Explicit shard counts are deterministic too.
  EXPECT_EQ(SerializeDataset(ds, &pool8, 5), SerializeDataset(ds, nullptr, 5));
}

TEST(DjdsV2Test, AutoShardCountScalesWithRows) {
  Rng rng(13);
  // 5000 rows => 3 shards at 2048 rows/shard; verify multi-shard layout by
  // deserializing and comparing, and that 1-row stays single-shard.
  Dataset big = RandomDataset(&rng, 5000, 2);
  std::string blob = SerializeDataset(big);
  auto back = DeserializeDataset(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Fingerprint(back.value()), Fingerprint(big));
  // The auto shard count really split it: the bytes differ from the
  // single-shard container of the same dataset.
  EXPECT_NE(blob, Fingerprint(big));
}

TEST(DjdsV2Test, EmptyDatasetRoundTrips) {
  Dataset empty;
  std::string blob = SerializeDataset(empty);
  auto back = DeserializeDataset(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 0u);
  EXPECT_EQ(back.value().NumColumns(), 0u);
}

TEST(DjdsV2Test, RejectsTruncation) {
  Rng rng(19);
  Dataset ds = RandomDataset(&rng, 300, 2);
  std::string blob = SerializeDataset(ds, nullptr, 4);
  // Every strict prefix must fail cleanly (never crash or mis-decode).
  for (size_t len : std::vector<size_t>{0, 3, 5, 8, blob.size() / 4,
                                        blob.size() / 2, blob.size() - 1}) {
    auto r = DeserializeDataset(blob.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(DjdsV2Test, RejectsCorruptShardTableAndPayload) {
  Rng rng(23);
  Dataset ds = RandomDataset(&rng, 300, 2);
  std::string blob = SerializeDataset(ds, nullptr, 4);
  // Flip one byte at a time across header, shard table, and payloads: the
  // result must either fail or decode to the original fingerprint (a flip
  // in serialization slack could be benign, but silent wrong data is not).
  std::string want = Fingerprint(ds);
  for (size_t i = 5; i < blob.size(); i += 7) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    auto r = DeserializeDataset(bad);
    if (r.ok()) {
      EXPECT_EQ(Fingerprint(r.value()), want) << "flip at " << i;
    }
  }
}

TEST(DjdsV2Test, RejectsOverflowingVarintLengths) {
  // Header claiming a gigantic column-name length must fail without
  // allocating (the old `*pos + len` check could wrap past the size).
  std::string blob("DJDS", 4);
  blob.push_back(3);             // v3
  blob.push_back(1);             // num_rows = 1
  blob.push_back(1);             // num_cols = 1
  for (int i = 0; i < 9; ++i) blob.push_back('\xFF');
  blob.push_back(1);             // 10-byte varint ~ 2^63
  auto r = DeserializeDataset(blob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "truncated column name");
}

TEST(DjdsV2Test, RejectsRowCountBeyondPayload) {
  // A well-formed, correctly checksummed v3 header that claims 2^40 rows
  // over a one-byte payload must fail cleanly, not try to allocate them.
  auto varint = [](uint64_t v, std::string* out) {
    for (; v >= 0x80; v >>= 7) out->push_back(static_cast<char>(v | 0x80));
    out->push_back(static_cast<char>(v));
  };
  auto u64 = [](uint64_t v, std::string* out) {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  const std::string payload(1, '\0');  // one null cell
  const uint64_t rows = uint64_t{1} << 40;
  std::string blob("DJDS", 4);
  blob.push_back(3);
  varint(rows, &blob);
  varint(1, &blob);  // one column, named "a"
  varint(1, &blob);
  blob.push_back('a');
  varint(1, &blob);  // one shard holding every row
  varint(rows, &blob);
  varint(payload.size(), &blob);
  u64(swar::Hash64(payload), &blob);
  u64(swar::Hash64(blob), &blob);
  blob += payload;
  auto r = DeserializeDataset(blob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(DjdsV2Test, RetiredAndUnknownVersionsAreRejected) {
  // Only version 3 is read. A blob stamped 1 or 2 (retired generations) or
  // 4 (not yet defined) is Corruption, whatever follows the version byte.
  Rng rng(29);
  const std::string blob = SerializeDataset(RandomDataset(&rng, 50, 2));
  ThreadPool pool(2);
  for (char version : {1, 2, 4}) {
    std::string bad = blob;
    bad[4] = version;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto r = DeserializeDataset(bad, p);
      ASSERT_FALSE(r.ok()) << "version " << int{version};
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
      EXPECT_EQ(r.status().message(), "unsupported DJDS version");
    }
  }
}

// ----------------------------------------------------- DJDS v3 golden ----

TEST(DjdsGoldenTest, Sha256MatchesKnownVectors) {
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

/// Deterministic dataset touching every DJDS value tag: null, both bools,
/// negative / extreme ints, doubles, empty / 1-byte-varint / 3-byte-varint
/// strings, and nested arrays and objects. Columns first appear at
/// different rows and are absent from most rows, so cells are null-padded
/// both by backfill and by omission.
Dataset GoldenDataset(size_t rows) {
  Dataset ds;
  for (size_t r = 0; r < rows; ++r) {
    const int64_t ri = static_cast<int64_t>(r);
    json::Object fields;
    fields.Set("id", json::Value(ri * 7919 - 1000));
    if (r % 3 == 0) {
      std::string text;
      if (r % 97 == 0) {
        text.assign(20000 + r % 7, 'x');  // 3-byte length varint
      } else if (r % 11 != 0) {           // every 11th: empty string
        for (size_t i = 0; i < (r * 37) % 300; ++i) {
          text.push_back(static_cast<char>('a' + (r + i) % 26));
        }
      }
      fields.Set("text", json::Value(std::move(text)));
    }
    if (r % 5 == 1) fields.Set("flag", json::Value(r % 2 == 0));
    fields.Set("num", json::Value(r % 13 == 0 ? 1e300 * (r % 2 ? -1 : 1)
                                              : static_cast<double>(ri) * 0.25 -
                                                    3.5));
    if (r % 4 == 2) {
      fields.Set("big", json::Value(r % 8 == 2
                                        ? std::numeric_limits<int64_t>::min()
                                        : std::numeric_limits<int64_t>::max()));
    }
    if (r % 7 == 3) {
      json::Array inner;
      inner.push_back(json::Value(true));
      inner.push_back(json::Value(-ri));
      json::Array arr;
      arr.push_back(json::Value(static_cast<int64_t>(1)));
      arr.push_back(json::Value("x"));
      arr.push_back(json::Value(nullptr));
      arr.push_back(json::Value(std::move(inner)));
      json::Object nested;
      nested.Set("k", json::Value(ri));
      json::Object meta;
      meta.Set("arr", json::Value(std::move(arr)));
      meta.Set("nested", json::Value(std::move(nested)));
      meta.Set("empty_obj", json::Value(json::Object()));
      meta.Set("empty_arr", json::Value(json::Array()));
      fields.Set("meta", json::Value(std::move(meta)));
    }
    if (r % 6 == 5) fields.Set("nullcol", json::Value(nullptr));
    ds.AppendSample(Sample(std::move(fields)));
  }
  return ds;
}

// Digests recorded from the pre-rewrite serializer (payload strings
// gathered behind the header). Any change here is an on-disk format change.
TEST(DjdsGoldenTest, SerializedBytesMatchRecordedDigests) {
  auto zero_rows_with_columns = Dataset::FromColumns(
      {"text", "meta"}, {std::vector<json::Value>{},
                         std::vector<json::Value>{}});
  ASSERT_TRUE(zero_rows_with_columns.ok());
  const Dataset g5 = GoldenDataset(5);
  const Dataset g1000 = GoldenDataset(1000);
  const Dataset g5000 = GoldenDataset(5000);
  struct Case {
    const char* name;
    const Dataset* ds;
    size_t shards;
    const char* sha256;
  };
  const Dataset empty;
  const Case cases[] = {
      {"empty", &empty, 0,
       "e35d71b1af6b87ae02d0b70b93a3345cef966705cb9e322606338b229e670efc"},
      {"zero_rows_with_columns", &zero_rows_with_columns.value(), 0,
       "21c8c6fb52c1c5722324d3176843c40abb9d5acd59c5a742d97b824da07be57c"},
      {"rows5_auto", &g5, 0,
       "8f18a6706db533905c8b305b8b7bf8c85bf3ab097a19aa3ed01de7c09707e431"},
      {"rows5_shards64", &g5, 64,
       "608aceb3155b915a616e8fcd418812a3fd26bbebfba561de3430ea81246a4f30"},
      {"rows1000_shards1", &g1000, 1,
       "803050b36fb1f6f63070d4c1df03af48be8b0ada458f1cf380e9413ab9e58f52"},
      {"rows1000_shards3", &g1000, 3,
       "b21f51c5dfaf429da96997d4a5fbb82fab7d93bdf4ddd75f9dfde5dffb6a3ac2"},
      {"rows1000_shards7", &g1000, 7,
       "30ddd65d38c317bb5ce01f9205b3cc6b208983d5299aa87c54641706a0d268f3"},
      {"rows5000_auto", &g5000, 0,
       "4fe0c5e5ab88b07741129c3a148823da61b96030371ae0ba5c6385f3aa9bfe27"},
      {"rows5000_shards64", &g5000, 64,
       "53d8290970e5e7bad545c6c91b96862fd2eedaa0fcd4693367e8c4bf63c7e866"},
  };
  ThreadPool pool(4);
  for (const Case& c : cases) {
    const std::string serial = SerializeDataset(*c.ds, nullptr, c.shards);
    EXPECT_EQ(Sha256Hex(serial), c.sha256) << c.name;
    EXPECT_EQ(SerializeDataset(*c.ds, &pool, c.shards), serial) << c.name;
    auto back = DeserializeDataset(serial, &pool);
    ASSERT_TRUE(back.ok()) << c.name << ": " << back.status().ToString();
    EXPECT_EQ(Fingerprint(back.value()), Fingerprint(*c.ds)) << c.name;
  }
}

// ---------------------------------------------------------- JSONL plane --

std::string MakeJsonl(Rng* rng, size_t rows) {
  Dataset ds = RandomDataset(rng, rows, 3);
  return ToJsonl(ds);
}

TEST(ParallelJsonlTest, ParallelParseMatchesSerial) {
  Rng rng(29);
  // Large enough to clear the parallel threshold (64 KiB).
  std::string content = MakeJsonl(&rng, 4000);
  ASSERT_GT(content.size(), 1u << 16);
  ThreadPool pool(4);
  auto serial = ParseJsonl(content);
  auto parallel = ParseJsonl(content, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Fingerprint(parallel.value()), Fingerprint(serial.value()));
  EXPECT_EQ(parallel.value().ColumnNames(), serial.value().ColumnNames());
  // Determinism end-to-end: re-serializing the parallel parse reproduces
  // the input bytes exactly.
  EXPECT_EQ(ToJsonl(parallel.value(), &pool), content);
}

TEST(ParallelJsonlTest, ParallelToJsonlIsByteIdentical) {
  Rng rng(31);
  Dataset ds = RandomDataset(&rng, 3000, 3);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::string serial = ToJsonl(ds);
  EXPECT_EQ(ToJsonl(ds, &pool2), serial);
  EXPECT_EQ(ToJsonl(ds, &pool8), serial);
}

TEST(ParallelJsonlTest, ErrorLineNumbersMatchSerial) {
  Rng rng(37);
  std::string content = MakeJsonl(&rng, 4000);
  // Break a line deep in the buffer so several chunks precede it.
  size_t line_start = 0;
  size_t lineno = 0;
  size_t target_line = 3456;
  for (size_t i = 0; i < content.size() && lineno + 1 < target_line; ++i) {
    if (content[i] == '\n') {
      ++lineno;
      line_start = i + 1;
    }
  }
  content[line_start] = '[';  // no longer an object
  ThreadPool pool(4);
  auto serial = ParseJsonl(content);
  auto parallel = ParseJsonl(content, &pool);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().message(), serial.status().message());
  EXPECT_NE(serial.status().message().find(std::to_string(target_line)),
            std::string::npos)
      << serial.status().message();
}

/// The 1-based number of the line starting at byte `at`.
size_t LineNumberAt(const std::string& content, size_t at) {
  return static_cast<size_t>(
             std::count(content.begin(), content.begin() + at, '\n')) +
         1;
}

/// Breaks the line starting at `at` (it stops being an object) and checks
/// that serial and pooled parses reject it with the same message, naming
/// that line.
void ExpectSameErrorLine(std::string content, size_t at, ThreadPool* pool) {
  content[at] = '[';
  auto serial = ParseJsonl(content);
  auto pooled = ParseJsonl(content, pool);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().message(), serial.status().message());
  const std::string want =
      "jsonl line " + std::to_string(LineNumberAt(content, at)) + ":";
  EXPECT_EQ(serial.status().message().rfind(want, 0), 0u)
      << serial.status().message() << " (want " << want << ")";
}

TEST(ParallelJsonlTest, ErrorLinesMatchSerialAtChunkBoundaries) {
  Rng rng(61);
  // Every other line blank, so chunk cuts also land next to empty lines.
  std::string dense = MakeJsonl(&rng, 3000);
  std::string content;
  for (char c : dense) {
    content.push_back(c);
    if (c == '\n') content += "  \n";
  }
  ASSERT_GT(content.size(), 1u << 16);
  ThreadPool pool(4);
  // Chunks are cut right after the first newline at or past each quarter.
  for (size_t i = 1; i < 4; ++i) {
    const size_t cut = content.find('\n', content.size() * i / 4) + 1;
    // First line of the chunk (may be blank: then the next object line).
    const size_t next_object = content.find('{', cut);
    ExpectSameErrorLine(content, next_object, &pool);
    // Last object line of the chunk before.
    const size_t prev_object = content.rfind('{', cut - 1);
    ExpectSameErrorLine(content, prev_object, &pool);
  }
  // Errors in two chunks: the earlier one wins, as in the serial parse.
  std::string twice = content;
  const size_t late = twice.find('{', twice.find('\n', twice.size() * 3 / 4));
  twice[late] = '[';
  ExpectSameErrorLine(twice, twice.find('{', twice.size() / 3), &pool);
}

TEST(ParallelJsonlTest, WriteJsonlStreamsPartsAndKeepsFaultSemantics) {
  Rng rng(67);
  Dataset ds = RandomDataset(&rng, 3000, 3);
  const std::string want = ToJsonl(ds);
  const std::string path = ::testing::TempDir() + "/dj_write_jsonl.jsonl";
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ASSERT_TRUE(WriteJsonl(ds, path, p).ok());
    auto back = ReadFile(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), want);
    {
      // A torn write keeps exactly the first 2/3 of the whole text, even
      // though it spans several parts.
      fault::ScopedFaults faults("io.write.short=always");
      ASSERT_TRUE(faults.status().ok());
      ASSERT_TRUE(WriteJsonl(ds, path, p).ok());
    }
    auto torn = ReadFile(path);
    ASSERT_TRUE(torn.ok());
    EXPECT_EQ(torn.value(), want.substr(0, want.size() * 2 / 3));
    {
      fault::ScopedFaults faults("io.write.fail=always");
      ASSERT_TRUE(faults.status().ok());
      Status s = WriteJsonl(ds, path, p);
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.code(), StatusCode::kIoError);
    }
  }
}

TEST(ParallelJsonlTest, WhitespaceOnlyLinesAndMissingTrailingNewline) {
  std::string content = "{\"a\": 1}\n\n   \n{\"a\": 2}";
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto r = ParseJsonl(content, p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().NumRows(), 2u);
  }
}

// ------------------------------------------------------------ djlz v3 ----

TEST(DjlzBlockParallelTest, MultiBlockFrameRoundTrips) {
  Rng rng(41);
  // ~3.5 MiB => 4 blocks at 1 MiB each.
  std::string input;
  input.reserve(3'500'000);
  while (input.size() < 3'500'000) {
    input += "block parallel frame content ";
    input.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  ThreadPool pool(4);
  std::string serial_frame = compress::CompressFrame(input);
  std::string parallel_frame = compress::CompressFrame(input, &pool);
  EXPECT_EQ(parallel_frame, serial_frame);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto out = compress::DecompressFrame(serial_frame, p);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), input);
  }
}

TEST(DjlzBlockParallelTest, DetectsCorruptionInAnyBlock) {
  std::string input(3 * (1u << 20) + 100, 'q');
  std::string frame = compress::CompressFrame(input);
  // One flip per region: header, block table, first/middle/last payload.
  for (size_t i : std::vector<size_t>{5, 25, 80, frame.size() / 2,
                                      frame.size() - 2}) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    auto r = compress::DecompressFrame(bad);
    if (r.ok()) {
      EXPECT_EQ(r.value(), input) << "flip at " << i;
    }
  }
  // Payload flips specifically must be caught by the per-block checksums;
  // the compress.frame.corrupt fail point injects exactly that flip.
  fault::ScopedFaults faults("compress.frame.corrupt=always");
  ASSERT_TRUE(faults.status().ok());
  EXPECT_FALSE(compress::DecompressFrame(frame).ok());
}

TEST(DjlzBlockParallelTest, RejectsFrameWithBogusBlockCount) {
  std::string frame("DJLZ", 4);
  frame.push_back(3);  // version 3
  auto put_u64 = [&frame](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      frame.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u64(100);                    // raw_size
  put_u64(0xFFFFFFFFFFFFFFFFull);  // absurd num_blocks
  auto r = compress::DecompressFrame(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "djlz: block table exceeds frame");
}

TEST(DjlzBlockParallelTest, RetiredAndUnknownFrameVersionsAreRejected) {
  // Only frame version 3 is read. Versions 1 and 2 (retired) and 4 (not yet
  // defined) are Corruption, both for a real multi-block payload and for a
  // frame cut short right after the version byte.
  const std::string input(2 * compress::kFrameBlockSize + 17, 'v');
  const std::string frame = compress::CompressFrame(input);
  ThreadPool pool(2);
  for (char version : {1, 2, 4}) {
    for (size_t len : {size_t{5}, size_t{29}, frame.size()}) {
      std::string bad = frame.substr(0, len);
      bad[4] = version;
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        auto r = compress::DecompressFrame(bad, p);
        ASSERT_FALSE(r.ok()) << "version " << int{version} << " len " << len;
        EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
        EXPECT_EQ(r.status().message(), "djlz: unsupported frame version");
      }
    }
  }
}

// ------------------------------------------------------ fault injection --

// Corruption scenarios driven by the src/fault fail points instead of
// hand-rolled byte surgery: a torn shard tail on write, a flipped byte on
// read, and hard I/O errors.

std::string FaultTempFile(const std::string& name) {
  return ::testing::TempDir() + "/dj_io_fault_" + name;
}

TEST(FaultInjectionTest, TornShardTailWriteIsDetectedOnRead) {
  Rng rng(47);
  Dataset ds = RandomDataset(&rng, 400, 3);
  std::string path = FaultTempFile("torn.djds");
  {
    // io.write.short truncates to 2/3 and still reports success — exactly
    // how a torn write looks to the writer. Only the read path can catch it.
    fault::ScopedFaults faults("io.write.short=always");
    ASSERT_TRUE(faults.status().ok());
    ASSERT_TRUE(WriteFile(path, SerializeDataset(ds, nullptr, 4)).ok());
  }
  auto torn = ReadFile(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_FALSE(DeserializeDataset(torn.value()).ok())
      << "torn shard tail decoded successfully";
}

TEST(FaultInjectionTest, FlippedByteOnReadIsDetected) {
  Rng rng(53);
  Dataset ds = RandomDataset(&rng, 400, 3);
  std::string path = FaultTempFile("flipped.djds");
  ASSERT_TRUE(WriteFile(path, SerializeDataset(ds, nullptr, 4)).ok());
  fault::ScopedFaults faults("io.read.corrupt=always");
  ASSERT_TRUE(faults.status().ok());
  // The point flips a mid-file byte — shard payload territory, which the
  // per-shard checksums must catch.
  auto corrupted = ReadFile(path);
  ASSERT_TRUE(corrupted.ok());
  EXPECT_FALSE(DeserializeDataset(corrupted.value()).ok())
      << "flipped byte decoded successfully";
}

TEST(FaultInjectionTest, HardIoErrorsSurfaceAsStatus) {
  std::string path = FaultTempFile("hard.bin");
  {
    fault::ScopedFaults faults("io.write.fail=always");
    ASSERT_TRUE(faults.status().ok());
    Status s = WriteFile(path, "payload");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  ASSERT_TRUE(WriteFile(path, "payload").ok());
  {
    fault::ScopedFaults faults("io.read.fail=always");
    ASSERT_TRUE(faults.status().ok());
    ASSERT_FALSE(ReadFile(path).ok());
  }
  // With the registry reset, the same file reads back fine.
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "payload");
}

TEST(FaultInjectionTest, ProbabilisticTornWritesAreSeedDeterministic) {
  Rng rng(59);
  Dataset ds = RandomDataset(&rng, 50, 2);
  std::string blob = SerializeDataset(ds);
  auto torn_mask = [&](uint64_t seed) {
    fault::ScopedFaults faults("seed=" + std::to_string(seed) +
                               ";io.write.short=p0.5");
    EXPECT_TRUE(faults.status().ok());
    std::vector<bool> out;
    for (int i = 0; i < 32; ++i) {
      std::string path = FaultTempFile("p" + std::to_string(i));
      EXPECT_TRUE(WriteFile(path, blob).ok());
      auto back = ReadFile(path);
      EXPECT_TRUE(back.ok());
      out.push_back(back.value().size() != blob.size());
    }
    return out;
  };
  std::vector<bool> run1 = torn_mask(77);
  EXPECT_EQ(run1, torn_mask(77));
  EXPECT_NE(std::count(run1.begin(), run1.end(), true), 0);
}

// --------------------------------------------------- container pipeline --

TEST(ContainerPipelineTest, CompressedContainerRoundTripsThroughPool) {
  Rng rng(43);
  Dataset ds = RandomDataset(&rng, 2500, 3);
  ThreadPool pool(4);
  std::string packed =
      compress::CompressFrame(SerializeDataset(ds, &pool), &pool);
  auto blob = compress::DecompressFrame(packed, &pool);
  ASSERT_TRUE(blob.ok());
  auto back = DeserializeDataset(blob.value(), &pool);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Fingerprint(back.value()), Fingerprint(ds));
}

}  // namespace
}  // namespace dj::data
