//===- tests/feedback/CorpusTest.cpp - SBI-CORPUS v2 format tests ---------===//
//
// Four layers of coverage for the binary sharded corpus:
//
//  1. A golden-file test that hand-encodes a shard byte by byte from the
//     layout documented in feedback/Corpus.h and requires CorpusWriter to
//     produce exactly those bytes. Any change to the on-disk format —
//     header field order, varint scheme, zigzag, delta encoding, footer or
//     trailer layout, the FNV-1a constants — fails this test.
//
//  2. Fuzz-style corruption tests: every truncation point, bit flips over
//     the whole record region, and targeted mutations that reach each
//     decode-level rejection (zero deltas, zero counts, out-of-range ids,
//     lying footer offsets). Malformed shards must be rejected with a
//     diagnostic, never crash.
//
//  3. Round-trip and equivalence tests: write -> read -> write is
//     byte-identical, writing over a corpus replaces it, ingestCorpus
//     matches RunProfiles::fromReports for any thread count and shard
//     layout, zero-count pairs normalize away on write, and one corrupt
//     shard makes the whole ingest fail, naming it, with its output left
//     untouched.
//
//  4. ReportSet persistence: a report set's only on-disk form is a corpus,
//     so writeCorpus/readCorpus must keep every field, and readCorpus must
//     reject each malformed record a one-record shard can hold while
//     leaving its output untouched.
//
//===----------------------------------------------------------------------===//

#include "feedback/Corpus.h"
#include "feedback/RunProfiles.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace sbi;

namespace {

// --- Local byte-building helpers (independent of the implementation) -----

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putVar(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

uint32_t fnv1a32(const std::string &Bytes, size_t Begin, size_t End) {
  uint32_t Hash = 2166136261u;
  for (size_t I = Begin; I < End; ++I) {
    Hash ^= static_cast<uint8_t>(Bytes[I]);
    Hash *= 16777619u;
  }
  return Hash;
}

// --- Filesystem helpers ---------------------------------------------------

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "sbi-corpus-test-" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

// --- Fixtures -------------------------------------------------------------

FeedbackReport makeReport(bool Failed,
                          std::vector<std::pair<uint32_t, uint32_t>> Sites,
                          std::vector<std::pair<uint32_t, uint32_t>> Preds) {
  FeedbackReport R;
  R.Failed = Failed;
  R.Counts.SiteObservations = std::move(Sites);
  R.Counts.TruePredicates = std::move(Preds);
  return R;
}

/// The set behind the golden shard. Exercises: negative exit code (zigzag),
/// multi-byte varint (count 300), stack signature presence/absence, delta
/// gaps > 1, and a zero-count site pair the writer must drop.
ReportSet goldenSet() {
  ReportSet Set(3, 5);

  FeedbackReport R0 = makeReport(true, {{0, 300}, {2, 1}}, {{1, 3}, {4, 1}});
  R0.Trap = TrapKind::NullDeref;
  R0.ExitCode = -2;
  R0.BugMask = FeedbackReport::bugBit(2);
  R0.StackSignature = "f@1";
  Set.add(R0);

  FeedbackReport R1 = makeReport(false, {{1, 1}, {2, 0}}, {{3, 2}});
  Set.add(R1);
  return Set;
}

/// Hand-encoded bytes of goldenSet() as one shard with id 7, built purely
/// from the documented layout.
std::string goldenShardBytes() {
  std::string B;
  // Header.
  B.append(CorpusMagic, sizeof(CorpusMagic));
  putU32(B, CorpusVersion);
  putU32(B, 0);  // flags
  putU32(B, 7);  // shard id
  putU32(B, 3);  // sites
  putU32(B, 5);  // predicates
  putU32(B, 2);  // records
  EXPECT_EQ(B.size(), CorpusHeaderSize);

  // Record 0: failed, NullDeref trap, exit -2, bug 2, stack "f@1".
  uint64_t Offset0 = B.size();
  B.push_back(0x03); // flags: failed | has-stack
  B.push_back(0x01); // trap: NullDeref
  putVar(B, 3);      // zigzag(-2)
  putVar(B, FeedbackReport::bugBit(2));
  putVar(B, 3); // stack length
  B += "f@1";
  putVar(B, 2);   // site pairs
  putVar(B, 0);   // site 0 (absolute)
  putVar(B, 300); // count 300 -> two-byte varint 0xAC 0x02
  putVar(B, 2);   // gap to site 2
  putVar(B, 1);
  putVar(B, 2); // pred pairs
  putVar(B, 1); // pred 1 (absolute)
  putVar(B, 3);
  putVar(B, 3); // gap to pred 4
  putVar(B, 1);

  // Record 1: successful, no stack; the {2, 0} site pair is dropped.
  uint64_t Offset1 = B.size();
  B.push_back(0x00); // flags
  B.push_back(0x00); // trap
  putVar(B, 0);      // zigzag(0)
  putVar(B, 0);      // bug mask
  putVar(B, 1);      // site pairs (zero-count entry gone)
  putVar(B, 1);
  putVar(B, 1);
  putVar(B, 1); // pred pairs
  putVar(B, 3);
  putVar(B, 2);

  // Footer + trailer.
  uint64_t FooterStart = B.size();
  putU64(B, Offset0);
  putU64(B, Offset1);
  putU64(B, FooterStart);
  putU32(B, 2);
  putU32(B, fnv1a32(B, CorpusHeaderSize, FooterStart));
  B.append(CorpusFooterMagic, sizeof(CorpusFooterMagic));
  return B;
}

std::string writeGoldenShard(const std::string &Dir) {
  std::string Path = Dir + "/" + corpusShardName(0);
  CorpusWriter Writer;
  std::string Error;
  EXPECT_TRUE(Writer.open(Path, 7, 3, 5, Error)) << Error;
  ReportSet Set = goldenSet();
  for (const FeedbackReport &R : Set.reports())
    EXPECT_TRUE(Writer.append(R, Error)) << Error;
  EXPECT_TRUE(Writer.finalize(Error)) << Error;
  return Path;
}

/// A corrupted shard must be rejected — by open() or by some later next()
/// — with a non-empty diagnostic, and must never crash or return more
/// records than the mutation allows.
void expectShardRejected(const std::string &Bytes, const std::string &What) {
  // Named after the running test: ctest runs each test as its own process,
  // and a shared file would let two of them overwrite each other's shard.
  std::string Path =
      ::testing::TempDir() + "sbi-corpus-test-corrupt-" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".sbic";
  writeFileBytes(Path, Bytes);
  CorpusReader Reader;
  std::string Error;
  if (!Reader.open(Path, Error)) {
    EXPECT_FALSE(Error.empty()) << What;
    return;
  }
  FeedbackReport Report;
  size_t Decoded = 0;
  while (Reader.next(Report, Error)) {
    ++Decoded;
    ASSERT_LE(Decoded, size_t(1) << 20) << What << ": runaway decode";
  }
  EXPECT_FALSE(Error.empty()) << What << ": corrupt shard decoded clean";
}

uint32_t readU32At(const std::string &Bytes, size_t At) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(Bytes[At + I]);
  return V;
}

/// Recomputes the trailer hash after a deliberate record-region mutation,
/// so the mutation reaches the decoder instead of tripping the hash check.
void rehash(std::string &Bytes) {
  ASSERT_GE(Bytes.size(), CorpusHeaderSize + CorpusTrailerSize);
  size_t Trailer = Bytes.size() - CorpusTrailerSize;
  uint64_t FooterStart = 0;
  for (int I = 7; I >= 0; --I)
    FooterStart = (FooterStart << 8) | static_cast<uint8_t>(Bytes[Trailer + I]);
  uint32_t Hash = fnv1a32(Bytes, CorpusHeaderSize, FooterStart);
  for (int I = 0; I < 4; ++I)
    Bytes[Trailer + 12 + I] = static_cast<char>((Hash >> (8 * I)) & 0xff);
}

// --- Golden layout --------------------------------------------------------

TEST(CorpusGolden, WriterEmitsExactDocumentedBytes) {
  std::string Dir = freshDir("golden");
  std::string Path = writeGoldenShard(Dir);
  EXPECT_EQ(readFileBytes(Path), goldenShardBytes());
}

TEST(CorpusGolden, ReaderDecodesHandEncodedShard) {
  // The inverse direction: a shard built from the spec alone (never
  // touched by CorpusWriter) must decode to the normalized set.
  std::string Dir = freshDir("golden-read");
  std::string Path = Dir + "/" + corpusShardName(0);
  writeFileBytes(Path, goldenShardBytes());

  CorpusReader Reader;
  std::string Error;
  ASSERT_TRUE(Reader.open(Path, Error)) << Error;
  EXPECT_EQ(Reader.header().ShardId, 7u);
  EXPECT_EQ(Reader.header().NumSites, 3u);
  EXPECT_EQ(Reader.header().NumPredicates, 5u);
  EXPECT_EQ(Reader.header().NumReports, 2u);

  FeedbackReport R;
  ASSERT_TRUE(Reader.next(R, Error)) << Error;
  EXPECT_TRUE(R.Failed);
  EXPECT_EQ(R.Trap, TrapKind::NullDeref);
  EXPECT_EQ(R.ExitCode, -2);
  EXPECT_EQ(R.BugMask, FeedbackReport::bugBit(2));
  EXPECT_EQ(R.StackSignature, "f@1");
  EXPECT_EQ(R.Counts.SiteObservations,
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 300}, {2, 1}}));
  EXPECT_EQ(R.Counts.TruePredicates,
            (std::vector<std::pair<uint32_t, uint32_t>>{{1, 3}, {4, 1}}));

  ASSERT_TRUE(Reader.next(R, Error)) << Error;
  EXPECT_FALSE(R.Failed);
  EXPECT_EQ(R.Trap, TrapKind::None);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_TRUE(R.StackSignature.empty());
  EXPECT_EQ(R.Counts.SiteObservations,
            (std::vector<std::pair<uint32_t, uint32_t>>{{1, 1}}));
  EXPECT_EQ(R.Counts.TruePredicates,
            (std::vector<std::pair<uint32_t, uint32_t>>{{3, 2}}));

  EXPECT_FALSE(Reader.next(R, Error));
  EXPECT_TRUE(Error.empty()) << Error;
}

TEST(CorpusGolden, SeekUsesFooterOffsets) {
  std::string Dir = freshDir("golden-seek");
  std::string Path = writeGoldenShard(Dir);

  CorpusReader Reader;
  std::string Error;
  ASSERT_TRUE(Reader.open(Path, Error)) << Error;
  ASSERT_TRUE(Reader.seek(1));
  FeedbackReport R;
  ASSERT_TRUE(Reader.next(R, Error)) << Error;
  EXPECT_FALSE(R.Failed);
  EXPECT_EQ(R.Counts.TruePredicates,
            (std::vector<std::pair<uint32_t, uint32_t>>{{3, 2}}));
  // Back to the start: record 0 again.
  ASSERT_TRUE(Reader.seek(0));
  ASSERT_TRUE(Reader.next(R, Error)) << Error;
  EXPECT_TRUE(R.Failed);
  // Seeking to the end position is allowed and reads cleanly as "done".
  ASSERT_TRUE(Reader.seek(2));
  EXPECT_FALSE(Reader.next(R, Error));
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_FALSE(Reader.seek(3)); // Past the end.
}

TEST(CorpusReaderTest, OpenNamesTheOsCause) {
  std::string Path =
      ::testing::TempDir() + "sbi-corpus-test-missing/" + corpusShardName(0);
  CorpusReader Reader;
  std::string Error;
  EXPECT_FALSE(Reader.open(Path, Error));
  EXPECT_NE(Error.find(Path), std::string::npos) << Error;
  EXPECT_NE(Error.find(std::strerror(ENOENT)), std::string::npos) << Error;
}

// --- Writer input validation ----------------------------------------------

TEST(CorpusWriterTest, RejectsUnsortedDuplicateAndOutOfRangeIds) {
  std::string Dir = freshDir("writer-validate");
  struct Case {
    const char *Name;
    FeedbackReport Report;
  };
  std::vector<Case> Cases;
  Cases.push_back({"unsorted sites", makeReport(false, {{2, 1}, {0, 1}}, {})});
  Cases.push_back({"duplicate sites", makeReport(false, {{1, 1}, {1, 2}}, {})});
  Cases.push_back({"site out of range", makeReport(false, {{3, 1}}, {})});
  Cases.push_back({"unsorted preds", makeReport(false, {}, {{4, 1}, {1, 1}})});
  Cases.push_back({"pred out of range", makeReport(false, {}, {{5, 1}})});

  for (size_t I = 0; I < Cases.size(); ++I) {
    std::string Path = Dir + "/" + corpusShardName(static_cast<uint32_t>(I));
    CorpusWriter Writer;
    std::string Error;
    ASSERT_TRUE(Writer.open(Path, 0, 3, 5, Error)) << Error;
    EXPECT_FALSE(Writer.append(Cases[I].Report, Error)) << Cases[I].Name;
    EXPECT_FALSE(Error.empty()) << Cases[I].Name;
  }
}

TEST(CorpusWriterTest, DropsZeroCountPairsButKeepsLaterEntries) {
  std::string Dir = freshDir("writer-zero");
  std::string Path = Dir + "/" + corpusShardName(0);
  CorpusWriter Writer;
  std::string Error;
  ASSERT_TRUE(Writer.open(Path, 0, 4, 4, Error)) << Error;
  // Zero-count entries sandwiched between real ones: the real ones must
  // survive with correct delta encoding across the gap.
  ASSERT_TRUE(Writer.append(
      makeReport(true, {{0, 1}, {1, 0}, {3, 2}}, {{0, 0}, {2, 5}}), Error))
      << Error;
  ASSERT_TRUE(Writer.finalize(Error)) << Error;

  CorpusReader Reader;
  ASSERT_TRUE(Reader.open(Path, Error)) << Error;
  FeedbackReport R;
  ASSERT_TRUE(Reader.next(R, Error)) << Error;
  EXPECT_EQ(R.Counts.SiteObservations,
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 1}, {3, 2}}));
  EXPECT_EQ(R.Counts.TruePredicates,
            (std::vector<std::pair<uint32_t, uint32_t>>{{2, 5}}));
}

// --- Corruption: reject, never crash --------------------------------------

TEST(CorpusCorruption, EveryTruncationIsRejected) {
  std::string Shard = goldenShardBytes();
  for (size_t Len = 0; Len < Shard.size(); ++Len)
    expectShardRejected(Shard.substr(0, Len),
                        "truncated to " + std::to_string(Len) + " bytes");
}

TEST(CorpusCorruption, EveryRecordByteFlipIsRejected) {
  // Without rehashing, any single-byte change in the record region must
  // trip the FNV-1a check (or an earlier structural check) at open time.
  std::string Shard = goldenShardBytes();
  size_t FooterStart = Shard.size() - CorpusTrailerSize - 2 * 8;
  for (size_t I = CorpusHeaderSize; I < FooterStart; ++I) {
    std::string Mutated = Shard;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0x40);
    expectShardRejected(Mutated, "flip at byte " + std::to_string(I));
  }
}

TEST(CorpusCorruption, HeaderAndTrailerMutationsAreRejected) {
  std::string Shard = goldenShardBytes();
  size_t Trailer = Shard.size() - CorpusTrailerSize;

  auto mutated = [&](size_t At, char To) {
    std::string M = Shard;
    M[At] = To;
    return M;
  };
  expectShardRejected(mutated(0, 'X'), "bad magic");
  expectShardRejected(mutated(8, 3), "bad version");
  expectShardRejected(mutated(28, 3), "header count != footer count");
  expectShardRejected(mutated(Trailer, static_cast<char>(Shard[Trailer] + 1)),
                      "footer start off by one");
  expectShardRejected(mutated(Trailer + 8, 3), "trailer count mismatch");
  expectShardRejected(mutated(Trailer + 16, 'X'), "bad footer magic");
  expectShardRejected(mutated(Trailer + 12,
                              static_cast<char>(Shard[Trailer + 12] ^ 1)),
                      "hash flip");
  // Footer offsets: record 1's offset pushed past record 0's.
  std::string M = Shard;
  M[Trailer - 16] = M[Trailer - 8]; // offset[0] = offset[1]
  expectShardRejected(M, "footer offsets out of order");
}

TEST(CorpusCorruption, FooterStartThatWrapsIsRejected) {
  // Header and trailer both claim 100 records, and the footer start sits
  // so close to 2^64 that start + 8 * 100 + trailer wraps around to the
  // file's 56 bytes. Taken at its word, the hash would read ~2^64 bytes.
  std::string B;
  B.append(CorpusMagic, sizeof(CorpusMagic));
  for (uint32_t Field : {CorpusVersion, 0u, 0u, 3u, 5u, 100u})
    putU32(B, Field);
  putU64(B, 0xfffffffffffffd00ull);
  putU32(B, 100);
  putU32(B, 0);
  B.append(CorpusFooterMagic, sizeof(CorpusFooterMagic));
  ASSERT_EQ(B.size(), 56u);
  ASSERT_EQ(0xfffffffffffffd00ull + 8 * 100 + CorpusTrailerSize, B.size());

  std::string Dir = freshDir("wrapping-footer");
  std::string Path = Dir + "/" + corpusShardName(0);
  writeFileBytes(Path, B);
  CorpusReader Reader;
  std::string Error;
  EXPECT_FALSE(Reader.open(Path, Error));
  EXPECT_NE(Error.find("footer index does not match file size"),
            std::string::npos)
      << Error;
  RunProfiles Runs;
  EXPECT_FALSE(ingestCorpus(Dir, Runs, 1, Error));
  EXPECT_NE(Error.find(corpusShardName(0)), std::string::npos) << Error;
}

TEST(CorpusCorruption, DecodeLevelMutationsAreRejected) {
  // Targeted mutations inside record bytes, rehashed so they reach the
  // decoder. Offsets below follow the goldenShardBytes() layout: record 0
  // starts at 32 with an 8-byte head — flags, trap, exit, mask, stack
  // length, "f@1" — so the site pair block begins at 32 + 8.
  std::string Shard = goldenShardBytes();
  size_t R0 = CorpusHeaderSize;

  auto mutatedRehashed = [&](size_t At, char To) {
    std::string M = Shard;
    M[At] = To;
    rehash(M);
    return M;
  };
  // Site pair count 2 -> 0x80: varint continuation byte that never ends
  // within the record.
  expectShardRejected(mutatedRehashed(R0 + 8, static_cast<char>(0x80)),
                      "unterminated varint");
  // First site id 0 -> 3: out of range (numSites = 3).
  expectShardRejected(mutatedRehashed(R0 + 9, 3), "site id out of range");
  // Gap to the second site 2 -> 0: zero delta, ids would not be ascending.
  expectShardRejected(mutatedRehashed(R0 + 12, 0), "zero site delta");
  // Second site count 1 -> 0: zero counts never appear on disk.
  expectShardRejected(mutatedRehashed(R0 + 13, 0), "zero site count");
  // First pred id 1 -> 5: out of range (numPredicates = 5).
  expectShardRejected(mutatedRehashed(R0 + 15, 5), "pred id out of range");
  // Site pair count 2 -> 1: record no longer ends at the footer offset.
  expectShardRejected(mutatedRehashed(R0 + 8, 1),
                      "record does not end at footer offset");
  // Stack length 3 -> 200: runs past the end of the record region.
  expectShardRejected(mutatedRehashed(R0 + 4, static_cast<char>(200)),
                      "stack length out of bounds");
}

// --- Round trips ----------------------------------------------------------

/// A messy ten-report set: overlapping bugs, zero-count entries, traps,
/// stacks, empty observation lists, and ids spread over the full range.
ReportSet roundTripSet() {
  ReportSet Set(40, 160);
  for (uint32_t I = 0; I < 10; ++I) {
    FeedbackReport R;
    R.Failed = I % 3 == 0;
    if (R.Failed) {
      R.Trap = I % 2 ? TrapKind::OutOfBounds : TrapKind::None;
      R.ExitCode = I % 2 ? -1 : static_cast<int>(I);
      R.BugMask = FeedbackReport::bugBit(1 + static_cast<int>(I % 2));
      if (I % 2)
        R.StackSignature = "g@7>main@2";
    }
    for (uint32_t S = I % 4; S < 40; S += 3 + I % 5)
      R.Counts.SiteObservations.emplace_back(S, S == 12 ? 0 : 1 + S % 7);
    for (uint32_t P = I % 9; P < 160; P += 5 + I % 7)
      R.Counts.TruePredicates.emplace_back(P, P == 30 ? 0 : 1 + P % 11);
    Set.add(std::move(R));
  }
  // One report with nothing observed at all.
  Set.add(makeReport(false, {}, {}));
  return Set;
}

/// Every shard's file name and bytes, in corpus order.
std::string corpusBytes(const std::string &Dir) {
  std::string Bytes;
  for (const std::string &Shard : listCorpusShards(Dir))
    Bytes += std::filesystem::path(Shard).filename().string() + ":" +
             readFileBytes(Shard);
  return Bytes;
}

TEST(CorpusRoundTrip, WriteReadWriteIsByteIdentical) {
  ReportSet Set = roundTripSet();
  std::string Dir = freshDir("roundtrip");
  std::string Error;
  ASSERT_TRUE(writeCorpus(Set, Dir, /*ReportsPerShard=*/4, Error)) << Error;
  EXPECT_EQ(listCorpusShards(Dir).size(), 3u); // ceil(11 / 4)

  ReportSet Out;
  ASSERT_TRUE(readCorpus(Dir, Out, Error)) << Error;
  EXPECT_EQ(Out.numSites(), Set.numSites());
  EXPECT_EQ(Out.numPredicates(), Set.numPredicates());
  ASSERT_EQ(Out.size(), Set.size());
  // The writer normalizes zero-count pairs away, so the set read back
  // writes the same bytes: same set modulo normalization.
  std::string Again = freshDir("roundtrip-again");
  ASSERT_TRUE(writeCorpus(Out, Again, 4, Error)) << Error;
  EXPECT_EQ(corpusBytes(Again), corpusBytes(Dir));
}

TEST(CorpusRoundTrip, WritingOverACorpusReplacesIt) {
  // The second, smaller set must be all that reads back; a file that is
  // not a shard stays.
  std::string Dir = freshDir("replace");
  std::string Error;
  ASSERT_TRUE(writeCorpus(roundTripSet(), Dir, 2, Error)) << Error;
  ASSERT_EQ(listCorpusShards(Dir).size(), 6u);
  writeFileBytes(Dir + "/notes.txt", "kept\n");

  ReportSet Small = goldenSet();
  ASSERT_TRUE(writeCorpus(Small, Dir, 2, Error)) << Error;
  EXPECT_EQ(listCorpusShards(Dir).size(), 1u);
  ReportSet Out;
  ASSERT_TRUE(readCorpus(Dir, Out, Error)) << Error;
  EXPECT_EQ(Out.size(), Small.size());
  EXPECT_EQ(Out.numSites(), Small.numSites());
  EXPECT_EQ(readFileBytes(Dir + "/notes.txt"), "kept\n");

  // A directory that cannot be made is an error, not a silent no-op.
  EXPECT_FALSE(writeCorpus(Small, Dir + "/notes.txt/sub", 2, Error));
  EXPECT_NE(Error.find("notes.txt/sub"), std::string::npos) << Error;
}

TEST(CorpusRoundTrip, EmptySetYieldsOneValidEmptyShard) {
  ReportSet Set(9, 27);
  std::string Dir = freshDir("empty");
  std::string Error;
  ASSERT_TRUE(writeCorpus(Set, Dir, 1024, Error)) << Error;
  ASSERT_EQ(listCorpusShards(Dir).size(), 1u);

  ReportSet Out;
  ASSERT_TRUE(readCorpus(Dir, Out, Error)) << Error;
  EXPECT_EQ(Out.numSites(), 9u);
  EXPECT_EQ(Out.numPredicates(), 27u);
  EXPECT_EQ(Out.size(), 0u);

  RunProfiles Runs;
  ASSERT_TRUE(ingestCorpus(Dir, Runs, 1, Error)) << Error;
  EXPECT_EQ(Runs.size(), 0u);
  EXPECT_EQ(Runs.numSites(), 9u);
  EXPECT_EQ(Runs.numPredicates(), 27u);
}

TEST(CorpusRoundTrip, ShardsListInFilenameOrder) {
  ReportSet Set = roundTripSet();
  std::string Dir = freshDir("order");
  std::string Error;
  ASSERT_TRUE(writeCorpus(Set, Dir, 2, Error)) << Error;
  std::vector<std::string> Shards = listCorpusShards(Dir);
  ASSERT_EQ(Shards.size(), 6u);
  for (size_t I = 0; I < Shards.size(); ++I) {
    EXPECT_NE(Shards[I].find(corpusShardName(static_cast<uint32_t>(I))),
              std::string::npos);
    if (I) {
      EXPECT_LT(Shards[I - 1], Shards[I]);
    }
  }
}

// --- Streaming ingestion --------------------------------------------------

void expectProfilesEqual(const RunProfiles &A, const RunProfiles &B,
                         const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  EXPECT_EQ(A.numSites(), B.numSites()) << What;
  EXPECT_EQ(A.numPredicates(), B.numPredicates()) << What;
  for (size_t Run = 0; Run < A.size(); ++Run) {
    EXPECT_EQ(A.failed(Run), B.failed(Run)) << What << " run " << Run;
    EXPECT_EQ(A.bugMask(Run), B.bugMask(Run)) << What << " run " << Run;
    IdSpan SA = A.sites(Run), SB = B.sites(Run);
    ASSERT_EQ(SA.size(), SB.size()) << What << " run " << Run;
    EXPECT_TRUE(std::equal(SA.begin(), SA.end(), SB.begin()))
        << What << " run " << Run;
    IdSpan PA = A.preds(Run), PB = B.preds(Run);
    ASSERT_EQ(PA.size(), PB.size()) << What << " run " << Run;
    EXPECT_TRUE(std::equal(PA.begin(), PA.end(), PB.begin()))
        << What << " run " << Run;
  }
}

/// Nine runs whose ids and counts reach every varint path of the decoder:
/// one byte (up to 127), two bytes (128 up to 16383) and the general loop
/// (16384 and up), as absolute ids, gaps and counts. The odd runs fail
/// with stack signatures, which the ingest skips but its hash must cover.
ReportSet wideSet() {
  ReportSet Set(20000, 70000);
  for (uint32_t I = 0; I < 9; ++I) {
    FeedbackReport R;
    R.Failed = I % 2 == 1;
    if (R.Failed) {
      R.Trap = TrapKind::NullDeref;
      R.ExitCode = -11;
      R.BugMask = FeedbackReport::bugBit(1 + static_cast<int>(I % 3));
      R.StackSignature = "frame@" + std::to_string(I) + ">main@1";
    }
    uint32_t Site = I % 2 ? 300 + I : I; // Absolute id of one or two bytes.
    for (uint32_t Gap : {0u, 2u, 128u, 16384u, 127u}) {
      Site += Gap;
      R.Counts.SiteObservations.emplace_back(Site, 1 + Gap * (I + 1));
    }
    uint32_t Pred = I * 3;
    for (uint32_t Gap : {0u, 127u, 16383u, 50000u}) {
      Pred += Gap;
      R.Counts.TruePredicates.emplace_back(Pred, Gap + 128 * I + 1);
    }
    Set.add(std::move(R));
  }
  return Set;
}

/// Writes \p Set under \p Dir as consecutive shards of \p Sizes records
/// (a zero writes an empty shard): layouts writeCorpus never makes.
void writeShards(const ReportSet &Set, const std::string &Dir,
                 const std::vector<size_t> &Sizes) {
  size_t Next = 0;
  for (uint32_t Shard = 0; Shard < Sizes.size(); ++Shard) {
    CorpusWriter Writer;
    std::string Error;
    ASSERT_TRUE(Writer.open(Dir + "/" + corpusShardName(Shard), Shard,
                            Set.numSites(), Set.numPredicates(), Error))
        << Error;
    for (size_t I = 0; I < Sizes[Shard]; ++I)
      ASSERT_TRUE(Writer.append(Set[Next++], Error)) << Error;
    ASSERT_TRUE(Writer.finalize(Error)) << Error;
  }
  ASSERT_EQ(Next, Set.size());
}

TEST(CorpusIngest, MatchesFromReportsForAnyThreadCount) {
  struct Corpus {
    std::string Dir;
    ReportSet Set;
    uint64_t Shards;
  };
  std::vector<Corpus> Corpora;
  {
    Corpus Even{freshDir("ingest"), roundTripSet(), 4}; // ceil(11 / 3)
    std::string Error;
    ASSERT_TRUE(writeCorpus(Even.Set, Even.Dir, 3, Error)) << Error;
    Corpora.push_back(std::move(Even));
  }
  {
    // Shards of unequal size, an empty one mid-corpus.
    Corpus Uneven{freshDir("ingest-uneven"), wideSet(), 5};
    writeShards(Uneven.Set, Uneven.Dir, {4, 0, 1, 3, 1});
    Corpora.push_back(std::move(Uneven));
  }
  for (const Corpus &C : Corpora) {
    RunProfiles Reference = RunProfiles::fromReports(C.Set);
    for (size_t Threads : {size_t(1), size_t(2), size_t(7)}) {
      RunProfiles Streamed;
      CorpusIngestStats Stats;
      std::string Error;
      ASSERT_TRUE(ingestCorpus(C.Dir, Streamed, Threads, Error, &Stats))
          << Error;
      expectProfilesEqual(Reference, Streamed,
                          C.Dir + " threads=" + std::to_string(Threads));
      EXPECT_EQ(Streamed.numPostings(), Reference.numPostings());
      EXPECT_EQ(Stats.Shards, C.Shards);
      EXPECT_EQ(Stats.Reports, C.Set.size());
      EXPECT_GT(Stats.Bytes, 0u);
    }
  }
}

/// Byte offset of record \p Record, from the footer of shard \p Bytes.
size_t recordOffset(const std::string &Bytes, uint32_t Record) {
  size_t Trailer = Bytes.size() - CorpusTrailerSize;
  size_t At = Trailer - 8 * static_cast<size_t>(readU32At(Bytes, Trailer + 8)) +
              8 * static_cast<size_t>(Record);
  uint64_t Offset = 0;
  for (int I = 7; I >= 0; --I)
    Offset = (Offset << 8) | static_cast<uint8_t>(Bytes[At + I]);
  return static_cast<size_t>(Offset);
}

/// roundTripSet() as a corpus of three shards (records 0-3, 4-7 and 8-10)
/// whose shard \p Shard holds what \p Mutate makes of its bytes.
template <typename Fn>
std::string corpusWithBadShard(const std::string &Name, uint32_t Shard,
                               Fn &&Mutate) {
  std::string Dir = freshDir("ingest-bad-" + Name);
  std::string Error;
  EXPECT_TRUE(writeCorpus(roundTripSet(), Dir, 4, Error)) << Error;
  EXPECT_EQ(listCorpusShards(Dir).size(), 3u);
  std::string Path = Dir + "/" + corpusShardName(Shard);
  std::string Bytes = readFileBytes(Path);
  Mutate(Bytes);
  writeFileBytes(Path, Bytes);
  return Dir;
}

/// ingestCorpus of \p Dir must fail at one and two threads with a message
/// naming shard \p Shard and saying \p Why, and leave a pre-filled output
/// exactly as it was.
void expectIngestRejected(const std::string &Dir, uint32_t Shard,
                          const std::string &Why) {
  for (size_t Threads : {size_t(1), size_t(2)}) {
    RunProfiles Out(7, 8);
    Out.beginRun(true, FeedbackReport::bugBit(1));
    Out.addSite(2);
    Out.addPred(3);
    std::string Error;
    EXPECT_FALSE(ingestCorpus(Dir, Out, Threads, Error)) << Why;
    EXPECT_NE(Error.find(corpusShardName(Shard)), std::string::npos)
        << "threads=" << Threads << ": " << Error;
    EXPECT_NE(Error.find(Why), std::string::npos)
        << "threads=" << Threads << ": " << Error;
    ASSERT_EQ(Out.size(), 1u) << Why;
    EXPECT_EQ(Out.numSites(), 7u) << Why;
    EXPECT_EQ(Out.numPredicates(), 8u) << Why;
    EXPECT_TRUE(Out.failed(0)) << Why;
    EXPECT_TRUE(Out.hasBug(0, 1)) << Why;
    EXPECT_TRUE(Out.siteObserved(0, 2)) << Why;
    EXPECT_TRUE(Out.observedTrue(0, 3)) << Why;
    EXPECT_EQ(Out.numPostings(), 2u) << Why;
  }
}

TEST(CorpusIngest, RejectsAShardTruncatedAtARecordBoundary) {
  // Records 0 and 1 survive whole; the rest and the footer are gone.
  expectIngestRejected(corpusWithBadShard("truncated", 1,
                                          [](std::string &Bytes) {
                                            Bytes.resize(
                                                recordOffset(Bytes, 2));
                                          }),
                       1, "bad footer magic");
}

TEST(CorpusIngest, RejectsARecordByteFlippedWithoutRehashing) {
  // Record 0's trap byte: any value decodes, so only the hash can tell.
  expectIngestRejected(
      corpusWithBadShard("flipped", 1,
                         [](std::string &Bytes) {
                           Bytes[CorpusHeaderSize + 1] ^= 0x40;
                         }),
      1, "record region hash mismatch");
}

TEST(CorpusIngest, RejectsAFlippedStackSignatureByte) {
  // Record 1 of the last shard is run 9: flags, trap, exit -1 (zigzag 1),
  // bug mask and stack length take a byte each, then its stack. The
  // ingest never stores a stack, but the hash covers it.
  expectIngestRejected(
      corpusWithBadShard("stack", 2,
                         [](std::string &Bytes) {
                           size_t Stack = recordOffset(Bytes, 1) + 5;
                           ASSERT_EQ(Bytes.substr(Stack, 10), "g@7>main@2");
                           Bytes[Stack] = 'G';
                         }),
      2, "record region hash mismatch");
}

TEST(CorpusIngest, RejectsARehashedDecodeLevelMutation) {
  // Record 0 of the middle shard is run 4: flags, trap, exit and bug mask
  // take a byte each, then its six site pairs, the first id absolute. Id
  // 40 is one past the last site.
  expectIngestRejected(
      corpusWithBadShard("decode", 1,
                         [](std::string &Bytes) {
                           ASSERT_EQ(Bytes[CorpusHeaderSize + 4], 6);
                           ASSERT_EQ(Bytes[CorpusHeaderSize + 5], 0);
                           Bytes[CorpusHeaderSize + 5] = 40;
                           rehash(Bytes);
                         }),
      1, "record 0: site id out of range");
}

TEST(CorpusIngest, RejectsAnEmptyShardWithAWrongHash) {
  // An empty record region hashes to the FNV basis; this trailer says
  // otherwise.
  expectIngestRejected(
      corpusWithBadShard("empty", 1,
                         [](std::string &Bytes) {
                           std::string Empty;
                           Empty.append(Bytes, 0, CorpusHeaderSize);
                           for (int I = 0; I < 4; ++I)
                             Empty[28 + I] = 0; // No records.
                           putU64(Empty, CorpusHeaderSize);
                           putU32(Empty, 0);
                           putU32(Empty, 2166136261u ^ 1);
                           Empty.append(CorpusFooterMagic,
                                        sizeof(CorpusFooterMagic));
                           Bytes = Empty;
                         }),
      1, "record region hash mismatch");
}

TEST(CorpusIngest, RejectsDimensionMismatchAcrossShards) {
  std::string Dir = freshDir("dim-mismatch");
  std::string Error;
  // Shard 0: 3x5 dims. Shard 1: 4x5 dims.
  for (uint32_t Shard = 0; Shard < 2; ++Shard) {
    CorpusWriter Writer;
    ASSERT_TRUE(Writer.open(Dir + "/" + corpusShardName(Shard), Shard,
                            3 + Shard, 5, Error))
        << Error;
    ASSERT_TRUE(Writer.append(makeReport(false, {{1, 1}}, {{2, 1}}), Error))
        << Error;
    ASSERT_TRUE(Writer.finalize(Error)) << Error;
  }
  RunProfiles Runs;
  EXPECT_FALSE(ingestCorpus(Dir, Runs, 1, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(CorpusIngest, MissingDirectoryIsAnError) {
  RunProfiles Runs;
  std::string Error;
  EXPECT_FALSE(ingestCorpus(::testing::TempDir() + "sbi-corpus-test-nonexistent",
                            Runs, 1, Error));
  EXPECT_FALSE(Error.empty());
}

// --- RunProfiles ----------------------------------------------------------

TEST(RunProfilesTest, FromReportsDropsZeroCountsAndKeepsLabels) {
  ReportSet Set(6, 8);
  FeedbackReport R0 = makeReport(true, {{0, 2}, {3, 0}, {5, 1}},
                                 {{1, 0}, {2, 4}, {7, 1}});
  R0.BugMask = FeedbackReport::bugBit(3);
  Set.add(R0);
  Set.add(makeReport(false, {}, {}));

  RunProfiles Runs = RunProfiles::fromReports(Set);
  ASSERT_EQ(Runs.size(), 2u);
  EXPECT_TRUE(Runs.failed(0));
  EXPECT_FALSE(Runs.failed(1));
  EXPECT_TRUE(Runs.hasBug(0, 3));
  EXPECT_FALSE(Runs.hasBug(0, 2));

  IdSpan Sites = Runs.sites(0);
  EXPECT_EQ(std::vector<uint32_t>(Sites.begin(), Sites.end()),
            (std::vector<uint32_t>{0, 5}));
  IdSpan Preds = Runs.preds(0);
  EXPECT_EQ(std::vector<uint32_t>(Preds.begin(), Preds.end()),
            (std::vector<uint32_t>{2, 7}));
  EXPECT_EQ(Runs.sites(1).size(), 0u);
  EXPECT_EQ(Runs.preds(1).size(), 0u);

  EXPECT_TRUE(Runs.observedTrue(0, 2));
  EXPECT_FALSE(Runs.observedTrue(0, 1)); // Zero count dropped.
  EXPECT_FALSE(Runs.observedTrue(1, 2));
  EXPECT_EQ(Runs.numFailing(), 1u);
  EXPECT_EQ(Runs.numPostings(), 4u);
}

TEST(RunProfilesTest, SiteObserved) {
  // A site counts as observed in a run iff it was sampled at least once
  // there, whether or not any of its predicates was true.
  ReportSet Set(12, 8);
  Set.add(makeReport(true, {{2, 3}, {4, 0}, {9, 1}}, {}));
  Set.add(makeReport(false, {}, {}));
  RunProfiles Runs = RunProfiles::fromReports(Set);
  EXPECT_TRUE(Runs.siteObserved(0, 2));
  EXPECT_TRUE(Runs.siteObserved(0, 9));
  EXPECT_FALSE(Runs.siteObserved(0, 4)); // Zero count dropped.
  EXPECT_FALSE(Runs.siteObserved(0, 5));
  EXPECT_FALSE(Runs.siteObserved(0, 11));
  EXPECT_FALSE(Runs.siteObserved(1, 2));
}

// --- ReportSet persistence ------------------------------------------------

/// Two reports exercising every stored field: trap, negative exit code,
/// stack signature, bug mask, several ascending pairs per list.
ReportSet fieldSet() {
  ReportSet Set(6, 30);
  FeedbackReport A = makeReport(true, {{0, 2}, {3, 1}}, {{5, 1}, {20, 9}});
  A.Trap = TrapKind::NullDeref;
  A.ExitCode = -3;
  A.StackSignature = "f@3>main@10";
  A.BugMask = FeedbackReport::bugBit(2);
  Set.add(A);
  Set.add(makeReport(false, {{1, 1}, {4, 2}}, {{7, 3}}));
  return Set;
}

void expectSameSet(const ReportSet &A, const ReportSet &B) {
  EXPECT_EQ(A.numSites(), B.numSites());
  EXPECT_EQ(A.numPredicates(), B.numPredicates());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Failed, B[I].Failed) << I;
    EXPECT_EQ(A[I].Trap, B[I].Trap) << I;
    EXPECT_EQ(A[I].ExitCode, B[I].ExitCode) << I;
    EXPECT_EQ(A[I].StackSignature, B[I].StackSignature) << I;
    EXPECT_EQ(A[I].BugMask, B[I].BugMask) << I;
    EXPECT_EQ(A[I].Counts.SiteObservations, B[I].Counts.SiteObservations)
        << I;
    EXPECT_EQ(A[I].Counts.TruePredicates, B[I].Counts.TruePredicates) << I;
  }
}

/// readCorpus of \p Dir must fail with a diagnostic and leave its output
/// exactly as it was.
void expectReadRejected(const std::string &Dir, const std::string &What) {
  ReportSet Out(7, 8);
  Out.add(makeReport(true, {{2, 1}}, {{3, 1}}));
  std::string Error;
  EXPECT_FALSE(readCorpus(Dir, Out, Error)) << What;
  EXPECT_FALSE(Error.empty()) << What;
  ASSERT_EQ(Out.size(), 1u) << What;
  EXPECT_EQ(Out.numSites(), 7u) << What;
  EXPECT_EQ(Out.numPredicates(), 8u) << What;
  EXPECT_EQ(Out[0].Counts.SiteObservations,
            (std::vector<std::pair<uint32_t, uint32_t>>{{2, 1}}))
      << What;
}

/// A fresh corpus, named after the running test, whose only shard holds
/// \p Bytes.
std::string corpusOfShard(const std::string &Bytes) {
  std::string Dir = freshDir(
      std::string("set-") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  writeFileBytes(Dir + "/" + corpusShardName(0), Bytes);
  return Dir;
}

void expectSetRejected(const std::string &Bytes, const std::string &What) {
  expectReadRejected(corpusOfShard(Bytes), What);
}

/// One shard holding the single hand-encoded record \p Record under a
/// correct header, footer and hash, so only the record itself can be
/// malformed.
std::string shardOf(const std::string &Record, uint32_t Sites,
                    uint32_t Preds) {
  std::string B;
  B.append(CorpusMagic, sizeof(CorpusMagic));
  for (uint32_t Field : {CorpusVersion, 0u, 0u, Sites, Preds, 1u})
    putU32(B, Field);
  B += Record;
  uint64_t FooterStart = B.size();
  putU64(B, CorpusHeaderSize);
  putU64(B, FooterStart);
  putU32(B, 1);
  putU32(B, fnv1a32(B, CorpusHeaderSize, FooterStart));
  B.append(CorpusFooterMagic, sizeof(CorpusFooterMagic));
  return B;
}

/// A successful run with no provenance whose site block is the varints
/// \p Sites (pair count, then id or gap and count per pair) and whose
/// predicate block is \p Preds.
std::string record(std::vector<uint64_t> Sites, std::vector<uint64_t> Preds) {
  std::string R(2, '\0'); // Flags, trap.
  putVar(R, 0);           // zigzag(exit code 0)
  putVar(R, 0);           // Bug mask.
  for (uint64_t V : Sites)
    putVar(R, V);
  for (uint64_t V : Preds)
    putVar(R, V);
  return R;
}

TEST(ReportSetTest, SerializeRoundTrip) {
  ReportSet Set = fieldSet();
  std::string Dir = freshDir("set-roundtrip");
  std::string Error;
  ASSERT_TRUE(writeCorpus(Set, Dir, 1, Error)) << Error;
  ReportSet Out;
  ASSERT_TRUE(readCorpus(Dir, Out, Error)) << Error;
  expectSameSet(Set, Out);
}

TEST(ReportSetTest, DeserializeAcceptsCampaignShapedRoundTrip) {
  // Many runs over several shards, every field populated, zero counts
  // included: the set read back is the set with its zero counts dropped.
  ReportSet Set = roundTripSet();
  ReportSet Expected(Set.numSites(), Set.numPredicates());
  for (FeedbackReport R : Set.reports()) {
    for (auto *Pairs :
         {&R.Counts.SiteObservations, &R.Counts.TruePredicates})
      std::erase_if(*Pairs, [](const auto &Pair) { return Pair.second == 0; });
    Expected.add(std::move(R));
  }
  std::string Dir = freshDir("set-campaign-shaped");
  std::string Error;
  ASSERT_TRUE(writeCorpus(Set, Dir, 3, Error)) << Error;
  ReportSet Out;
  ASSERT_TRUE(readCorpus(Dir, Out, Error)) << Error;
  expectSameSet(Expected, Out);
}

TEST(ReportSetTest, SerializeDropsZeroCountPairs) {
  ReportSet Set(5, 9);
  Set.add(makeReport(true, {{0, 2}, {1, 0}, {4, 1}}, {{2, 0}, {3, 7}}));
  Set.add(makeReport(false, {{2, 0}}, {{0, 0}, {8, 0}}));
  std::string Dir = freshDir("set-zero");
  std::string Error;
  ASSERT_TRUE(writeCorpus(Set, Dir, 4, Error)) << Error;
  ReportSet Out;
  ASSERT_TRUE(readCorpus(Dir, Out, Error)) << Error;
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Counts.SiteObservations,
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 2}, {4, 1}}));
  EXPECT_EQ(Out[0].Counts.TruePredicates,
            (std::vector<std::pair<uint32_t, uint32_t>>{{3, 7}}));
  EXPECT_TRUE(Out[1].Counts.SiteObservations.empty());
  EXPECT_TRUE(Out[1].Counts.TruePredicates.empty());
}

TEST(ReportSetTest, DeserializeRejectsGarbage) {
  expectSetRejected("", "empty shard file");
  expectSetRejected("not a corpus shard", "text");
  expectSetRejected(std::string(CorpusMagic, sizeof(CorpusMagic)) +
                        std::string(64, '\0'),
                    "magic, then zeros");
  expectReadRejected(freshDir("set-no-shards"), "no shard files");
}

TEST(ReportSetTest, DeserializeRejectsTruncated) {
  // Cut at the end of the header, at record 1, and at the footer.
  std::string Shard = goldenShardBytes();
  size_t FooterStart = Shard.size() - CorpusTrailerSize - 2 * 8;
  for (size_t Cut : {CorpusHeaderSize, size_t(51), FooterStart})
    expectSetRejected(Shard.substr(0, Cut), "cut at " + std::to_string(Cut));
}

TEST(ReportSetTest, DeserializeRejectsMidTokenTruncation) {
  std::string Shard = goldenShardBytes();
  // Byte 43 is the second byte of record 0's two-byte count varint.
  expectSetRejected(Shard.substr(0, 43), "inside a varint");
  expectSetRejected(Shard.substr(0, Shard.size() / 4), "quarter");
  expectSetRejected(Shard.substr(0, Shard.size() / 2), "half");
  expectSetRejected(Shard.substr(0, (3 * Shard.size()) / 4),
                    "three quarters");
}

TEST(ReportSetTest, DeserializeFailureLeavesOutputUntouched) {
  // Shard 0 decodes before shard 1 fails: none of it may reach the output.
  std::string Dir = freshDir("set-untouched");
  std::string Error;
  ASSERT_TRUE(writeCorpus(fieldSet(), Dir, 1, Error)) << Error;
  std::string Shard1 = Dir + "/" + corpusShardName(1);
  std::string Bytes = readFileBytes(Shard1);
  writeFileBytes(Shard1, Bytes.substr(0, Bytes.size() - 1));
  expectReadRejected(Dir, "second shard truncated");
}

TEST(ReportSetTest, DeserializeRejectsCountsExceedingSpace) {
  // A pair count above the number of ids cannot be a duplicate-free list.
  ReportSet Read;
  std::string Error;
  EXPECT_TRUE(readCorpus(
      corpusOfShard(shardOf(record({2, 0, 1, 1, 1}, {0}), 2, 12)), Read,
      Error))
      << "two pairs over two sites is well formed: " << Error;
  expectSetRejected(shardOf(record({3, 0, 1, 1, 1, 1, 1}, {0}), 2, 12),
                    "site count exceeds NumSites");
  expectSetRejected(
      shardOf(record({0}, {4, 0, 1, 1, 1, 1, 1, 1, 1}), 2, 3),
      "pred count exceeds NumPredicates");
  expectSetRejected(shardOf(record({0}, {99999999, 0, 1}), 2, 3),
                    "absurd count");
}

TEST(ReportSetTest, DeserializeRejectsOutOfRangeIds) {
  ReportSet Read;
  std::string Error;
  ASSERT_TRUE(readCorpus(
      corpusOfShard(shardOf(record({1, 1, 1}, {1, 11, 1}), 2, 12)), Read,
      Error))
      << "the last site and predicate ids are in range: " << Error;
  ASSERT_EQ(Read.size(), 1u);
  EXPECT_TRUE(RunProfiles::fromReports(Read).observedTrue(0, 11));
  expectSetRejected(shardOf(record({1, 2, 1}, {0}), 2, 12),
                    "site id == NumSites");
  expectSetRejected(shardOf(record({0}, {1, 12, 1}), 2, 12),
                    "pred id == NumPredicates");
  expectSetRejected(shardOf(record({0}, {1, 99, 1}), 2, 12),
                    "pred id way out of range");
  expectSetRejected(shardOf(record({0}, {2, 5, 1, 7, 1}), 2, 12),
                    "second pred id past the end by its gap");
}

TEST(ReportSetTest, DeserializeRejectsAGapThatWrapsAround) {
  // Site 5, then a gap of 2^64 - 3: summed in 64 bits it wraps around to
  // site 2, in range but below its predecessor.
  expectSetRejected(
      shardOf(record({2, 5, 1, ~uint64_t(0) - 2, 1}, {0}), 40, 12),
      "site gap wrapping to a smaller id");
  expectSetRejected(
      shardOf(record({0}, {2, 9, 1, ~uint64_t(0), 1}), 40, 12),
      "predicate gap wrapping to a smaller id");
}

TEST(ReportSetTest, DeserializeRejectsDuplicateAndUnsortedEntries) {
  // On disk a later id is a gap >= 1 from its predecessor, so a duplicate
  // is a zero gap and a descending id cannot be written at all.
  expectSetRejected(shardOf(record({0}, {2, 5, 1, 0, 1}), 4, 12),
                    "duplicate predicate entry");
  expectSetRejected(shardOf(record({2, 3, 1, 0, 2}, {0}), 4, 12),
                    "duplicate site entry");
  ReportSet Unsorted(4, 12);
  Unsorted.add(makeReport(true, {}, {{7, 1}, {5, 1}}));
  std::string Error;
  EXPECT_FALSE(writeCorpus(Unsorted, freshDir("set-unsorted"), 4, Error));
  EXPECT_NE(Error.find("ascending"), std::string::npos) << Error;
}

TEST(ReportSetTest, DeserializeRejectsMalformedPairs) {
  expectSetRejected(shardOf(record({0}, {1, 5}), 4, 12), "missing count");
  expectSetRejected(shardOf(record({0}, {1, 5, 0}), 4, 12), "zero count");
  expectSetRejected(shardOf(record({0}, {1, uint64_t(1) << 40, 1}), 4, 12),
                    "id overflowing uint32");
  expectSetRejected(shardOf(record({0}, {1, 5, uint64_t(1) << 32}), 4, 12),
                    "count overflowing uint32");
  expectSetRejected(shardOf(record({0}, {1}) + "\x85", 4, 12),
                    "unterminated varint");
}

} // namespace
