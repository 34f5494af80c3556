//===- feedback/Corpus.h - SBI-CORPUS v2 binary sharded feedback corpus ---===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper aggregates ~32,000 feedback reports per subject and the
/// project's north star is ingestion from millions of users. SBI-CORPUS v2
/// is the one on-disk form of a report set: binary, sharded, and ingested
/// without ever materializing a ReportSet.
///
///   A *corpus* is a directory of shard files named `shard-NNNNNN.sbic`,
///   read in lexicographic filename order. Each shard is self-describing
///   and independently decodable, so ingestion parallelizes one task per
///   shard.
///
///   Every reader goes through one validating pass per shard: one read of
///   the file into a buffer sized from it, the structural checks of header,
///   trailer and footer, then one decode of every record in which each byte
///   consumed is folded into the FNV-1a hash, compared with the trailer's
///   after the last record. No record of a shard is handed out before the
///   pass accepts the whole shard.
///
///   Shard layout (all integers little-endian):
///
///     Header (32 bytes)
///       0   8  magic "SBICORP2"
///       8   4  format version (2)
///      12   4  flags (reserved, 0)
///      16   4  shard id
///      20   4  number of sites
///      24   4  number of predicates
///      28   4  number of records (patched by finalize())
///
///     Records (back to back)
///       u8      record flags: bit0 = run failed, bit1 = has stack signature
///       u8      trap kind
///       varint  zigzag(exit code)
///       varint  ground-truth bug mask
///       [varint length + bytes]   stack signature, if bit1
///       varint  site pair count, then delta-encoded pairs: the first site
///               id as a varint, every later id as the gap to its
///               predecessor (>= 1, ids are strictly ascending), each id
///               followed by its varint observation count (>= 1 — writers
///               drop zero-count entries, which the analysis already
///               treats as unobserved)
///       varint  predicate pair count + pairs, same encoding
///
///     Footer
///       u64 x records   absolute file offset of each record, so readers
///                       can seek to any record without decoding its
///                       predecessors
///       Trailer (24 bytes)
///         u64  footer start offset
///         u32  record count (must equal the header's)
///         u32  FNV-1a hash of the record region
///         8    magic "SBICFTR2"
///
/// Varints are LEB128 (7 bits per byte, low first), at most 10 bytes.
/// Readers reject, never crash on, malformed input: truncation anywhere,
/// bad magic/version, zero deltas or counts, out-of-range ids, a footer
/// start or id gap whose arithmetic would wrap around, offsets that
/// disagree with record boundaries, and hash or record-count mismatches
/// all fail with a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_FEEDBACK_CORPUS_H
#define SBI_FEEDBACK_CORPUS_H

#include "feedback/Report.h"
#include "feedback/RunProfiles.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace sbi {

/// The fixed-size shard header.
struct CorpusShardHeader {
  uint32_t ShardId = 0;
  uint32_t NumSites = 0;
  uint32_t NumPredicates = 0;
  uint32_t NumReports = 0;
};

inline constexpr char CorpusMagic[8] = {'S', 'B', 'I', 'C', 'O', 'R', 'P', '2'};
inline constexpr char CorpusFooterMagic[8] = {'S', 'B', 'I', 'C',
                                              'F', 'T', 'R', '2'};
inline constexpr uint32_t CorpusVersion = 2;
inline constexpr size_t CorpusHeaderSize = 32;
inline constexpr size_t CorpusTrailerSize = 24;

/// Writes one shard, streaming: open, append one report at a time (records
/// are flushed as they come, nothing is buffered beyond the current
/// record), finalize to emit the footer and patch the header's record
/// count. Normalizes on write: zero-count pairs are dropped; unsorted,
/// duplicate, or out-of-range ids are an error, not silently reordered.
class CorpusWriter {
public:
  CorpusWriter() = default;
  ~CorpusWriter();
  CorpusWriter(const CorpusWriter &) = delete;
  CorpusWriter &operator=(const CorpusWriter &) = delete;

  bool open(const std::string &Path, uint32_t ShardId, uint32_t NumSites,
            uint32_t NumPredicates, std::string &Error);
  bool append(const FeedbackReport &Report, std::string &Error);
  /// Emits footer + trailer and patches the header. The writer is closed
  /// afterwards regardless of the outcome.
  bool finalize(std::string &Error);

  bool isOpen() const { return Stream != nullptr; }
  uint32_t reportsWritten() const { return NumReports; }
  /// Bytes emitted so far (header + records; footer only after finalize).
  uint64_t bytesWritten() const { return Offset; }

private:
  std::FILE *Stream = nullptr;
  std::string Path;
  uint32_t ShardId = 0;
  uint32_t NumSites = 0;
  uint32_t NumPredicates = 0;
  uint32_t NumReports = 0;
  uint64_t Offset = 0;
  uint32_t BodyHash = 0;
  std::vector<uint64_t> RecordOffsets;
  std::string Scratch; // Current record's encoding buffer.
};

/// Reads one shard. open() loads the file whole and runs the validating
/// pass over it, so a corrupt shard is rejected before any record is
/// returned. Records then decode again on demand, each into a full
/// FeedbackReport: sequentially via next(), or from any index after seek()
/// using the footer offsets. Memory is one shard's bytes.
class CorpusReader {
public:
  bool open(const std::string &Path, std::string &Error);

  const CorpusShardHeader &header() const { return Header; }
  uint64_t shardBytes() const { return DataSize; }

  /// Decodes the next record into a full FeedbackReport. Returns false at
  /// the end of the shard (Error empty) or on malformed input (Error set).
  bool next(FeedbackReport &Out, std::string &Error);

  /// Repositions the sequential cursor onto record \p Record.
  bool seek(uint32_t Record);

private:
  CorpusShardHeader Header;
  std::unique_ptr<char[]> Data;
  uint64_t DataSize = 0;
  uint64_t FooterStart = 0;
  uint32_t Cursor = 0; // Next record to decode.
};

/// Shard files of \p Dir (entries matching shard-*.sbic), sorted by
/// filename — the canonical record order of a corpus.
std::vector<std::string> listCorpusShards(const std::string &Dir);

/// Canonical shard filename for \p ShardId ("shard-000042.sbic").
std::string corpusShardName(uint32_t ShardId);

/// Readies \p Dir for a new corpus: creates it if needed and deletes the
/// shard files listCorpusShards finds there, so the corpus written next
/// replaces any older one instead of mixing with it. Other files are left
/// alone. Spilling campaigns, writeCorpus and `sbi corpus merge` call this
/// before their first shard.
bool clearCorpusDir(const std::string &Dir, std::string &Error);

/// Writes \p Set as a v2 corpus of \p ReportsPerShard-record shards under
/// \p Dir, replacing any corpus already there (clearCorpusDir). The
/// record order equals the set order.
bool writeCorpus(const ReportSet &Set, const std::string &Dir,
                 uint32_t ReportsPerShard, std::string &Error);

/// Materializes a full ReportSet from a corpus, recorded counts and
/// provenance included (prune verification needs the counts; analysis
/// should prefer ingestCorpus). All shards must agree on the
/// site/predicate dimensions. On failure \p Out is left untouched.
bool readCorpus(const std::string &Dir, ReportSet &Out, std::string &Error);

/// Ingestion throughput accounting, also mirrored into telemetry when
/// enabled (phase "corpus_ingest", counters corpus.ingest.*).
struct CorpusIngestStats {
  uint64_t Shards = 0;
  uint64_t Reports = 0;
  uint64_t Bytes = 0;
  double Seconds = 0.0;
};

/// Ingests every shard of \p Dir into a RunProfiles store without ever
/// materializing a ReportSet. Shards run the validating pass in parallel
/// (one task per shard, \p Threads workers resolved via support/Parallel),
/// each into id arrays sized from its record bytes. Once every shard has
/// verified, each id is copied once, in filename order, into a store of
/// exact size, so the result — and every analysis over it — is
/// bit-identical to the in-memory path for any thread count. Memory peaks
/// at every shard's ids plus the merged store; on failure \p Out is left
/// untouched and the error names the shard.
bool ingestCorpus(const std::string &Dir, RunProfiles &Out, size_t Threads,
                  std::string &Error, CorpusIngestStats *Stats = nullptr);

} // namespace sbi

#endif // SBI_FEEDBACK_CORPUS_H
