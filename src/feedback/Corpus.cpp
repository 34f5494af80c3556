//===- feedback/Corpus.cpp - SBI-CORPUS v2 binary sharded feedback corpus -===//

#include "feedback/Corpus.h"

#include "obs/Telemetry.h"
#include "obs/Tracer.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string_view>

#include <sys/stat.h>

using namespace sbi;

namespace {

// --- Primitive encoding ----------------------------------------------------

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}

void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out += static_cast<char>(V | 0x80);
    V >>= 7;
  }
  Out += static_cast<char>(V);
}

uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

int64_t zigzagDecode(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

constexpr uint32_t Fnv1aBasis = 2166136261u;
constexpr uint32_t Fnv1aPrime = 16777619u;

uint32_t fnv1a(uint32_t Hash, const char *Data, size_t Size) {
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= static_cast<uint8_t>(Data[I]);
    Hash *= Fnv1aPrime;
  }
  return Hash;
}

uint32_t readU32(const char *Data) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(Data[I]);
  return V;
}

uint64_t readU64(const char *Data) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(Data[I]);
  return V;
}

constexpr uint8_t RecordFailedBit = 1u << 0;
constexpr uint8_t RecordHasStackBit = 1u << 1;

/// Encodes one normalized, ascending (id, count) list: count of nonzero
/// pairs, first id absolute, later ids as gaps to the predecessor.
void putPairs(std::string &Out,
              const std::vector<std::pair<uint32_t, uint32_t>> &Pairs) {
  size_t NumNonzero = 0;
  for (const auto &[Id, Count] : Pairs)
    NumNonzero += Count > 0 ? 1 : 0;
  putVarint(Out, NumNonzero);
  bool First = true;
  uint32_t Prev = 0;
  for (const auto &[Id, Count] : Pairs) {
    if (Count == 0)
      continue;
    putVarint(Out, First ? Id : Id - Prev);
    putVarint(Out, Count);
    Prev = Id;
    First = false;
  }
}

/// Validates the ReportSet sparse-list invariant before encoding: strictly
/// ascending ids below \p MaxId. Zero counts are legal input (dropped by
/// putPairs), unsorted or duplicate ids are corruption.
bool checkPairs(const std::vector<std::pair<uint32_t, uint32_t>> &Pairs,
                uint32_t MaxId, const char *What, std::string &Error) {
  for (size_t I = 0; I < Pairs.size(); ++I) {
    if (Pairs[I].first >= MaxId) {
      Error = format("%s id %u out of range (limit %u)", What,
                     Pairs[I].first, MaxId);
      return false;
    }
    if (I > 0 && Pairs[I].first <= Pairs[I - 1].first) {
      Error = format("%s ids not strictly ascending (%u after %u)", What,
                     Pairs[I].first, Pairs[I - 1].first);
      return false;
    }
  }
  return true;
}

} // namespace

// --- CorpusWriter ----------------------------------------------------------

CorpusWriter::~CorpusWriter() {
  if (Stream)
    std::fclose(Stream);
}

bool CorpusWriter::open(const std::string &ShardPath, uint32_t Id,
                        uint32_t Sites, uint32_t Predicates,
                        std::string &Error) {
  if (Stream) {
    Error = "writer already open";
    return false;
  }
  Stream = std::fopen(ShardPath.c_str(), "wb");
  if (!Stream) {
    Error = format("cannot create '%s': %s", ShardPath.c_str(),
                   std::strerror(errno));
    return false;
  }
  Path = ShardPath;
  ShardId = Id;
  NumSites = Sites;
  NumPredicates = Predicates;
  NumReports = 0;
  BodyHash = Fnv1aBasis;
  RecordOffsets.clear();

  Scratch.clear();
  Scratch.append(CorpusMagic, sizeof(CorpusMagic));
  putU32(Scratch, CorpusVersion);
  putU32(Scratch, 0); // Flags.
  putU32(Scratch, ShardId);
  putU32(Scratch, NumSites);
  putU32(Scratch, NumPredicates);
  putU32(Scratch, 0); // Record count, patched by finalize().
  if (std::fwrite(Scratch.data(), 1, Scratch.size(), Stream) !=
      Scratch.size()) {
    Error = format("write error on '%s'", Path.c_str());
    std::fclose(Stream);
    Stream = nullptr;
    return false;
  }
  Offset = Scratch.size();
  return true;
}

bool CorpusWriter::append(const FeedbackReport &Report, std::string &Error) {
  if (!Stream) {
    Error = "writer not open";
    return false;
  }
  if (!checkPairs(Report.Counts.SiteObservations, NumSites, "site", Error) ||
      !checkPairs(Report.Counts.TruePredicates, NumPredicates, "predicate",
                  Error))
    return false;

  Scratch.clear();
  uint8_t Flags = (Report.Failed ? RecordFailedBit : 0) |
                  (Report.StackSignature.empty() ? 0 : RecordHasStackBit);
  Scratch += static_cast<char>(Flags);
  Scratch += static_cast<char>(static_cast<uint8_t>(Report.Trap));
  putVarint(Scratch, zigzagEncode(Report.ExitCode));
  putVarint(Scratch, Report.BugMask);
  if (!Report.StackSignature.empty()) {
    putVarint(Scratch, Report.StackSignature.size());
    Scratch += Report.StackSignature;
  }
  putPairs(Scratch, Report.Counts.SiteObservations);
  putPairs(Scratch, Report.Counts.TruePredicates);

  if (std::fwrite(Scratch.data(), 1, Scratch.size(), Stream) !=
      Scratch.size()) {
    Error = format("write error on '%s'", Path.c_str());
    return false;
  }
  RecordOffsets.push_back(Offset);
  BodyHash = fnv1a(BodyHash, Scratch.data(), Scratch.size());
  Offset += Scratch.size();
  ++NumReports;
  return true;
}

bool CorpusWriter::finalize(std::string &Error) {
  if (!Stream) {
    Error = "writer not open";
    return false;
  }
  Scratch.clear();
  for (uint64_t RecordOffset : RecordOffsets)
    putU64(Scratch, RecordOffset);
  putU64(Scratch, Offset); // Footer start == end of the record region.
  putU32(Scratch, NumReports);
  putU32(Scratch, BodyHash);
  Scratch.append(CorpusFooterMagic, sizeof(CorpusFooterMagic));

  bool Ok = std::fwrite(Scratch.data(), 1, Scratch.size(), Stream) ==
            Scratch.size();
  // Patch the record count into the header now that it is known.
  if (Ok) {
    std::string Count;
    putU32(Count, NumReports);
    Ok = std::fseek(Stream, 28, SEEK_SET) == 0 &&
         std::fwrite(Count.data(), 1, 4, Stream) == 4;
  }
  Ok = std::fclose(Stream) == 0 && Ok;
  Stream = nullptr;
  if (!Ok)
    Error = format("write error finalizing '%s'", Path.c_str());
  return Ok;
}

// --- The validating pass ---------------------------------------------------
//
// Every reader of a shard goes through one pass: one read of the file into
// a buffer sized from it, the structural checks of header, trailer and
// footer, then one decode of every record in which each byte the decoder
// consumes is folded into the FNV-1a hash. The hash is compared with the
// trailer's after the last record. CorpusReader::open runs the pass with no
// sink, ingestCorpus runs it into a shard's id arrays, and neither hands
// out a record of a shard the pass has not accepted.

namespace {

/// A file read whole. Its buffer only grows, so a worker that reads one
/// shard after another into the same FileBytes reuses that memory.
struct FileBytes {
  std::unique_ptr<char[]> Data;
  size_t Size = 0;
  size_t Capacity = 0;
};

/// Reads the file at \p Path whole, with one read into a buffer sized from
/// the file. A file that shrinks while it is read is an error, not a
/// shorter shard.
bool readWholeFile(const std::string &Path, FileBytes &Out,
                   std::string &Error) {
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    Error = format("cannot open '%s': %s", Path.c_str(), std::strerror(errno));
    return false;
  }
  struct stat Info;
  if (fstat(fileno(In), &Info) != 0) {
    Error = format("cannot size '%s': %s", Path.c_str(), std::strerror(errno));
    std::fclose(In);
    return false;
  }
  Out.Size = static_cast<size_t>(Info.st_size);
  if (Out.Size > Out.Capacity) {
    Out.Data = std::make_unique_for_overwrite<char[]>(Out.Size);
    Out.Capacity = Out.Size;
  }
  size_t Got = std::fread(Out.Data.get(), 1, Out.Size, In);
  int Cause = errno;
  bool Failed = std::ferror(In);
  std::fclose(In);
  if (Got == Out.Size)
    return true;
  Error = Failed ? format("read error on '%s': %s", Path.c_str(),
                          std::strerror(Cause))
                 : format("read error on '%s': %zu of %zu bytes before the "
                          "end of the file (it shrank while being read)",
                          Path.c_str(), Got, Out.Size);
  return false;
}

/// What the header and trailer of a shard say, once the structural checks
/// accepted them.
struct ShardLayout {
  CorpusShardHeader Header;
  uint64_t FooterStart = 0;
  uint32_t Hash = 0; // The trailer's FNV-1a of the record region.
};

/// The structural checks of a shard read whole: magic, version, trailer,
/// record counts and the footer's extent. No record byte is read. Returns
/// why the shard is malformed, or null.
const char *checkLayout(const char *Bytes, size_t Size, ShardLayout &Out) {
  if (Size < CorpusHeaderSize + CorpusTrailerSize)
    return "file shorter than header + trailer";
  if (std::memcmp(Bytes, CorpusMagic, sizeof(CorpusMagic)) != 0)
    return "bad magic";
  if (readU32(Bytes + 8) != CorpusVersion)
    return "unsupported version";
  Out.Header.ShardId = readU32(Bytes + 16);
  Out.Header.NumSites = readU32(Bytes + 20);
  Out.Header.NumPredicates = readU32(Bytes + 24);
  Out.Header.NumReports = readU32(Bytes + 28);

  const char *Trailer = Bytes + Size - CorpusTrailerSize;
  if (std::memcmp(Trailer + 16, CorpusFooterMagic,
                  sizeof(CorpusFooterMagic)) != 0)
    return "bad footer magic (truncated shard?)";
  Out.FooterStart = readU64(Trailer);
  uint32_t FooterReports = readU32(Trailer + 8);
  Out.Hash = readU32(Trailer + 12);
  if (FooterReports != Out.Header.NumReports)
    return "header/footer record counts disagree";
  // Measured back from the end of the file, never forward from the start:
  // a footer start near 2^64 must not wrap around into agreement.
  if (Out.FooterStart < CorpusHeaderSize || Out.FooterStart > Size ||
      Size - Out.FooterStart != 8ull * FooterReports + CorpusTrailerSize)
    return "footer index does not match file size";
  if (FooterReports == 0 && Out.FooterStart != CorpusHeaderSize)
    return "empty shard with nonempty record region";
  if (FooterReports > 0 && readU64(Bytes + Out.FooterStart) != CorpusHeaderSize)
    return "footer offsets out of order or out of bounds";
  return nullptr;
}

/// The bytes of one record, consumed front to back. Every byte taken is
/// folded into the running FNV-1a hash, and nothing past End is read.
struct RecordCursor {
  const uint8_t *P;
  const uint8_t *End;
  uint32_t Hash;

  size_t left() const { return static_cast<size_t>(End - P); }

  uint8_t take() {
    uint8_t Byte = *P++;
    Hash = (Hash ^ Byte) * Fnv1aPrime;
    return Byte;
  }

  /// Bounded LEB128 decode; false on truncation or > 64 bits. One- and
  /// two-byte varints, nearly every id gap and count, skip the loop.
  bool varint(uint64_t &Out) {
    if (P != End && *P < 0x80) {
      Out = take();
      return true;
    }
    if (left() >= 2 && P[1] < 0x80) {
      uint64_t Low = take() & 0x7f;
      Out = Low | static_cast<uint64_t>(take()) << 7;
      return true;
    }
    Out = 0;
    for (int Shift = 0; Shift < 64; Shift += 7) {
      if (P == End)
        return false;
      uint8_t Byte = take();
      uint64_t Bits = Byte & 0x7f;
      if (Shift == 63 && Bits > 1)
        return false; // Overflows 64 bits.
      Out |= Bits << Shift;
      if (!(Byte & 0x80))
        return true;
    }
    return false; // Continuation bit set past 10 bytes.
  }

  /// The next \p Len bytes (at most left()), hashed like the rest.
  std::string_view bytes(size_t Len) {
    std::string_view Span(reinterpret_cast<const char *>(P), Len);
    for (size_t I = 0; I < Len; ++I)
      take();
    return Span;
  }
};

/// Why a pair list is malformed: its count, a pair, or an id's range.
struct PairFaults {
  const char *Count;
  const char *Pair;
  const char *Range;
};
constexpr PairFaults SiteFaults = {"bad site pair count",
                                   "bad site pair encoding",
                                   "site id out of range"};
constexpr PairFaults PredFaults = {"bad predicate pair count",
                                   "bad predicate pair encoding",
                                   "predicate id out of range"};

/// Decodes one (id, count) list of ids below \p MaxId, emitting each pair.
/// Returns why the list is malformed, or null.
template <typename Emit>
const char *decodePairs(RecordCursor &In, uint32_t MaxId,
                        const PairFaults &Faults, Emit &&Out) {
  uint64_t Count = 0;
  if (!In.varint(Count) || Count > MaxId)
    return Faults.Count;
  uint64_t Id = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t Gap = 0, Value = 0;
    if (!In.varint(Gap) || !In.varint(Value) || (I > 0 && Gap == 0) ||
        Value == 0 || Value > UINT32_MAX)
      return Faults.Pair;
    // The first id is absolute, later ones are gaps; compared against
    // what is left below MaxId, a gap near 2^64 cannot wrap back into it.
    const uint64_t Base = I == 0 ? 0 : Id;
    if (Gap >= MaxId - Base)
      return Faults.Range;
    Id = Base + Gap;
    Out(static_cast<uint32_t>(Id), static_cast<uint32_t>(Value));
  }
  return nullptr;
}

/// Decodes the record under \p In into \p Out: begin(), the site pairs,
/// endSites(), the predicate pairs. Returns why the record is malformed,
/// or null.
template <typename Sink>
const char *decodeRecord(RecordCursor &In, const CorpusShardHeader &Header,
                         Sink &Out) {
  if (In.left() < 2)
    return "truncated record head";
  uint8_t Flags = In.take();
  uint8_t Trap = In.take();
  uint64_t ExitRaw = 0, BugMask = 0;
  if (!In.varint(ExitRaw) || !In.varint(BugMask))
    return "bad exit-code or bug-mask varint";
  int64_t ExitCode = zigzagDecode(ExitRaw);
  if (ExitCode < INT32_MIN || ExitCode > INT32_MAX)
    return "exit code out of range";

  std::string_view Stack;
  if (Flags & RecordHasStackBit) {
    uint64_t Len = 0;
    if (!In.varint(Len) || Len == 0 || Len > In.left())
      return "bad stack-signature length";
    Stack = In.bytes(Len);
  }
  Out.begin((Flags & RecordFailedBit) != 0, Trap, static_cast<int>(ExitCode),
            BugMask, Stack);
  if (const char *Why =
          decodePairs(In, Header.NumSites, SiteFaults,
                      [&](uint32_t Id, uint32_t Count) { Out.site(Id, Count); }))
    return Why;
  Out.endSites();
  return decodePairs(In, Header.NumPredicates, PredFaults,
                     [&](uint32_t Id, uint32_t Count) { Out.pred(Id, Count); });
}

/// The decode half of the pass, over a shard checkLayout accepted: every
/// record once, in order, into \p Out. The records must tile the record
/// region exactly as the footer offsets say, so the hash, compared with the
/// trailer's after the last record (the FNV basis for an empty shard),
/// covers every byte of the region. Returns why the shard is malformed, or
/// null; \p Record is then the malformed record, or the record count when
/// only the hash disagrees.
template <typename Sink>
const char *decodeShard(const char *Bytes, const ShardLayout &Layout,
                        Sink &Out, uint32_t &Record) {
  const char *Footer = Bytes + Layout.FooterStart;
  const uint32_t NumRecords = Layout.Header.NumReports;
  const auto *File = reinterpret_cast<const uint8_t *>(Bytes);
  uint32_t Hash = Fnv1aBasis;
  uint64_t Begin = CorpusHeaderSize;
  for (Record = 0; Record < NumRecords; ++Record) {
    const uint64_t End = Record + 1 < NumRecords
                             ? readU64(Footer + 8ull * (Record + 1))
                             : Layout.FooterStart;
    if (End <= Begin || End > Layout.FooterStart)
      return "footer offsets out of order or out of bounds";
    RecordCursor In{File + Begin, File + End, Hash};
    if (const char *Why = decodeRecord(In, Layout.Header, Out))
      return Why;
    if (In.P != In.End)
      return "record does not end at footer offset";
    Hash = In.Hash;
    Begin = End;
  }
  return Hash == Layout.Hash ? nullptr : "record region hash mismatch";
}

/// Reads the shard at \p Path whole into \p Bytes and runs the structural
/// checks.
bool loadShard(const std::string &Path, FileBytes &Bytes, ShardLayout &Layout,
               std::string &Error) {
  if (!readWholeFile(Path, Bytes, Error))
    return false;
  if (const char *Why = checkLayout(Bytes.Data.get(), Bytes.Size, Layout)) {
    Error = format("'%s' is not a valid SBI-CORPUS v2 shard: %s",
                   Path.c_str(), Why);
    return false;
  }
  return true;
}

/// Runs the decode half of the pass over the shard loadShard read from
/// \p Path; the error names the shard and, if one is at fault, the record.
template <typename Sink>
bool passShard(const std::string &Path, const char *Bytes,
               const ShardLayout &Layout, Sink &&Out, std::string &Error) {
  uint32_t Record = 0;
  const char *Why = decodeShard(Bytes, Layout, Out, Record);
  if (!Why)
    return true;
  Error = Record < Layout.Header.NumReports
              ? format("'%s' is not a valid SBI-CORPUS v2 shard: record %u: "
                       "%s",
                       Path.c_str(), Record, Why)
              : format("'%s' is not a valid SBI-CORPUS v2 shard: %s",
                       Path.c_str(), Why);
  return false;
}

/// Sink of CorpusReader::open's pass: validation only.
struct NoSink {
  void begin(bool, uint8_t, int, uint64_t, std::string_view) {}
  void endSites() {}
  void site(uint32_t, uint32_t) {}
  void pred(uint32_t, uint32_t) {}
};

/// Sink materializing a full FeedbackReport (CorpusReader::next).
struct ReportSink {
  FeedbackReport &Out;
  void begin(bool Failed, uint8_t Trap, int ExitCode, uint64_t BugMask,
             std::string_view Stack) {
    Out = FeedbackReport();
    Out.Failed = Failed;
    Out.Trap = static_cast<TrapKind>(Trap);
    Out.ExitCode = ExitCode;
    Out.BugMask = BugMask;
    Out.StackSignature.assign(Stack.data(), Stack.size());
  }
  void endSites() {}
  void site(uint32_t Id, uint32_t Count) {
    Out.Counts.SiteObservations.emplace_back(Id, Count);
  }
  void pred(uint32_t Id, uint32_t Count) {
    Out.Counts.TruePredicates.emplace_back(Id, Count);
  }
};

} // namespace

// --- CorpusReader ----------------------------------------------------------

bool CorpusReader::open(const std::string &Path, std::string &Error) {
  FileBytes Bytes;
  ShardLayout Layout;
  if (!loadShard(Path, Bytes, Layout, Error) ||
      !passShard(Path, Bytes.Data.get(), Layout, NoSink(), Error))
    return false;
  Header = Layout.Header;
  Data = std::move(Bytes.Data);
  DataSize = Bytes.Size;
  FooterStart = Layout.FooterStart;
  Cursor = 0;
  return true;
}

bool CorpusReader::seek(uint32_t Record) {
  if (Record > Header.NumReports)
    return false;
  Cursor = Record;
  return true;
}

bool CorpusReader::next(FeedbackReport &Out, std::string &Error) {
  Error.clear();
  if (Cursor >= Header.NumReports)
    return false;
  // open() accepted every record, so the footer offsets bound this one.
  const char *Footer = Data.get() + FooterStart;
  const uint64_t Begin = readU64(Footer + 8ull * Cursor);
  const uint64_t End = Cursor + 1 < Header.NumReports
                           ? readU64(Footer + 8ull * (Cursor + 1))
                           : FooterStart;
  const auto *Bytes = reinterpret_cast<const uint8_t *>(Data.get());
  RecordCursor In{Bytes + Begin, Bytes + End, Fnv1aBasis};
  ReportSink Sink{Out};
  if (const char *Why = decodeRecord(In, Header, Sink)) {
    Error = format("shard %u record %u: %s", Header.ShardId, Cursor, Why);
    return false;
  }
  ++Cursor;
  return true;
}

// --- Directory-level helpers -----------------------------------------------

std::string sbi::corpusShardName(uint32_t ShardId) {
  return format("shard-%06u.sbic", ShardId);
}

std::vector<std::string> sbi::listCorpusShards(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Shards;
  std::error_code Ec;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir, Ec)) {
    if (!Entry.is_regular_file(Ec))
      continue;
    std::string Name = Entry.path().filename().string();
    if (startsWith(Name, "shard-") && Name.size() > 11 &&
        Name.compare(Name.size() - 5, 5, ".sbic") == 0)
      Shards.push_back(Entry.path().string());
  }
  std::sort(Shards.begin(), Shards.end());
  return Shards;
}

bool sbi::clearCorpusDir(const std::string &Dir, std::string &Error) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec) {
    Error = format("cannot create directory '%s': %s", Dir.c_str(),
                   Ec.message().c_str());
    return false;
  }
  for (const std::string &Shard : listCorpusShards(Dir)) {
    fs::remove(Shard, Ec);
    if (Ec) {
      Error = format("cannot remove '%s': %s", Shard.c_str(),
                     Ec.message().c_str());
      return false;
    }
  }
  return true;
}

bool sbi::writeCorpus(const ReportSet &Set, const std::string &Dir,
                      uint32_t ReportsPerShard, std::string &Error) {
  if (ReportsPerShard == 0) {
    Error = "reports-per-shard must be positive";
    return false;
  }
  if (!clearCorpusDir(Dir, Error))
    return false;
  namespace fs = std::filesystem;
  CorpusWriter Writer;
  uint32_t ShardId = 0;
  for (size_t Run = 0; Run < Set.size(); ++Run) {
    if (!Writer.isOpen()) {
      std::string Path = (fs::path(Dir) / corpusShardName(ShardId)).string();
      if (!Writer.open(Path, ShardId, Set.numSites(), Set.numPredicates(),
                       Error))
        return false;
      ++ShardId;
    }
    if (!Writer.append(Set[Run], Error))
      return false;
    if (Writer.reportsWritten() == ReportsPerShard &&
        !Writer.finalize(Error))
      return false;
  }
  if (Writer.isOpen() && !Writer.finalize(Error))
    return false;
  // An empty set still yields a readable corpus: one empty shard.
  if (Set.size() == 0) {
    std::string Path = (fs::path(Dir) / corpusShardName(0)).string();
    if (!Writer.open(Path, 0, Set.numSites(), Set.numPredicates(), Error) ||
        !Writer.finalize(Error))
      return false;
  }
  return true;
}

bool sbi::readCorpus(const std::string &Dir, ReportSet &Out,
                     std::string &Error) {
  std::vector<std::string> Shards = listCorpusShards(Dir);
  if (Shards.empty()) {
    Error = format("no shard-*.sbic files in '%s'", Dir.c_str());
    return false;
  }
  ReportSet Result;
  bool First = true;
  for (const std::string &Path : Shards) {
    CorpusReader Reader;
    if (!Reader.open(Path, Error))
      return false;
    if (First) {
      Result = ReportSet(Reader.header().NumSites,
                         Reader.header().NumPredicates);
      First = false;
    } else if (Reader.header().NumSites != Result.numSites() ||
               Reader.header().NumPredicates != Result.numPredicates()) {
      Error = format("'%s' disagrees on dimensions (%u sites / %u preds vs "
                     "%u / %u)",
                     Path.c_str(), Reader.header().NumSites,
                     Reader.header().NumPredicates, Result.numSites(),
                     Result.numPredicates());
      return false;
    }
    FeedbackReport Report;
    while (Reader.next(Report, Error))
      Result.add(std::move(Report));
    if (!Error.empty())
      return false;
  }
  Out = std::move(Result);
  return true;
}

namespace {

/// One shard's runs as the ingest pass decodes them: each run's site ids
/// and then its predicate ids, back to back in one array. Every id comes
/// from a pair of at least two record bytes, so an array of half as many
/// ids as the record region has bytes never grows.
struct ShardRuns {
  struct Run {
    size_t SiteStart = 0; ///< Where the run's site ids start in Ids.
    size_t PredStart = 0; ///< Where its predicate ids start.
    uint64_t BugMask = 0;
    bool Failed = false;
  };
  std::unique_ptr<uint32_t[]> Ids;
  size_t NumIds = 0;
  size_t NumSiteIds = 0;
  std::vector<Run> Runs;
};

/// Sink of the ingest pass: a shard's runs into its ShardRuns.
struct RunsSink {
  ShardRuns &Out;
  void begin(bool Failed, uint8_t, int, uint64_t BugMask, std::string_view) {
    Out.Runs.push_back({Out.NumIds, Out.NumIds, BugMask, Failed});
  }
  void endSites() {
    Out.Runs.back().PredStart = Out.NumIds;
    Out.NumSiteIds += Out.NumIds - Out.Runs.back().SiteStart;
  }
  void site(uint32_t Id, uint32_t) { Out.Ids[Out.NumIds++] = Id; }
  void pred(uint32_t Id, uint32_t) { Out.Ids[Out.NumIds++] = Id; }
};

} // namespace

bool sbi::ingestCorpus(const std::string &Dir, RunProfiles &Out,
                       size_t Threads, std::string &Error,
                       CorpusIngestStats *Stats) {
  // Per-shard child spans below show decode skew across workers.
  ScopedSpan IngestSpan("corpus_ingest", "feedback");
  auto Start = std::chrono::steady_clock::now();

  std::vector<std::string> Shards = listCorpusShards(Dir);
  if (Shards.empty()) {
    Error = format("no shard-*.sbic files in '%s'", Dir.c_str());
    return false;
  }

  // One task per shard: each worker runs the validating pass over whole
  // shards into their own id arrays. The merge below copies them in
  // filename order, so the run numbering does not depend on the worker
  // count.
  struct ShardResult {
    CorpusShardHeader Header;
    ShardRuns Runs;
    uint64_t Bytes = 0;
    std::string Error;
  };
  std::vector<ShardResult> Results(Shards.size());
  std::atomic<size_t> NextShard{0};
  auto worker = [&] {
    FileBytes Bytes;
    for (size_t I = NextShard.fetch_add(1, std::memory_order_relaxed);
         I < Shards.size();
         I = NextShard.fetch_add(1, std::memory_order_relaxed)) {
      ShardResult &Result = Results[I];
      ScopedSpan ShardSpan("ingest_shard", "feedback");
      ShardSpan.arg("shard", I);
      ShardLayout Layout;
      if (!loadShard(Shards[I], Bytes, Layout, Result.Error))
        continue;
      Result.Header = Layout.Header;
      Result.Bytes = Bytes.Size;
      Result.Runs.Ids = std::make_unique_for_overwrite<uint32_t[]>(
          (Layout.FooterStart - CorpusHeaderSize) / 2);
      Result.Runs.Runs.reserve(Layout.Header.NumReports);
      passShard(Shards[I], Bytes.Data.get(), Layout, RunsSink{Result.Runs},
                Result.Error);
      ShardSpan.arg("reports", Result.Runs.Runs.size());
    }
  };
  runWorkers(resolveThreadCount(Threads, Shards.size()),
             [&](size_t) { worker(); });

  uint64_t TotalBytes = 0, TotalReports = 0;
  size_t TotalSiteIds = 0, TotalPredIds = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    const ShardResult &Result = Results[I];
    if (!Result.Error.empty()) {
      Error = Result.Error;
      return false;
    }
    if (I > 0 && (Result.Header.NumSites != Results[0].Header.NumSites ||
                  Result.Header.NumPredicates !=
                      Results[0].Header.NumPredicates)) {
      Error = format("'%s' disagrees on dimensions with '%s'",
                     Shards[I].c_str(), Shards[0].c_str());
      return false;
    }
    TotalBytes += Result.Bytes;
    TotalReports += Result.Runs.Runs.size();
    TotalSiteIds += Result.Runs.NumSiteIds;
    TotalPredIds += Result.Runs.NumIds - Result.Runs.NumSiteIds;
  }

  // Every shard verified: copy each id once into a store of exact size,
  // releasing each shard's arrays as soon as they are copied.
  RunProfiles Merged(Results[0].Header.NumSites,
                     Results[0].Header.NumPredicates);
  Merged.reserve(TotalReports, TotalSiteIds, TotalPredIds);
  for (ShardResult &Result : Results) {
    const ShardRuns &Shard = Result.Runs;
    const uint32_t *Ids = Shard.Ids.get();
    for (size_t Run = 0; Run < Shard.Runs.size(); ++Run) {
      const ShardRuns::Run &R = Shard.Runs[Run];
      const size_t End = Run + 1 < Shard.Runs.size()
                             ? Shard.Runs[Run + 1].SiteStart
                             : Shard.NumIds;
      Merged.addRun(R.Failed, R.BugMask, {Ids + R.SiteStart, Ids + R.PredStart},
                    {Ids + R.PredStart, Ids + End});
    }
    Result.Runs = ShardRuns();
  }
  Out = std::move(Merged);

  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  if (Stats) {
    Stats->Shards = Shards.size();
    Stats->Reports = TotalReports;
    Stats->Bytes = TotalBytes;
    Stats->Seconds = Seconds;
  }
  if (Telemetry::enabled()) {
    MetricsRegistry &Metrics = Telemetry::metrics();
    static Counter &ShardsTotal =
        Metrics.registerCounter("corpus.ingest.shards_total");
    static Counter &ReportsTotal =
        Metrics.registerCounter("corpus.ingest.reports_total");
    static Counter &BytesTotal =
        Metrics.registerCounter("corpus.ingest.bytes_total");
    static Gauge &MbPerSec =
        Metrics.registerGauge("corpus.ingest.mb_per_sec");
    ShardsTotal.add(Shards.size());
    ReportsTotal.add(TotalReports);
    BytesTotal.add(TotalBytes);
    if (Seconds > 0.0)
      MbPerSec.set(static_cast<double>(TotalBytes) / 1e6 / Seconds);
  }
  return true;
}
