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
#include <string_view>
#include <thread>

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

uint32_t fnv1a(uint32_t Hash, const char *Data, size_t Size) {
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= static_cast<uint8_t>(Data[I]);
    Hash *= 16777619u;
  }
  return Hash;
}
constexpr uint32_t Fnv1aBasis = 2166136261u;

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

/// Bounded LEB128 decode; false on truncation or > 64 bits.
bool readVarint(std::string_view Data, size_t &Pos, uint64_t &Out) {
  Out = 0;
  for (int Shift = 0; Shift < 64; Shift += 7) {
    if (Pos >= Data.size())
      return false;
    uint8_t Byte = static_cast<uint8_t>(Data[Pos++]);
    uint64_t Bits = Byte & 0x7f;
    if (Shift == 63 && Bits > 1)
      return false; // Overflows 64 bits.
    Out |= Bits << Shift;
    if (!(Byte & 0x80))
      return true;
  }
  return false; // Continuation bit set past 10 bytes.
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

// --- CorpusReader ----------------------------------------------------------

bool CorpusReader::open(const std::string &Path, std::string &Error) {
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    Error = format("cannot open '%s'", Path.c_str());
    return false;
  }
  std::string Bytes;
  char Buffer[1 << 16];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), In)) > 0)
    Bytes.append(Buffer, Got);
  bool ReadOk = !std::ferror(In);
  std::fclose(In);
  if (!ReadOk) {
    Error = format("read error on '%s'", Path.c_str());
    return false;
  }

  auto reject = [&](const char *Why) {
    Error = format("'%s' is not a valid SBI-CORPUS v2 shard: %s",
                   Path.c_str(), Why);
    return false;
  };
  if (Bytes.size() < CorpusHeaderSize + CorpusTrailerSize)
    return reject("file shorter than header + trailer");
  if (std::memcmp(Bytes.data(), CorpusMagic, sizeof(CorpusMagic)) != 0)
    return reject("bad magic");
  if (readU32(Bytes.data() + 8) != CorpusVersion)
    return reject("unsupported version");

  CorpusShardHeader NewHeader;
  NewHeader.ShardId = readU32(Bytes.data() + 16);
  NewHeader.NumSites = readU32(Bytes.data() + 20);
  NewHeader.NumPredicates = readU32(Bytes.data() + 24);
  NewHeader.NumReports = readU32(Bytes.data() + 28);

  const char *Trailer = Bytes.data() + Bytes.size() - CorpusTrailerSize;
  if (std::memcmp(Trailer + 16, CorpusFooterMagic,
                  sizeof(CorpusFooterMagic)) != 0)
    return reject("bad footer magic (truncated shard?)");
  uint64_t NewFooterStart = readU64(Trailer);
  uint32_t FooterReports = readU32(Trailer + 8);
  uint32_t ExpectedHash = readU32(Trailer + 12);
  if (FooterReports != NewHeader.NumReports)
    return reject("header/footer record counts disagree");
  if (NewFooterStart < CorpusHeaderSize ||
      NewFooterStart + 8ull * FooterReports + CorpusTrailerSize !=
          Bytes.size())
    return reject("footer index does not match file size");
  if (fnv1a(Fnv1aBasis, Bytes.data() + CorpusHeaderSize,
            NewFooterStart - CorpusHeaderSize) != ExpectedHash)
    return reject("record region hash mismatch");

  std::vector<uint64_t> NewOffsets(FooterReports);
  for (uint32_t I = 0; I < FooterReports; ++I) {
    NewOffsets[I] = readU64(Bytes.data() + NewFooterStart + 8ull * I);
    uint64_t Lo = I == 0 ? CorpusHeaderSize : NewOffsets[I - 1];
    if (NewOffsets[I] < Lo || (I == 0 && NewOffsets[I] != CorpusHeaderSize) ||
        (I > 0 && NewOffsets[I] <= NewOffsets[I - 1]) ||
        NewOffsets[I] >= NewFooterStart)
      return reject("footer offsets out of order or out of bounds");
  }
  if (FooterReports == 0 && NewFooterStart != CorpusHeaderSize)
    return reject("empty shard with nonempty record region");

  Header = NewHeader;
  Data = std::move(Bytes);
  Offsets = std::move(NewOffsets);
  FooterStart = NewFooterStart;
  Cursor = 0;
  return true;
}

bool CorpusReader::seek(uint32_t Record) {
  if (Record > Header.NumReports)
    return false;
  Cursor = Record;
  return true;
}

namespace {

/// Sink materializing a full FeedbackReport (conversion paths).
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
  void site(uint32_t Id, uint32_t Count) {
    Out.Counts.SiteObservations.emplace_back(Id, Count);
  }
  void pred(uint32_t Id, uint32_t Count) {
    Out.Counts.TruePredicates.emplace_back(Id, Count);
  }
};

/// Sink appending straight into a RunProfiles store (analysis ingestion).
struct ProfileSink {
  RunProfiles &Out;
  void begin(bool Failed, uint8_t, int, uint64_t BugMask, std::string_view) {
    Out.beginRun(Failed, BugMask);
  }
  void site(uint32_t Id, uint32_t) { Out.addSite(Id); }
  void pred(uint32_t Id, uint32_t) { Out.addPred(Id); }
};

} // namespace

template <typename Sink>
bool CorpusReader::decodeRecord(Sink &&Out, std::string &Error) {
  const uint32_t Record = Cursor;
  const uint64_t End =
      Record + 1 < Header.NumReports ? Offsets[Record + 1] : FooterStart;
  size_t Pos = Offsets[Record];
  std::string_view Bytes(Data.data(), End); // Hard stop at record boundary.

  auto reject = [&](const char *Why) {
    Error = format("shard %u record %u: %s", Header.ShardId, Record, Why);
    return false;
  };
  if (Pos + 2 > Bytes.size())
    return reject("truncated record head");
  uint8_t Flags = static_cast<uint8_t>(Bytes[Pos++]);
  uint8_t Trap = static_cast<uint8_t>(Bytes[Pos++]);
  uint64_t ExitRaw = 0, BugMask = 0;
  if (!readVarint(Bytes, Pos, ExitRaw) || !readVarint(Bytes, Pos, BugMask))
    return reject("bad exit-code or bug-mask varint");
  int64_t ExitCode = zigzagDecode(ExitRaw);
  if (ExitCode < INT32_MIN || ExitCode > INT32_MAX)
    return reject("exit code out of range");

  std::string_view Stack;
  if (Flags & RecordHasStackBit) {
    uint64_t Len = 0;
    if (!readVarint(Bytes, Pos, Len) || Len == 0 ||
        Len > Bytes.size() - Pos)
      return reject("bad stack-signature length");
    Stack = Bytes.substr(Pos, Len);
    Pos += Len;
  }
  Out.begin((Flags & RecordFailedBit) != 0, Trap,
            static_cast<int>(ExitCode), BugMask, Stack);

  auto decodePairs = [&](uint32_t MaxId, auto &&Emit, const char *What) {
    uint64_t Count = 0;
    if (!readVarint(Bytes, Pos, Count) || Count > MaxId) {
      Error = format("shard %u record %u: bad %s pair count",
                     Header.ShardId, Record, What);
      return false;
    }
    uint64_t Id = 0;
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t Delta = 0, Value = 0;
      if (!readVarint(Bytes, Pos, Delta) || !readVarint(Bytes, Pos, Value) ||
          (I > 0 && Delta == 0) || Value == 0 || Value > UINT32_MAX) {
        Error = format("shard %u record %u: bad %s pair encoding",
                       Header.ShardId, Record, What);
        return false;
      }
      Id = I == 0 ? Delta : Id + Delta;
      if (Id >= MaxId) {
        Error = format("shard %u record %u: %s id out of range",
                       Header.ShardId, Record, What);
        return false;
      }
      Emit(static_cast<uint32_t>(Id), static_cast<uint32_t>(Value));
    }
    return true;
  };
  if (!decodePairs(
          Header.NumSites,
          [&](uint32_t Id, uint32_t Count) { Out.site(Id, Count); }, "site"))
    return false;
  if (!decodePairs(
          Header.NumPredicates,
          [&](uint32_t Id, uint32_t Count) { Out.pred(Id, Count); },
          "predicate"))
    return false;
  if (Pos != End)
    return reject("record does not end at footer offset");
  ++Cursor;
  return true;
}

bool CorpusReader::next(FeedbackReport &Out, std::string &Error) {
  Error.clear();
  if (Cursor >= Header.NumReports)
    return false;
  return decodeRecord(ReportSink{Out}, Error);
}

bool CorpusReader::nextInto(RunProfiles &Out, std::string &Error) {
  Error.clear();
  if (Cursor >= Header.NumReports)
    return false;
  return decodeRecord(ProfileSink{Out}, Error);
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

  // One ingestion task per shard: each worker decodes whole shards into
  // private profiles; concatenation in filename order afterwards makes the
  // run numbering independent of the worker count.
  struct ShardResult {
    RunProfiles Profiles;
    std::string Error;
    uint64_t Bytes = 0;
  };
  std::vector<ShardResult> Results(Shards.size());
  std::atomic<size_t> NextShard{0};
  auto worker = [&] {
    for (size_t I = NextShard.fetch_add(1, std::memory_order_relaxed);
         I < Shards.size();
         I = NextShard.fetch_add(1, std::memory_order_relaxed)) {
      ShardResult &Result = Results[I];
      ScopedSpan ShardSpan("ingest_shard", "feedback");
      ShardSpan.arg("shard", I);
      CorpusReader Reader;
      if (!Reader.open(Shards[I], Result.Error))
        continue;
      Result.Bytes = Reader.shardBytes();
      Result.Profiles = RunProfiles(Reader.header().NumSites,
                                    Reader.header().NumPredicates);
      Result.Profiles.reserveRuns(Reader.header().NumReports);
      while (Reader.nextInto(Result.Profiles, Result.Error))
        ;
      ShardSpan.arg("reports", Result.Profiles.size());
    }
  };
  size_t Workers = resolveThreadCount(Threads, Shards.size());
  if (Workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (size_t W = 0; W < Workers; ++W)
      Pool.emplace_back(worker);
    for (std::thread &Thread : Pool)
      Thread.join();
  }

  uint64_t TotalBytes = 0, TotalReports = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    if (!Results[I].Error.empty()) {
      Error = Results[I].Error;
      return false;
    }
    if (I > 0 && (Results[I].Profiles.numSites() !=
                      Results[0].Profiles.numSites() ||
                  Results[I].Profiles.numPredicates() !=
                      Results[0].Profiles.numPredicates())) {
      Error = format("'%s' disagrees on dimensions with '%s'",
                     Shards[I].c_str(), Shards[0].c_str());
      return false;
    }
    TotalBytes += Results[I].Bytes;
    TotalReports += Results[I].Profiles.size();
  }

  RunProfiles Merged(Results[0].Profiles.numSites(),
                     Results[0].Profiles.numPredicates());
  Merged.reserveRuns(TotalReports);
  for (ShardResult &Result : Results)
    Merged.append(std::move(Result.Profiles));
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
