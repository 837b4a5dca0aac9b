//===- trace/TraceIO.cpp - Trace serialization -----------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

using namespace opd;

namespace {

constexpr char BranchMagic[4] = {'O', 'P', 'D', 'B'};
constexpr char CallLoopMagic[4] = {'O', 'P', 'D', 'C'};
constexpr uint32_t FormatVersion = 1;

struct FileCloser {
  void operator()(std::FILE *F) const {
    if (F)
      std::fclose(F);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

FileHandle openFile(const std::string &Path, const char *Mode,
                    IOStatus &Status) {
  FileHandle F(std::fopen(Path.c_str(), Mode));
  if (!F)
    Status = IOStatus::failure("cannot open '" + Path + "'");
  return F;
}

template <typename T> bool writeScalar(std::FILE *F, T Value) {
  return std::fwrite(&Value, sizeof(T), 1, F) == 1;
}

template <typename T> bool readScalar(std::FILE *F, T &Value) {
  return std::fread(&Value, sizeof(T), 1, F) == 1;
}

IOStatus checkHeader(std::FILE *F, const char (&Magic)[4],
                     const std::string &Path) {
  char Buf[4];
  uint32_t Version = 0;
  if (std::fread(Buf, 1, 4, F) != 4 || std::memcmp(Buf, Magic, 4) != 0)
    return IOStatus::failure("'" + Path + "': bad magic, not an OPD trace");
  if (!readScalar(F, Version) || Version != FormatVersion)
    return IOStatus::failure("'" + Path + "': unsupported format version");
  return IOStatus::success();
}

/// The bytes between the current position of \p F and its end, or false
/// if the stream cannot tell (it is not seekable).
bool bytesLeft(std::FILE *F, uint64_t &Left) {
  long Here = std::ftell(F);
  if (Here < 0 || std::fseek(F, 0, SEEK_END) != 0)
    return false;
  long End = std::ftell(F);
  if (End < Here || std::fseek(F, Here, SEEK_SET) != 0)
    return false;
  Left = static_cast<uint64_t>(End - Here);
  return true;
}

/// Checks decoded call-loop events against CallLoopTrace's invariants
/// before they are appended: offsets never decrease, and every exit
/// closes the innermost open enter of its kind and id. Enters still open
/// at the end are allowed (a halted run stops inside them).
class CallLoopEventCheck {
  std::vector<CallLoopEvent> Open;
  uint64_t LastOffset = 0;

public:
  /// The reason the next event (\p Kind, \p Id, \p Offset) is rejected,
  /// or nullptr if it is well placed.
  const char *check(CallLoopEventKind Kind, uint32_t Id, uint64_t Offset) {
    if (Offset < LastOffset)
      return "event out of time order";
    LastOffset = Offset;
    if (isEnterEvent(Kind)) {
      Open.push_back({Kind, Id, Offset});
      return nullptr;
    }
    CallLoopEventKind Enter = isLoopEvent(Kind)
                                  ? CallLoopEventKind::LoopEnter
                                  : CallLoopEventKind::MethodEnter;
    if (Open.empty() || Open.back().Kind != Enter || Open.back().Id != Id)
      return "improperly nested event";
    Open.pop_back();
    return nullptr;
  }
};

} // namespace

IOStatus opd::writeBranchTraceBinary(const BranchTrace &Trace,
                                     const std::string &Path) {
  IOStatus Status;
  FileHandle F = openFile(Path, "wb", Status);
  if (!F)
    return Status;
  uint64_t Count = Trace.size();
  if (std::fwrite(BranchMagic, 1, 4, F.get()) != 4 ||
      !writeScalar(F.get(), FormatVersion) || !writeScalar(F.get(), Count))
    return IOStatus::failure("'" + Path + "': short write");
  for (uint64_t I = 0; I != Count; ++I) {
    uint32_t Raw = Trace.sites().element(Trace[I]).raw();
    if (!writeScalar(F.get(), Raw))
      return IOStatus::failure("'" + Path + "': short write");
  }
  return IOStatus::success();
}

IOStatus opd::readBranchTraceBinary(const std::string &Path,
                                    BranchTrace &Trace) {
  IOStatus Status;
  FileHandle F = openFile(Path, "rb", Status);
  if (!F)
    return Status;
  if (IOStatus Header = checkHeader(F.get(), BranchMagic, Path); !Header)
    return Header;
  uint64_t Count = 0;
  if (!readScalar(F.get(), Count))
    return IOStatus::failure("'" + Path + "': truncated header");
  // The header count is untrusted: check it against the file size before
  // reserving for it.
  uint64_t Left = 0;
  bool Sized = bytesLeft(F.get(), Left);
  uint64_t Fits = Left / sizeof(uint32_t);
  if (Sized && Count > Fits)
    return IOStatus::failure(
        "'" + Path + "': truncated element stream (" + std::to_string(Count) +
        " elements in the header, " + std::to_string(Fits) + " in the file)");
  BranchTrace Result;
  if (Sized)
    Result.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    uint32_t Raw = 0;
    if (!readScalar(F.get(), Raw))
      return IOStatus::failure("'" + Path + "': truncated element stream");
    Result.append(ProfileElement::fromRaw(Raw));
  }
  Trace = std::move(Result);
  return IOStatus::success();
}

IOStatus opd::writeBranchTraceText(const BranchTrace &Trace,
                                   const std::string &Path) {
  IOStatus Status;
  FileHandle F = openFile(Path, "w", Status);
  if (!F)
    return Status;
  std::fprintf(F.get(), "# OPD branch trace: methodId bytecodeOffset taken\n");
  for (uint64_t I = 0, E = Trace.size(); I != E; ++I) {
    ProfileElement El = Trace.sites().element(Trace[I]);
    if (std::fprintf(F.get(), "%u %u %u\n", El.methodId(),
                     El.bytecodeOffset(), El.taken() ? 1 : 0) < 0)
      return IOStatus::failure("'" + Path + "': short write");
  }
  return IOStatus::success();
}

IOStatus opd::readBranchTraceText(const std::string &Path,
                                  BranchTrace &Trace) {
  IOStatus Status;
  FileHandle F = openFile(Path, "r", Status);
  if (!F)
    return Status;
  BranchTrace Result;
  char Line[256];
  uint64_t LineNo = 0;
  while (std::fgets(Line, sizeof(Line), F.get())) {
    ++LineNo;
    if (Line[0] == '#' || Line[0] == '\n' || Line[0] == '\0')
      continue;
    unsigned MethodId = 0, Offset = 0, Taken = 0;
    if (std::sscanf(Line, "%u %u %u", &MethodId, &Offset, &Taken) != 3 ||
        MethodId > ProfileElement::MaxMethodId ||
        Offset > ProfileElement::MaxOffset || Taken > 1)
      return IOStatus::failure("'" + Path + "': malformed record at line " +
                               std::to_string(LineNo));
    Result.append(ProfileElement(MethodId, Offset, Taken != 0));
  }
  Trace = std::move(Result);
  return IOStatus::success();
}

IOStatus opd::writeCallLoopTraceBinary(const CallLoopTrace &Trace,
                                       const std::string &Path) {
  IOStatus Status;
  FileHandle F = openFile(Path, "wb", Status);
  if (!F)
    return Status;
  uint64_t Count = Trace.size();
  if (std::fwrite(CallLoopMagic, 1, 4, F.get()) != 4 ||
      !writeScalar(F.get(), FormatVersion) || !writeScalar(F.get(), Count))
    return IOStatus::failure("'" + Path + "': short write");
  for (const CallLoopEvent &E : Trace.events()) {
    uint8_t Kind = static_cast<uint8_t>(E.Kind);
    if (!writeScalar(F.get(), Kind) || !writeScalar(F.get(), E.Id) ||
        !writeScalar(F.get(), E.Offset))
      return IOStatus::failure("'" + Path + "': short write");
  }
  return IOStatus::success();
}

IOStatus opd::readCallLoopTraceBinary(const std::string &Path,
                                      CallLoopTrace &Trace) {
  IOStatus Status;
  FileHandle F = openFile(Path, "rb", Status);
  if (!F)
    return Status;
  if (IOStatus Header = checkHeader(F.get(), CallLoopMagic, Path); !Header)
    return Header;
  uint64_t Count = 0;
  if (!readScalar(F.get(), Count))
    return IOStatus::failure("'" + Path + "': truncated header");
  CallLoopTrace Result;
  CallLoopEventCheck Check;
  for (uint64_t I = 0; I != Count; ++I) {
    uint8_t Kind = 0;
    uint32_t Id = 0;
    uint64_t Offset = 0;
    if (!readScalar(F.get(), Kind) || !readScalar(F.get(), Id) ||
        !readScalar(F.get(), Offset))
      return IOStatus::failure("'" + Path + "': truncated event stream");
    if (Kind > static_cast<uint8_t>(CallLoopEventKind::MethodExit))
      return IOStatus::failure("'" + Path + "': invalid event kind");
    if (const char *Why =
            Check.check(static_cast<CallLoopEventKind>(Kind), Id, Offset))
      return IOStatus::failure("'" + Path + "': " + Why + " at index " +
                               std::to_string(I));
    Result.append(static_cast<CallLoopEventKind>(Kind), Id, Offset);
  }
  Trace = std::move(Result);
  return IOStatus::success();
}

IOStatus opd::writeCallLoopTraceText(const CallLoopTrace &Trace,
                                     const std::string &Path) {
  IOStatus Status;
  FileHandle F = openFile(Path, "w", Status);
  if (!F)
    return Status;
  std::fprintf(F.get(), "# OPD call-loop trace: LE|LX|ME|MX id offset\n");
  static const char *const Mnemonics[] = {"LE", "LX", "ME", "MX"};
  for (const CallLoopEvent &E : Trace.events()) {
    if (std::fprintf(F.get(), "%s %u %llu\n",
                     Mnemonics[static_cast<unsigned>(E.Kind)], E.Id,
                     static_cast<unsigned long long>(E.Offset)) < 0)
      return IOStatus::failure("'" + Path + "': short write");
  }
  return IOStatus::success();
}

IOStatus opd::readCallLoopTraceText(const std::string &Path,
                                    CallLoopTrace &Trace) {
  IOStatus Status;
  FileHandle F = openFile(Path, "r", Status);
  if (!F)
    return Status;
  CallLoopTrace Result;
  CallLoopEventCheck Check;
  char Line[256];
  uint64_t LineNo = 0;
  while (std::fgets(Line, sizeof(Line), F.get())) {
    ++LineNo;
    if (Line[0] == '#' || Line[0] == '\n' || Line[0] == '\0')
      continue;
    char Mnemonic[3] = {};
    unsigned Id = 0;
    unsigned long long Offset = 0;
    if (std::sscanf(Line, "%2s %u %llu", Mnemonic, &Id, &Offset) != 3)
      return IOStatus::failure("'" + Path + "': malformed record at line " +
                               std::to_string(LineNo));
    CallLoopEventKind Kind;
    if (std::strcmp(Mnemonic, "LE") == 0)
      Kind = CallLoopEventKind::LoopEnter;
    else if (std::strcmp(Mnemonic, "LX") == 0)
      Kind = CallLoopEventKind::LoopExit;
    else if (std::strcmp(Mnemonic, "ME") == 0)
      Kind = CallLoopEventKind::MethodEnter;
    else if (std::strcmp(Mnemonic, "MX") == 0)
      Kind = CallLoopEventKind::MethodExit;
    else
      return IOStatus::failure("'" + Path + "': unknown mnemonic at line " +
                               std::to_string(LineNo));
    if (const char *Why = Check.check(Kind, Id, Offset))
      return IOStatus::failure("'" + Path + "': " + Why + " at line " +
                               std::to_string(LineNo));
    Result.append(Kind, Id, Offset);
  }
  Trace = std::move(Result);
  return IOStatus::success();
}
