// The persistent analysis store: a versioned on-disk snapshot of a
// session's converged facts, so a fresh process warm-starts from the
// previous run's fixpoint instead of paying a full cold analysis — the
// paper's "analysis cost scales with the edit" property extended across
// process restarts, and the exchange medium for multi-process distributed
// relink (tools/annolink).
//
// File layout (little-endian):
//
//   offset  size  field
//   0       1     magic0 = 0xA7
//   1       1     magic1 = 0xD5        (store; the wire protocol is 0xDB)
//   2       1     version = kStoreVersion
//   3       1     flags (bit0 = linked, bit1 = converged; others reserved)
//   4       ...   body: WireWriter-encoded sections (src/support/wire_codec.h)
//
// Body encoding:
//
//   u64  corpus_digest          pipeline recipe hash — see
//                               AnalysisSession::CorpusDigest(); a mismatch
//                               rejects the whole file (stale recipe)
//   u32  module_count
//        per module:            name, source digest, sources, and — when
//                               `analyzed` — the link-stage state (import
//                               signature, link name sets) plus the
//                               module's unstamped findings, each as
//                               Finding::Encode
//   u32  summary_count
//        per row:               FuncSummary::Encode (the row's module and
//                               function are its key)
//
// Findings and summary rows are typed in memory (Finding, FuncSummary) and
// their canonical binary encodings on disk (src/support/field_list.h):
// DecodeStore decodes each record exactly once, and JSON appears only where
// a tool renders them. Modules and rows
// are written in ascending key order and the decoder requires it, so an
// accepted file re-encodes to the same bytes.
//
// Every field of a module record is always written (zeroed when
// !analyzed), so the decoder is total: fixed schema, no optional sections.
// Decoders are bounds-checked in the wire_codec.h style — truncated,
// oversized, or mutated input returns false, never a crash (fuzzed in
// tests/store_test.cc).
//
// Version policy: strict. kStoreVersion bumps on any schema change and a
// version mismatch rejects the file — a store is a cache of re-derivable
// facts, so the correct fallback is always a cold run, never a migration.
//
// Concurrency: the store file is shared by annolink's worker processes.
// Writers take an advisory flock on `<path>.lock` (StoreLock), write
// `<path>.tmp.<pid>`, and rename() over `<path>` — readers of the plain
// path therefore always see a complete file (append-then-swap), and a
// worker killed mid-merge leaves either the old or the new store, never a
// torn one.
#ifndef SRC_STORE_STORE_H_
#define SRC_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/tool/finding.h"

namespace ivy {

inline constexpr uint8_t kStoreMagic0 = 0xA7;
inline constexpr uint8_t kStoreMagic1 = 0xD5;
// v2: function fingerprints switched to a linear arena-slab hash — old
// stored fingerprints are incomparable.
// v3: import signatures are built from the session's row index in sorted
// name order, with stack facts split out (AnalysisSession::ImportSignatures).
// v4: the per-module preamble and function fingerprint tables are gone
// (every module analysis is one cold solve; nothing read them).
// v5: findings and summary rows are typed records in their binary encodings
// (Finding::Encode, FuncSummary::Encode) instead of JSON strings, and
// modules and rows must appear in ascending key order.
inline constexpr uint8_t kStoreVersion = 5;
inline constexpr uint8_t kStoreFlagLinked = 1u << 0;
inline constexpr uint8_t kStoreFlagConverged = 1u << 1;
inline constexpr size_t kStoreHeaderSize = 4;
// A store holds sources + facts for one corpus; far below this in practice.
inline constexpr uint64_t kMaxStoreBytes = 256ull << 20;

// One module's persisted state. When `analyzed` is false only the sources
// are meaningful (the module was dirty at save time — its analysis fields
// are written zeroed and it re-analyzes cold on load).
struct StoreModule {
  std::string name;
  uint64_t source_digest = 0;  // SourcesDigest(files)
  std::vector<std::pair<std::string, std::string>> files;  // (name, text)

  bool analyzed = false;
  bool ok = false;  // compiled successfully (false: compile_errors applies)
  std::string compile_errors;
  std::string import_sig;
  bool has_link_names = false;
  std::vector<std::string> defined_names;
  std::vector<std::string> extern_refs;
  // Unstamped findings (Finding::module empty), exactly what the session
  // caches per module.
  std::vector<Finding> findings;
};

struct StoreFile {
  uint64_t corpus_digest = 0;
  bool linked = false;     // a RunLinked() table (vs per-module Run() only)
  bool converged = false;  // table reached its fixpoint; false after a
                           // mid-run crash — loaders re-derive from scratch
  std::map<std::string, StoreModule> modules;
  // (module, function) -> the row, stack facts included.
  std::map<std::pair<std::string, std::string>, FuncSummary> summaries;
};

// In-memory encode/decode (the unit the format tests fuzz).
std::string EncodeStore(const StoreFile& sf);
bool DecodeStore(const std::string& bytes, StoreFile* out, std::string* err);

// Whole-file read. Returns false (with *err) on I/O errors, oversized
// files, or any decode failure.
bool ReadStoreFile(const std::string& path, StoreFile* out, std::string* err);

// Atomic replace: write `<path>.tmp.<pid>`, rename() over `<path>`. Does
// NOT take the lock — for callers that already hold a StoreLock (the
// worker merge) or own the file exclusively (a coordinator, a daemon).
bool WriteStoreFile(const std::string& path, const StoreFile& sf, std::string* err);
// The same atomic replace for bytes already encoded by EncodeStore (one
// encoding written to several paths).
bool WriteStoreBytes(const std::string& path, const std::string& bytes, std::string* err);

// RAII advisory lock on `<path>.lock` — serializes the workers'
// read-merge-write cycles against each other. Blocks until acquired.
class StoreLock {
 public:
  StoreLock() = default;
  ~StoreLock() { Release(); }
  StoreLock(const StoreLock&) = delete;
  StoreLock& operator=(const StoreLock&) = delete;

  bool Acquire(const std::string& store_path, std::string* err);
  void Release();
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

// Locked read-modify-write convenience: lock, read-or-empty, mutate via
// `fn`, write, unlock. `fn` returns false to abort without writing.
bool UpdateStoreFileLocked(const std::string& path,
                           bool (*fn)(StoreFile*, void*), void* arg,
                           std::string* err);

// FNV-1a 64 over length-framed (name, text) pairs — the per-module source
// identity the warm-start check compares.
uint64_t SourcesDigest(const std::vector<std::pair<std::string, std::string>>& files);
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed);

}  // namespace ivy

#endif  // SRC_STORE_STORE_H_
