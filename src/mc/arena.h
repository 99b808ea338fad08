// Arena storage for the Mini-C AST: chunked node slabs with stable
// addresses, a bump allocator for child-list arrays, and a deduplicating
// string interner.
//
// Design (see docs/ARCHITECTURE.md "Frontend"):
//   - Expr/Stmt/VarDecl nodes live in per-kind slabs of fixed-size chunks.
//     Addresses never move, so consumers use plain pointers.
//   - Child lists (call args, block bodies) are arena-allocated arrays, not
//     std::vectors: one bump allocation per list, nothing to destruct.
//   - Identifier/string spellings are interned: nodes hold a string_view
//     into arena-owned bytes, one copy per spelling.
//   - Everything a slab or the bump arena owns is trivially destructible
//     (static_asserted in ast.h), so dropping the arena frees the whole AST
//     in O(chunks) — error-path parses cannot leak by construction.
#ifndef SRC_MC_ARENA_H_
#define SRC_MC_ARENA_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ivy {

// Chunked byte arena for child-list arrays and interned string bytes.
// Addresses are stable; nothing is ever freed individually.
class BumpArena {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;

  void* Alloc(size_t n, size_t align) {
    if (n == 0) {
      return nullptr;
    }
    used_ += n;
    if (n > kChunkBytes / 4) {
      chunks_.emplace_back(new char[n]);
      reserved_ += n;
      return chunks_.back().get();
    }
    size_t off = (cur_off_ + align - 1) & ~(align - 1);
    if (cur_ == nullptr || off + n > kChunkBytes) {
      chunks_.emplace_back(new char[kChunkBytes]);
      reserved_ += kChunkBytes;
      cur_ = chunks_.back().get();
      off = 0;
    }
    cur_off_ = off + n;
    return cur_ + off;
  }

  // Copies `s` into the arena and returns a stable view of it.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) {
      return std::string_view();
    }
    char* p = static_cast<char*>(Alloc(s.size(), 1));
    std::memcpy(p, s.data(), s.size());
    return std::string_view(p, s.size());
  }

  size_t used_bytes() const { return used_; }
  size_t reserved_bytes() const { return reserved_; }

 private:
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;
  size_t cur_off_ = 0;
  size_t used_ = 0;
  size_t reserved_ = 0;
};

// A stable-address slab of T: nodes packed into 512-element chunks.
template <typename T>
class NodeSlab {
 public:
  static constexpr uint32_t kChunkShift = 9;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  T* New() {
    if ((count_ & kChunkMask) == 0) {
      chunks_.emplace_back(new T[kChunkSize]);
    }
    T* p = &chunks_.back()[count_ & kChunkMask];
    ++count_;
    return p;
  }

  uint32_t size() const { return count_; }

  size_t bytes() const { return chunks_.size() * kChunkSize * sizeof(T); }

 private:
  uint32_t count_ = 0;
  std::vector<std::unique_ptr<T[]>> chunks_;
};

// Immutable snapshot of an interner's state, shareable across arenas. The
// FrontendCache takes one right after the prelude parse of the first module
// compile; every later module seeds its interner from it, so prelude
// identifier bytes are stored once per session instead of once per module.
// Ids are preserved exactly: seeding is equivalent to re-interning the same
// strings in the same order.
struct InternSnapshot {
  std::string bytes;  // concatenated string contents (stable once built)
  std::vector<std::pair<uint32_t, uint32_t>> spans;  // (offset, length) per id
};

// Deduplicating string interner.
class StringInterner {
 public:
  explicit StringInterner(BumpArena* bytes) : bytes_(bytes) {}

  // A stable view of the one stored copy of `s`.
  std::string_view Intern(std::string_view s) {
    auto it = map_.find(s);
    if (it != map_.end()) {
      return views_[it->second];
    }
    std::string_view stored = bytes_->CopyString(s);
    map_.emplace(stored, static_cast<uint32_t>(views_.size()));
    views_.push_back(stored);
    return stored;
  }

  std::string_view View(uint32_t id) const { return views_[id]; }
  uint32_t size() const { return static_cast<uint32_t>(views_.size()); }

  // Seeds this (empty) interner from a snapshot. The snapshot's byte buffer
  // is shared, not copied; `base` keeps it alive for the arena's lifetime.
  void Seed(std::shared_ptr<const InternSnapshot> base) {
    if (base == nullptr || size() != 0) {
      return;
    }
    views_.reserve(base->spans.size());
    for (const auto& [off, len] : base->spans) {
      std::string_view v(base->bytes.data() + off, len);
      map_.emplace(v, static_cast<uint32_t>(views_.size()));
      views_.push_back(v);
    }
    base_ = std::move(base);
  }

  std::shared_ptr<const InternSnapshot> Snapshot() const {
    auto snap = std::make_shared<InternSnapshot>();
    size_t total = 0;
    for (std::string_view v : views_) {
      total += v.size();
    }
    snap->bytes.reserve(total);
    snap->spans.reserve(views_.size());
    for (std::string_view v : views_) {
      snap->spans.emplace_back(static_cast<uint32_t>(snap->bytes.size()),
                               static_cast<uint32_t>(v.size()));
      snap->bytes.append(v);
    }
    return snap;
  }

 private:
  BumpArena* bytes_;
  std::vector<std::string_view> views_;
  std::unordered_map<std::string_view, uint32_t> map_;
  std::shared_ptr<const InternSnapshot> base_;  // keeps seeded bytes alive
};

}  // namespace ivy

#endif  // SRC_MC_ARENA_H_
