// Bounds-checked little-endian byte codec: the payload primitives shared by
// every binary format in the tree — the annod wire protocol
// (src/server/wire.h), the summary store (src/store/store.h), the ivybc image
// (src/bc/bytecode.h) and the canonical encodings of summary rows and
// findings (FuncSummary::Encode, Finding::Encode).
//
// Encoding: fixed-width LE scalars, u32-length-prefixed strings, u32-counted
// vectors. Every value is self-delimiting, so concatenated encodings parse
// back unambiguously. Decoders are total: any truncated, oversized or
// malformed input returns false — never a crash, never an over-read.
#ifndef SRC_SUPPORT_WIRE_CODEC_H_
#define SRC_SUPPORT_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ivy {

class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutStr(const std::string& s);
  void PutStrVec(const std::vector<std::string>& v);
  void PutI64Vec(const std::vector<int64_t>& v);

  std::string Take() { return std::move(buf_); }
  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

// Bounds-checked reader: every Get* returns false once the payload is
// exhausted or a length prefix overruns the remaining bytes; after the first
// failure all further reads fail too.
class WireReader {
 public:
  // Reads in place: `payload` must outlive the reader.
  explicit WireReader(std::string_view payload) : data_(payload) {}

  bool GetU8(uint8_t* out);
  // Strict: only 0 and 1 decode, so a bool has exactly one encoding.
  bool GetBool(bool* out);
  bool GetU32(uint32_t* out);
  bool GetU64(uint64_t* out);
  bool GetI64(int64_t* out);
  bool GetStr(std::string* out);
  bool GetStrVec(std::vector<std::string>* out);
  bool GetI64Vec(std::vector<int64_t>* out);

  // Marks the payload malformed (a decoder's own semantic check failed);
  // every later read fails.
  bool Fail() {
    ok_ = false;
    return false;
  }

  // True when every payload byte was consumed and nothing failed — message
  // decoders require exact length (trailing garbage is a malformed frame).
  bool Finish() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ivy

#endif  // SRC_SUPPORT_WIRE_CODEC_H_
