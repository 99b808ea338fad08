// One field list per record type, four codecs derived from it.
//
// A record type declares its fields once, as a function template over the
// record and a visitor:
//
//   template <typename Row, typename V>
//   void RowFields(Row& r, V& v) {
//     v.Bool("defined", r.defined);
//     if (r.defined) {
//       v.OptStr("block_witness", r.block_witness);
//     }
//   }
//
// Writers visit a const record, readers a mutable one. Each call names the
// field's JSON key and, through the method chosen, its presence rule. A
// reader assigns each field as it is visited, so a list may branch on a
// field it visited earlier (a row kind) and every codec takes the same
// branch.
//
//   method    JSON (edge form)             binary (canonical form)
//   Bool      always                       u8, 0 or 1
//   Flag      only when true               u8, 0 or 1
//   Int       always                       LE u32 / u64 by the field's width
//   NonNeg    only when >= 0               i64, every negative as -1
//   Str       always                       u32 length + bytes
//   OptStr    only when non-empty          u32 length + bytes
//   Strs      always                       u32 count + strings
//   OptStrs   only when non-empty          u32 count + strings
//   OptInts   only when non-empty          u32 count + i64s
//   IndexMap  only when non-empty; keys    u32 count + (u32 index, strings),
//             are decimal indices          indices ascending
//   Enum      always, by name              u8 <= the enum's largest value
//
// The binary form holds exactly what the JSON emits — an absent JSON field
// and its binary default are the same state — so two records have equal
// encodings exactly when they have equal JSON. The binary reader is strict:
// it accepts only what the binary writer produces (bools are 0/1, NonNeg is
// never below -1, indices ascend and stay in range, enums stay in range), so
// any accepted input re-encodes to itself. Every binary field is
// self-delimiting, so concatenated encodings parse back unambiguously.
#ifndef SRC_SUPPORT_FIELD_LIST_H_
#define SRC_SUPPORT_FIELD_LIST_H_

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/json.h"
#include "src/support/numbers.h"
#include "src/support/wire_codec.h"

namespace ivy {

// The largest IndexMap key either reader accepts; it comfortably exceeds any
// real parameter count.
inline constexpr int kMaxFieldIndex = 4095;

class JsonFieldWriter {
 public:
  void Bool(const char* key, bool b) { j_[key] = Json::MakeBool(b); }
  void Flag(const char* key, bool b) {
    if (b) {
      j_[key] = Json::MakeBool(true);
    }
  }
  template <typename T>
  void Int(const char* key, T v) {
    j_[key] = Json::MakeInt(v);
  }
  void NonNeg(const char* key, int64_t v) {
    if (v >= 0) {
      j_[key] = Json::MakeInt(v);
    }
  }
  void Str(const char* key, const std::string& s) { j_[key] = Json::MakeString(s); }
  void OptStr(const char* key, const std::string& s) {
    if (!s.empty()) {
      Str(key, s);
    }
  }
  void Strs(const char* key, const std::vector<std::string>& v) { j_[key] = StrArray(v); }
  void OptStrs(const char* key, const std::vector<std::string>& v) {
    if (!v.empty()) {
      Strs(key, v);
    }
  }
  void OptInts(const char* key, const std::vector<int64_t>& v) {
    if (v.empty()) {
      return;
    }
    Json arr = Json::MakeArray();
    for (int64_t x : v) {
      arr.Append(Json::MakeInt(x));
    }
    j_[key] = std::move(arr);
  }
  void IndexMap(const char* key, const std::map<int, std::vector<std::string>>& m) {
    if (m.empty()) {
      return;
    }
    Json obj = Json::MakeObject();
    for (const auto& [idx, names] : m) {
      obj[std::to_string(idx)] = StrArray(names);
    }
    j_[key] = std::move(obj);
  }
  template <typename E>
  void Enum(const char* key, E e, E /*max*/, const char* (*name)(E),
            E (*/*parse*/)(const std::string&)) {
    j_[key] = Json::MakeString(name(e));
  }

  Json Take() { return std::move(j_); }

 private:
  static Json StrArray(const std::vector<std::string>& v) {
    Json arr = Json::MakeArray();
    for (const std::string& s : v) {
      arr.Append(Json::MakeString(s));
    }
    return arr;
  }

  Json j_ = Json::MakeObject();
};

// Lenient about JSON types (a mistyped value reads as the field's default,
// as Json::As* does); strict only about IndexMap keys, which must be
// canonical in-range decimal indices — anything else used to alias onto
// index 0. The first such key is reported through error().
class JsonFieldReader {
 public:
  explicit JsonFieldReader(const Json& j) : j_(j) {}

  void Bool(const char* key, bool& b) {
    if (const Json* v = j_.Find(key)) {
      b = v->AsBool();
    }
  }
  void Flag(const char* key, bool& b) { Bool(key, b); }
  template <typename T>
  void Int(const char* key, T& x) {
    if (const Json* v = j_.Find(key)) {
      x = static_cast<T>(v->AsInt(x));
    }
  }
  void NonNeg(const char* key, int64_t& x) { Int(key, x); }
  void Str(const char* key, std::string& s) {
    if (const Json* v = j_.Find(key)) {
      s = v->AsString();
    }
  }
  void OptStr(const char* key, std::string& s) { Str(key, s); }
  void Strs(const char* key, std::vector<std::string>& out) {
    if (const Json* v = j_.Find(key)) {
      ReadStrs(*v, &out);
    }
  }
  void OptStrs(const char* key, std::vector<std::string>& out) { Strs(key, out); }
  void OptInts(const char* key, std::vector<int64_t>& out) {
    if (const Json* v = j_.Find(key)) {
      for (const Json& e : v->array()) {
        out.push_back(e.AsInt());
      }
    }
  }
  void IndexMap(const char* key, std::map<int, std::vector<std::string>>& m) {
    const Json* v = j_.Find(key);
    if (v == nullptr) {
      return;
    }
    for (const auto& [k, names] : v->object()) {
      int idx = 0;
      if (!ParseIndexStrict(k, kMaxFieldIndex, &idx)) {
        if (error_.empty()) {
          error_ = std::string("bad ") + key + " index \"" + k + "\"";
        }
        continue;
      }
      ReadStrs(names, &m[idx]);
    }
  }
  template <typename E>
  void Enum(const char* key, E& e, E /*max*/, const char* (*/*name*/)(E),
            E (*parse)(const std::string&)) {
    if (const Json* v = j_.Find(key)) {
      e = parse(v->AsString());
    }
  }

  const std::string& error() const { return error_; }

 private:
  static void ReadStrs(const Json& v, std::vector<std::string>* out) {
    for (const Json& s : v.array()) {
      out->push_back(s.AsString());
    }
  }

  const Json& j_;
  std::string error_;
};

class BinaryFieldWriter {
 public:
  explicit BinaryFieldWriter(WireWriter* w) : w_(w) {}

  void Bool(const char*, bool b) { w_->PutBool(b); }
  void Flag(const char*, bool b) { w_->PutBool(b); }
  template <typename T>
  void Int(const char*, T v) {
    static_assert(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
    if constexpr (sizeof(T) == 4) {
      w_->PutU32(static_cast<uint32_t>(v));
    } else {
      w_->PutI64(v);
    }
  }
  void NonNeg(const char*, int64_t v) { w_->PutI64(v < 0 ? -1 : v); }
  void Str(const char*, const std::string& s) { w_->PutStr(s); }
  void OptStr(const char*, const std::string& s) { w_->PutStr(s); }
  void Strs(const char*, const std::vector<std::string>& v) { w_->PutStrVec(v); }
  void OptStrs(const char*, const std::vector<std::string>& v) { w_->PutStrVec(v); }
  void OptInts(const char*, const std::vector<int64_t>& v) { w_->PutI64Vec(v); }
  void IndexMap(const char*, const std::map<int, std::vector<std::string>>& m) {
    w_->PutU32(static_cast<uint32_t>(m.size()));
    for (const auto& [idx, names] : m) {
      w_->PutU32(static_cast<uint32_t>(idx));
      w_->PutStrVec(names);
    }
  }
  template <typename E>
  void Enum(const char*, E e, E /*max*/, const char* (*)(E), E (*)(const std::string&)) {
    w_->PutU8(static_cast<uint8_t>(e));
  }

 private:
  WireWriter* w_;
};

// Reads what BinaryFieldWriter wrote; failures latch in the WireReader
// (check r->ok() after the list).
class BinaryFieldReader {
 public:
  explicit BinaryFieldReader(WireReader* r) : r_(r) {}

  void Bool(const char*, bool& b) { r_->GetBool(&b); }
  void Flag(const char*, bool& b) { r_->GetBool(&b); }
  template <typename T>
  void Int(const char*, T& x) {
    static_assert(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
    if constexpr (sizeof(T) == 4) {
      uint32_t v = 0;
      if (r_->GetU32(&v)) {
        x = static_cast<T>(v);
      }
    } else {
      int64_t v = 0;
      if (r_->GetI64(&v)) {
        x = static_cast<T>(v);
      }
    }
  }
  void NonNeg(const char* key, int64_t& x) {
    Int(key, x);
    if (x < -1) {
      r_->Fail();
    }
  }
  void Str(const char*, std::string& s) { r_->GetStr(&s); }
  void OptStr(const char*, std::string& s) { r_->GetStr(&s); }
  void Strs(const char*, std::vector<std::string>& v) { r_->GetStrVec(&v); }
  void OptStrs(const char*, std::vector<std::string>& v) { r_->GetStrVec(&v); }
  void OptInts(const char*, std::vector<int64_t>& v) { r_->GetI64Vec(&v); }
  void IndexMap(const char*, std::map<int, std::vector<std::string>>& m) {
    uint32_t count = 0;
    // Each entry costs at least 8 bytes (index + list count).
    if (!r_->GetU32(&count) || count > r_->remaining() / 8) {
      r_->Fail();
      return;
    }
    m.clear();
    int prev = -1;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t idx = 0;
      if (!r_->GetU32(&idx) || idx > static_cast<uint32_t>(kMaxFieldIndex) ||
          static_cast<int>(idx) <= prev) {
        r_->Fail();
        return;
      }
      prev = static_cast<int>(idx);
      if (!r_->GetStrVec(&m[prev])) {
        return;
      }
    }
  }
  template <typename E>
  void Enum(const char*, E& e, E max, const char* (*)(E), E (*)(const std::string&)) {
    uint8_t v = 0;
    if (!r_->GetU8(&v)) {
      return;
    }
    if (v > static_cast<uint8_t>(max)) {
      r_->Fail();
      return;
    }
    e = static_cast<E>(v);
  }

 private:
  WireReader* r_;
};

}  // namespace ivy

#endif  // SRC_SUPPORT_FIELD_LIST_H_
