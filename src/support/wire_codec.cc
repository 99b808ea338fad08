#include "src/support/wire_codec.h"

namespace ivy {

void WireWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::PutStr(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void WireWriter::PutStrVec(const std::vector<std::string>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) {
    PutStr(s);
  }
}

void WireWriter::PutI64Vec(const std::vector<int64_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (int64_t x : v) {
    PutI64(x);
  }
}

bool WireReader::GetU8(uint8_t* out) {
  if (!ok_ || data_.size() - pos_ < 1) {
    ok_ = false;
    return false;
  }
  *out = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::GetBool(bool* out) {
  uint8_t v = 0;
  if (!GetU8(&v)) {
    return false;
  }
  if (v > 1) {
    return Fail();
  }
  *out = v != 0;
  return true;
}

bool WireReader::GetU32(uint32_t* out) {
  if (!ok_ || data_.size() - pos_ < 4) {
    ok_ = false;
    return false;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return true;
}

bool WireReader::GetU64(uint64_t* out) {
  if (!ok_ || data_.size() - pos_ < 8) {
    ok_ = false;
    return false;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return true;
}

bool WireReader::GetI64(int64_t* out) {
  uint64_t v = 0;
  if (!GetU64(&v)) {
    return false;
  }
  *out = static_cast<int64_t>(v);
  return true;
}

bool WireReader::GetStr(std::string* out) {
  uint32_t len = 0;
  if (!GetU32(&len)) {
    return false;
  }
  if (data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool WireReader::GetStrVec(std::vector<std::string>* out) {
  uint32_t count = 0;
  if (!GetU32(&count)) {
    return false;
  }
  // Each element costs at least its 4-byte length prefix, so a count beyond
  // remaining/4 is malformed — reject before reserving anything.
  if (count > (data_.size() - pos_) / 4) {
    return Fail();
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string s;
    if (!GetStr(&s)) {
      return false;
    }
    out->push_back(std::move(s));
  }
  return true;
}

bool WireReader::GetI64Vec(std::vector<int64_t>* out) {
  uint32_t count = 0;
  if (!GetU32(&count)) {
    return false;
  }
  if (count > (data_.size() - pos_) / 8) {
    return Fail();
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int64_t x = 0;
    if (!GetI64(&x)) {
      return false;
    }
    out->push_back(x);
  }
  return true;
}

}  // namespace ivy
