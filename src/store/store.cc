#include "src/store/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include "src/support/wire_codec.h"

namespace ivy {

namespace {

void SetErr(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what;
  }
}

void SetErrno(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what + ": " + std::strerror(errno);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SourcesDigest(const std::vector<std::pair<std::string, std::string>>& files) {
  // Length framing keeps ("ab","c") and ("a","bc") distinct.
  uint64_t h = 14695981039346656037ull;
  for (const auto& [name, text] : files) {
    uint64_t n = name.size();
    h = Fnv1a64(&n, sizeof n, h);
    h = Fnv1a64(name.data(), name.size(), h);
    uint64_t t = text.size();
    h = Fnv1a64(&t, sizeof t, h);
    h = Fnv1a64(text.data(), text.size(), h);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

std::string EncodeStore(const StoreFile& sf) {
  std::string out;
  out.push_back(static_cast<char>(kStoreMagic0));
  out.push_back(static_cast<char>(kStoreMagic1));
  out.push_back(static_cast<char>(kStoreVersion));
  uint8_t flags = 0;
  if (sf.linked) {
    flags |= kStoreFlagLinked;
  }
  if (sf.converged) {
    flags |= kStoreFlagConverged;
  }
  out.push_back(static_cast<char>(flags));

  WireWriter w;
  w.PutU64(sf.corpus_digest);
  w.PutU32(static_cast<uint32_t>(sf.modules.size()));
  for (const auto& [name, m] : sf.modules) {
    (void)name;
    w.PutStr(m.name);
    w.PutU64(m.source_digest);
    w.PutU32(static_cast<uint32_t>(m.files.size()));
    for (const auto& [fname, text] : m.files) {
      w.PutStr(fname);
      w.PutStr(text);
    }
    w.PutBool(m.analyzed);
    w.PutBool(m.ok);
    w.PutStr(m.compile_errors);
    w.PutStr(m.import_sig);
    w.PutBool(m.has_link_names);
    w.PutStrVec(m.defined_names);
    w.PutStrVec(m.extern_refs);
    w.PutU32(static_cast<uint32_t>(m.findings.size()));
    for (const Finding& f : m.findings) {
      f.Encode(&w);
    }
  }
  w.PutU32(static_cast<uint32_t>(sf.summaries.size()));
  for (const auto& [key, row] : sf.summaries) {
    (void)key;
    row.Encode(&w);
  }
  out += w.Take();
  return out;
}

bool DecodeStore(const std::string& bytes, StoreFile* out, std::string* err) {
  *out = StoreFile{};
  if (bytes.size() < kStoreHeaderSize) {
    SetErr(err, "store file shorter than its header");
    return false;
  }
  const uint8_t m0 = static_cast<uint8_t>(bytes[0]);
  const uint8_t m1 = static_cast<uint8_t>(bytes[1]);
  const uint8_t version = static_cast<uint8_t>(bytes[2]);
  const uint8_t flags = static_cast<uint8_t>(bytes[3]);
  if (m0 != kStoreMagic0 || m1 != kStoreMagic1) {
    SetErr(err, "bad store magic");
    return false;
  }
  if (version != kStoreVersion) {
    SetErr(err, "unsupported store version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kStoreVersion) + ")");
    return false;
  }
  if ((flags & ~(kStoreFlagLinked | kStoreFlagConverged)) != 0) {
    SetErr(err, "unknown store flags");
    return false;
  }
  out->linked = (flags & kStoreFlagLinked) != 0;
  out->converged = (flags & kStoreFlagConverged) != 0;

  const std::string_view body = std::string_view(bytes).substr(kStoreHeaderSize);
  WireReader r(body);
  if (!r.GetU64(&out->corpus_digest)) {
    SetErr(err, "truncated store body");
    return false;
  }
  uint32_t module_count = 0;
  if (!r.GetU32(&module_count) || module_count > body.size()) {
    // Every record is several bytes long, so a count beyond the body size
    // is malformed — reject it before looping (bounds, not trust).
    SetErr(err, "bad module count");
    return false;
  }
  for (uint32_t i = 0; i < module_count; ++i) {
    StoreModule m;
    uint32_t file_count = 0;
    if (!r.GetStr(&m.name) || !r.GetU64(&m.source_digest) ||
        !r.GetU32(&file_count) || file_count > body.size()) {
      SetErr(err, "malformed module record");
      return false;
    }
    for (uint32_t f = 0; f < file_count; ++f) {
      std::string fname;
      std::string text;
      if (!r.GetStr(&fname) || !r.GetStr(&text)) {
        SetErr(err, "malformed module sources");
        return false;
      }
      m.files.emplace_back(std::move(fname), std::move(text));
    }
    uint32_t finding_count = 0;
    if (!r.GetBool(&m.analyzed) || !r.GetBool(&m.ok) || !r.GetStr(&m.compile_errors) ||
        !r.GetStr(&m.import_sig) || !r.GetBool(&m.has_link_names) ||
        !r.GetStrVec(&m.defined_names) || !r.GetStrVec(&m.extern_refs) ||
        !r.GetU32(&finding_count)) {
      SetErr(err, "malformed module record");
      return false;
    }
    for (uint32_t f = 0; f < finding_count; ++f) {
      Finding finding;
      if (!Finding::Decode(&r, &finding)) {
        SetErr(err, "malformed finding in module '" + m.name + "'");
        return false;
      }
      m.findings.push_back(std::move(finding));
    }
    // Strictly ascending names: no duplicates, and one byte form per store.
    if (m.name.empty() ||
        (!out->modules.empty() && out->modules.rbegin()->first >= m.name)) {
      SetErr(err, "empty, duplicate or out-of-order module name in store");
      return false;
    }
    std::string key = m.name;
    out->modules.emplace_hint(out->modules.end(), std::move(key), std::move(m));
  }
  uint32_t summary_count = 0;
  if (!r.GetU32(&summary_count) || summary_count > body.size()) {
    SetErr(err, "bad summary count");
    return false;
  }
  for (uint32_t i = 0; i < summary_count; ++i) {
    FuncSummary row;
    if (!FuncSummary::Decode(&r, &row)) {
      SetErr(err, "malformed summary row");
      return false;
    }
    std::pair<std::string, std::string> key{row.module, row.function};
    if (!out->summaries.empty() && out->summaries.rbegin()->first >= key) {
      SetErr(err, "duplicate or out-of-order summary row " + key.first + ":" + key.second);
      return false;
    }
    out->summaries.emplace_hint(out->summaries.end(), std::move(key), std::move(row));
  }
  if (!r.Finish()) {
    SetErr(err, "trailing bytes after store payload");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

bool ReadStoreFile(const std::string& path, StoreFile* out, std::string* err) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    SetErr(err, "cannot open store '" + path + "'");
    return false;
  }
  // One read into a buffer of the file's size; the body decodes in place.
  const std::streamoff size = in.tellg();
  if (size < 0) {
    SetErr(err, "read error on store '" + path + "'");
    return false;
  }
  if (static_cast<uint64_t>(size) > kMaxStoreBytes) {
    SetErr(err, "store '" + path + "' exceeds the size cap");
    return false;
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  if (!in.seekg(0) || !in.read(bytes.data(), size)) {
    SetErr(err, "read error on store '" + path + "'");
    return false;
  }
  std::string derr;
  if (!DecodeStore(bytes, out, &derr)) {
    SetErr(err, "store '" + path + "': " + derr);
    return false;
  }
  return true;
}

bool WriteStoreFile(const std::string& path, const StoreFile& sf, std::string* err) {
  return WriteStoreBytes(path, EncodeStore(sf), err);
}

bool WriteStoreBytes(const std::string& path, const std::string& bytes, std::string* err) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      SetErr(err, "cannot create '" + tmp + "'");
      return false;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      SetErr(err, "write error on '" + tmp + "'");
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SetErrno(err, "rename('" + tmp + "' -> '" + path + "')");
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// StoreLock
// ---------------------------------------------------------------------------

bool StoreLock::Acquire(const std::string& store_path, std::string* err) {
  Release();
  const std::string lock_path = store_path + ".lock";
  int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    SetErrno(err, "open('" + lock_path + "')");
    return false;
  }
  // Blocking: workers queue up behind each other's merge cycles; a cycle is
  // one read + one rename, so the wait is short.
  int rc;
  do {
    rc = ::flock(fd, LOCK_EX);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    SetErrno(err, "flock('" + lock_path + "')");
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

void StoreLock::Release() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
    fd_ = -1;
  }
}

bool UpdateStoreFileLocked(const std::string& path, bool (*fn)(StoreFile*, void*),
                           void* arg, std::string* err) {
  StoreLock lock;
  if (!lock.Acquire(path, err)) {
    return false;
  }
  StoreFile sf;
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    if (!ReadStoreFile(path, &sf, err)) {
      return false;
    }
  }
  if (!fn(&sf, arg)) {
    return false;  // fn sets *err (or aborts deliberately)
  }
  return WriteStoreFile(path, sf, err);
}

}  // namespace ivy
