#include "src/server/wire.h"

namespace ivy {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kOpenCorpus:
      return "open_corpus";
    case MsgType::kCloseCorpus:
      return "close_corpus";
    case MsgType::kQueryFindings:
      return "query_findings";
    case MsgType::kQuerySummaries:
      return "query_summaries";
    case MsgType::kUpsertModule:
      return "upsert_module";
    case MsgType::kReplaceFunction:
      return "replace_function";
    case MsgType::kRemoveModule:
      return "remove_module";
    case MsgType::kStats:
      return "stats";
    case MsgType::kSync:
      return "sync";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kOk:
      return "ok";
    case MsgType::kError:
      return "error";
    case MsgType::kEpoch:
      return "epoch";
    case MsgType::kFindings:
      return "findings";
    case MsgType::kSummaries:
      return "summaries";
    case MsgType::kStatsReply:
      return "stats_reply";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

std::string EncodeFrame(MsgType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  out.append(payload);
  return out;
}

bool DecodeFrameHeader(const uint8_t header[kFrameHeaderSize], MsgType* type,
                       uint32_t* length, std::string* err) {
  if (header[0] != kWireMagic0 || header[1] != kWireMagic1) {
    if (err != nullptr) {
      *err = "bad frame magic";
    }
    return false;
  }
  if (header[2] != kWireVersion) {
    if (err != nullptr) {
      *err = "unsupported wire version " + std::to_string(header[2]) +
             " (speaking " + std::to_string(kWireVersion) + ")";
    }
    return false;
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
  if (len > kMaxFramePayload) {
    if (err != nullptr) {
      *err = "frame payload length " + std::to_string(len) + " exceeds cap " +
             std::to_string(kMaxFramePayload);
    }
    return false;
  }
  *type = static_cast<MsgType>(header[3]);
  *length = len;
  return true;
}

int ReadFrame(Socket& sock, Frame* out, std::string* err) {
  uint8_t header[kFrameHeaderSize];
  bool eof = false;
  if (!sock.ReadFull(header, sizeof(header), &eof, err)) {
    return eof ? 0 : -1;
  }
  uint32_t len = 0;
  if (!DecodeFrameHeader(header, &out->type, &len, err)) {
    return -1;
  }
  out->payload.resize(len);
  if (len > 0 && !sock.ReadFull(&out->payload[0], len, nullptr, err)) {
    return -1;
  }
  return 1;
}

bool WriteFrame(Socket& sock, MsgType type, const std::string& payload,
                std::string* err) {
  if (payload.size() > kMaxFramePayload) {
    if (err != nullptr) {
      *err = "refusing to send oversized frame";
    }
    return false;
  }
  std::string bytes = EncodeFrame(type, payload);
  return sock.WriteFull(bytes.data(), bytes.size(), err);
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

std::string CorpusMsg::Encode() const {
  WireWriter w;
  w.PutStr(corpus);
  return w.Take();
}

bool CorpusMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetStr(&corpus) && r.Finish();
}

std::string FindingsQueryMsg::Encode() const {
  WireWriter w;
  w.PutStr(corpus);
  w.PutU64(epoch);
  w.PutStr(function);
  w.PutStr(tool);
  w.PutStr(module);
  return w.Take();
}

bool FindingsQueryMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetStr(&corpus) && r.GetU64(&epoch) && r.GetStr(&function) &&
         r.GetStr(&tool) && r.GetStr(&module) && r.Finish();
}

std::string SummariesQueryMsg::Encode() const {
  WireWriter w;
  w.PutStr(corpus);
  w.PutU64(epoch);
  w.PutStr(function);
  w.PutStr(module);
  return w.Take();
}

bool SummariesQueryMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetStr(&corpus) && r.GetU64(&epoch) && r.GetStr(&function) &&
         r.GetStr(&module) && r.Finish();
}

std::string UpsertModuleMsg::Encode() const {
  WireWriter w;
  w.PutStr(corpus);
  w.PutStr(module);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (const auto& [name, text] : files) {
    w.PutStr(name);
    w.PutStr(text);
  }
  return w.Take();
}

bool UpsertModuleMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  uint32_t count = 0;
  if (!r.GetStr(&corpus) || !r.GetStr(&module) || !r.GetU32(&count)) {
    return false;
  }
  if (count > payload.size() / 8) {  // 8 bytes minimum per (name, text) pair
    return false;
  }
  files.clear();
  files.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::string text;
    if (!r.GetStr(&name) || !r.GetStr(&text)) {
      return false;
    }
    files.emplace_back(std::move(name), std::move(text));
  }
  return r.Finish();
}

std::string ReplaceFunctionMsg::Encode() const {
  WireWriter w;
  w.PutStr(corpus);
  w.PutStr(module);
  w.PutStr(function);
  w.PutStr(definition);
  return w.Take();
}

bool ReplaceFunctionMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetStr(&corpus) && r.GetStr(&module) && r.GetStr(&function) &&
         r.GetStr(&definition) && r.Finish();
}

std::string RemoveModuleMsg::Encode() const {
  WireWriter w;
  w.PutStr(corpus);
  w.PutStr(module);
  return w.Take();
}

bool RemoveModuleMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetStr(&corpus) && r.GetStr(&module) && r.Finish();
}

std::string ErrorMsg::Encode() const {
  WireWriter w;
  w.PutStr(message);
  return w.Take();
}

bool ErrorMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetStr(&message) && r.Finish();
}

std::string EpochMsg::Encode() const {
  WireWriter w;
  w.PutU64(epoch);
  return w.Take();
}

bool EpochMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetU64(&epoch) && r.Finish();
}

std::string RowsReplyMsg::Encode() const {
  WireWriter w;
  w.PutU64(epoch);
  w.PutU64(total);
  w.PutStrVec(rows);
  return w.Take();
}

bool RowsReplyMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetU64(&epoch) && r.GetU64(&total) && r.GetStrVec(&rows) && r.Finish();
}

std::string StatsReplyMsg::Encode() const {
  WireWriter w;
  w.PutU64(epoch);
  w.PutU32(modules);
  w.PutU64(findings);
  w.PutU64(summary_rows);
  w.PutU32(link_rounds);
  w.PutU8(converged);
  w.PutU32(queued_edits);
  w.PutU64(relinks);
  w.PutStrVec(apply_errors);
  // v2 metrics block (see wire.h version history).
  w.PutU64(request_count);
  w.PutU64(request_p50_us);
  w.PutU64(request_p95_us);
  w.PutU64(request_p99_us);
  w.PutU64(publish_count);
  w.PutU64(publish_p50_us);
  w.PutU64(publish_p99_us);
  w.PutU32(edit_queue_peak);
  return w.Take();
}

bool StatsReplyMsg::Decode(const std::string& payload) {
  WireReader r(payload);
  return r.GetU64(&epoch) && r.GetU32(&modules) && r.GetU64(&findings) &&
         r.GetU64(&summary_rows) && r.GetU32(&link_rounds) && r.GetU8(&converged) &&
         r.GetU32(&queued_edits) && r.GetU64(&relinks) && r.GetStrVec(&apply_errors) &&
         r.GetU64(&request_count) && r.GetU64(&request_p50_us) &&
         r.GetU64(&request_p95_us) && r.GetU64(&request_p99_us) &&
         r.GetU64(&publish_count) && r.GetU64(&publish_p50_us) &&
         r.GetU64(&publish_p99_us) && r.GetU32(&edit_queue_peak) && r.Finish();
}

}  // namespace ivy
