#include "src/tool/finding.h"

#include "src/support/field_list.h"
#include "src/support/source.h"

namespace ivy {

const char* FindingSeverityName(FindingSeverity s) {
  switch (s) {
    case FindingSeverity::kNote:
      return "note";
    case FindingSeverity::kWarning:
      return "warning";
    case FindingSeverity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

FindingSeverity SeverityFromName(const std::string& name) {
  if (name == "note") {
    return FindingSeverity::kNote;
  }
  if (name == "error") {
    return FindingSeverity::kError;
  }
  return FindingSeverity::kWarning;
}

// The field list of a finding (src/support/field_list.h). The rendered "at"
// location is not a field: it needs the producing compilation's
// SourceManager, so only ToJson adds it.
template <typename F, typename V>
void FindingFields(F& f, V& v) {
  v.Str("tool", f.tool);
  v.Enum("severity", f.severity, FindingSeverity::kError, FindingSeverityName,
         SeverityFromName);
  v.Int("file", f.loc.file);
  v.Int("line", f.loc.line);
  v.Int("col", f.loc.col);
  v.Str("message", f.message);
  v.Strs("witness", f.witness);
  v.OptStr("module", f.module);
}

}  // namespace

Json Finding::ToJson(const SourceManager* sm) const {
  JsonFieldWriter v;
  FindingFields(*this, v);
  Json j = v.Take();
  if (sm != nullptr && loc.IsValid()) {
    j["at"] = Json::MakeString(sm->Render(loc));
  }
  return j;
}

Finding Finding::FromJson(const Json& j) {
  Finding f;
  JsonFieldReader v(j);
  FindingFields(f, v);
  return f;
}

void Finding::Encode(WireWriter* w) const {
  BinaryFieldWriter v(w);
  FindingFields(*this, v);
}

std::string Finding::Encode() const {
  WireWriter w;
  Encode(&w);
  return w.Take();
}

bool Finding::Decode(WireReader* r, Finding* out) {
  *out = Finding{};
  BinaryFieldReader v(r);
  FindingFields(*out, v);
  return r->ok();
}

bool Finding::Decode(const std::string& bytes, Finding* out) {
  WireReader r(bytes);
  return Decode(&r, out) && r.Finish();
}

std::string Finding::ToString(const SourceManager* sm) const {
  std::string out = "[" + tool + "] ";
  out += FindingSeverityName(severity);
  if (sm != nullptr && loc.IsValid()) {
    out += " at " + sm->Render(loc);
  }
  out += ": " + message;
  if (!witness.empty()) {
    out += " (";
    for (size_t i = 0; i < witness.size(); ++i) {
      if (i > 0) {
        out += " -> ";
      }
      out += witness[i];
    }
    out += ")";
  }
  return out;
}

bool FindingQuery::Matches(const Finding& f) const {
  if (!tool.empty() && f.tool != tool) {
    return false;
  }
  if (!module.empty() && f.module != module) {
    return false;
  }
  if (function.empty()) {
    return true;
  }
  for (const std::string& step : f.witness) {
    if (step == function || step == "calls " + function) {
      return true;
    }
  }
  return f.message.find("'" + function + "'") != std::string::npos;
}

int ToolResult::CountAtLeast(FindingSeverity min) const {
  int n = 0;
  for (const Finding& f : findings_) {
    if (static_cast<int>(f.severity) >= static_cast<int>(min)) {
      ++n;
    }
  }
  return n;
}

int64_t ToolResult::Metric(const std::string& key, int64_t def) const {
  auto it = metrics_.find(key);
  return it == metrics_.end() ? def : it->second;
}

Json ToolResult::ToJson(const SourceManager* sm) const {
  Json j = Json::MakeObject();
  j["tool"] = Json::MakeString(tool_);
  if (!summary_.empty()) {
    j["summary"] = Json::MakeString(summary_);
  }
  Json fs = Json::MakeArray();
  for (const Finding& f : findings_) {
    fs.Append(f.ToJson(sm));
  }
  j["findings"] = std::move(fs);
  Json ms = Json::MakeObject();
  for (const auto& [key, v] : metrics_) {
    ms[key] = Json::MakeInt(v);
  }
  j["metrics"] = std::move(ms);
  return j;
}

}  // namespace ivy
