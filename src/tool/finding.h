// The unified finding record shared by every tool pass (the API half of the
// paper's "suite of tools" story): one schema for what a tool reports — which
// tool, how severe, where, what, and the witness chain explaining *why*
// (e.g. the call path by which a callee may block). The six bespoke report
// structs (BlockStopReport, LockSafeReport, ...) remain available as
// tool-specific views through ToolResult::DetailAs<>, but everything that
// crosses tool boundaries — merging, JSON export, the annotation repository —
// speaks Finding.
#ifndef SRC_TOOL_FINDING_H_
#define SRC_TOOL_FINDING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/support/json.h"
#include "src/support/source.h"

namespace ivy {

class SourceManager;
class WireReader;
class WireWriter;

enum class FindingSeverity { kNote, kWarning, kError };

const char* FindingSeverityName(FindingSeverity s);

struct Finding {
  std::string tool;
  FindingSeverity severity = FindingSeverity::kWarning;
  SourceLoc loc;
  std::string message;
  // The justification chain, innermost first (e.g. caller, callee, the
  // blocking primitive at the root; or the lock cycle for a deadlock).
  std::vector<std::string> witness;
  // Provenance: which corpus module produced this finding. Stamped by
  // AnalysisSession on its merged output; empty for single-program runs
  // (and then absent from the JSON, so legacy exports are unchanged). The
  // annotation repository retracts by this key when a module is re-analyzed.
  std::string module;

  // Both forms below derive from one field list (finding.cc). The JSON is
  // the edge form; `sm` is optional: with it the JSON carries a rendered
  // "at" location in addition to the raw file/line/col triple.
  Json ToJson(const SourceManager* sm = nullptr) const;
  static Finding FromJson(const Json& j);

  // The canonical binary form the store holds: the fields of
  // ToJson(nullptr), self-delimiting, so two findings have equal encodings
  // exactly when they have equal JSON. Decode is strict (it accepts only
  // bytes Encode produces); on failure *out must be discarded.
  void Encode(WireWriter* w) const;
  std::string Encode() const;
  static bool Decode(WireReader* r, Finding* out);
  // Decodes one whole encoding: trailing bytes are rejected.
  static bool Decode(const std::string& bytes, Finding* out);

  std::string ToString(const SourceManager* sm = nullptr) const;
};

// One findings query, shared by the annodb_query CLI (file mode), the annod
// server's query handler, and the client library — a single definition of
// "matches" so connected and offline queries can never diverge. Empty fields
// match everything; `function` matches a finding whose witness chain mentions
// the function (bare or as "calls <fn>") or whose message quotes it ('name').
struct FindingQuery {
  std::string function;
  std::string tool;
  std::string module;

  bool Matches(const Finding& f) const;
};

// What one pass returns: findings, scalar metrics (the counters the old
// report structs carried), a one-paragraph summary, and the legacy
// tool-specific report for callers that still want the full view.
class ToolResult {
 public:
  ToolResult() = default;
  explicit ToolResult(std::string tool) : tool_(std::move(tool)) {}

  const std::string& tool() const { return tool_; }

  void AddFinding(Finding f) { findings_.push_back(std::move(f)); }
  const std::vector<Finding>& findings() const { return findings_; }
  std::vector<Finding>& findings() { return findings_; }

  // Findings at least as severe as `min`.
  int CountAtLeast(FindingSeverity min) const;

  void SetMetric(const std::string& key, int64_t v) { metrics_[key] = v; }
  int64_t Metric(const std::string& key, int64_t def = 0) const;
  const std::map<std::string, int64_t>& metrics() const { return metrics_; }

  void set_summary(std::string s) { summary_ = std::move(s); }
  const std::string& summary() const { return summary_; }

  // Legacy view: stores the tool's original report struct. DetailAs is
  // type-checked: asking for the wrong type (e.g. after a registered pass
  // was shadowed by one storing a different report) returns nullptr.
  template <typename T>
  void SetDetail(T value) {
    detail_ = std::make_shared<T>(std::move(value));
    detail_type_ = &typeid(T);
  }
  template <typename T>
  const T* DetailAs() const {
    if (detail_type_ == nullptr || *detail_type_ != typeid(T)) {
      return nullptr;
    }
    return static_cast<const T*>(detail_.get());
  }

  Json ToJson(const SourceManager* sm = nullptr) const;

 private:
  std::string tool_;
  std::vector<Finding> findings_;
  std::map<std::string, int64_t> metrics_;
  std::string summary_;
  std::shared_ptr<const void> detail_;
  const std::type_info* detail_type_ = nullptr;
};

}  // namespace ivy

#endif  // SRC_TOOL_FINDING_H_
