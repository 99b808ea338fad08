#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/ir/lower.h"
#include "src/kernel/prelude.h"
#include "src/mc/lexer.h"
#include "src/mc/parser.h"
#include "src/mc/sema.h"
#include "src/support/json.h"
#include "src/support/trace.h"
#include "src/tool/analysis_context.h"
#include "src/vm/builtins.h"

namespace ivybench {

void BeginTraced() {
  ivy::trace::ResetForTest();
  ivy::trace::SetEnabled(true);
}

void EndTraced() { ivy::trace::SetEnabled(false); }

double SpanTotals::Ms(const std::string& name) const {
  auto it = ms.find(name);
  return it == ms.end() ? 0 : it->second;
}

SpanTotals CollectSpans() {
  SpanTotals t;
  ivy::Json root = ivy::trace::TraceSink::ToJson();
  const ivy::Json* events = root.Find("traceEvents");
  if (events == nullptr) {
    return t;
  }
  for (const ivy::Json& ev : events->array()) {
    const ivy::Json* name = ev.Find("name");
    const ivy::Json* dur = ev.Find("dur");
    if (name == nullptr || dur == nullptr) {
      continue;
    }
    t.ms[name->AsString()] += dur->AsDouble() / 1000.0;  // dur is in microseconds
  }
  return t;
}

double HistSumMs(const std::string& name) {
  return static_cast<double>(ivy::trace::GetHistogram(name)->Sum()) / 1000.0;
}

uint64_t HistCount(const std::string& name) { return ivy::trace::GetHistogram(name)->Count(); }

uint64_t CounterValue(const std::string& name) { return ivy::trace::GetCounter(name)->Value(); }

void WriteChromeTrace(const std::string& path) {
  std::string err;
  if (!ivy::trace::TraceSink::WriteJson(path, &err)) {
    std::fprintf(stderr, "ivybench: cannot write trace %s: %s\n", path.c_str(), err.c_str());
  }
}

FrontendReplay ReplayFrontend(const std::vector<std::vector<ivy::SourceFile>>& programs,
                              bool deputy) {
  FrontendReplay r;
  // The replay's own spans go into the Chrome trace whatever the gate says.
  const bool was_enabled = ivy::trace::Enabled();
  ivy::trace::SetEnabled(true);
  struct Restore {
    bool on;
    ~Restore() { ivy::trace::SetEnabled(on); }
  } restore{was_enabled};
  for (const std::vector<ivy::SourceFile>& files : programs) {
    auto comp = std::make_unique<ivy::Compilation>();
    comp->diags = std::make_unique<ivy::DiagEngine>(&comp->sm);
    std::vector<int32_t> ids;
    ids.push_back(comp->sm.AddFile("<prelude>", ivy::PreludeSource()));
    for (const ivy::SourceFile& f : files) {
      ids.push_back(comp->sm.AddFile(f.name, f.text));
    }

    std::vector<std::vector<ivy::Token>> streams;
    double t0 = NowS();
    {
      TRACE_SPAN("mc.lex");
      for (int32_t id : ids) {
        ivy::Lexer lexer(comp->sm, id, comp->diags.get());
        streams.push_back(lexer.Lex());
        r.tokens += static_cast<int64_t>(streams.back().size());
      }
    }
    double t1 = NowS();
    {
      TRACE_SPAN("mc.parse");
      for (std::vector<ivy::Token>& toks : streams) {
        ivy::Parser parser(&comp->prog, std::move(toks), comp->diags.get());
        parser.ParseTranslationUnit();
      }
    }
    double t2 = NowS();
    bool sema_ok = false;
    if (comp->diags->ok()) {
      TRACE_SPAN("mc.sema");
      comp->sema = std::make_unique<ivy::Sema>(
          &comp->prog, comp->diags.get(),
          [](const std::string& name) { return ivy::BuiltinIdForName(name); });
      sema_ok = comp->sema->Run();
    }
    double t3 = NowS();
    r.lex_ms += (t1 - t0) * 1000;
    r.parse_ms += (t2 - t1) * 1000;
    r.sema_ms += (t3 - t2) * 1000;
    if (!sema_ok) {
      r.ok = false;
      r.error = comp->Errors();
      return r;
    }

    ivy::LowerOptions lopts;
    lopts.deputy = deputy;
    {
      TRACE_SPAN("ir.lower");
      ivy::Lowerer lowerer(&comp->prog, comp->sema.get(), comp->diags.get(), lopts);
      comp->module = lowerer.Lower();
    }
    double t4 = NowS();
    r.lower_ms += (t4 - t3) * 1000;
    if (!comp->diags->ok()) {
      r.ok = false;
      r.error = comp->Errors();
      return r;
    }
    for (const ivy::IrFunc& fn : comp->module.funcs) {
      for (const ivy::Block& b : fn.blocks) {
        r.instrs += static_cast<int64_t>(b.instrs.size());
      }
    }
    comp->layouts = ivy::TypeLayoutRegistry::Build(comp->prog);
    comp->ok = true;

    ivy::AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
    {
      TRACE_SPAN("analysis.pointsto");
      r.propagations += ctx.pointsto().solve_propagations();
    }
    double t5 = NowS();
    {
      TRACE_SPAN("analysis.callgraph");
      ctx.callgraph();
    }
    double t6 = NowS();
    r.pointsto_ms += (t5 - t4) * 1000;
    r.callgraph_ms += (t6 - t5) * 1000;
  }
  return r;
}

void SetFrontendMetrics(const FrontendReplay& r, Report* report) {
  report->Set("mc.lex_ms", r.lex_ms, "ms");
  report->Set("mc.parse_ms", r.parse_ms, "ms");
  report->Set("mc.sema_ms", r.sema_ms, "ms");
  report->Set("mc.tokens", static_cast<double>(r.tokens), "count");
  report->Set("ir.lower_ms", r.lower_ms, "ms");
  report->Set("ir.instrs", static_cast<double>(r.instrs), "count");
  report->Set("analysis.pointsto_ms", r.pointsto_ms, "ms");
  report->Set("analysis.callgraph_ms", r.callgraph_ms, "ms");
}

LinkLayers ReadLinkLayers() {
  SpanTotals spans = CollectSpans();
  LinkLayers l;
  l.link_round_ms = HistSumMs("session.link_round_us");
  l.rounds = static_cast<double>(HistCount("session.link_round_us"));
  l.analyses =
      static_cast<double>(CounterValue("session.solve_warm") + CounterValue("session.solve_cold"));
  l.parse_ms = HistSumMs("frontend.parse_us");
  l.sema_ms = HistSumMs("frontend.sema_us");
  l.fingerprint_ms = HistSumMs("frontend.fingerprint_us");
  l.blockstop_ms = spans.Ms("pass.blockstop");
  l.stackcheck_ms = spans.Ms("pass.stackcheck");
  l.errcheck_ms = spans.Ms("pass.errcheck");
  l.locksafe_ms = spans.Ms("pass.locksafe");
  l.steals = static_cast<double>(CounterValue("workqueue.steals"));
  l.idle_waits = static_cast<double>(CounterValue("workqueue.idle_waits"));
  return l;
}

LinkLayers MedianLinkLayers(const std::vector<LinkLayers>& v) {
  LinkLayers out;
  auto med = [&v](double LinkLayers::*field) {
    std::vector<double> xs;
    for (const LinkLayers& l : v) xs.push_back(l.*field);
    return Median(xs);
  };
  for (double LinkLayers::*f :
       {&LinkLayers::link_round_ms, &LinkLayers::rounds, &LinkLayers::analyses,
        &LinkLayers::parse_ms, &LinkLayers::sema_ms, &LinkLayers::fingerprint_ms,
        &LinkLayers::blockstop_ms, &LinkLayers::stackcheck_ms, &LinkLayers::errcheck_ms,
        &LinkLayers::locksafe_ms, &LinkLayers::steals, &LinkLayers::idle_waits}) {
    out.*f = med(f);
  }
  return out;
}

double SetLinkMetrics(const LinkLayers& link, const FrontendReplay& replay, int modules,
                      double useful_modules, Report* report) {
  const double per_analysis =
      (replay.lower_ms + replay.pointsto_ms + replay.callgraph_ms) / std::max(1, modules);
  const double attributed = link.parse_ms + link.sema_ms + link.fingerprint_ms +
                            link.blockstop_ms + link.stackcheck_ms + link.errcheck_ms +
                            link.locksafe_ms + per_analysis * link.analyses;
  report->Set("analysis.fingerprint_ms", link.fingerprint_ms, "ms");
  report->Set("blockstop.ms", link.blockstop_ms, "ms");
  report->Set("stackcheck.ms", link.stackcheck_ms, "ms");
  report->Set("errcheck.ms", link.errcheck_ms, "ms");
  report->Set("locksafe.ms", link.locksafe_ms, "ms");
  report->Set("session.link_rounds", link.rounds, "count");
  report->Set("session.module_analyses", link.analyses, "count");
  report->Set("session.useful_analysis_frac",
              link.analyses > 0 ? useful_modules / link.analyses : 0, "frac");
  report->Set("session.link_round_ms", link.link_round_ms, "ms");
  report->Set("session.link_unattributed_ms", link.link_round_ms - attributed, "ms");
  report->Set("workqueue.steals", link.steals, "count");
  report->Set("workqueue.idle_waits", link.idle_waits, "count");
  return link.link_round_ms > 0 ? attributed / link.link_round_ms : 0;
}

}  // namespace ivybench
