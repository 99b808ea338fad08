#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "src/support/clock.h"
#include "tests/synth_corpus.h"

namespace ivybench {

double NowS() { return static_cast<double>(ivy::MonotonicNowNs()) / 1e9; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Tail TailOf(std::vector<double> v) {
  static const double kLadder[] = {50, 75, 90, 95, 99, 99.9};
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (double p : kLadder) {
    // Nearest-rank percentile: the sample at rank ceil(p/100 * n).
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (rank == 0 || v.size() - rank < 10) {
      break;
    }
    t.pct = p;
    t.value = v[rank - 1];
    t.beyond = v.size() - rank;
  }
  return t;
}

void NameTail(const std::string& name, const Tail& t, Report* report) {
  char buf[96];
  if (t.pct == 0) {
    std::snprintf(buf, sizeof(buf),
                  "(undefined: no percentile has 10 samples beyond it in %zu samples)", t.samples);
    report->Named(name, std::nan(""), "ms", buf);
    return;
  }
  std::snprintf(buf, sizeof(buf), "(p%g of %zu samples, %zu beyond)", t.pct, t.samples,
                t.beyond);
  report->Named(name, t.value, "ms", buf);
}

Yardstick::Yardstick() {
  // A random cyclic permutation (Sattolo's shuffle), so the chase visits
  // every slot before it repeats.
  chase_.resize(kChaseSlots);
  for (uint32_t i = 0; i < kChaseSlots; ++i) chase_[i] = i;
  Rand rng(0x9a4d);
  for (uint32_t i = kChaseSlots - 1; i > 0; --i) std::swap(chase_[i], chase_[rng.Below(i)]);
  Slice();  // warm-up, not recorded
}

double Yardstick::Slice() {
  const double t0 = NowS();
  uint64_t acc = sink_;
  for (int round = 0; round < 4; ++round) {
    std::map<uint64_t, uint64_t> tree;
    uint64_t x = acc | 1;
    for (int i = 0; i < 3000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      tree[x >> 40] = static_cast<uint64_t>(i);
    }
    for (const auto& kv : tree) acc += kv.second;
    uint32_t j = static_cast<uint32_t>(acc % kChaseSlots);
    for (int i = 0; i < 200000; ++i) {
      j = chase_[j];
      acc += j;
    }
  }
  sink_ = acc;
  return MsSince(t0);
}

double Yardstick::Follow(double workload_ms) {
  const int n = std::max(1, static_cast<int>(workload_ms / 100.0 + 0.5));
  for (int i = 0; i < n; ++i) slice_ms_.push_back(Slice());
  const size_t window = std::min(slice_ms_.size(), std::max<size_t>(n, kMinWindow));
  return kNominalSliceMs / Median(std::vector<double>(slice_ms_.end() - window, slice_ms_.end()));
}

double Yardstick::SliceMs() const { return Median(slice_ms_); }

std::string Fmt(double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f %s", v, unit);
  return buf;
}

void Digest::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

uint64_t Rand::Next() {
  s_ ^= s_ >> 12;
  s_ ^= s_ << 25;
  s_ ^= s_ >> 27;
  return s_ * 0x2545f4914f6cdd1dULL;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Report::Named(const std::string& name, double value, const std::string& unit,
                   const std::string& detail) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "= %s %.6f %s", name.c_str(), value, unit.c_str());
  notes.push_back(detail.empty() ? std::string(buf) : std::string(buf) + " " + detail);
}

void Report::Fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "ivybench: GATE FAILED: %s\n", why.c_str());
}

void Report::Print(const Options& opt) const {
  std::printf("workload %s  seed %llu  trace %d  inputs digest %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0, digest.c_str());
  for (const std::string& line : notes) {
    std::printf("  %s\n", line.c_str());
  }
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  std::printf("  = failed_frac %.6f frac (%lld of %lld operations)\n", failed_frac,
              static_cast<long long>(failed), static_cast<long long>(attempted));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  if (correct) {
    for (const auto& [name, vu] : metrics) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
      json += first ? "" : ", ";
      json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + vu.second + "\"}";
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void NoteHostSpeed(const Yardstick& yard, Report* report) {
  report->Note("host speed: yardstick slice median " + Fmt(yard.SliceMs(), "ms") + " of " +
               std::to_string(yard.slices()) + " slices (reference " +
               Fmt(Yardstick::kNominalSliceMs, "ms") +
               "); *_ref_ms = median over iterations of time x reference / the median of the slices "
               "that followed it (at least the last 9)");
}

bool GateEqual(const std::string& what, const std::vector<std::string>& got,
               const std::vector<std::string>& want, Report* report) {
  if (got == want) {
    return true;
  }
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) {
    ++i;
  }
  std::string detail = what + ": " + std::to_string(got.size()) + " lines vs " +
                       std::to_string(want.size()) + " expected; first difference at line " +
                       std::to_string(i);
  if (i < got.size()) {
    detail += "\n    got:  " + got[i].substr(0, 200);
  }
  if (i < want.size()) {
    detail += "\n    want: " + want[i].substr(0, 200);
  }
  report->Fail(detail);
  return false;
}

std::vector<ivy::ModuleSources> LinkedCorpus(uint64_t seed) {
  ivy::LinkedCorpusOptions opt;
  opt.modules = kCorpusModules;
  opt.functions = kCorpusFunctions;
  opt.seed = seed;
  return ivy::GenerateLinkedCorpus(opt);
}

void AddCorpusDigest(const std::vector<ivy::ModuleSources>& corpus, Digest* d) {
  for (const ivy::ModuleSources& m : corpus) {
    d->Add(m.name);
    for (const ivy::SourceFile& f : m.files) {
      d->Add(f.name);
      d->Add(f.text);
    }
  }
}

}  // namespace ivybench
