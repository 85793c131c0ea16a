// perfbench: times the three paths users run — the full Table I, a
// vgpu-serve queue and the vgpu-grade suite — from outside, by calling the
// libraries' public functions.
//
//   perfbench --workload table1|serve|grade --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--pins PATH] [--write-pins]
//
// One workload per process, one client thread, a closed loop. --trace 0
// prints the end-to-end metrics; --trace 1 alternates untraced and traced
// batches and prints the per-layer metrics taken from the traced batches'
// spans, plus the tracing overhead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the line before it holds
// the run's exact counts. Exit code 0 means the run finished (its outputs
// may still have failed their checks: see "correct").

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

int Tracer::open(const char* name, long long op) {
  int parent = open_.empty() ? -1 : open_.back();
  double now = ms_between(t0_, Clock::now());
  spans_.push_back(Span{name, now, now, parent, op});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id, const char* rename) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ms = ms_between(t0_, Clock::now());
  if (rename != nullptr) s.name = rename;
  open_.erase(std::find(open_.begin(), open_.end(), id));
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.start_ms * 1e3,
                  s.duration_ms() * 1e3, i, s.parent, s.op);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Pins Pins::load(const std::string& path) {
  Pins p;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    if (!(fields >> key >> value))
      throw std::runtime_error(path + ": malformed pin line: " + line);
    p.values_[key] = value;
  }
  return p;
}

Pins Pins::recorder() {
  Pins p;
  p.recording_ = true;
  return p;
}

bool Pins::check(const std::string& key, const std::string& observed) {
  if (recording_) {
    values_[key] = observed;
    return true;
  }
  auto it = values_.find(key);
  return it != values_.end() && it->second == observed;
}

bool Pins::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "# perfbench pinned outputs: <key> <value>. Regenerate with\n"
         "# perfbench --workload W --write-pins after an intended change.\n";
  for (const auto& [key, value] : values_) out << key << ' ' << value << '\n';
  return static_cast<bool>(out);
}

void merge_counts(Samples& s, const std::map<std::string, double>& batch) {
  if (s.counts.empty())
    s.counts = batch;
  else if (s.counts != batch)
    s.consistent = false;
}

int batch_count(const Options& o, double nominal_batch_s) {
  return std::max(o.trace ? 2 : 1,
                  static_cast<int>(std::lround(o.seconds / nominal_batch_s)));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

std::map<long long, double> best_by_position(const Tracer& t, const char* name,
                                             long long ops_per_batch) {
  std::map<long long, double> best;
  for (const Tracer::Span& s : t.spans()) {
    if (std::strcmp(s.name, name) != 0) continue;
    auto [it, fresh] = best.emplace(s.op % ops_per_batch, s.duration_ms());
    if (!fresh) it->second = std::min(it->second, s.duration_ms());
  }
  return best;
}

void save_trace(const Options& o, const Tracer& t) {
  std::string path = o.work_dir + "/trace_" + o.workload + ".json";
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (!t.write_chrome_trace(path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"batch_s", "s"},    {"pair_geomean_ms", "ms"},
    {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"}, {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"core.warpdiv_ms", "ms"},      {"core.dynparallel_ms", "ms"},
    {"core.conkernels_ms", "ms"},   {"core.taskgraph_ms", "ms"},
    {"core.shmem_mm_ms", "ms"},     {"core.comem_ms", "ms"},
    {"core.memalign_ms", "ms"},     {"core.gsoverlap_ms", "ms"},
    {"core.shuffle_ms", "ms"},      {"core.bankredux_ms", "ms"},
    {"core.hdoverlap_ms", "ms"},    {"core.readonly_ms", "ms"},
    {"core.unimem_ms", "ms"},       {"core.minitransfer_ms", "ms"},
    {"core.host_ms", "ms"},         {"rt.ctor_ms", "ms"},
    {"sim.execute_ms", "ms"},       {"sim.merge_ms", "ms"},
    {"sim.blocks", "count"},        {"sim.instructions", "count"},
    {"mem.gld_transactions", "count"}, {"mem.smem_ops", "count"},
    {"mem.bank_conflicts", "count"}, {"um.migrated_bytes", "count"},
    {"serve.miss_ms", "ms"},        {"serve.hit_ms", "ms"},
    {"serve.hit_ratio", "ratio"},   {"serve.hits", "count"},
    {"serve.misses", "count"},      {"serve.registry_ms", "ms"},
    {"serve.overhead_ms", "ms"},    {"serve.report_ms", "ms"},
    {"serve.persist_stores", "count"}, {"fault.retries", "count"},
    {"multi.job_ms", "ms"},         {"san.cost_ratio", "ratio"},
    {"prof.cost_ratio", "ratio"},   {"advise.cost_ratio", "ratio"},
    {"grade.verdict_ms", "ms"},     {"grade.json_ms", "ms"},
    {"grade.gate_fails", "count"},  {"trace.overhead", "ratio"},
};

/// Each op's fastest repeat over the batches that were (or were not)
/// traced, and the batch time those make up with the fastest time outside
/// any op. README.md explains why the best repeat, not the median.
struct Best {
  std::vector<double> op_ms;
  double batch_ms = 0;
};

Best best_of(const Samples& s, bool traced) {
  Best b;
  double extra = 0;
  bool first = true;
  for (const Batch& batch : s.batches) {
    if (batch.traced != traced) continue;
    if (first) {
      b.op_ms = batch.op_ms;
      extra = batch.extra_ms;
      first = false;
      continue;
    }
    for (std::size_t j = 0; j < b.op_ms.size(); ++j)
      b.op_ms[j] = std::min(b.op_ms[j], batch.op_ms[j]);
    extra = std::min(extra, batch.extra_ms);
  }
  b.batch_ms = extra;
  for (double ms : b.op_ms) b.batch_ms += ms;
  return b;
}

/// Geometric mean over pairs of each pair's time (the sum of its ops).
double pair_geomean(const Best& b, const std::vector<std::string>& op_pair) {
  std::map<std::string, double> pair_ms;
  for (std::size_t j = 0; j < b.op_ms.size(); ++j)
    if (!op_pair[j].empty()) pair_ms[op_pair[j]] += b.op_ms[j];
  if (pair_ms.empty()) return 0;
  double log_sum = 0;
  for (const auto& [id, ms] : pair_ms) log_sum += std::log(ms);
  return std::exp(log_sum / static_cast<double>(pair_ms.size()));
}

/// The highest percentile of the N per-op best times that has at least ten
/// of them above it: the 11th slowest op, percentile 100 * (N - 10) / N.
/// serve: p86.8 of 76 jobs; grade: p66.7 of 30 verdicts; table1: p28.6 of
/// 14 pairs, which is no tail (README.md).
double tail(std::vector<double> op_ms) {
  constexpr std::size_t kAbove = 10;
  if (op_ms.empty()) return 0;
  std::sort(op_ms.rbegin(), op_ms.rend());
  return op_ms[std::min(kAbove, op_ms.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const Samples& s, const std::map<std::string, double>& values,
                   const Metric* list, std::size_t n) {
  std::string out = "{\"correct\": ";
  out += s.failed == 0 && s.consistent && s.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(s.attempted);
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    auto it = values.find(list[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    out += std::string(i == 0 ? "" : ", ") + "\"" + list[i].name +
           "\": {\"value\": " + json_number(v) + ", \"unit\": \"" +
           list[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_counts(const Samples& s) {
  std::string out = "counts {";
  bool first = true;
  for (const auto& [name, v] : s.counts) {
    out += std::string(first ? "" : ", ") + "\"" + name + "\": " + json_number(v);
    first = false;
  }
  out += "}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table1|serve|grade --seed N "
               "--seconds S --trace 0|1\n"
               "                 [--work-dir DIR] [--pins PATH] [--write-pins]\n");
  return 2;
}

bool parse(int argc, char** argv, Options* o) {
  using namespace std::string_view_literals;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    try {
      if (a == "--write-pins") o->write_pins = true;
      else if (a == "--workload" && value(&v)) o->workload = v;
      else if (a == "--seed" && value(&v)) o->seed = std::stoull(v);
      else if (a == "--seconds" && value(&v)) o->seconds = std::stod(v);
      else if (a == "--trace" && value(&v) && (v == "0"sv || v == "1"sv))
        o->trace = v == "1"sv;
      else if (a == "--work-dir" && value(&v)) o->work_dir = v;
      else if (a == "--pins" && value(&v)) o->pins_path = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return (o->workload == "table1" || o->workload == "serve" ||
          o->workload == "grade") &&
         o->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The libraries' legacy paths still consult VGPU_* variables; a stray one
  // would silently change what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "VGPU_", 5) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  Options o;
  if (!parse(argc, argv, &o)) return usage();
  if (o.work_dir.empty()) o.work_dir = ".bench_build/perfbench-work";
  if (o.pins_path.empty())
    o.pins_path =
        std::string(PERFBENCH_REPO_ROOT) + "/perfbench/pins/" + o.workload + ".txt";

  Samples s;
  try {
    Pins pins = o.write_pins ? Pins::recorder() : Pins::load(o.pins_path);
    if (o.workload == "table1") s = run_table1(o, pins);
    else if (o.workload == "serve") s = run_serve(o, pins);
    else s = run_grade(o, pins);
    if (o.write_pins) {
      if (!pins.save(o.pins_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", o.pins_path.c_str());
        return 2;
      }
      std::fprintf(stderr, "perfbench: wrote %zu pins to %s\n", pins.size(),
                   o.pins_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  print_counts(s);
  std::map<std::string, double> values;
  Best untraced = best_of(s, false);
  if (!o.trace) {
    values["setup_s"] = *std::min_element(s.setup_ms.begin(), s.setup_ms.end()) / 1e3;
    values["batch_s"] = untraced.batch_ms / 1e3;
    values["pair_geomean_ms"] = pair_geomean(untraced, s.op_pair);
    values["op_p50_ms"] = median(untraced.op_ms);
    values["op_tail_ms"] = tail(untraced.op_ms);
    values["peak_rss_mb"] = peak_rss_mb();
    print_metrics(s, values, kEndToEnd, std::size(kEndToEnd));
  } else {
    values = s.layers;
    for (const auto& [name, v] : s.counts) values[name] = v;
    values["trace.overhead"] = best_of(s, true).batch_ms / untraced.batch_ms;
    print_metrics(s, values, kPerLayer, std::size(kPerLayer));
  }
  return 0;
}
