// grade: the shipped vgpu-grade suite — every task's naive and optimized
// submission — through run_grade with the committed tasks/baselines.txt and
// one simulator thread. One batch is one suite; one op is one verdict
// (run_grade plus to_json).
//
// Why: run_grade forces san=full, prof=metrics and advise=full, so observer
// fan-out dominates here, while table1 runs with every observer off.

#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "grade/grade.hpp"
#include "tasks/suite.hpp"

namespace perfbench {

namespace {

using vgpu::grade::Expectation;
using vgpu::grade::PluginEntry;
using vgpu::grade::Verdict;

/// A run of S seconds makes round(S / this) suites, however long they take.
/// On a shared 4-vCPU host a suite's mean time was 0.34 s in quiet spells and
/// 0.56 s in loaded ones, so a 30 s run of 50 suites lasts about 18-29 s.
constexpr double kNominalBatchS = 0.6;

struct Suite {
  vgpu::grade::TaskRegistry tasks;
  vgpu::grade::PluginRegistry plugins;
  std::map<std::string, vgpu::grade::PerfBaseline> baselines;
  std::vector<const PluginEntry*> submissions;
};

/// The per-gate outcome a verdict is pinned to.
std::string gates(const Verdict& v) {
  std::string out = v.status;
  for (bool g : {v.pass, v.functional_pass, v.errors_pass, v.san_pass,
                 v.advise_pass, v.perf_pass})
    out += g ? ":1" : ":0";
  return out;
}

int gate_fails(const Verdict& v) {
  int n = 0;
  for (bool g : {v.functional_pass, v.errors_pass, v.san_pass, v.advise_pass,
                 v.perf_pass})
    n += g ? 0 : 1;
  return n;
}

}  // namespace

Samples run_grade(const Options& o, Pins& pins) {
  Samples s;
  std::unique_ptr<Suite> suite;
  vgpu::grade::GradeOptions opts;
  opts.threads = 1;
  Tracer tracer;
  int batches = batch_count(o, kNominalBatchS);
  long long op = 0;
  for (int b = 0; b < batches; ++b) {
    double setup_ms = 0;
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      auto t0 = Clock::now();
      suite = std::make_unique<Suite>();
      cumb::gradetasks::register_all(suite->tasks, suite->plugins);
      suite->baselines = vgpu::grade::load_baselines(std::string(PERFBENCH_REPO_ROOT) +
                                                     "/tasks/baselines.txt");
      for (const std::string& name : suite->plugins.names())
        suite->submissions.push_back(suite->plugins.find(name));
      setup_ms += ms_between(t0, Clock::now());
    }
    s.setup_ms.push_back(setup_ms / kSetupsPerBatch);
    if (suite->baselines.empty())
      throw std::runtime_error("tasks/baselines.txt is missing or empty");
    opts.baselines = &suite->baselines;
    Batch batch;
    batch.traced = o.trace && b % 2 == 1;
    Tracer* t = batch.traced ? &tracer : nullptr;
    std::vector<Verdict> verdicts;
    std::vector<std::string> json;
    auto b0 = Clock::now();
    {
      Scope whole(t, "grade.suite");
      for (const PluginEntry* e : suite->submissions) {
        auto v0 = Clock::now();
        Scope span(t, "grade.op", op);
        {
          Scope verdict(t, "grade.verdict", op);
          verdicts.push_back(vgpu::grade::run_grade(suite->tasks, suite->plugins,
                                                    e->task, e->name, opts));
        }
        {
          Scope to_json(t, "grade.json", op);
          json.push_back(vgpu::grade::to_json(verdicts.back()));
        }
        batch.op_ms.push_back(ms_between(v0, Clock::now()));
        ++op;
      }
    }
    batch.extra_ms = ms_between(b0, Clock::now());
    for (double ms : batch.op_ms) batch.extra_ms -= ms;

    double fails = 0;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const Verdict& v = verdicts[i];
      const PluginEntry* e = suite->submissions[i];
      bool expected = e->expect == Expectation::kMustPass;
      ++s.attempted;
      if (v.status != "graded" || v.pass != expected || json[i].empty() ||
          !pins.check("grade/" + e->name, gates(v)))
        ++s.failed;
      fails += gate_fails(v);
    }
    merge_counts(s, {{"grade.gate_fails", fails}});
    s.batches.push_back(std::move(batch));
  }
  for (const PluginEntry* e : suite->submissions) s.op_pair.push_back(e->task);

  if (o.trace) {
    long long k = static_cast<long long>(suite->submissions.size());
    std::vector<double> verdict;
    for (const auto& [pos, ms] : best_by_position(tracer, "grade.verdict", k))
      verdict.push_back(ms);
    s.layers["grade.verdict_ms"] = median(verdict);
    double json_ms = 0;
    for (const auto& [pos, ms] : best_by_position(tracer, "grade.json", k)) json_ms += ms;
    s.layers["grade.json_ms"] = json_ms;
    save_trace(o, tracer);
  }
  return s;
}

}  // namespace perfbench
