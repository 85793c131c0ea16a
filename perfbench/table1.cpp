// table1: the fourteen Table-I pairs at table1_summary's --smoke sizes and
// per-pair device profiles, each on a fresh Runtime with observers off and
// two simulator threads. One batch is one Table I pass; one op is one pair.
//
// Why: this is the paper's artefact. It calls the pair runners directly, with
// no server or observer around them, and it is the only workload that runs
// the block pool and the merge. It has no repeated inputs.
//
// Not the full sizes: a full pass takes about 5 s, so a 30 s run times each
// pair only 6 times, and over 10 runs its metrics spread 0.12-0.29. A --smoke
// pass takes 0.06-0.125 s, so each pair's best time comes from 300 repeats.

#include <cstdio>
#include <functional>
#include <memory>
#include <string_view>

#include "bench.hpp"
#include "core/bankredux.hpp"
#include "core/comem.hpp"
#include "core/conkernels.hpp"
#include "core/dynparallel.hpp"
#include "core/gsoverlap.hpp"
#include "core/hdoverlap.hpp"
#include "core/memalign.hpp"
#include "core/minitransfer.hpp"
#include "core/readonly.hpp"
#include "core/shmem_mm.hpp"
#include "core/shuffle_reduce.hpp"
#include "core/taskgraph.hpp"
#include "core/unimem.hpp"
#include "core/warpdiv.hpp"
#include "serve/registry.hpp"

namespace perfbench {

namespace {

using cumb::PairResult;
using vgpu::DeviceProfile;
using vgpu::KernelStats;
using vgpu::Runtime;
using vgpu::RuntimeOptions;

/// A run of S seconds makes round(S / this) Table I passes, however long
/// they take. On a shared 4-vCPU host a pass's mean time was 0.06 s in quiet
/// spells and 0.125 s in loaded ones, so a 30 s run of 300 passes lasts about
/// 19-38 s: long enough for each pair's best time to catch quiet moments.
constexpr double kNominalBatchS = 0.1;
constexpr int kSimThreads = 2;

struct Pair {
  const char* id;
  const char* span;  ///< "core.<id>", the per-layer metric's stem.
  RuntimeOptions opts;
  std::function<PairResult(Runtime&)> run;
};

RuntimeOptions on(DeviceProfile p) {
  RuntimeOptions o = RuntimeOptions::defaults(p);
  o.sim_threads = kSimThreads;
  return o;
}

/// Sizes and profiles are table1_summary's --smoke ones, pinned here so the
/// workload never changes under a library default.
std::vector<Pair> make_pairs() {
  return {
      {"warpdiv", "core.warpdiv", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_warpdiv(rt, 1 << 12); }},
      {"dynparallel", "core.dynparallel", on(DeviceProfile::rtx3080_scaled()),
       [](Runtime& rt) -> PairResult { return cumb::run_dynparallel(rt, 256, 256); }},
      {"conkernels", "core.conkernels", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_conkernels(rt, 4, 2000); }},
      {"taskgraph", "core.taskgraph", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_taskgraph(rt, 1024, 4, 2); }},
      {"shmem_mm", "core.shmem_mm", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_shmem_mm(rt, 64); }},
      {"comem", "core.comem", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_comem(rt, 1 << 15, 16); }},
      {"memalign", "core.memalign", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_memalign(rt, 1 << 14); }},
      {"gsoverlap", "core.gsoverlap", on(DeviceProfile::rtx3080()),
       [](Runtime& rt) -> PairResult { return cumb::run_gsoverlap(rt, 1 << 14); }},
      {"shuffle", "core.shuffle", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_shuffle_reduce(rt, 1 << 14); }},
      {"bankredux", "core.bankredux", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_bankredux(rt, 1 << 14); }},
      {"hdoverlap", "core.hdoverlap", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_hdoverlap(rt, 1 << 16, 2, 2); }},
      {"readonly", "core.readonly", on(DeviceProfile::k80()),
       [](Runtime& rt) -> PairResult { return cumb::run_readonly(rt, 128); }},
      {"unimem", "core.unimem", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_unimem(rt, 1 << 16, 256); }},
      {"minitransfer", "core.minitransfer", on(DeviceProfile::v100()),
       [](Runtime& rt) -> PairResult { return cumb::run_minitransfer(rt, 256, 1024); }},
  };
}

/// Digest of what a pair simulated: both simulated times and every counter
/// of both variants' KernelStats.
std::string digest(const PairResult& r) {
  std::string text;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g/%.17g", r.naive_us, r.optimized_us);
  text += buf;
  for (const KernelStats* st : {&r.naive_stats, &r.optimized_stats})
    KernelStats::for_each_field(*st, [&](const char* name, std::uint64_t v) {
      text += std::string(";") + name + "=" + std::to_string(v);
    });
  return vgpu::serve::fnv1a64_hex(text);
}

std::map<std::string, double> pass_counts(const std::vector<PairResult>& results) {
  KernelStats sum;
  for (const PairResult& r : results) {
    sum += r.naive_stats;
    sum += r.optimized_stats;
  }
  return {
      {"sim.blocks", static_cast<double>(sum.blocks)},
      {"sim.instructions", static_cast<double>(sum.instructions)},
      {"mem.gld_transactions", static_cast<double>(sum.gld_transactions)},
      {"mem.smem_ops", static_cast<double>(sum.smem_loads + sum.smem_stores)},
      {"mem.bank_conflicts", static_cast<double>(sum.bank_conflicts)},
      {"um.migrated_bytes", static_cast<double>(sum.um_migrated_bytes)},
  };
}

/// Sum over pairs of each pair's smallest value over the traced passes.
double sum_of_best(const std::vector<std::vector<double>>& by_pass) {
  if (by_pass.empty()) return 0;
  std::vector<double> best = by_pass.front();
  for (const auto& pass : by_pass)
    for (std::size_t j = 0; j < best.size(); ++j) best[j] = std::min(best[j], pass[j]);
  double sum = 0;
  for (double v : best) sum += v;
  return sum;
}

}  // namespace

Samples run_table1(const Options& o, Pins& pins) {
  Samples s;
  std::vector<Pair> pairs;
  Tracer tracer;
  // Per traced pass, per pair: simulator phase times, and the host time left
  // after execute, merge and Runtime construction.
  std::vector<std::vector<double>> execute_ms, merge_ms, host_ms;
  int batches = batch_count(o, kNominalBatchS);
  long long op = 0;
  for (int b = 0; b < batches; ++b) {
    double setup_ms = 0;
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      auto t0 = Clock::now();
      pairs = make_pairs();
      setup_ms += ms_between(t0, Clock::now());
    }
    s.setup_ms.push_back(setup_ms / kSetupsPerBatch);
    Batch batch;
    batch.traced = o.trace && b % 2 == 1;
    Tracer* t = batch.traced ? &tracer : nullptr;
    std::vector<PairResult> results;
    std::vector<double> exec, merge;
    auto b0 = Clock::now();
    {
      Scope pass(t, "table1.pass");
      for (const Pair& p : pairs) {
        auto p0 = Clock::now();
        Scope span(t, p.span, op);
        std::unique_ptr<Runtime> rt;
        {
          Scope ctor(t, "rt.ctor", op);
          rt = std::make_unique<Runtime>(p.opts);
        }
        {
          Scope run(t, "core.run", op);
          results.push_back(p.run(*rt));
        }
        if (batch.traced) {
          auto ph = rt->gpu().phase_times();
          exec.push_back(ph.execute_ms);
          merge.push_back(ph.merge_ms);
        }
        rt.reset();
        batch.op_ms.push_back(ms_between(p0, Clock::now()));
        ++op;
      }
    }
    batch.extra_ms = ms_between(b0, Clock::now());
    for (double ms : batch.op_ms) batch.extra_ms -= ms;

    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const PairResult& r = results[i];
      ++s.attempted;
      if (!r.results_match ||
          !pins.check(std::string("table1/") + pairs[i].id, digest(r)))
        ++s.failed;
    }
    merge_counts(s, pass_counts(results));
    if (batch.traced) {
      std::vector<double> host = batch.op_ms;
      std::size_t j = 0;
      for (const Tracer::Span& sp : tracer.spans())
        if (sp.op >= op - static_cast<long long>(pairs.size()) &&
            std::string_view(sp.name) == "rt.ctor")
          host[j++] -= sp.duration_ms();
      for (j = 0; j < host.size(); ++j) host[j] -= exec[j] + merge[j];
      execute_ms.push_back(exec);
      merge_ms.push_back(merge);
      host_ms.push_back(host);
    }
    s.batches.push_back(std::move(batch));
  }
  for (const Pair& p : pairs) s.op_pair.push_back(p.id);

  if (o.trace) {
    long long k = static_cast<long long>(pairs.size());
    for (std::size_t j = 0; j < pairs.size(); ++j)
      s.layers[std::string(pairs[j].span) + "_ms"] =
          best_by_position(tracer, pairs[j].span, k)[static_cast<long long>(j)];
    std::vector<double> ctor;
    for (const auto& [pos, ms] : best_by_position(tracer, "rt.ctor", k)) ctor.push_back(ms);
    s.layers["rt.ctor_ms"] = median(ctor);
    s.layers["sim.execute_ms"] = sum_of_best(execute_ms);
    s.layers["sim.merge_ms"] = sum_of_best(merge_ms);
    s.layers["core.host_ms"] = sum_of_best(host_ms);
    save_trace(o, tracer);
  }
  return s;
}

}  // namespace perfbench
