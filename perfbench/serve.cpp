// serve: a vgpu-serve queue, sent one submit()+run() at a time to a fresh
// JobServer with one worker and a persistent cache in a new directory. One
// batch is one queue; one op is one job.
//
// The queue, generated from --seed: every bench:* and multi:* kernel at
// pinned sizes once per tenant — "plain", "ci" (check=full) and "chaos"
// (bench:* only, with a transient launch fault that fires once per job, so
// each of its jobs retries exactly once) — multi:* jobs on two devices, plus
// exact repeats making 25% of the queue, shuffled.
//
// Why: small grids make per-job fixed costs (Runtime construction, cache
// probe and insert, the persistence write, JSON) a large share of each job.
// It is the only workload with repeats, so misses that write sit beside hits
// that read, and the only one that runs fault retries and multi-GPU jobs.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <streambuf>
#include <unistd.h>

#include "bench.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using vgpu::RuntimeOptions;
using vgpu::serve::JobRecord;
using vgpu::serve::JobServer;
using vgpu::serve::JobSpec;
using vgpu::serve::KernelRegistry;

/// A run of S seconds makes round(S / this) queues, however long they take.
/// On a shared 4-vCPU host a queue's mean time was 0.41 s in quiet spells and
/// 1.0 s in loaded ones, so a 30 s run of 38 queues lasts about 16-40 s.
constexpr double kNominalBatchS = 0.8;
constexpr const char* kChaosFault = "launch:transient,nth=1";
constexpr int kMultiDevices = 2;
/// Times each job is replayed per observer setting in the traced run.
constexpr int kObserverReps = 5;

struct Kernel {
  const char* id;
  long long n;
};

// The registry's interactive (table1 --smoke) shapes, pinned here.
constexpr Kernel kBench[] = {
    {"bench:bankredux", 1 << 14}, {"bench:comem", 1 << 15},
    {"bench:conkernels", 4},      {"bench:constpoly", 1 << 12},
    {"bench:dynparallel", 256},   {"bench:gsoverlap", 1 << 14},
    {"bench:hdoverlap", 1 << 16}, {"bench:histogram", 1 << 16},
    {"bench:layout", 1 << 12},    {"bench:memalign", 1 << 14},
    {"bench:minitransfer", 256},  {"bench:readonly", 128},
    {"bench:shmem_mm", 64},       {"bench:shuffle", 1 << 14},
    {"bench:taskgraph", 1024},    {"bench:unimem", 1 << 16},
    {"bench:warpdiv", 1 << 12},
};
constexpr Kernel kMulti[] = {
    {"multi:halo", 1 << 12}, {"multi:histogram", 1 << 14}, {"multi:matmul", 64}};

struct Job {
  JobSpec spec;
  std::string pin;  ///< "serve/<tenant>/<kernel>".
  bool repeat = false;
  bool multi = false;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Job make_job(const char* tenant, const Kernel& k, bool multi) {
  Job j;
  j.spec.tenant = tenant;
  j.spec.kernel = k.id;
  j.spec.n = k.n;
  j.spec.options = RuntimeOptions::defaults();
  j.spec.options.sim_threads = 1;
  if (std::string_view(tenant) == "ci") j.spec.options.check = vgpu::CheckMode::kFull;
  if (std::string_view(tenant) == "chaos") j.spec.options.fault_spec = kChaosFault;
  if (multi) j.spec.options.devices = kMultiDevices;
  j.pin = std::string("serve/") + tenant + "/" + k.id;
  j.multi = multi;
  return j;
}

/// Each distinct job once, then a seeded draw of repeats (a quarter of the
/// final queue), then a seeded Fisher-Yates shuffle. The first occurrence of
/// each job is the one that executes.
std::vector<Job> make_queue(std::uint64_t seed) {
  std::vector<Job> q;
  for (const char* tenant : {"plain", "ci", "chaos"}) {
    for (const Kernel& k : kBench) q.push_back(make_job(tenant, k, false));
    if (std::string_view(tenant) != "chaos")
      for (const Kernel& k : kMulti) q.push_back(make_job(tenant, k, true));
  }
  std::uint64_t state = seed;
  std::size_t distinct = q.size();
  for (std::size_t i = 0; i < distinct / 3; ++i)
    q.push_back(q[splitmix64(state) % distinct]);
  for (std::size_t i = q.size() - 1; i > 0; --i)
    std::swap(q[i], q[splitmix64(state) % (i + 1)]);
  std::set<std::string> seen;
  for (Job& j : q) j.repeat = !seen.insert(j.pin).second;
  return q;
}

/// Swallows the reports a Runtime with prof or advise on prints when it is
/// destroyed, so stdout keeps only the benchmark's own lines.
class MuteStdout {
 public:
  MuteStdout() : old_(std::cout.rdbuf(&null_)) {}
  ~MuteStdout() { std::cout.rdbuf(old_); }
  MuteStdout(const MuteStdout&) = delete;
  MuteStdout& operator=(const MuteStdout&) = delete;

 private:
  struct Null : std::streambuf {
    int overflow(int c) override { return c; }
  } null_;
  std::streambuf* old_;
};

/// Replays each plain bench:* job with observers off and with each one
/// observer on, `reps` times in rotating order, under spans "obs.off",
/// "obs.san", "obs.prof" and "obs.advise". Returns, per observer, the sum
/// over jobs of the job's best time with it on, over the same sum off.
std::map<std::string, double> observer_costs(Tracer& t, const KernelRegistry& registry,
                                             const JobServer& server,
                                             const std::vector<Job>& queue, int reps) {
  constexpr const char* kModes[] = {"obs.off", "obs.san", "obs.prof", "obs.advise"};
  MuteStdout mute;
  double total[4] = {0, 0, 0, 0};
  for (const Job& j : queue) {
    if (j.repeat || j.multi || j.spec.tenant != "plain") continue;
    RuntimeOptions opts[4];
    for (RuntimeOptions& o : opts) o = server.exec_options(j.spec);
    opts[1].check = vgpu::CheckMode::kFull;
    opts[2].prof = vgpu::ProfMode::kMetrics;
    opts[3].advise = vgpu::AdviseMode::kFull;
    std::vector<double> ms[4];
    for (int r = 0; r < reps; ++r) {
      for (int k = 0; k < 4; ++k) {
        int m = (r + k) % 4;
        auto t0 = Clock::now();
        Scope span(&t, kModes[m]);
        registry.run(j.spec.kernel, j.spec.n, opts[m]);
        ms[m].push_back(ms_between(t0, Clock::now()));
      }
    }
    for (int m = 0; m < 4; ++m) total[m] += *std::min_element(ms[m].begin(), ms[m].end());
  }
  return {{"san.cost_ratio", total[1] / total[0]},
          {"prof.cost_ratio", total[2] / total[0]},
          {"advise.cost_ratio", total[3] / total[0]}};
}

}  // namespace

Samples run_serve(const Options& o, Pins& pins) {
  namespace fs = std::filesystem;
  Samples s;
  std::string root = o.work_dir + "/serve-" + std::to_string(::getpid());
  KernelRegistry registry;
  std::vector<Job> queue;
  Tracer tracer;
  int batches = batch_count(o, kNominalBatchS);
  long long op = 0;
  for (int b = 0; b < batches; ++b) {
    // The server creates its cache directory inside the timed batch. Timed
    // here, a mkdir right after the previous queue had written and deleted its
    // cache files made set-up read up to 3x slower in some runs.
    double setup_ms = 0;
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      auto t0 = Clock::now();
      registry = KernelRegistry::builtin();
      queue = make_queue(o.seed);
      setup_ms += ms_between(t0, Clock::now());
    }
    s.setup_ms.push_back(setup_ms / kSetupsPerBatch);
    Batch batch;
    batch.traced = o.trace && b % 2 == 1;
    Tracer* t = batch.traced ? &tracer : nullptr;
    JobServer::Config cfg;
    cfg.workers = 1;
    cfg.cache_dir = root + "/batch-" + std::to_string(b);
    std::unique_ptr<JobServer> server;
    std::string report;
    long long first_op = op;
    auto b0 = Clock::now();
    {
      Scope whole(t, "serve.batch");
      {
        Scope ctor(t, "serve.server");
        server = std::make_unique<JobServer>(registry, cfg);
      }
      for (const Job& j : queue) {
        auto j0 = Clock::now();
        Scope span(t, "serve.job", op++);
        server->submit(j.spec);
        server->run();
        span.rename(server->records().back().cached ? "serve.hit" : "serve.miss");
        batch.op_ms.push_back(ms_between(j0, Clock::now()));
      }
      Scope rep(t, "serve.report");
      report = server->report_json();
    }
    batch.extra_ms = ms_between(b0, Clock::now());
    for (double ms : batch.op_ms) batch.extra_ms -= ms;

    const std::vector<JobRecord>& records = server->records();
    double retries = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const Job& j = queue[i];
      const JobRecord& r = records[i];
      ++s.attempted;
      if (!r.ok || r.cached != j.repeat ||
          !pins.check(j.pin, vgpu::serve::fnv1a64_hex(r.blob)))
        ++s.failed;
      retries += r.attempts - 1;
    }
    if (report.find("\"schema\"") == std::string::npos) ++s.failed;
    const vgpu::serve::PersistentStore* store = server->cache().store();
    merge_counts(s, {
        {"serve.hits", static_cast<double>(server->cache().hits())},
        {"serve.misses", static_cast<double>(server->cache().misses())},
        {"serve.persist_stores", store ? static_cast<double>(store->stores()) : 0.0},
        {"fault.retries", retries},
    });

    if (batch.traced) {
      // Untimed: the same plain/ci executions straight through the registry,
      // which must reproduce the served blobs byte for byte.
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const Job& j = queue[i];
        if (j.repeat || j.spec.tenant == "chaos") continue;
        std::string blob;
        {
          Scope span(t, "serve.registry", first_op + static_cast<long long>(i));
          blob = registry.run(j.spec.kernel, j.spec.n, server->exec_options(j.spec));
        }
        ++s.attempted;
        if (blob != records[i].blob) ++s.failed;
      }
    }
    s.batches.push_back(std::move(batch));
    server.reset();
    fs::remove_all(cfg.cache_dir);
  }
  fs::remove_all(root);
  for (const Job& j : queue) s.op_pair.push_back(j.repeat ? "" : j.pin);

  if (o.trace) {
    JobServer::Config cfg;
    cfg.workers = 1;
    s.layers = observer_costs(tracer, registry, JobServer(registry, cfg), queue,
                              kObserverReps);
    double hits = s.counts["serve.hits"], misses = s.counts["serve.misses"];
    s.layers["serve.hit_ratio"] = hits / (hits + misses);
    long long k = static_cast<long long>(queue.size());
    auto median_best = [&](const char* name, bool multi_only) {
      std::vector<double> v;
      for (const auto& [pos, ms] : best_by_position(tracer, name, k))
        if (!multi_only || queue[static_cast<std::size_t>(pos)].multi) v.push_back(ms);
      return median(v);
    };
    s.layers["serve.miss_ms"] = median_best("serve.miss", false);
    s.layers["serve.hit_ms"] = median_best("serve.hit", false);
    s.layers["multi.job_ms"] = median_best("serve.miss", true);
    s.layers["serve.registry_ms"] = median_best("serve.registry", false);
    // Per job: its time through the server minus the same execution straight
    // through the registry, so both sides cover the same plain/ci jobs.
    std::map<long long, double> served = best_by_position(tracer, "serve.miss", k);
    std::vector<double> overhead;
    for (const auto& [pos, ms] : best_by_position(tracer, "serve.registry", k))
      overhead.push_back(served[pos] - ms);
    s.layers["serve.overhead_ms"] = median(overhead);
    s.layers["serve.report_ms"] = best_by_position(tracer, "serve.report", 1)[0];
    save_trace(o, tracer);
  }
  return s;
}

}  // namespace perfbench
