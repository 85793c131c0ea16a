#pragma once

// Shared vocabulary of the perfbench workloads: wall-clock helpers, the
// in-memory span recorder of the traced run, output pins, and the samples a
// workload hands back to main.cpp, which turns them into metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Spans recorded around calls into the libraries' public functions, kept in
/// memory until the run ends. Each span has a name, start, end, the span that
/// was open when it began (its parent) and the id of the op it belongs to
/// (-1 for work outside any op). Names must be string literals or otherwise
/// outlive the tracer.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;
    long long op;
    double duration_ms() const { return end_ms - start_ms; }
  };

  int open(const char* name, long long op);
  /// Ends span `id`; a non-null `rename` replaces its name (a serve job is
  /// only known to be a hit or a miss once it has run).
  void close(int id, const char* rename = nullptr);

  const std::vector<Span>& spans() const { return spans_; }
  /// chrome://tracing JSON of every span.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it free, which is how untraced batches run
/// the same code as traced ones.
class Scope {
 public:
  Scope(Tracer* t, const char* name, long long op = -1)
      : t_(t), id_(t != nullptr ? t->open(name, op) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_, rename_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(const char* name) { rename_ = name; }

 private:
  Tracer* t_;
  int id_;
  const char* rename_ = nullptr;
};

/// Pinned expected outputs, one "<key> <value>" line each ('#' comments).
/// In write mode every check passes and the observed values are collected
/// for save().
class Pins {
 public:
  static Pins load(const std::string& path);
  static Pins recorder();
  bool check(const std::string& key, const std::string& observed);
  bool save(const std::string& path) const;
  std::size_t size() const { return values_.size(); }

 private:
  bool recording_ = false;
  std::map<std::string, std::string> values_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string pins_path;
  bool write_pins = false;
};

/// One batch's wall-clock timings. A batch runs the same ops in the same
/// order every time, so op j of one batch repeats op j of every other.
struct Batch {
  bool traced = false;
  std::vector<double> op_ms;
  double extra_ms = 0;  ///< Batch time outside any op (server, report).
};

/// What one workload run measured. Every timing is wall-clock milliseconds.
struct Samples {
  std::vector<double> setup_ms;  ///< Mean set-up time before each batch.
  std::vector<Batch> batches;
  /// Pair id of op j, or "" when op j is not a naive/optimized pair run (a
  /// serve cache hit). Two ops may share an id (grade's two submissions).
  std::vector<std::string> op_pair;
  long long attempted = 0;
  long long failed = 0;
  bool consistent = true;  ///< Counts agreed across batches.
  /// Exact per-batch counts, identical in every batch.
  std::map<std::string, double> counts;
  /// Per-layer numbers derived from the traced batches' spans.
  std::map<std::string, double> layers;
};

/// Per-batch exact counts: the first batch's become the run's, and any
/// later batch that differs marks the run inconsistent.
void merge_counts(Samples& s, const std::map<std::string, double>& batch);

/// Batches a run makes: round(seconds / the workload's nominal batch time),
/// so both commits in a comparison do the same number of ops; at least two
/// in a traced run, which alternates untraced and traced batches. A run
/// always makes all of them, however long they take.
int batch_count(const Options& o, double nominal_batch_s);

double median(std::vector<double> v);

/// The fastest of each op's repeats over the traced batches, from the spans
/// called `name`, keyed by the op's position in its batch (op id modulo
/// `ops_per_batch`).
std::map<long long, double> best_by_position(const Tracer& t, const char* name,
                                             long long ops_per_batch);

/// Writes a traced run's spans to <work dir>/trace_<workload>.json.
void save_trace(const Options& o, const Tracer& t);

/// Workloads. Before each batch a workload sets up kSetupsPerBatch times,
/// keeps the last set-up and records their mean time in setup_ms; setup_s is
/// the fastest of those means, as an op's time is its fastest repeat.
/// Set-ups spread over the run, like the batches, ride out the host's slow
/// spells, which a burst of set-ups at process start can fall into whole. A
/// traced run alternates untraced and traced batches.
inline constexpr int kSetupsPerBatch = 10;
Samples run_table1(const Options& o, Pins& pins);
Samples run_serve(const Options& o, Pins& pins);
Samples run_grade(const Options& o, Pins& pins);

}  // namespace perfbench
