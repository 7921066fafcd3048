// Netlist-to-verdict benchmark for the abstraction engine.
//
//   verdict_bench --workload <mult163|linear283|mutants32> --seed <n>
//                 --seconds <s> --trace <0|1> [--spans <file>] [--small]
//                 [--invert-truth]
//
// --small runs the same code paths at small k (the self-check in run.py);
// --invert-truth flips the ground truth so the self-check can confirm that a
// wrong verdict fails the run.
//
// Set-up generates every netlist of the workload from the public generators
// (seeded), renders it to text and establishes the ground truth with the
// simulator (certify::certify_equivalence for equivalent pairs,
// certify::find_simulation_witness for mutants). The program under test then
// receives only netlist text and runs exactly the in-process path of
// `gfa_tool verify --timeout=<limit>`: try_parse_netlist -> Gf2k::try_make ->
// EngineRegistry::require("abstraction") -> engine::run_engine.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced passes and prints the per-layer metrics. The layer boundaries are
// timed from this file around the public calls; phases inside run_engine come
// from the spans the program already records (obs::Tracer). The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Any wrong
// verdict or unreplayed counterexample makes the run exit 1.
//
// See README.md beside this file for why each workload was chosen and which
// end-to-end metric each per-layer metric should move.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "certify/certify.h"
#include "circuit/arith_extras.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/parser.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "gf/gf2k.h"
#include "obs/trace.h"
#include "util/exec_control.h"
#include "util/parallel_for.h"
#include "util/parse_number.h"

namespace {

using gfa::Gf2k;
using gfa::Netlist;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Microseconds on the program tracer's timeline (obs::trace_epoch_us()).
std::int64_t trace_us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
             .count() -
         static_cast<std::int64_t>(gfa::obs::trace_epoch_us());
}

/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// counter (VmHWM), so that peak_rss_mb_since_reset() sees one verification
/// as a fresh `gfa_tool verify` process would. Linux-only; false elsewhere.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  return static_cast<bool>(clear << "5" << std::flush);
}

/// VmHWM in MB (0 when /proc is unavailable).
double peak_rss_mb_since_reset() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kMultiplier, kFrobenius, kMutants };

struct WorkloadSpec {
  std::string name;
  Kind kind;
  unsigned k;
  /// Pool width the verifications run at (set once, before timing).
  unsigned width;
  /// Per-instance limit, as `gfa_tool verify --timeout` sets it.
  double limit_s;
  /// kMutants: each stratum quota of kMutantStrata is divided by this (at
  /// least one mutant per stratum remains).
  unsigned strata_divisor = 1;
};

/// One stratum of the mutant draw: mutation classes (see mutation_class)
/// matching `pattern` -- exact, a "prefix*", or "*" for every class not
/// matched earlier -- and how many mutants of one pass come from it.
struct Stratum {
  std::string_view pattern;
  unsigned quota;
};

/// The mutants32 draw is stratified by mutation class, so every seed gets
/// the same class mix and run-to-run spread measures the program, not the
/// luck of the draw. Which mutants fill a stratum is up to the seed and
/// inject_random_bug. The quotas round the classes' frequencies under
/// inject_random_bug on the k=32 flat Montgomery to 40 and double them, so
/// that verify_s, a median over the decided mutants, rests on about 50 of
/// them (README.md). The xor flips
/// to and/or/nand/nor and the and<-and reroutes are the classes that ran
/// into the limit when the quotas were drawn up.
constexpr Stratum kMutantStrata[] = {
    {"flip xor->and", 6},     {"flip xor->or", 6},
    {"flip xor->nand", 6},    {"flip xor->nor", 6},
    {"flip xor->xnor", 8},    {"flip and->*", 16},
    {"reroute and<-and", 4},  {"reroute xor<-and", 8},
    {"reroute xor<-xor", 12}, {"*", 8},
};

bool stratum_matches(std::string_view pattern, std::string_view cls) {
  if (pattern == "*") return true;
  if (pattern.back() == '*')
    return cls.substr(0, pattern.size() - 1) == pattern.substr(0, pattern.size() - 1);
  return cls == pattern;
}

/// The benchmark's workloads. README.md records why each was chosen.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"mult163", Kind::kMultiplier, 163, 1, 60.0},
      {"linear283", Kind::kFrobenius, 283, 2, 60.0},
      {"mutants32", Kind::kMutants, 32, 1, 1.0},
  };
  return kWorkloads;
}

/// Small-k variants of the same code paths, for the self-check.
const std::vector<WorkloadSpec>& small_workloads() {
  static const std::vector<WorkloadSpec> kSmall = {
      {"mult163", Kind::kMultiplier, 16, 1, 10.0},
      {"linear283", Kind::kFrobenius, 16, 2, 10.0},
      {"mutants32", Kind::kMutants, 8, 1, 1.0, 8},
  };
  return kSmall;
}

struct Instance {
  std::string label;
  std::string spec_text;
  std::string impl_text;
  bool equivalent = false;
};

struct WorkloadSet {
  std::vector<Instance> instances;
  /// Set-up notes: the drawn Frobenius e, replaced mutant seeds, ...
  std::vector<std::string> notes;
};

/// The mutation's class, read from its description and the unmutated
/// netlist: "flip <old>-><new>" for a gate-type flip, "reroute
/// <target type><-<new fanin type>" for a fanin reroute.
std::string mutation_class(const Netlist& original, const std::string& text) {
  // Descriptions read "net <n>: <old> -> <new>" or
  // "net <n>: fanin <old fanin> -> <new fanin>".
  const std::size_t colon = text.find(": ");
  const std::size_t arrow = text.find(" -> ");
  if (text.rfind("net ", 0) != 0 || colon == std::string::npos ||
      arrow == std::string::npos)
    return "other";
  auto type_of = [&](const std::string& net) -> std::string {
    const gfa::NetId n = original.find_net(net);
    if (n == gfa::kNoNet) return "?";
    return gfa::gate_type_name(original.gate(n).type);
  };
  const std::string target = text.substr(4, colon - 4);
  const std::string what = text.substr(colon + 2);
  if (what.rfind("fanin ", 0) == 0)
    return "reroute " + type_of(target) + "<-" +
           type_of(text.substr(arrow + 4));
  return "flip " + what.substr(0, what.find(" -> ")) + "->" +
         text.substr(arrow + 4);
}

/// Generates the workload's netlists from `seed` and establishes the ground
/// truth with the simulator. Returns std::nullopt (with a message on stderr)
/// when a generated equivalent pair fails its simulation cross-check.
std::optional<WorkloadSet> set_up(const WorkloadSpec& w, std::uint64_t seed) {
  const Gf2k field = Gf2k::make(w.k);
  WorkloadSet set;
  const std::uint64_t point_seed = splitmix64(seed ^ 0xC0FFEEull);
  auto add_equivalent = [&](std::string label, const Netlist& spec,
                            const Netlist& impl) {
    const gfa::certify::CertifyOutcome c =
        gfa::certify::certify_equivalence(spec, impl, field, 4, point_seed);
    if (!c.status.ok()) {
      std::fprintf(stderr, "set-up: %s disagrees in simulation: %s\n",
                   label.c_str(), c.status.to_string().c_str());
      return false;
    }
    set.instances.push_back({std::move(label), gfa::write_netlist(spec),
                             gfa::write_netlist(impl), true});
    return true;
  };
  switch (w.kind) {
    case Kind::kMultiplier:
      if (!add_equivalent("mastrovito-vs-montgomery",
                          gfa::make_mastrovito_multiplier(field),
                          gfa::make_montgomery_multiplier_flat(field)))
        return std::nullopt;
      break;
    case Kind::kFrobenius: {
      // A^{2^e} and A^{2^{e+k}} agree because A^{2^k} = A.
      const unsigned e = 4 + static_cast<unsigned>(splitmix64(seed) % 9);
      set.notes.push_back("frobenius e=" + std::to_string(e));
      if (!add_equivalent("frobenius-e" + std::to_string(e),
                          gfa::make_frobenius_power(field, e),
                          gfa::make_frobenius_power(field, e + w.k)))
        return std::nullopt;
      break;
    }
    case Kind::kMutants: {
      const Netlist spec = gfa::make_mastrovito_multiplier(field);
      const Netlist impl = gfa::make_montgomery_multiplier_flat(field);
      const std::string spec_text = gfa::write_netlist(spec);
      std::vector<unsigned> need;
      for (const Stratum& st : kMutantStrata)
        need.push_back(std::max(1u, st.quota / w.strata_divisor));
      std::size_t missing = 0;
      for (unsigned n : need) missing += n;
      // Every set-up makes at least kDraws draws, so that setup_s does not
      // depend on how soon the seed happens to fill the rarest stratum.
      constexpr int kDraws = 400;
      constexpr unsigned kWitnessRounds = 16;  // of 64 seeded points each
      std::uint64_t draw = splitmix64(seed);
      for (int draws = 0; missing > 0 || draws < kDraws; ++draws) {
        if (draws == 20000) {
          std::fprintf(stderr, "set-up: mutant strata not filled\n");
          return std::nullopt;
        }
        const std::uint64_t mutant_seed = draw;
        draw = splitmix64(draw);
        gfa::BugDescription bug;
        const Netlist mutant = gfa::inject_random_bug(impl, mutant_seed, &bug);
        const std::string cls = mutation_class(impl, bug.text);
        std::size_t st = 0;
        while (!stratum_matches(kMutantStrata[st].pattern, cls)) ++st;
        if (missing == 0 || need[st] == 0) continue;
        const std::string label = "mutant " + std::to_string(mutant_seed) +
                                  " (" + bug.text + ") [" + cls + "]";
        if (!gfa::certify::find_simulation_witness(spec, mutant, field,
                                                   kWitnessRounds,
                                                   point_seed ^ mutant_seed)) {
          set.notes.push_back(label +
                              " not separable by simulation; replaced by the "
                              "next draw");
          continue;
        }
        set.instances.push_back(
            {label, spec_text, gfa::write_netlist(mutant), false});
        --need[st];
        --missing;
      }
      break;
    }
  }
  return set;
}

// ---------------------------------------------------------------------------
// Spans

/// One span record: a layer boundary timed here, or a phase span the program
/// recorded in obs::Tracer. Times are microseconds on the tracer's timeline.
struct Span {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  int parent = -1;        // index into the same instance's span list
  std::uint32_t tid = 0;  // program spans: the tracer's dense thread id
  bool bench = false;     // true for spans timed from this file
  /// True for spans that split their parent's self time: every span timed
  /// here, and the program's phase spans on the verifying thread. The
  /// reduction chain's per-shard spans are recorded with their parent but
  /// stay inside reduction_chain's self time.
  bool boundary = false;
};

/// Sets Span::boundary for one verification's spans.
void mark_boundaries(std::vector<Span>& spans) {
  static const char* const kPhases[] = {
      "verify:abstraction", "frobenius_basis_change", "extract_word",
      "rato_sort",          "reduction_chain",        "case2_lift",
      "coefficient_match"};
  std::uint32_t main_tid = 0;
  for (const Span& s : spans)
    if (!s.bench && s.name == "verify:abstraction") main_tid = s.tid;
  for (Span& s : spans) {
    s.boundary = s.bench;
    if (s.bench || s.tid != main_tid) continue;
    for (const char* phase : kPhases)
      if (s.name == phase) s.boundary = true;
  }
}

/// Layer metric each span name's self time is charged to.
const char* layer_of(const std::string& name) {
  if (name == "parse") return "circuit.parse_s";
  if (name == "field_setup") return "gf.field_setup_s";
  if (name == "rato_sort") return "abstraction.rato_sort_s";
  if (name == "reduction_chain") return "abstraction.reduction_chain_s";
  if (name == "frobenius_basis_change") return "abstraction.basis_change_s";
  if (name == "case2_lift") return "abstraction.case2_lift_s";
  if (name == "coefficient_match") return "abstraction.coefficient_match_s";
  if (name == "engine_require" || name == "run_engine" ||
      name == "verify:abstraction" || name == "extract_word")
    return "engine.self_s";
  return nullptr;  // the root "verify" span: benchmark loop glue
}

/// Links every span to the innermost boundary span containing it. Boundary
/// spans nest on the calling thread, so a stack sweep over spans sorted by
/// start (longest first on ties) finds each parent.
void link_parents(std::vector<Span>& spans) {
  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (spans[a].start_us != spans[b].start_us)
      return spans[a].start_us < spans[b].start_us;
    return spans[a].end_us > spans[b].end_us;
  });
  std::vector<int> stack;
  for (int i : order) {
    Span& s = spans[i];
    while (!stack.empty() && spans[stack.back()].end_us < s.end_us)
      stack.pop_back();
    if (!stack.empty()) s.parent = stack.back();
    if (s.boundary) stack.push_back(i);
  }
}

/// Self time per span: its duration minus its boundary children's.
std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = 1e-6 * static_cast<double>(spans[i].end_us - spans[i].start_us);
  for (const Span& s : spans)
    if (s.boundary && s.parent >= 0)
      self[s.parent] -= 1e-6 * static_cast<double>(s.end_us - s.start_us);
  return self;
}

// ---------------------------------------------------------------------------
// One verification

enum class Outcome { kCorrect, kUndecided, kWrong, kError };

struct Verification {
  Outcome outcome = Outcome::kError;
  double seconds = 0.0;
  /// Seconds the call returned after its deadline (undecided instances).
  double overshoot_s = 0.0;
  std::string detail;
  double substitutions = 0.0;
  double peak_terms = 0.0;
  std::size_t gates = 0;
  std::size_t text_bytes = 0;
  std::vector<Span> spans;  // filled only when traced
};

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCorrect:
      return "correct verdict";
    case Outcome::kUndecided:
      return "undecided";
    case Outcome::kWrong:
      return "WRONG verdict";
    case Outcome::kError:
      return "error";
  }
  return "?";
}

/// Runs one instance through the public verdict path and checks the verdict
/// against the set-up ground truth. With `traced`, the program tracer is on
/// for the call and the instance's spans are returned.
Verification verify_once(const WorkloadSpec& w, const Instance& inst,
                         bool traced) {
  Verification v;
  if (traced) {
    gfa::obs::Tracer::instance().clear();
    gfa::obs::set_trace_enabled(true);
  }
  auto bench_span = [&](const char* name, Clock::time_point a,
                        Clock::time_point b) {
    if (traced)
      v.spans.push_back({name, trace_us(a), trace_us(b), -1, 0, true, true});
  };
  v.text_bytes = inst.spec_text.size() + inst.impl_text.size();

  const Clock::time_point t0 = Clock::now();
  gfa::Result<Netlist> spec = gfa::try_parse_netlist(inst.spec_text);
  const Clock::time_point t1 = Clock::now();
  gfa::Result<Netlist> impl = gfa::try_parse_netlist(inst.impl_text);
  const Clock::time_point t2 = Clock::now();
  bench_span("parse", t0, t1);
  bench_span("parse", t1, t2);
  std::optional<gfa::engine::EngineRun> run;
  Clock::time_point deadline_at = Clock::time_point::max();
  if (spec.ok() && impl.ok()) {
    v.gates = spec->num_logic_gates() + impl->num_logic_gates();
    const gfa::Result<Gf2k> field = Gf2k::try_make(w.k);
    const Clock::time_point t3 = Clock::now();
    bench_span("field_setup", t2, t3);
    const gfa::Result<const gfa::engine::EquivEngine*> eng =
        gfa::engine::EngineRegistry::global().require("abstraction");
    const Clock::time_point t4 = Clock::now();
    bench_span("engine_require", t3, t4);
    if (field.ok() && eng.ok()) {
      gfa::engine::RunOptions options;
      options.control.deadline = gfa::Deadline::after(w.limit_s);
      deadline_at = t4 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(w.limit_s));
      run = gfa::engine::run_engine(**eng, *spec, *impl, *field, options);
      bench_span("run_engine", t4, Clock::now());
    } else {
      v.detail = !field.ok() ? field.status().to_string()
                             : eng.status().to_string();
    }
  } else {
    v.detail = !spec.ok() ? spec.status().to_string()
                          : impl.status().to_string();
  }
  const Clock::time_point done = Clock::now();
  v.seconds = seconds_between(t0, done);
  bench_span("verify", t0, done);

  if (traced) {
    gfa::obs::set_trace_enabled(false);
    for (const gfa::obs::TraceEvent& e : gfa::obs::Tracer::instance().events())
      v.spans.push_back({e.name, static_cast<std::int64_t>(e.start_us),
                         static_cast<std::int64_t>(e.start_us + e.duration_us),
                         -1, e.tid, false, false});
    gfa::obs::Tracer::instance().clear();
  }
  if (!run) return v;  // kError with detail

  if (!run->status.ok()) {
    const gfa::StatusCode code = run->status.code();
    if (code == gfa::StatusCode::kDeadlineExceeded ||
        code == gfa::StatusCode::kCancelled) {
      v.outcome = Outcome::kUndecided;
      v.overshoot_s = std::max(0.0, seconds_between(deadline_at, done));
    } else {
      v.detail = run->status.to_string();
    }
    return v;
  }
  auto stat = [&](const char* key) {
    const auto it = run->stats.find(key);
    return it == run->stats.end() ? 0.0 : it->second;
  };
  v.substitutions = stat("spec_substitutions") + stat("impl_substitutions");
  v.peak_terms = std::max(stat("spec_peak_terms"), stat("impl_peak_terms"));
  switch (run->verdict) {
    case gfa::engine::Verdict::kUnknown:
      v.outcome = Outcome::kUndecided;
      break;
    case gfa::engine::Verdict::kEquivalent:
      v.outcome = inst.equivalent ? Outcome::kCorrect : Outcome::kWrong;
      if (!inst.equivalent) v.detail = "EQUIVALENT, but simulation separates";
      break;
    case gfa::engine::Verdict::kNotEquivalent: {
      const gfa::certify::Counterexample& cx = run->counterexample;
      if (inst.equivalent) {
        v.outcome = Outcome::kWrong;
        v.detail = "NOT EQUIVALENT on an equivalent pair";
      } else if (cx.empty() || !cx.replayed || cx.expected == cx.actual) {
        v.outcome = Outcome::kWrong;
        v.detail = "counterexample did not replay in the simulator";
      } else {
        v.outcome = Outcome::kCorrect;
      }
      break;
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// A run

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
  bool small = false;
  bool invert_truth = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<Metric> metrics;
};

/// Field-kernel timing at the workload's k: ns per mul and per square on
/// seeded elements, the median of five timed sweeps.
std::pair<double, double> time_field_kernels(unsigned k, std::uint64_t seed) {
  const Gf2k field = Gf2k::make(k);
  gfa::certify::ElemRng rng(seed);
  std::vector<Gf2k::Elem> xs(1024);
  for (Gf2k::Elem& x : xs) x = rng.next_elem(field);
  std::vector<Gf2k::Elem> out(xs.size());
  constexpr int kSweeps = 64;
  auto sweep_ns = [&](bool square) {
    std::vector<double> per_op;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point a = Clock::now();
      for (int s = 0; s < kSweeps; ++s)
        for (std::size_t i = 0; i < xs.size(); ++i)
          out[i] = square ? field.square(xs[i])
                          : field.mul(xs[i], xs[(i + s + 1) % xs.size()]);
      per_op.push_back(1e9 * seconds_between(a, Clock::now()) /
                       static_cast<double>(kSweeps * xs.size()));
    }
    return median(per_op);
  };
  const double mul_ns = sweep_ns(false);
  const double square_ns = sweep_ns(true);
  // Reading the outputs keeps the sweeps from being optimized away.
  std::size_t nonzero = 0;
  for (const Gf2k::Elem& x : out) nonzero += x.is_zero() ? 0 : 1;
  if (nonzero == 0) std::fprintf(stderr, "field kernels: all products zero\n");
  return {mul_ns, square_ns};
}

/// Writes the traced spans, one JSON record per span.
void write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& per_instance) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write span records to %s\n", path.c_str());
    return;
  }
  int base = 0;
  for (std::size_t inst = 0; inst < per_instance.size(); ++inst) {
    const std::vector<Span>& spans = per_instance[inst];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"id\":" << base + static_cast<int>(i) << ",\"instance\":"
          << inst << ",\"name\":\"" << s.name << "\",\"start_us\":"
          << s.start_us << ",\"end_us\":" << s.end_us << ",\"parent\":"
          << (s.parent < 0 ? -1 : base + s.parent) << ",\"source\":\""
          << (s.bench ? "bench" : "program") << "\",\"tid\":" << s.tid
          << "}\n";
    }
    base += static_cast<int>(spans.size());
  }
}

RunResult run_workload(const WorkloadSpec& w, const Options& opt) {
  RunResult r;
  // The stated width, unless the machine has fewer hardware threads.
  const unsigned width =
      std::min(w.width, std::max(1u, std::thread::hardware_concurrency()));
  gfa::set_parallel_thread_count(width);
  gfa::engine::EngineRegistry::global();  // build the registry off the clock

  // Set-up runs kSetUps times and setup_s is the median. The first run
  // builds the instances; the others come one after each pass and the rest
  // at the end, so that setup_s samples the machine over the whole run, as
  // the passes do.
  constexpr std::size_t kSetUps = 5;
  std::vector<double> setup_times;
  auto timed_set_up = [&] {
    const Clock::time_point a = Clock::now();
    std::optional<WorkloadSet> s = set_up(w, opt.seed);
    setup_times.push_back(seconds_between(a, Clock::now()));
    return s;
  };
  std::optional<WorkloadSet> set = timed_set_up();
  if (!set) {
    r.correct = false;
    r.failed = r.attempted = 1;
    return r;
  }
  if (opt.invert_truth)
    for (Instance& inst : set->instances) inst.equivalent = !inst.equivalent;
  std::printf("workload %s: k=%u width=%u limit=%gs seed=%llu instances=%zu\n",
              w.name.c_str(), w.k, width, w.limit_s,
              static_cast<unsigned long long>(opt.seed), set->instances.size());
  for (const std::string& note : set->notes)
    std::printf("  set-up: %s\n", note.c_str());

  // Passes over the whole instance set until the measuring time is used; the
  // traced run alternates untraced and traced passes.
  std::vector<double> pass_s, decided_s, traced_decided_s, overshoots;
  std::uint64_t decided = 0;
  // Substitutions and peak terms of each instance's first verdict; later
  // verdicts on the same instance must repeat them exactly.
  std::vector<std::optional<std::pair<double, double>>> counts_of(
      set->instances.size());
  std::vector<Verification> traced;
  std::vector<std::vector<Span>> span_records;
  std::vector<double> substitutions, peak_terms;
  std::size_t gates = 0;
  std::vector<double> rss_mb;  // peak RSS of each untraced verification
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const double elapsed = seconds_between(start, Clock::now());
    // Start another pass only while it is expected to end within the
    // measuring time; a traced run needs one untraced and one traced pass.
    const std::size_t min_passes = opt.trace ? 2 : 1;
    const double mean_pass = pass == 0 ? 0.0 : elapsed / static_cast<double>(pass);
    if (pass >= min_passes && elapsed + mean_pass > opt.seconds) break;
    const bool traced_pass = opt.trace && pass % 2 == 1;
    double total = 0.0;
    std::vector<double> pass_decided_s;
    for (std::size_t i = 0; i < set->instances.size(); ++i) {
      const Instance& inst = set->instances[i];
      if (!reset_peak_rss()) r.correct = false;
      Verification v = verify_once(w, inst, traced_pass);
      if (!traced_pass) rss_mb.push_back(peak_rss_mb_since_reset());
      if (pass == 0)
        std::printf("  %s: %s in %.3f s\n", inst.label.c_str(),
                    outcome_name(v.outcome), v.seconds);
      ++r.attempted;
      total += v.seconds;
      if (pass == 0) gates += v.gates;
      switch (v.outcome) {
        case Outcome::kCorrect: {
          ++decided;
          (traced_pass ? traced_decided_s : decided_s).push_back(v.seconds);
          pass_decided_s.push_back(v.seconds);
          const std::pair<double, double> counts{v.substitutions, v.peak_terms};
          if (!counts_of[i]) {
            counts_of[i] = counts;
            substitutions.push_back(v.substitutions);
            peak_terms.push_back(v.peak_terms);
          } else if (*counts_of[i] != counts) {
            std::printf("  counts differ between verifications of %s\n",
                        inst.label.c_str());
            r.correct = false;
          }
          break;
        }
        case Outcome::kUndecided:
          overshoots.push_back(v.overshoot_s);
          break;
        case Outcome::kWrong:
          ++r.wrong;
          ++r.failed;
          r.correct = false;
          std::printf("  WRONG: %s: %s\n", inst.label.c_str(), v.detail.c_str());
          break;
        case Outcome::kError:
          ++r.failed;
          r.correct = false;
          std::printf("  ERROR: %s: %s\n", inst.label.c_str(), v.detail.c_str());
          break;
      }
      if (traced_pass) traced.push_back(std::move(v));
    }
    std::printf("  pass %zu%s: %.3f s, median verdict %.4f s\n", pass,
                traced_pass ? " (traced)" : "", total, median(pass_decided_s));
    if (!traced_pass) pass_s.push_back(total);
    if (setup_times.size() < kSetUps) timed_set_up();
  }
  while (setup_times.size() < kSetUps) timed_set_up();
  std::printf("  set-up times:");
  for (double t : setup_times) std::printf(" %.3f s", t);
  std::printf("\n");
  const double untraced_verify_s = median(decided_s);
  if (!opt.trace) {
    r.metrics = {
        {"verify_s", untraced_verify_s, "s"},
        {"wall_s", median(pass_s), "s"},
        {"decided_frac",
         static_cast<double>(decided) / static_cast<double>(r.attempted), "1"},
        {"peak_rss_mb", median(rss_mb), "MB"},
        {"setup_s", median(setup_times), "s"},
    };
  } else {
    // Per-layer self times, averaged over the traced verifications.
    std::map<std::string, double> layer;
    double bytes = 0.0, accounted = 0.0, traced_total = 0.0;
    for (Verification& v : traced) {
      std::vector<Span> spans = std::move(v.spans);
      mark_boundaries(spans);
      link_parents(spans);
      const std::vector<double> self = self_seconds(spans);
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const char* l = spans[i].boundary ? layer_of(spans[i].name) : nullptr;
        if (l == nullptr) continue;
        layer[l] += self[i];
        accounted += self[i];
      }
      bytes += static_cast<double>(v.text_bytes);
      traced_total += v.seconds;
      span_records.push_back(std::move(spans));
    }
    const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
    const auto [mul_ns, square_ns] = time_field_kernels(w.k, opt.seed);
    const double traced_verify_s = median(traced_decided_s);
    auto per = [&](const char* name) { return layer[name] / n; };
    const double parse_s = layer["circuit.parse_s"];
    r.metrics = {
        {"circuit.parse_s", per("circuit.parse_s"), "s"},
        {"circuit.parse_mb_per_s", parse_s > 0 ? bytes / parse_s / 1e6 : 0.0,
         "MB/s"},
        {"circuit.gates",
         static_cast<double>(gates) /
             static_cast<double>(set->instances.size()),
         "count"},
        {"gf.field_setup_s", per("gf.field_setup_s"), "s"},
        {"gf.mul_ns", mul_ns, "ns"},
        {"gf.square_ns", square_ns, "ns"},
        {"abstraction.rato_sort_s", per("abstraction.rato_sort_s"), "s"},
        {"abstraction.reduction_chain_s", per("abstraction.reduction_chain_s"),
         "s"},
        {"abstraction.basis_change_s", per("abstraction.basis_change_s"), "s"},
        {"abstraction.case2_lift_s", per("abstraction.case2_lift_s"), "s"},
        {"abstraction.coefficient_match_s",
         per("abstraction.coefficient_match_s"), "s"},
        {"abstraction.substitutions", median(substitutions), "count"},
        {"abstraction.peak_terms", median(peak_terms), "count"},
        {"engine.self_s", per("engine.self_s"), "s"},
        {"util.deadline_overshoot_s",
         overshoots.empty()
             ? 0.0
             : *std::max_element(overshoots.begin(), overshoots.end()),
         "s"},
        {"trace_overhead_frac",
         untraced_verify_s > 0 ? traced_verify_s / untraced_verify_s - 1.0 : 0.0,
         "1"},
    };
    // Every traced second lands in one layer but the loop glue around the
    // calls; the cost model expects one substitution per gate.
    std::printf(
        "  trace accounting: layers %.6f s of %.6f s per traced verification "
        "(%zu traced); untraced verify_s %.6f s\n",
        accounted / n, traced_total / n, traced.size(), untraced_verify_s);
    std::printf("  cost model: %.0f substitutions for %.0f gates\n",
                median(substitutions),
                static_cast<double>(gates) /
                    static_cast<double>(set->instances.size()));
    if (!opt.spans.empty()) write_spans(opt.spans, span_records);
  }
  std::printf("  wrong_verdicts %llu count\n",
              static_cast<unsigned long long>(r.wrong));
  for (const Metric& m : r.metrics)
    std::printf("  %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  return r;
}

void print_json(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: verdict_bench --workload <mult163|linear283|mutants32> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n"
               "       [--small] [--invert-truth]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--small") {
      opt.small = true;
      continue;
    }
    if (arg == "--invert-truth") {
      opt.invert_truth = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      const gfa::Result<std::uint64_t> v = gfa::parse_u64(value);
      if (!v.ok()) return usage();
      opt.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const gfa::Result<double> v = gfa::parse_double(value, 0.0, 3600.0);
      if (!v.ok()) return usage();
      opt.seconds = *v;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--spans") {
      opt.spans = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();
  const std::vector<WorkloadSpec>& table =
      opt.small ? small_workloads() : workloads();
  const auto w = std::find_if(table.begin(), table.end(),
                              [&](const WorkloadSpec& s) {
                                return s.name == opt.workload;
                              });
  if (w == table.end()) return usage();
  const RunResult r = run_workload(*w, opt);
  print_json(r);
  return r.correct ? 0 : 1;
}
