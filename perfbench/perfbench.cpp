// advocat_perfbench — steady end-to-end and per-layer measurement of the
// verifier on fixed paper networks (see README.md in this directory).
//
//   advocat_perfbench --workload <name> --seconds <s> --trace <0|1>
//                     --out <result.json> [--smoke]
//   advocat_perfbench --rederive
//
// One process runs one workload as a closed loop on one thread: the units
// of a pass run one after the other, and passes repeat while another pass
// still fits in --seconds (at least one always runs). --trace 1 instead
// runs one untraced pass and one traced pass that times each layer's
// public entry point from outside the library.
//
// The result is one JSON object written to --out. stdout and stderr carry
// human-readable logs only (the library's analyzer prints a warning line
// per session there); nothing is ever parsed out of them.
//
// --rederive re-derives, with the Z3 backend, every expected value this
// file does not take from the paper (the MI-gem5 boundary capacities and
// the 3x3 Fig. 4 grid), and prints Z3 times on the benchmark's units.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "advocat/verifier.hpp"
#include "analysis/analyzer.hpp"
#include "automata/builder.hpp"
#include "coherence/mi_abstract.hpp"
#include "coherence/mi_gem5.hpp"
#include "deadlock/encoder.hpp"
#include "invariants/generator.hpp"
#include "proof_check.hpp"
#include "xmas/typing.hpp"

namespace {

using namespace advocat;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------------ expectations

/// Minimal uniform queue capacity of the Fig. 4 MI-abstract mesh with the
/// directory at `dir`. 2x2 is the paper's value (3 everywhere). The paper
/// has no 3x3 figure: 11 (outer rows) and 5 (middle row) are re-derived
/// with the Z3 backend by --rederive.
std::size_t fig4_expected(int k, int dir) {
  const int row = dir / k;
  const bool outer = row == 0 || row == k - 1;
  switch (k) {
    case 2: return 3;
    case 3: return outer ? 11 : 5;
    default: return 0;
  }
}

/// Minimal uniform queue capacity of the MI-gem5 mesh (Section 5), as
/// re-derived with the Z3 backend by --rederive.
std::size_t gem5_expected(int k) {
  switch (k) {
    case 2: return 2;
    case 3: return 7;
    default: return 0;
  }
}

// ---------------------------------------------------------------- networks

xmas::Network fig4_net(int k, int dir, std::size_t capacity) {
  coh::MiAbstractConfig config;
  config.width = k;
  config.height = k;
  config.directory_node = dir;
  config.queue_capacity = capacity;
  return std::move(coh::build_mi_abstract(config).net);
}

/// Fig. 3: the abstract MI protocol on the default 2x2 mesh.
xmas::Network fig3_net(std::size_t capacity) {
  coh::MiAbstractConfig config;
  config.queue_capacity = capacity;
  return std::move(coh::build_mi_abstract(config).net);
}

xmas::Network gem5_net(int k, std::size_t capacity) {
  coh::MiGem5Config config;
  config.width = k;
  config.height = k;
  config.queue_capacity = capacity;
  return std::move(coh::build_mi_gem5(config).net);
}

/// Fig. 1: automata S and T exchanging req/ack over queues q0 and q1 of
/// capacity 2, each automaton fed by a token source.
xmas::Network fig1_net() {
  xmas::Network net;
  auto& colors = net.colors();
  const xmas::ColorId req = colors.intern("req");
  const xmas::ColorId ack = colors.intern("ack");
  const xmas::ColorId tok_s = colors.intern("tokS");
  const xmas::ColorId tok_t = colors.intern("tokT");

  aut::AutomatonBuilder bs("S", {"s0", "s1"});
  bs.in_ports(2).out_ports(1).initial("s0");
  // port 0: network input (acks), port 1: token source.
  bs.on("s0", 1, tok_s).emit(0, req).go("s1").label("s0:req!");
  bs.on("s1", 0, ack).go("s0").label("s1:ack?");
  const xmas::PrimId s = net.add_automaton(bs.build());

  aut::AutomatonBuilder bt("T", {"t0", "t1"});
  bt.in_ports(2).out_ports(1).initial("t0");
  bt.on("t0", 0, req).go("t1").label("t0:req?");
  bt.on("t1", 1, tok_t).emit(0, ack).go("t0").label("t1:ack!");
  const xmas::PrimId t = net.add_automaton(bt.build());

  const xmas::PrimId q0 = net.add_queue("q0", 2);
  const xmas::PrimId q1 = net.add_queue("q1", 2);
  const xmas::PrimId src_s = net.add_source("srcS", {tok_s});
  const xmas::PrimId src_t = net.add_source("srcT", {tok_t});
  net.connect(s, 0, q0, 0);
  net.connect(q0, 0, t, 0);
  net.connect(t, 0, q1, 0);
  net.connect(q1, 0, s, 0);
  net.connect(src_s, 0, s, 1);
  net.connect(src_t, 0, t, 1);
  return net;
}

// ----------------------------------------------------------- pinned options
//
// Everything that selects the search is set here explicitly, so a library
// default that reads the environment never decides what is measured.

constexpr std::size_t kMaxCapacity = 256;

core::VerifyOptions pinned_verify(smt::Backend backend = smt::Backend::Native) {
  core::VerifyOptions o;
  o.backend = backend;
  o.threads = 1;
  o.deterministic = false;
  o.timeout_ms = 0;
  // Per check: a runaway probe degrades to Unknown (a failed unit)
  // instead of stalling the run or exhausting the host.
  o.budget.deadline_ms = 120'000;
  o.budget.max_memory_bytes = std::uint64_t{4} << 30;
  return o;
}

core::QueueSizingOptions pinned_sizing() {
  core::QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = kMaxCapacity;
  o.incremental = true;
  o.probe_threads = 1;
  o.verify = pinned_verify();
  o.budget.deadline_ms = 150'000;  // the whole sizing run
  return o;
}

// ------------------------------------------------------------ run tallies

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Wrong outputs: any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Remarks on the measurement that do not make the run incorrect.
  std::vector<std::string> notes;
  void wrong(std::string what) { errors.push_back(std::move(what)); }
  void note(std::string what) { notes.push_back(std::move(what)); }
};

/// One solver check of a sizing run: its verdict and solver wall time.
struct ProbeTime {
  smt::SatResult verdict;
  double solve_ms;
};

/// Per-layer accumulators of the traced pass.
class Layers {
 public:
  void add(const std::string& name, double v) { values_[name] += v; }
  void set(const std::string& name, double v) { values_[name] = v; }
  void max(const std::string& name, double v) {
    values_[name] = std::max(values_[name], v);
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// One solver check's wall time, split by verdict.
  void add_check(smt::SatResult verdict, double solve_ms, bool first) {
    add("solve.ms", solve_ms);
    if (first) add("solve.first_check_ms", solve_ms);
    if (verdict == smt::SatResult::Sat) add("solve.sat_ms", solve_ms);
    if (verdict == smt::SatResult::Unsat) add("solve.unsat_ms", solve_ms);
  }
  /// The checks of one sizing run, in probe order.
  void add_probes(const std::vector<ProbeTime>& probes) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      add_check(probes[i].verdict, probes[i].solve_ms, i == 0);
    }
  }
  /// A finished session's cumulative search counters.
  void add_session(const smt::SolveStats& s) {
    add("solve.conflicts", static_cast<double>(s.conflicts));
    add("solve.decisions", static_cast<double>(s.decisions));
    add("solve.propagations", static_cast<double>(s.propagations));
    add("solve.learned_hits", static_cast<double>(s.learned_hits));
    max("solve.peak_arena_mb", static_cast<double>(s.peak_arena_bytes) / kMiB);
  }

 private:
  std::map<std::string, double> values_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kLayerMetrics[] = {
    {"model.build_ms", "ms"},         {"analysis.ms", "ms"},
    {"analysis.warnings", "count"},   {"typing.ms", "ms"},
    {"invariants.ms", "ms"},          {"invariants.rows", "count"},
    {"encode.ms", "ms"},              {"encode.assertions", "count"},
    {"sizing.probes", "count"},       {"sizing.overhead_ms", "ms"},
    {"solve.ms", "ms"},               {"solve.first_check_ms", "ms"},
    {"solve.sat_ms", "ms"},           {"solve.unsat_ms", "ms"},
    {"solve.conflicts", "count"},     {"solve.decisions", "count"},
    {"solve.propagations", "count"},  {"solve.props_per_s", "1/s"},
    {"solve.conflicts_per_s", "1/s"}, {"solve.learned_hits", "count"},
    {"solve.peak_arena_mb", "MB"},
    {"proof.certs", "count"},         {"proof.mb", "MB"},
    {"proof.ms", "ms"},               {"proof.overhead_ratio", "ratio"},
    {"check.ms", "ms"},               {"check.steps", "count"},
    {"check.mb_per_s", "MB/s"},       {"witness.ms", "ms"},
    {"witness.states", "count"},      {"trace.overhead_ratio", "ratio"},
};

/// Times the front-end layers on `net` through their public entry points,
/// exactly as a Verifier session runs them before its first check.
void trace_front_end(const xmas::Network& net, bool invariants, bool symbolic,
                     Layers& layers) {
  auto t0 = Clock::now();
  const analysis::AnalysisResult ar = analysis::analyze(net);
  layers.add("analysis.ms", ms_since(t0));
  layers.add("analysis.warnings", static_cast<double>(ar.num_warnings()));

  t0 = Clock::now();
  const xmas::Typing typing = xmas::Typing::derive(net);
  layers.add("typing.ms", ms_since(t0));

  if (invariants) {
    t0 = Clock::now();
    const inv::InvariantSet set = inv::generate(net, typing);
    layers.add("invariants.ms", ms_since(t0));
    layers.add("invariants.rows",
               static_cast<double>(set.equalities.size() +
                                   set.inequalities.size()));
  }

  smt::ExprFactory factory;
  deadlock::EncoderOptions eopts;
  eopts.symbolic_capacities = symbolic;
  t0 = Clock::now();
  deadlock::Encoder encoder(net, typing, factory, eopts);
  const deadlock::Encoding enc = encoder.encode();
  layers.add("encode.ms", ms_since(t0));
  layers.add("encode.assertions",
             static_cast<double>(enc.all_assertions().size()));
}

// ----------------------------------------------------------- sizing ladder

using MakeNet = std::function<xmas::Network(std::size_t)>;

struct Ladder {
  std::vector<std::pair<std::size_t, smt::SatResult>> probes;
  double wall_ms = 0.0;  ///< session construction and every probe
};

/// A replica of the sequential incremental path of
/// core::find_minimal_queue_size through the public Verifier API, so that
/// every probe's VerifyResult is visible: one session built from
/// make_net(1), then per probe the candidate network, the probe_compatible
/// fingerprint and a check_with() binding every queue's capacity;
/// exponential probing up from 1, then binary search. The library also
/// merges the sizing budget's discrete ceilings into each probe's; the
/// pinned sizing budget has none, so the probes run with `vo` as given.
///
/// No timed unit runs it. It serves the untimed witness checks and the
/// traced per-probe timings, and the latter are only reported when its
/// probe sequence equals the library's. `on_probe(capacity, result,
/// check_ms)` sees each probe with the wall time of its check_with() call.
template <typename OnProbe>
Ladder run_ladder(const MakeNet& make_net, core::VerifyOptions vo,
                  OnProbe&& on_probe) {
  const auto start = Clock::now();
  Ladder out;
  vo.symbolic_capacities = true;
  core::Verifier session(make_net(1), vo);
  auto probe = [&](std::size_t capacity) {
    const xmas::Network candidate = make_net(capacity);
    if (!session.probe_compatible(candidate)) {
      throw std::logic_error("sizing network changed beyond its capacities");
    }
    core::CheckOverrides o;
    for (const xmas::PrimId q : candidate.prims_of_kind(xmas::PrimKind::Queue)) {
      o.queue_capacities.emplace_back(q, candidate.prim(q).capacity);
    }
    const auto t0 = Clock::now();
    const core::VerifyResult r = session.check_with(o);
    on_probe(capacity, r, ms_since(t0));
    out.probes.emplace_back(capacity, r.report.result);
    return r.report.result == smt::SatResult::Unsat;
  };
  std::size_t hi = 0;
  std::size_t last_bad = 0;
  std::size_t step = 1;
  for (std::size_t cap = 1; cap <= kMaxCapacity;) {
    if (probe(cap)) {
      hi = cap;
      break;
    }
    last_bad = cap;
    step *= 2;
    cap = cap + step > kMaxCapacity && cap != kMaxCapacity ? kMaxCapacity
                                                           : cap + step;
  }
  if (hi != 0) {
    std::size_t lo = last_bad + 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (probe(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
  }
  out.wall_ms = ms_since(start);
  return out;
}

double total_ms(const std::vector<ProbeTime>& probes) {
  double sum = 0.0;
  for (const ProbeTime& p : probes) sum += p.solve_ms;
  return sum;
}

// ---------------------------------------------------------------- workloads

struct Cell {
  int k;
  int dir;
};

std::string cell_name(const Cell& c) {
  return std::to_string(c.k) + "x" + std::to_string(c.k) + "/d" +
         std::to_string(c.dir);
}

/// The networks a sizing run of `c` asks for. Capacity 1, which the
/// session is built from and probed at first, is the cell's input network
/// from set-up; every other candidate is built on demand.
MakeNet sizing_nets(const Cell& c, const xmas::Network& input) {
  return [c, &input](std::size_t cap) {
    return cap == 1 ? input : fig4_net(c.k, c.dir, cap);
  };
}

std::size_t unsat_probes(
    const std::vector<std::pair<std::size_t, smt::SatResult>>& probes) {
  return static_cast<std::size_t>(
      std::count_if(probes.begin(), probes.end(), [](const auto& p) {
        return p.second == smt::SatResult::Unsat;
      }));
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's input networks (repeated; the last build stays).
  virtual void setup() = 0;
  [[nodiscard]] virtual std::size_t num_units() const = 0;
  /// Runs unit `i` once. Returns false when the unit failed: no definite
  /// verdict, or an output check that did not hold (recorded on `out`).
  virtual bool run_unit(std::size_t i, Outcome& out) = 0;
  /// Untimed checks after every pass, over the pass's results. They may
  /// count operations of their own, the same ones in every pass.
  virtual void check_pass(Outcome& /*out*/) {}
  /// Untimed checks made once per run, after the timed passes and after
  /// the run's peak memory was read.
  virtual void confirm(Outcome& /*out*/, Layers& /*layers*/) {}
  /// The traced pass, run after one untraced pass.
  virtual void traced_pass(Outcome& out, Layers& layers) = 0;
};

/// verify_native: one-shot core::verify() calls on the paper's networks.
class VerifyNative : public Workload {
 public:
  explicit VerifyNative(bool smoke) {
    using smt::SatResult;
    units_.push_back({"fig1/no-invariants", [] { return fig1_net(); }, false,
                      SatResult::Sat});
    units_.push_back(
        {"fig1/invariants", [] { return fig1_net(); }, true, SatResult::Unsat});
    units_.push_back(
        {"fig3/c2", [] { return fig3_net(2); }, true, SatResult::Sat});
    units_.push_back(
        {"fig3/c3", [] { return fig3_net(3); }, true, SatResult::Unsat});
    std::vector<std::pair<int, std::size_t>> gem5 = {{2, 1}, {2, 2}};
    // 4x4 at 12 is left out: one 5-6 s call per pass gives a run too few
    // samples to read steadily on a shared host (README.md).
    if (!smoke) gem5.insert(gem5.end(), {{3, 6}, {3, 7}});
    for (const auto& [k, cap] : gem5) {
      units_.push_back({"gem5/" + std::to_string(k) + "x" + std::to_string(k) +
                            "/c" + std::to_string(cap),
                        [k = k, cap = cap] { return gem5_net(k, cap); }, true,
                        cap < gem5_expected(k) ? SatResult::Sat
                                               : SatResult::Unsat});
    }
  }

  void setup() override {
    nets_.clear();
    for (const Unit& u : units_) nets_.push_back(u.build());
  }

  [[nodiscard]] std::size_t num_units() const override { return units_.size(); }

  bool run_unit(std::size_t i, Outcome& out) override {
    const core::VerifyResult r = core::verify(nets_[i], options(units_[i]));
    return check_verdict(units_[i], r.report.result, out);
  }

  /// Every deadlock verdict is replayed on the simulator: the decoded
  /// state must be genuinely blocked, with a minimal blocking queue set.
  void confirm(Outcome& out, Layers& layers) override {
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const Unit& u = units_[i];
      if (u.expected != smt::SatResult::Sat) continue;
      core::VerifyOptions vo = options(u);
      vo.witness_replay = true;
      core::Verifier session(nets_[i], vo);
      const auto t0 = Clock::now();
      const core::VerifyResult r = session.check();
      const double wall_ms = ms_since(t0);
      if (!check_verdict(u, r.report.result, out)) continue;
      if (!r.witness || !r.witness->blocked || !r.witness->minimal) {
        out.wrong(u.name + ": deadlock witness not confirmed by replay");
        continue;
      }
      layers.add("witness.ms", std::max(0.0, wall_ms - r.solve_seconds * 1000.0));
      layers.add("witness.states",
                 static_cast<double>(r.witness->states_explored));
    }
  }

  void traced_pass(Outcome& out, Layers& layers) override {
    for (const Unit& u : units_) {
      auto t0 = Clock::now();
      const xmas::Network net = u.build();
      layers.add("model.build_ms", ms_since(t0));
      trace_front_end(net, u.invariants, false, layers);
      const core::VerifyResult r = core::verify(net, options(u));
      check_verdict(u, r.report.result, out);
      layers.add_check(r.report.result, r.solve_seconds * 1000.0, true);
      layers.add_session(r.solve_stats);
    }
  }

 private:
  struct Unit {
    std::string name;
    std::function<xmas::Network()> build;
    bool invariants;
    smt::SatResult expected;
  };

  static core::VerifyOptions options(const Unit& u) {
    core::VerifyOptions vo = pinned_verify();
    vo.use_invariants = u.invariants;
    return vo;
  }

  static bool check_verdict(const Unit& u, smt::SatResult got, Outcome& out) {
    if (got == smt::SatResult::Unknown) return false;
    if (got != u.expected) {
      out.wrong(u.name + ": verdict " + smt::to_string(got) + ", expected " +
                smt::to_string(u.expected));
      return false;
    }
    return true;
  }

  std::vector<Unit> units_;
  std::vector<xmas::Network> nets_;
};

/// Certificate totals of one sizing run.
struct CertTotals {
  std::size_t certs = 0;
  std::size_t bytes = 0;
  std::size_t steps = 0;
  double proof_ms = 0.0;  ///< emission, as the certificates report it
  double check_ms = 0.0;  ///< validation by the checker library
};

/// Validates every certificate in-process as it arrives, with the library
/// behind advocat-check. Sessions here are sequential (threads = 1,
/// probe_threads = 1), so the sink is only ever called from one thread.
class CheckingSink : public smt::ProofSink {
 public:
  void on_unsat_certificate(const smt::Certificate& cert) override {
    ++totals.certs;
    totals.bytes += cert.text.size();
    totals.proof_ms += cert.proof_ms;
    const auto t0 = Clock::now();
    const proofcheck::CheckResult r = proofcheck::check_proof_text(cert.text);
    totals.check_ms += ms_since(t0);
    totals.steps += r.steps;
    if (!cert.complete) {
      rejected.push_back("incomplete certificate: " + cert.reason);
    } else if (!r.ok || r.mode != "native") {
      rejected.push_back("certificate rejected: " + r.reason + " " + r.detail);
    }
  }

  CertTotals totals;
  std::vector<std::string> rejected;
};

/// certify_native: core::find_minimal_queue_size on chosen 3x3 cells with
/// an in-memory proof sink that validates every certificate as it arrives,
/// and witness replay on.
///
/// QueueSizingResult does not carry the probes' witnesses, so after every
/// pass the replica re-runs each cell's sizing untimed with witness replay
/// on, and each Sat probe's replay counts as an operation of its own. In a
/// capacity-probing session the library decodes the witness against the
/// capacities of the network the session was built from (capacity 1), so
/// every Sat probe above capacity 1 comes back "inconsistent" and is
/// counted as failed; the same probes fail in every pass.
class CertifyNative : public Workload {
 public:
  explicit CertifyNative(bool smoke) {
    // One cell of each 3x3 minimal capacity: d3 (5) and d7 (11).
    cells_ = smoke ? std::vector<Cell>{{2, 0}, {2, 3}}
                   : std::vector<Cell>{{3, 3}, {3, 7}};
    results_.resize(cells_.size());
  }

  void setup() override {
    nets_.clear();
    for (const Cell& c : cells_) nets_.push_back(fig4_net(c.k, c.dir, 1));
  }

  [[nodiscard]] std::size_t num_units() const override { return cells_.size(); }

  bool run_unit(std::size_t i, Outcome& out) override {
    const Cell c = cells_[i];
    CheckingSink sink;
    core::QueueSizingOptions o = pinned_sizing();
    o.verify.proof_sink = &sink;
    o.verify.witness_replay = true;
    Certified& r = results_[i];
    r.sizing = core::find_minimal_queue_size(sizing_nets(c, nets_[i]), o);
    r.certs = sink.totals;

    bool ok = r.sizing.unknown_probes == 0;
    const std::size_t unsat = unsat_probes(r.sizing.probes);
    if (sink.totals.certs != unsat) {
      out.wrong(cell_name(c) + ": " + std::to_string(sink.totals.certs) +
                " certificates for " + std::to_string(unsat) + " unsat probes");
      ok = false;
    }
    for (const std::string& why : sink.rejected) {
      out.wrong(cell_name(c) + ": " + why);
      ok = false;
    }
    const std::size_t want = fig4_expected(c.k, c.dir);
    if (r.sizing.unknown_probes == 0 && r.sizing.minimal_capacity != want) {
      out.wrong(cell_name(c) + ": certified minimal capacity " +
                std::to_string(r.sizing.minimal_capacity) + ", expected " +
                std::to_string(want));
      ok = false;
    }
    return ok;
  }

  void check_pass(Outcome& out) override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell c = cells_[i];
      core::VerifyOptions vo = pinned_verify();
      vo.witness_replay = true;
      run_ladder(
          sizing_nets(c, nets_[i]), vo,
          [&](std::size_t cap, const core::VerifyResult& r, double) {
            if (r.report.result != smt::SatResult::Sat) return;
            ++out.attempted;
            const std::string where = cell_name(c) + " c" + std::to_string(cap);
            if (!r.witness) {
              out.wrong(where + ": no witness");
              ++out.failed;
            } else if (!r.witness->consistent && cap > 1) {
              ++out.failed;  // see the class comment
            } else if (!r.witness->blocked || !r.witness->minimal) {
              out.wrong(where + ": witness not blocked and minimal");
              ++out.failed;
            }
          });
    }
  }

  /// Counts and certificate figures come from the untraced pass's library
  /// runs. Per-probe timings come from the replica, run once certified
  /// (with witness replay) and once plain.
  void traced_pass(Outcome& out, Layers& layers) override {
    double certified_ms = 0.0;
    double plain_ms = 0.0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell c = cells_[i];
      const Certified& r = results_[i];
      const auto t0 = Clock::now();
      const xmas::Network net = fig4_net(c.k, c.dir, 1);
      layers.add("model.build_ms", ms_since(t0));
      trace_front_end(nets_[i], true, true, layers);
      layers.add("sizing.probes", static_cast<double>(r.sizing.probes.size()));
      layers.add_session(r.sizing.solve_stats);
      layers.add("proof.certs", static_cast<double>(r.certs.certs));
      layers.add("proof.mb", static_cast<double>(r.certs.bytes) / kMiB);
      layers.add("proof.ms", r.certs.proof_ms);
      layers.add("check.ms", r.certs.check_ms);
      layers.add("check.steps", static_cast<double>(r.certs.steps));

      CheckingSink sink;
      core::VerifyOptions vo = pinned_verify();
      vo.witness_replay = true;
      vo.proof_sink = &sink;
      std::vector<ProbeTime> certified;
      double witness_ms = 0.0;
      double witness_states = 0.0;
      double check_seen_ms = 0.0;
      const Ladder ladder = run_ladder(
          sizing_nets(c, nets_[i]), vo,
          [&](std::size_t, const core::VerifyResult& v, double check_ms) {
            // The solver check includes emitting the certificate and the
            // sink's validation of it; the latter is check.ms.
            const double solve_ms =
                v.solve_seconds * 1000.0 - (sink.totals.check_ms - check_seen_ms);
            check_seen_ms = sink.totals.check_ms;
            certified.push_back({v.report.result, solve_ms});
            if (v.witness && v.witness->replayed) {
              witness_ms += std::max(0.0, check_ms - v.solve_seconds * 1000.0);
              witness_states += static_cast<double>(v.witness->states_explored);
            }
          });
      std::vector<ProbeTime> plain;
      const Ladder plain_ladder = run_ladder(
          sizing_nets(c, nets_[i]), pinned_verify(),
          [&](std::size_t, const core::VerifyResult& v, double) {
            plain.push_back({v.report.result, v.solve_seconds * 1000.0});
          });
      if (ladder.probes != r.sizing.probes ||
          plain_ladder.probes != r.sizing.probes) {
        out.note(cell_name(c) + ": the replica's probes differ from "
                 "find_minimal_queue_size's; its timings are left out");
        continue;
      }
      layers.add_probes(certified);
      layers.add("sizing.overhead_ms", ladder.wall_ms - total_ms(certified) -
                                           sink.totals.check_ms);
      layers.add("witness.ms", witness_ms);
      layers.add("witness.states", witness_states);
      certified_ms += total_ms(certified);
      plain_ms += total_ms(plain);
    }
    layers.set("proof.overhead_ratio", ratio(certified_ms, plain_ms));
    layers.set("check.mb_per_s", ratio(layers.get("proof.mb"),
                                       layers.get("check.ms") / 1000.0));
  }

 private:
  struct Certified {
    core::QueueSizingResult sizing;
    CertTotals certs;
  };

  std::vector<Cell> cells_;
  std::vector<xmas::Network> nets_;
  std::vector<Certified> results_;
};

// ------------------------------------------------------------------ output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(v[i]);
  }
  return out + "]";
}

struct Result {
  Outcome outcome;
  std::vector<std::pair<MetricDef, double>> metrics;
  std::vector<double> pass_s;  ///< every timed pass, in run order

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (outcome.errors.empty() ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"pass_s\": [";
    for (std::size_t i = 0; i < pass_s.size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_number(pass_s[i]);
    }
    os << "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) os << ", ";
      os << json_string(metrics[i].first.name) << ": {\"value\": "
         << json_number(metrics[i].second)
         << ", \"unit\": " << json_string(metrics[i].first.unit) << "}";
    }
    os << "}, \"errors\": " << json_strings(outcome.errors)
       << ", \"notes\": " << json_strings(outcome.notes) << "}\n";
    return os.str();
  }
};

// ------------------------------------------------------------------ runner

// One build of a workload's inputs takes milliseconds, too short to read
// once: a set-up sample repeats the build until the sample has taken
// kSetupSampleMs, and set-up time is the median of kSetupSamples samples.
constexpr int kSetupSamples = 7;
constexpr double kSetupSampleMs = 60.0;

Result run(Workload& w, double seconds, bool trace) {
  Result res;
  Outcome& out = res.outcome;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    int builds = 0;
    double ms = 0.0;
    do {
      w.setup();
      ++builds;
      ms = ms_since(t0);
    } while (ms < kSetupSampleMs);
    setup_s.push_back(ms / 1000.0 / builds);
  }

  Layers layers;
  const auto start = Clock::now();

  const std::size_t n = w.num_units();
  std::vector<double> pass_s;
  std::vector<double> geomean_ms;
  auto run_pass = [&] {
    const auto t0 = Clock::now();
    double log_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto tu = Clock::now();
      bool ok = false;
      try {
        ok = w.run_unit(i, out);
      } catch (const std::exception& e) {
        out.wrong(std::string("unit threw: ") + e.what());
      }
      log_sum += std::log(ms_since(tu));
      ++out.attempted;
      if (!ok) ++out.failed;
    }
    pass_s.push_back(ms_since(t0) / 1000.0);
    geomean_ms.push_back(std::exp(log_sum / static_cast<double>(n)));
    w.check_pass(out);
  };

  if (!trace) {
    // Closed loop: another whole pass only while it still fits. A pass
    // with its untimed checks has taken elapsed / passes on average.
    double elapsed_s = 0.0;
    do {
      run_pass();
      elapsed_s = ms_since(start) / 1000.0;
    } while (elapsed_s + elapsed_s / static_cast<double>(pass_s.size()) <=
             seconds);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    w.confirm(out, layers);
    res.metrics = {
        {{"setup_s", "s"}, median(setup_s)},
        {{"pass_s", "s"}, median(pass_s)},
        {{"unit_geomean_ms", "ms"}, median(geomean_ms)},
        {{"peak_rss_mb", "MB"}, static_cast<double>(ru.ru_maxrss) / 1024.0},
    };
  } else {
    run_pass();
    const auto t0 = Clock::now();
    try {
      w.traced_pass(out, layers);
    } catch (const std::exception& e) {
      out.wrong(std::string("traced pass threw: ") + e.what());
    }
    const double traced_s = ms_since(t0) / 1000.0;
    layers.set("trace.overhead_ratio", ratio(traced_s, pass_s.front()));
    w.confirm(out, layers);
    const double solve_s = layers.get("solve.ms") / 1000.0;
    layers.set("solve.props_per_s",
               ratio(layers.get("solve.propagations"), solve_s));
    layers.set("solve.conflicts_per_s",
               ratio(layers.get("solve.conflicts"), solve_s));
    for (const MetricDef& m : kLayerMetrics) {
      res.metrics.emplace_back(m, layers.get(m.name));
    }
  }
  res.pass_s = pass_s;
  return res;
}

// ---------------------------------------------------------------- rederive

/// Re-derives with Z3 every expected value not taken from the paper, and
/// prints Z3 times on the benchmark's units. Exit status 1 on a mismatch.
int rederive() {
  if (!smt::backend_available(smt::Backend::Z3)) {
    std::fprintf(stderr, "perfbench: this build has no Z3 backend\n");
    return 3;
  }
  int mismatches = 0;
  auto report = [&](const std::string& what, const std::string& got,
                    const std::string& want, double seconds) {
    const bool ok = got == want;
    if (!ok) ++mismatches;
    std::printf("%-28s z3=%-8s expected=%-8s %9.3f s  %s\n", what.c_str(),
                got.c_str(), want.c_str(), seconds, ok ? "ok" : "MISMATCH");
    std::fflush(stdout);
  };
  auto verdict = [](const xmas::Network& net, bool invariants, double& s) {
    core::VerifyOptions vo = pinned_verify(smt::Backend::Z3);
    vo.use_invariants = invariants;
    vo.budget = {};
    const auto t0 = Clock::now();
    const core::VerifyResult r = core::verify(net, vo);
    s = ms_since(t0) / 1000.0;
    return std::string(smt::to_string(r.report.result));
  };

  double s = 0.0;
  std::string got = verdict(fig1_net(), false, s);
  report("fig1/no-invariants", got, "sat", s);
  got = verdict(fig1_net(), true, s);
  report("fig1/invariants", got, "unsat", s);
  for (const std::size_t cap : {2u, 3u}) {
    got = verdict(fig3_net(cap), true, s);
    report("fig3/c" + std::to_string(cap), got, cap == 2 ? "sat" : "unsat", s);
  }

  for (int k = 2; k <= 3; ++k) {
    for (int dir = 0; dir < k * k; ++dir) {
      core::QueueSizingOptions o = pinned_sizing();
      o.verify = pinned_verify(smt::Backend::Z3);
      o.verify.budget = {};
      o.budget = {};
      const auto t0 = Clock::now();
      const auto r = core::find_minimal_queue_size(
          [k, dir](std::size_t cap) { return fig4_net(k, dir, cap); }, o);
      report("fig4 " + cell_name({k, dir}) + " sizing",
             std::to_string(r.minimal_capacity),
             std::to_string(fig4_expected(k, dir)), ms_since(t0) / 1000.0);
    }
  }

  // A minimal capacity c is Sat at c - 1 and Unsat at c (larger queues
  // never add deadlocks in these protocols).
  for (int k = 2; k <= 3; ++k) {
    const std::size_t c = gem5_expected(k);
    got = verdict(gem5_net(k, c - 1), true, s);
    report("gem5/" + std::to_string(k) + "x" + std::to_string(k) + "/c" +
               std::to_string(c - 1),
           got, "sat", s);
    got = verdict(gem5_net(k, c), true, s);
    report("gem5/" + std::to_string(k) + "x" + std::to_string(k) + "/c" +
               std::to_string(c),
           got, "unsat", s);
  }
  std::printf("%s\n", mismatches == 0 ? "rederive: all expected values hold"
                                      : "rederive: MISMATCH");
  return mismatches == 0 ? 0 : 1;
}

// -------------------------------------------------------------------- main

/// Environment variables the library reads that would change the search or
/// add checking to the measured program.
constexpr const char* kPinnedEnv[] = {
    "ADVOCAT_THREADS",     "ADVOCAT_PARALLEL",   "ADVOCAT_DETERMINISTIC",
    "ADVOCAT_REDUCE_BASE", "ADVOCAT_REDUCE_INC", "ADVOCAT_AUDIT",
    "ADVOCAT_FAULTS",      "ADVOCAT_NATIVE_STATS",
};

int usage() {
  std::fprintf(stderr,
               "usage: advocat_perfbench --workload "
               "verify_native|certify_native --seconds S "
               "--trace 0|1 --out FILE [--smoke]\n"
               "       advocat_perfbench --rederive\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  bool rederive_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--rederive") {
      rederive_mode = true;
    } else {
      return usage();
    }
  }

  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "measured search or adds checking\n",
                   name);
      return 2;
    }
  }
  if (rederive_mode) return rederive();
  if (out_path.empty() || seconds <= 0.0) return usage();

  std::unique_ptr<Workload> w;
  if (workload == "verify_native") {
    w = std::make_unique<VerifyNative>(smoke);
  } else if (workload == "certify_native") {
    w = std::make_unique<CertifyNative>(smoke);
  } else {
    return usage();
  }

  const Result res = run(*w, seconds, trace);
  std::ofstream file(out_path);
  file << res.to_json();
  file.close();
  if (!file) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (const std::string& e : res.outcome.errors) {
    std::fprintf(stderr, "perfbench: WRONG: %s\n", e.c_str());
  }
  for (const std::string& n : res.outcome.notes) {
    std::fprintf(stderr, "perfbench: note: %s\n", n.c_str());
  }
  return 0;
}
